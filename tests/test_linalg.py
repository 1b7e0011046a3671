from fractions import Fraction

import numpy as np
import pytest

from partialiso import linalg
from partialiso import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Subspace,
    Tolerance,
    kron,
    nullspace,
    op_norm,
    op_norm_diff,
    orthonormal_range,
    projection_onto,
    truncated_shift,
    zero_subspace,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKron:
    def test_identity_times_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_identity_left_factor_is_block_diagonal(self):
        rng = np.random.default_rng(0)
        a = crandn(rng, 2, 2)
        out = kron(np.eye(2), a)
        np.testing.assert_allclose(out[:2, :2], a)
        np.testing.assert_allclose(out[2:, 2:], a)
        np.testing.assert_allclose(out[:2, 2:], 0)
        np.testing.assert_allclose(out[2:, :2], 0)

    def test_diag_twist_tensor_shift_expands_entrywise(self):
        # kron(diag(1, i), J_2): nonzero entries (1,0) -> 1 and (3,2) -> i
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 0] = 1.0
        expected[3, 2] = 1j
        got = kron(np.diag([1.0, 1j]), truncated_shift(2))
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_product_property(self, seed):
        rng = np.random.default_rng(seed)
        a, c = crandn(rng, 3, 2), crandn(rng, 2, 3)
        b, d = crandn(rng, 2, 4), crandn(rng, 4, 2)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        scale = op_norm(lhs)
        assert op_norm_diff(lhs, rhs) <= 1e-12 * max(scale, 1.0)


def _special_entries() -> np.ndarray:
    """A 7 x 7 complex matrix whose real and imaginary parts run over every pair of
    +-0.0, +-inf, nan, 1.0 and -1.5, signed zeros kept."""
    parts = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.5])
    z = np.empty((7, 7), dtype=complex)
    z.real, z.imag = np.meshgrid(parts, parts, indexing="ij")
    return z


def _kron_operands():
    rng = np.random.default_rng(2024)
    z = crandn(rng, 5, 6)
    special = _special_entries()
    return [
        ("complex", crandn(rng, 3, 2), crandn(rng, 2, 4)),
        ("real", rng.standard_normal((2, 3)), rng.standard_normal((3, 3))),
        ("integer", rng.integers(-5, 6, (3, 2)), rng.integers(-5, 6, (2, 2))),
        ("bool", rng.integers(0, 2, (2, 3)).astype(bool), rng.integers(0, 2, (3, 2)).astype(bool)),
        ("special-special", special, special.T),
        ("special-complex", special[:3], crandn(rng, 2, 2)),
        ("signed-zeros-identity", np.eye(2, dtype=complex), -special[:2, :2]),
        ("signed-zeros-identity-1x1", np.eye(1), -special[:2, :2]),
        ("empty-0x3", np.zeros((0, 3)), crandn(rng, 2, 2)),
        ("empty-3x0", crandn(rng, 2, 2), np.zeros((3, 0))),
        ("empty-both", np.zeros((0, 3)), np.zeros((3, 0))),
        ("1x1-left", np.array([[-0.0 - 1j]]), z),
        ("1x1-right", z, np.array([[1.0 + 0j]])),
        ("1x1-both", np.array([[np.inf + 0j]]), np.array([[-0.0 + 2j]])),
        ("transposes", z.T, z[:3, :2].T),
        ("strided-slices", z[::2, 1::3], z[1::2, ::-2]),
        ("special-strided", special[::3, ::2].T, special[1::2, ::3]),
    ]


class TestKronBitIdentity:
    """`kron` is the broadcast multiply of `np.kron` on the complex operands, bit for bit."""

    @pytest.mark.parametrize("a, b", [pytest.param(a, b, id=name) for name, a, b in _kron_operands()])
    def test_every_bit_equals_numpy_kron(self, a, b):
        # inf * 0 and inf - inf give nan, with numpy's invalid-value warning, on both sides
        with np.errstate(all="ignore"):
            got = kron(a, b)
            want = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        # and the bits == does not see: the signs of zeros, infinities and nans in both parts
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "a, b",
        [(np.ones(3), np.eye(2)), (np.eye(2), np.ones(3)), (np.array(2.0), np.eye(2)),
         (np.eye(2), np.array(1j)), (np.ones((2, 2, 2)), np.eye(2))],
        ids=["1d-left", "1d-right", "0d-left", "0d-right", "3d-left"],
    )
    def test_non_matrix_operand_raises(self, a, b):
        with pytest.raises(ValueError, match="kron takes matrices"):
            kron(a, b)


class TestOrthonormalRange:
    def test_identity(self):
        s = orthonormal_range(np.eye(3))
        assert s.dim == 3
        np.testing.assert_allclose(s.basis, np.eye(3), atol=1e-14)

    def test_single_column(self):
        s = orthonormal_range(np.array([[1.0], [1.0]]))
        assert s.dim == 1
        np.testing.assert_allclose(s.basis[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-14)

    def test_zero_matrix(self):
        assert orthonormal_range(np.zeros((4, 2))).dim == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_fixes_columns(self, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, 5, 3)
        proj = projection_onto(orthonormal_range(a))
        assert op_norm_diff(proj @ proj, proj) <= 1e-10
        assert op_norm_diff(proj, proj.conj().T) <= 1e-10
        assert op_norm(proj @ a - a) <= 1e-8 * op_norm(a)

    def test_phase_convention_makes_leading_entry_positive_real(self):
        rng = np.random.default_rng(3)
        a = crandn(rng, 6, 4)
        basis = orthonormal_range(a).basis
        for k in range(basis.shape[1]):
            col = basis[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-12


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace(np.eye(2)).dim == 0

    def test_zero_matrix_has_full_nullspace(self):
        s = nullspace(np.zeros((2, 2)))
        assert s.dim == 2

    def test_adjoint_shift_kills_first_basis_vector(self):
        s = nullspace(truncated_shift(2).conj().T)
        assert s.dim == 1
        np.testing.assert_allclose(s.basis[:, 0], [1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_orthogonal_to_row_space(self, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, 4, 6)
        p_null = projection_onto(nullspace(a))
        p_rows = projection_onto(orthonormal_range(a.conj().T))
        assert op_norm(p_null @ p_rows) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_nullity(self, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, 5, 7)
        assert nullspace(a).dim + orthonormal_range(a).dim == 7

    @pytest.mark.parametrize("seed", range(8))
    def test_tall_input_matches_the_full_factorization(self, seed):
        # four blocks sharing one rank-5 row space: a 24 x 9 system of rank 5
        rng = np.random.default_rng(seed)
        rows = crandn(rng, 5, 9)
        a = np.vstack([crandn(rng, 6, 5) @ rows for _ in range(4)])
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        rank = int(np.sum(s > DEFAULT_TOL.rank_eps * max(s[0], 1.0)))
        full_basis = vh[rank:].conj().T
        got = nullspace(a)
        assert got.dim == 9 - rank == 4
        np.testing.assert_allclose(projection_onto(got), full_basis @ full_basis.conj().T, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_input_keeps_its_full_kernel(self, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, 3, 8)
        got = nullspace(a)
        assert got.dim == 5
        assert op_norm(a @ got.basis) <= 1e-12


class TestProjectionOnto:
    def test_zero_subspace(self):
        np.testing.assert_allclose(projection_onto(zero_subspace(2)), np.zeros((2, 2)))

    def test_full_space(self):
        s = orthonormal_range(np.eye(2))
        np.testing.assert_allclose(projection_onto(s), np.eye(2), atol=1e-14)

    def test_diagonal_line(self):
        basis = np.array([[1.0], [1.0]]) / np.sqrt(2)
        s = Subspace(2, basis)
        np.testing.assert_allclose(projection_onto(s), np.full((2, 2), 0.5), atol=1e-14)


class TestOpNorm:
    def test_diff_of_equal_is_zero(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 3, 3)
        assert op_norm_diff(a, a) == 0.0

    def test_identity_versus_zero(self):
        assert op_norm_diff(np.eye(2), np.zeros((2, 2))) == pytest.approx(1.0)

    def test_diagonal_difference(self):
        assert op_norm_diff(np.diag([3.0, 1.0]), np.diag([1.0, 1.0])) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            op_norm_diff(np.eye(2), np.eye(3))


def _op_norm_operands():
    rng = np.random.default_rng(2029)
    z = crandn(rng, 9, 8)
    x, y = crandn(rng, 6, 1), crandn(rng, 1, 6)
    signed = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.5], [-2.0, 0.0, -0.0]])
    return [
        ("complex", crandn(rng, 7, 5)),
        ("real", rng.standard_normal((6, 6))),
        ("integer", rng.integers(-5, 6, (4, 3))),
        ("bool", rng.integers(0, 2, (5, 5)).astype(bool)),
        ("transposed", z.T),
        ("adjoint", z.conj().T),
        ("strided", z[::2, 1::3]),
        ("reversed", z[::-1, ::-2]),
        ("1x1", np.array([[3.0 - 4.0j]])),
        ("rank-one", x @ y),
        ("rank-deficient", crandn(rng, 8, 3) @ crandn(rng, 3, 8)),
        ("zero", np.zeros((3, 3), dtype=complex)),
        ("signed-zeros", signed),
        ("signed-zeros-complex", signed - 0.0j * signed),
        ("negative-zero-only", np.full((2, 2), -0.0 - 0.0j)),
        ("empty-0x4", np.zeros((0, 4), dtype=complex)),
        ("empty-4x0", np.zeros((4, 0))),
        ("vector", crandn(rng, 7)),
        ("real-vector", rng.standard_normal(5)),
    ]


class TestOpNormBitIdentity:
    """`op_norm` is ``np.linalg.norm(a, 2)`` bit for bit: the same SVD, its first value."""

    @pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _op_norm_operands()])
    def test_every_bit_equals_numpy_norm(self, a):
        got, want = op_norm(a), np.linalg.norm(a, 2)
        assert type(got) is float
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want, dtype=float).view(np.uint64))

    def test_a_nan_entry_raises_the_same_error(self):
        a = np.eye(3, dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as numpy_error:
            np.linalg.norm(a, 2)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            op_norm(a)
        assert str(ours.value) == str(numpy_error.value)


def _frobenius_cases():
    rng = np.random.default_rng(2031)
    for d in (1, 3, 8, 16):
        a = crandn(rng, d, d)
        for scale in (0, -532, 532):
            b = a * 2.0**scale
            yield pytest.param(b, id=f"d={d}-2^{scale}")
            yield pytest.param(b.T, id=f"d={d}-2^{scale}-transposed")
    # entries of very different sizes, so that some squares underflow
    yield pytest.param(np.diag([1e-200, 1.0, 3e-170]).astype(complex), id="mixed-underflow")
    yield pytest.param(np.diag([1e-160, 2e-160, 0.0]), id="all-tiny")
    yield pytest.param(np.diag([1e160, 3e159, 0.0]), id="all-huge")


class TestFrobenius:
    """`_frobenius` is within its documented relative (d² + 4)u of the exact norm."""

    @pytest.mark.parametrize("a", list(_frobenius_cases()))
    def test_within_the_documented_bound(self, a):
        d = max(a.shape)
        f = linalg._frobenius(a)
        exact_squares = sum(Fraction(float(x)) ** 2 for x in np.concatenate([a.real.ravel(), a.imag.ravel()]))
        # sqrt(exact_squares) lies in [f / (1 + r), f (1 + r)], compared in exact rationals
        r = Fraction((d * d + 4)) * Fraction(2.0**-53)
        assert Fraction(f) ** 2 / (1 + r) ** 2 <= exact_squares <= Fraction(f) ** 2 * (1 + r) ** 2

    def test_zero_is_zero(self):
        assert linalg._frobenius(np.zeros((4, 4), dtype=complex)) == 0.0

    @pytest.mark.parametrize("k", range(7))
    def test_an_entry_that_is_not_finite_gives_the_largest_modulus(self, k):
        # each entry of a row of `_special_entries` in a finite matrix: inf where its modulus is
        # inf, NaN where it is NaN, as the rescaled branch returns that modulus
        special = _special_entries()
        rng = np.random.default_rng(k)
        for z in special[k]:
            for a in (crandn(rng, 4, 4), crandn(rng, 4, 4).T):
                a[1, 2] = z
                with np.errstate(all="ignore"):
                    f = linalg._frobenius(a)
                    largest = np.abs(a).max()
                if np.isfinite(largest):
                    assert f == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)), rel=1e-14)
                else:
                    assert np.array_equal(np.array(f), np.array(largest), equal_nan=True)


def _max_op_norm_terms():
    """Lists of terms: growing, equal, scaled to the ends of the Gram bound's range, rank one, rectangular."""
    rng = np.random.default_rng(7)
    base = [crandn(rng, 24, 24) for _ in range(40)]
    yield pytest.param([(1.0 + 0.01 * k) * a for k, a in enumerate(base)], id="growing")
    yield pytest.param([(1.0 - 0.01 * k) * a for k, a in enumerate(base)], id="shrinking")
    yield pytest.param([base[0]] * 20, id="repeated")
    for power in (-400, -880, -950, 200, 880, 950):
        scale = 2.0**power
        yield pytest.param([scale * (1.0 + 0.01 * k) * a for k, a in enumerate(base[:20])], id=f"scaled-2^{power}")
    x, y = crandn(rng, 24, 1), crandn(rng, 1, 24)
    yield pytest.param([(1.0 + 2.0**-40 * k) * (x @ y) for k in range(20)], id="rank-one")
    tall_and_wide = [crandn(rng, 30, 8) for _ in range(10)] + [crandn(rng, 8, 30) for _ in range(10)]
    yield pytest.param(tall_and_wide, id="tall-and-wide")
    yield pytest.param([np.zeros((5, 5)), np.zeros((0, 3)), np.zeros((5, 5))], id="zeros")


class TestMaxOpNorm:
    """`_max_op_norm` must give the float of ``max(op_norm(a) for a in terms)``."""

    # beyond 2^500 the Frobenius norm's squares overflow before `_frobenius` rescales them
    @pytest.mark.parametrize("terms", list(_max_op_norm_terms()))
    def test_bit_identical_to_the_unscreened_maximum(self, terms):
        with np.errstate(over="ignore"):
            assert linalg._max_op_norm(iter(terms)) == max(map(op_norm, terms))

    @pytest.mark.parametrize("terms", list(_max_op_norm_terms()))
    def test_gram_power_bound_is_an_upper_bound(self, terms):
        for a in terms:
            with np.errstate(over="ignore"):
                f = linalg._frobenius(a)
            if f > 0.0:
                assert op_norm(a) <= linalg._gram_power_bound(a, f) * (1.0 + linalg._BOUND_SLACK)

    def test_no_terms_give_zero(self):
        assert linalg._max_op_norm([]) == 0.0

    @pytest.mark.parametrize(
        "terms",
        [
            pytest.param([np.zeros((0, 0))], id="one-empty"),
            pytest.param([np.zeros((4, 4))], id="one-zero"),
            pytest.param([crandn(np.random.default_rng(5), 6, 6)], id="one"),
            pytest.param([np.diag([2.0**-1074, 0.0])], id="one-subnormal"),
            pytest.param([crandn(np.random.default_rng(5), 6, 3), crandn(np.random.default_rng(6), 3, 6)], id="two"),
            pytest.param([np.array([[np.inf, 0.0], [0.0, 1.0]])], id="one-inf"),
            pytest.param([np.full((3, 3), np.inf)], id="one-all-inf"),
            pytest.param([np.array([[np.nan, 0.0], [0.0, 1.0]])], id="one-nan"),
        ],
    )
    def test_few_terms_give_the_unscreened_maximum(self, terms):
        # a lone term goes through the screen too: its float, NaN or LinAlgError is that of its op_norm
        def outcome(f):
            try:
                value = f()
            except np.linalg.LinAlgError:
                return "LinAlgError"
            return "nan" if np.isnan(value) else value.hex()

        with np.errstate(invalid="ignore"):
            expected = outcome(lambda: max(map(op_norm, terms)))
            assert outcome(lambda: linalg._max_op_norm(iter(terms))) == expected

    def test_growing_terms_take_few_svds_and_hold_few_matrices(self, monkeypatch):
        rng = np.random.default_rng(3)
        base = crandn(rng, 16, 16)
        svds = []
        monkeypatch.setattr(linalg, "op_norm", lambda a: svds.append(1) or op_norm(a))
        screened = linalg._ScreenedMax()
        for k in range(100):
            assert screened.add((1.0 + 0.01 * k) * base)
            assert len(screened._pending) < linalg._PENDING
        assert screened.settle() == op_norm(1.99 * base)
        # seven waiting lists (six full, then four terms), each settled by the SVD of its
        # largest term and, twice, the runner-up's
        assert len(svds) == 9

    def test_a_non_finite_term_takes_the_unscreened_path(self):
        a = np.eye(3)
        inf_term = np.full((3, 3), np.inf)
        nan_term = np.full((3, 3), np.nan)
        with np.errstate(invalid="ignore"):
            # as max() does: NaN first stays, NaN later is passed over
            assert np.isnan(linalg._max_op_norm([inf_term, a]))
            assert linalg._max_op_norm([a, inf_term]) == 1.0
            with pytest.raises(np.linalg.LinAlgError):
                linalg._max_op_norm([a, 2 * a, nan_term])


class TestToleranceAndSubspace:
    def test_tolerance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(eps=0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan, -np.inf, -1e-9])
    def test_tolerance_rejects_what_is_not_positive_and_finite(self, eps):
        # an infinite eps would pass every gate: a tuple scaled by 1e100 would verify
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerance(eps=eps)

    def test_tolerance_accepts_the_largest_finite_eps(self):
        assert Tolerance(eps=np.finfo(float).max).eps == np.finfo(float).max

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_norm_gate_rejects_non_finite_before_any_svd(self, bad, monkeypatch):
        def no_svd(a):
            raise AssertionError("op_norm called on a matrix that is not finite")

        monkeypatch.setattr(linalg, "op_norm", no_svd)
        assert not linalg._norm_within(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0)

    def test_rank_cutoff_tracks_eps(self):
        assert Tolerance(eps=2e-9).rank_eps == 2e-10

    def test_default_tolerance_values(self):
        assert DEFAULT_TOL.eps == 1e-9
        assert DEFAULT_TOL.rank_eps == 1e-10

    def test_subspace_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_subspace_is_valid(self):
        assert zero_subspace(3).dim == 0
