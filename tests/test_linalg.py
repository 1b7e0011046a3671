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


class TestToleranceAndSubspace:
    def test_tolerance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(eps=0.0)

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
