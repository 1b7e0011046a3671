import re
import warnings

import numpy as np
import pytest

from partialiso import (
    ModelSpec,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    clock_shift_unitaries,
    conjugate_tuple,
    diag_twist,
    direct_sum_tuples,
    haar_unitary,
    is_partial_isometry,
    is_power_partial_isometry,
    kron,
    op_norm,
    op_norm_diff,
    permute_tuple,
    power_isometry_residual,
    random_commuting_unitaries,
    random_model_spec,
    truncated_shift,
    verify_twisted,
)
from partialiso.linalg import _norm_within, adjoint
from partialiso.operators import _Growth, _relation_rows, _unitary_within, unitarity_residual
from conftest import (
    non_power_partial_isometry_3d,
    perturbed_tuple,
    random_hw_instance,
    random_scrambled_model,
    unscreened_power_residuals,
)


class TestTruncatedShift:
    def test_order_one_is_zero(self):
        np.testing.assert_allclose(truncated_shift(1), [[0.0]])

    def test_order_two(self):
        np.testing.assert_allclose(truncated_shift(2), [[0, 0], [1, 0]])

    @pytest.mark.parametrize("p", range(1, 9))
    def test_nilpotency_order(self, p):
        j = truncated_shift(p)
        assert op_norm(np.linalg.matrix_power(j, p)) == 0.0
        if p > 1:
            assert op_norm(np.linalg.matrix_power(j, p - 1)) > 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            truncated_shift(0)


class TestDiagTwist:
    def test_scalar_symbol_on_one_slot(self):
        out = diag_twist([2], 1, [[1j]], 1)
        np.testing.assert_allclose(out, np.diag([1.0, 1j]))

    def test_identity_symbol_gives_identity(self):
        out = diag_twist([3], 1, np.eye(4), 4)
        np.testing.assert_allclose(out, np.eye(12))

    def test_second_slot_of_two(self):
        u = random_commuting_unitaries(3, 1, seed=5)[0]
        out = diag_twist([2, 2], 2, u, 3)
        inner = np.zeros((6, 6), dtype=complex)
        inner[:3, :3] = np.eye(3)
        inner[3:, 3:] = u
        np.testing.assert_allclose(out, kron(np.eye(2), inner), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_swaps_symbol(self, seed):
        u = random_commuting_unitaries(2, 1, seed)[0]
        a = diag_twist([3, 2], 1, u, 2)
        b = diag_twist([3, 2], 1, u.conj().T, 2)
        assert op_norm_diff(a.conj().T, b) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_commuting_symbols_commute(self, seed):
        u, v = random_commuting_unitaries(2, 2, seed)
        a = diag_twist([2, 3], 1, u, 2)
        b = diag_twist([2, 3], 2, v, 2)
        assert op_norm(a @ b - b @ a) <= 1e-12

    def test_slot_shift_commutes_with_other_slot_twist(self):
        u = random_commuting_unitaries(2, 1, 9)[0]
        d = diag_twist([2, 3], 2, u, 2)
        j1 = kron(kron(truncated_shift(2), np.eye(3)), np.eye(2))
        assert op_norm(j1 @ d - d @ j1) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_shift_adjoint_twist_exchange(self, seed):
        # J* d[U] = (1 x U) d[U] J* on the twisted slot
        u = random_commuting_unitaries(3, 1, seed)[0]
        p_list = [3, 2]
        d = diag_twist(p_list, 1, u, 3)
        j = kron(kron(truncated_shift(3), np.eye(2)), np.eye(3))
        lift = kron(np.eye(6), u)
        assert op_norm(j.conj().T @ d - lift @ d @ j.conj().T) <= 1e-12

    def test_rejects_non_unitary_symbol(self):
        with pytest.raises(ValueError):
            diag_twist([2], 1, [[0.5]], 1)

    def test_rejects_bad_slot_index(self):
        with pytest.raises(ValueError):
            diag_twist([2], 2, [[1.0]], 1)

    def test_rejects_an_overflowing_symbol_without_a_warning(self):
        # U*U overflows to inf and U*U - I holds a NaN: the unitarity gate refuses both quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary at tolerance"):
                diag_twist([1], 1, [[1e308]])


class TestPartialIsometryPredicates:
    def test_zero_matrix_is_partial_isometry(self):
        ok, residual = is_partial_isometry(np.zeros((3, 3)))
        assert ok and residual == 0.0

    def test_truncated_shift_is_partial_isometry(self):
        ok, _ = is_partial_isometry(truncated_shift(2))
        assert ok

    def test_contraction_is_not(self):
        ok, residual = is_partial_isometry(np.diag([1.0, 0.5]))
        assert not ok
        assert residual == pytest.approx(0.375)

    @pytest.mark.parametrize("seed", range(1000))
    def test_agrees_with_initial_projection_criterion(self, seed):
        # V V* V = V iff V* V is an orthogonal projection
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        kind = rng.random()
        if kind < 0.4:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, _, vh = np.linalg.svd(z)
            singulars = (rng.random(d) < 0.6).astype(float)
            v = u @ np.diag(singulars) @ vh
        elif kind < 0.7:
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        else:
            v = haar_unitary(d, rng)
        ok, _ = is_partial_isometry(v)
        vv = v.conj().T @ v
        oracle = op_norm(vv @ vv - vv) <= 1e-9
        assert ok == oracle

    def test_unitary_is_power_partial_isometry(self):
        ok, failing = is_power_partial_isometry(haar_unitary(4, 3))
        assert ok and failing is None

    @pytest.mark.parametrize("p", range(1, 7))
    def test_truncated_shifts_are_power_partial_isometries(self, p):
        ok, _ = is_power_partial_isometry(truncated_shift(p))
        assert ok

    def test_counterexample_fails_at_power_two(self):
        ok, failing = is_power_partial_isometry(non_power_partial_isometry_3d())
        assert not ok
        assert failing == 2


def _perturbed(v, size, rng):
    """V plus a complex Gaussian matrix of spectral norm ``size``."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return v + size * g / np.linalg.norm(g, 2)


def _perturbed_haar(d, size):
    rng = np.random.default_rng(d)
    return _perturbed(haar_unitary(d, rng), size, rng)


def _scrambled_nilpotent(p, m, seed):
    """J_p x I_m conjugated by a Haar unitary."""
    w = haar_unitary(p * m, seed)
    return w @ kron(truncated_shift(p), np.eye(m)) @ w.conj().T


def _screening_inputs():
    for seed in range(150):
        yield f"hw-{seed}", random_hw_instance(seed)[0]
    for seed in range(40):
        t = build_model_tuple(random_model_spec(seed))
        if t.dim <= 64:
            hidden = conjugate_tuple(t, haar_unitary(t.dim, seed))
            for k, (v, w) in enumerate(zip(t.ops, hidden.ops), 1):
                yield f"spec-{seed}-op{k}", v
                yield f"spec-{seed}-op{k}-scrambled", w
    yield "negative-3d", non_power_partial_isometry_3d()
    for d in (16, 64, 128):
        for size in (1e-11, 1e-10, 5e-10):
            yield f"haar-{d}-{size}", _perturbed_haar(d, size)
    # ladder-sized operators, where the walk ends early
    for p in (6, 7, 8):
        t = build_twisted_shift_pair(p, np.exp(0.7j))
        for k, v in enumerate(conjugate_tuple(t, haar_unitary(t.dim, p)).ops, 1):
            yield f"example43-{p}-op{k}-scrambled", v
    for seed, n_ops in ((9, 3), (49, 4)):
        t = build_model_tuple(random_model_spec(seed, n_ops=n_ops))
        assert t.dim in (72, 96)
        for k, v in enumerate(conjugate_tuple(t, haar_unitary(t.dim, seed)).ops, 1):
            yield f"spec-{seed}-d{t.dim}-op{k}-scrambled", v
    # never cut short: the first fails the guard, the second keeps its norm
    yield "1.001-nilpotent", 1.001 * _scrambled_nilpotent(4, 6, 1)
    yield "haar-scaled", (1.0 + 1e-10) * haar_unitary(48, 2)
    # the underflow term: every product is subnormal or zero from V^2 on
    yield "1e-170-nilpotent", 1e-170 * _scrambled_nilpotent(3, 5, 3)
    for size in (1e-11, 1e-10, 1e-9):
        yield f"nilpotent-{size}", _perturbed(_scrambled_nilpotent(5, 8, 4), size, 5)
    # unitary parts, whose rounding residual grows with every power, so the
    # Gram-power bound and the waiting terms decide; scaled, the bound's own
    # products would underflow (2^-400) or overflow (2^200) unscaled, and the
    # walk of the 2^200 copies overflows at V^2
    for name, v in _unitary_part_operators():
        for scale, tag in ((1.0, ""), (2.0**-400, "-2^-400"), (2.0**200, "-2^200")):
            yield f"{name}{tag}", scale * v
    # a residual of rank one, where the Gram-power bound is nearly the spectral norm
    yield "rank-one-64", np.diag([1.0] * 63 + [1.0 + 2.0**-30]).astype(complex)
    w = haar_unitary(64, 8)
    yield "rank-one-64-scrambled", w @ np.diag([1.0] * 63 + [1.0 + 2.0**-30]) @ w.conj().T
    yield "non-finite-power", 1e100 * haar_unitary(8, 9)


def _unitary_part_operators():
    """The unitary-slot operators of two model tuples at d = 64 and 96, scrambled by a seed-d Haar unitary."""
    u, twist = random_commuting_unitaries(16, 2, 64)
    d64 = ModelSpec(slot_kinds=[4, "u"], aux_dim=16, twist_data={(1, 2): twist}, slot_unitaries={2: u})
    for spec in (d64, random_model_spec(49, n_ops=4)):
        t = build_model_tuple(spec)
        yield f"unitary-slot-d{t.dim}", conjugate_tuple(t, haar_unitary(t.dim, t.dim)).ops[-1]


def _stated_growth(v, n, vp):
    """Steps 1, 2 and 5 of the `power_isometry_residual` proof, as its docstring states them:
    (c, a) with c None and a inf where the guard fails, a 0.0 where V^n is exactly zero."""
    d = v.shape[0]
    u = 2.0**-53
    gamma, mu, rho = 4 * (d + 2) * u, 16 * d * d * 2.0**-1074, 2 * (d * d + d + 8) * u
    f = (1 + rho) ** 2 * np.sqrt(np.vdot(v, v).real + mu)
    residual = v @ v.conj().T @ v - v
    t = (1 + rho) ** 2 * np.sqrt(np.vdot(residual, residual).real + mu)
    c = None
    if t <= 2e-8:
        c = 1 + (t * (1 + 2 * u) + 3 * gamma * f**3 + 2 * mu * (1 + f)) / 2 + gamma * f
    squares = np.vdot(vp, vp).real
    if squares == 0.0 and not vp.any():
        return c, 0.0
    if c is None:
        return c, np.inf
    k = d + 1 - n
    return c, ((1 + rho) ** 2 * np.sqrt(squares + mu) + k * mu) * c**k


class TestGrowthBound:
    """`_Growth` is the bound its proof states, term for term, on operators where each
    term that rounding leaves visible moves the result."""

    @pytest.mark.parametrize("name", ["example43", "tiny-nilpotent", "unitary", "guard-fails", "zero"])
    def test_growth_is_the_stated_bound(self, name):
        t = build_twisted_shift_pair(3, np.exp(0.7j))
        v = {
            "example43": lambda: conjugate_tuple(t, haar_unitary(t.dim, 3)).ops[0],
            "tiny-nilpotent": lambda: 1e-165 * conjugate_tuple(t, haar_unitary(t.dim, 3)).ops[0],
            "unitary": lambda: haar_unitary(12, 4) * (1 + 1e-12),
            "guard-fails": lambda: haar_unitary(12, 4) * (1 + 1e-6),
            "zero": lambda: np.zeros((4, 4), dtype=complex),
        }[name]()
        growth = _Growth(v, v @ v.conj().T @ v - v)
        vp = v
        for n in range(1, v.shape[0] + 2):
            c, a = _stated_growth(v, n, vp)
            assert growth.c == c
            assert growth.later(n, vp) == a, n
            vp = vp @ v


class TestScreenedPowerLadder:
    """The norm-bound screening must not change any value or verdict.

    The oracle is the unscreened loop: one spectral norm per power.
    """

    @pytest.fixture(scope="class")
    def cases(self):
        return [(name, v, unscreened_power_residuals(v)) for name, v in _screening_inputs()]

    def test_worst_residual_is_bit_identical(self, cases):
        for name, v, residuals in cases:
            assert power_isometry_residual(v) == max([0.0, *residuals]), name

    def test_verdict_and_first_failing_power_agree(self, cases):
        for name, v, residuals in cases:
            failing = [n for n, r in enumerate(residuals, 1) if r > 1e-9]
            expected = (False, failing[0]) if failing else (True, None)
            assert is_power_partial_isometry(v) == expected, name

    def test_slow_drift_fails_late_not_early(self):
        # residuals of a perturbed unitary grow with the power, so these
        # cross eps far beyond the point where the ranks have settled
        for d in (64, 128):
            ok, failing = is_power_partial_isometry(_perturbed_haar(d, 1e-10))
            assert not ok and failing >= 30
        assert is_power_partial_isometry(_perturbed_haar(64, 1e-11)) == (True, None)


@pytest.mark.filterwarnings("error")
class TestNonFinitePowers:
    """V^n V^n* overflows for an entry of 1e200, so the residual is not finite."""

    def test_residual_is_infinite(self):
        assert power_isometry_residual(np.diag([1e200, 0.0])) == np.inf

    def test_first_power_fails_without_an_svd_error(self):
        assert is_power_partial_isometry(np.diag([1e200, 0.0])) == (False, 1)

    def test_partial_isometry_check_returns_an_infinite_residual(self):
        assert is_partial_isometry(np.diag([1e200, 0.0])) == (False, np.inf)


@pytest.mark.parametrize("check", [power_isometry_residual, is_power_partial_isometry])
class TestPowerChecksRefuseNonOperators:
    @pytest.mark.parametrize("v", [np.zeros((2, 3)), np.ones((2, 3))], ids=["zeros", "ones"])
    def test_non_square_input(self, check, v):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check(v)

    def test_non_finite_entries(self, check):
        with pytest.raises(ValueError, match="non-finite"):
            check(np.diag([np.nan, 1.0]))


class TestTwistedShiftPair:
    def test_passes_verification(self):
        t = build_twisted_shift_pair(2, 1j)
        assert t.dim == 8
        report = verify_twisted(t)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_order_one_gives_zero_operators(self):
        t = build_twisted_shift_pair(1, np.exp(0.7j))
        for op in t.ops:
            assert op_norm(op) == 0.0

    def test_trivial_twist_is_star_commuting(self):
        t = build_twisted_shift_pair(2, 1.0)
        v1, v2 = t.ops
        assert op_norm(v1 @ v2 - v2 @ v1) <= 1e-12
        assert op_norm(v1.conj().T @ v2 - v2 @ v1.conj().T) <= 1e-12
        np.testing.assert_allclose(t.twists[(1, 2)], np.eye(8))

    def test_rejects_non_unimodular_lambda(self):
        with pytest.raises(ValueError):
            build_twisted_shift_pair(2, 0.5)


class TestModelSpec:
    def test_single_shift_slot_is_plain_truncated_shift(self):
        t = build_model_tuple(ModelSpec(slot_kinds=[2], aux_dim=1))
        assert t.n_ops == 1
        np.testing.assert_allclose(t.ops[0], truncated_shift(2))

    def test_shift_and_unitary_slot_example(self):
        u12 = np.diag([1.0, -1.0]).astype(complex)
        spec = ModelSpec(
            slot_kinds=[2, "u"],
            aux_dim=2,
            twist_data={(1, 2): u12},
            slot_unitaries={2: np.diag([1j, -1j])},
        )
        t = build_model_tuple(spec)
        assert t.dim == 4
        report = verify_twisted(t)
        assert report.max_residual <= 1e-12
        # operator 2 is blockdiag(U_2, U_12 U_2) under the slot-1 grading
        np.testing.assert_allclose(t.ops[1], np.diag([1j, -1j, 1j, 1j]), atol=1e-14)

    def test_rejects_slot_unitary_that_breaks_twist_commutation(self):
        spec = ModelSpec(
            slot_kinds=[2, "u"],
            aux_dim=2,
            twist_data={(1, 2): np.diag([1.0, -1.0])},
            slot_unitaries={2: np.array([[0.0, 1.0], [1.0, 0.0]])},
        )
        with pytest.raises(ValueError):
            build_model_tuple(spec)

    def test_two_shift_slots_with_scalar_twist(self):
        lam = np.exp(2j * np.pi / 5)
        spec = ModelSpec(slot_kinds=[2, 3], aux_dim=1, twist_data={(1, 2): [[lam]]})
        t = build_model_tuple(spec)
        report = verify_twisted(t)
        assert report.max_residual <= 1e-12

    def test_clock_shift_pair_realizes_twisted_unitaries(self):
        clock, shift, omega = clock_shift_unitaries(4)
        spec = ModelSpec(
            slot_kinds=["u", "u"],
            aux_dim=4,
            twist_data={(1, 2): np.conj(omega) * np.eye(4)},
            slot_unitaries={1: clock, 2: shift},
        )
        t = build_model_tuple(spec)
        assert verify_twisted(t).max_residual <= 1e-12

    def test_rejects_infinite_shift_slot_kinds(self):
        with pytest.raises(ValueError):
            ModelSpec(slot_kinds=["s"], aux_dim=1)
        with pytest.raises(ValueError):
            ModelSpec(slot_kinds=[0], aux_dim=1)

    @pytest.mark.parametrize(
        "kinds, aux_dim, named",
        [
            (["3"], 1, "slot 1"),
            ([2, 2.7], 1, "slot 2"),
            ([True], 1, "slot 1"),
            ([np.float64(2.0)], 1, "slot 1"),
            ([2], 2.5, "aux_dim"),
            ([2], True, "aux_dim"),
        ],
    )
    def test_refuses_slot_sizes_that_are_not_integers(self, kinds, aux_dim, named):
        with pytest.raises(ValueError, match=named):
            ModelSpec(slot_kinds=kinds, aux_dim=aux_dim)

    def test_accepts_numpy_integer_slot_sizes(self):
        spec = ModelSpec(slot_kinds=[np.int64(2), "u"], aux_dim=np.int32(1), slot_unitaries={np.int64(2): [[1j]]})
        assert spec.slot_kinds == [2, "u"] and spec.aux_dim == 1 and list(spec.slot_unitaries) == [2]
        assert all(type(k) is int for k in (spec.slot_kinds[0], spec.aux_dim, *spec.slot_unitaries))

    @pytest.mark.parametrize("key", [2.7, np.float64(2.0), "2", True, 0])
    def test_refuses_slot_unitary_keys_that_are_not_positive_integers(self, key):
        # a float key was once truncated to its integer part, so slot 2.7 built as slot 2
        u = np.array([[1j]])
        with pytest.raises(ValueError, match="slot_unitaries key"):
            ModelSpec([2, "u"], 1, slot_unitaries={key: u})

    @pytest.mark.parametrize("slot_unitaries,stray", [
        ({2: [[1j]], 5: [[1.0]], 1: [[-1.0]]}, [1, 5]),
        ({2: [[1j]], 1: [[-1.0]]}, [1]),
        ({2: [[1j]], 3: [[1.0]]}, [3]),
    ])
    def test_refuses_slot_unitary_keys_that_name_no_unitary_slot(self, slot_unitaries, stray):
        # a key at a shift slot or past the last slot was once kept, and the model never read it
        with pytest.raises(ValueError, match=re.escape(f"slot_unitaries keys {stray} name no unitary slot")):
            ModelSpec([2, "u"], 1, slot_unitaries=slot_unitaries)

    @pytest.mark.parametrize("pair", [(0, 1), (2, 1), (1, 3), (2, 2)])
    def test_twist_pairs_out_of_range_raise_the_tuple_text(self, pair):
        # one normaliser for both twist families, so one text
        u = np.eye(1)
        for build in (
            lambda: ModelSpec([2, 2], 1, twist_data={pair: u}),
            lambda: TwistedTuple(dim=1, ops=[u, u], twists={pair: u}),
        ):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == f"twist index pair {pair} out of range (need 1 <= i < j <= 2)"

    def test_missing_twists_are_identities_in_both_families(self):
        spec = ModelSpec([2, 2, 2], 2, twist_data={(1, 3): -np.eye(2)})
        t = TwistedTuple(dim=2, ops=[np.eye(2)] * 3, twists={(1, 3): -np.eye(2)})
        for family in (spec.twist_data, t.twists):
            assert sorted(family) == [(1, 2), (1, 3), (2, 3)]
            assert all(u.dtype == complex for u in family.values())
            np.testing.assert_array_equal(family[(1, 2)], np.eye(2))
            np.testing.assert_array_equal(family[(1, 3)], -np.eye(2))

    def test_rejects_noncommuting_twist_family(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = ModelSpec(
            slot_kinds=[2, 2, 2],
            aux_dim=2,
            twist_data={(1, 2): a, (1, 3): b},
        )
        with pytest.raises(ValueError):
            build_model_tuple(spec)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_specs_validate_and_verify(self, seed):
        spec = random_model_spec(seed)
        t = build_model_tuple(spec)
        assert verify_twisted(t).max_residual <= 1e-12


class TestRandomCommutingUnitaries:
    def test_deterministic_per_seed(self):
        a = random_commuting_unitaries(4, 3, seed=7)
        b = random_commuting_unitaries(4, 3, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_pairwise_commutators_vanish(self):
        mats = random_commuting_unitaries(4, 3, seed=7)
        for i in range(3):
            for j in range(i + 1, 3):
                assert op_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) <= 1e-12

    def test_each_output_is_unitary(self):
        for u in random_commuting_unitaries(5, 4, seed=11):
            assert op_norm_diff(u.conj().T @ u, np.eye(5)) <= 1e-12

    def test_scalar_case(self):
        out = random_commuting_unitaries(1, 3, seed=0)
        for u in out:
            assert abs(abs(u[0, 0]) - 1) <= 1e-12


class TestConjugateTuple:
    def test_identity_conjugation(self):
        t = build_twisted_shift_pair(2, 1j)
        same = conjugate_tuple(t, np.eye(8))
        for a, b in zip(t.ops, same.ops):
            np.testing.assert_array_equal(a, b)

    def test_double_conjugation_restores(self):
        t = build_twisted_shift_pair(2, 1j)
        w = haar_unitary(8, 4)
        back = conjugate_tuple(conjugate_tuple(t, w), w.conj().T)
        for a, b in zip(t.ops, back.ops):
            assert op_norm_diff(a, b) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_invariance(self, seed):
        t = build_twisted_shift_pair(3, np.exp(2j * np.pi / 7))
        before = verify_twisted(t).max_residual
        after = verify_twisted(conjugate_tuple(t, haar_unitary(t.dim, seed))).max_residual
        assert abs(before - after) <= 1e-11

    def test_rejects_non_unitary(self):
        t = build_twisted_shift_pair(2, 1j)
        with pytest.raises(ValueError):
            conjugate_tuple(t, 0.5 * np.eye(8))


class TestOneSidedUnitarity:
    """For square U, U*U - I and UU* - I have the same singular values |s_i^2 - 1|."""

    @staticmethod
    def _instances(d):
        rng = np.random.default_rng([d, 17])
        w = haar_unitary(d, rng)
        # near-unitary and far from normal: a strictly upper-triangular step in a random basis
        step = w @ np.triu(rng.standard_normal((d, d)), 1) @ adjoint(w)
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return [haar_unitary(d, rng) + 1e-7 * step, haar_unitary(d, rng) @ (np.eye(d) + 1e-10 * step),
                noise, noise / op_norm(noise), 3 * step + np.eye(d)]

    @pytest.mark.parametrize("d", [2, 3, 8, 24, 64])
    def test_both_sides_have_the_same_norm(self, d):
        for u in self._instances(d):
            star_first, star_last = map(op_norm, _both_sides(u))
            # rounding of the two products and the two SVDs, relative to ||U||^2 + 1
            assert abs(star_first - star_last) <= 4 * d * 2.0**-52 * (op_norm(u) ** 2 + 1)
            assert unitarity_residual(u) == star_first
            # so one side decides the gate at either side's residual
            worst = max(star_first, star_last)
            assert _unitary_within(u, worst * 1.01) and not _unitary_within(u, worst * 0.99)


class TestTupleHelpers:
    def test_direct_sum_verifies(self):
        t1 = build_model_tuple(random_model_spec(1, n_ops=2))
        t2 = build_model_tuple(random_model_spec(2, n_ops=2))
        both = direct_sum_tuples(t1, t2)
        assert both.dim == t1.dim + t2.dim
        assert verify_twisted(both).passed

    def test_permutation_preserves_relations(self):
        t = build_model_tuple(random_model_spec(3, n_ops=3))
        swapped = permute_tuple(t, [3, 1, 2])
        assert verify_twisted(swapped).passed

    def test_twist_lookup_adjoint(self):
        t = build_twisted_shift_pair(2, 1j)
        np.testing.assert_allclose(
            t.twist(2, 1), t.twists[(1, 2)].conj().T, atol=1e-14
        )

    def test_missing_twists_default_to_identity(self):
        t = TwistedTuple(dim=2, ops=[np.eye(2), truncated_shift(2)])
        np.testing.assert_allclose(t.twists[(1, 2)], np.eye(2))

    @pytest.mark.parametrize("n_ops", [1, 2])
    @pytest.mark.parametrize("dim,text", [
        (2.0, "dim must be an integer, got 2.0"),
        (np.float64(2.0), "dim must be an integer, got np.float64(2.0)"),
        (True, "dim must be an integer, got True"),
        (0, "dim must be >= 1, got 0"),
    ])
    def test_refuses_a_dim_that_is_not_a_positive_integer(self, n_ops, dim, text):
        # a float dim once built, and verify_twisted then raised a bare TypeError
        with pytest.raises(ValueError) as raised:
            TwistedTuple(dim=dim, ops=[np.zeros((int(dim), int(dim)))] * n_ops)
        assert str(raised.value) == text

    def test_accepts_a_numpy_integer_dim(self):
        t = TwistedTuple(dim=np.int64(2), ops=[np.eye(2), truncated_shift(2)])
        assert type(t.dim) is int and t.dim == 2


def _both_sides(u):
    """U*U - I and UU* - I, the two defects unitarity was checked by before one side sufficed."""
    eye = np.eye(u.shape[0])
    return adjoint(u) @ u - eye, u @ adjoint(u) - eye


def _verify_loops(t):
    """The relation loops `verify_twisted` ran before the relations were written once."""
    n = t.n_ops
    pairs = t.pair_keys()
    residuals = {}

    def commutator(a, b):
        return op_norm(a @ b - b @ a)

    for i, j in pairs:
        residuals[("twist-unitary", i, j)] = max(map(op_norm, _both_sides(t.twists[(i, j)])))
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            key = ("twist-commuting-family", *pairs[a], *pairs[b])
            residuals[key] = commutator(t.twists[pairs[a]], t.twists[pairs[b]])
    for k in range(1, n + 1):
        for i, j in pairs:
            residuals[("twist-commute", k, i, j)] = commutator(t.ops[k - 1], t.twists[(i, j)])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            vi, vj = t.ops[i - 1], t.ops[j - 1]
            residuals[("star-cross", i, j)] = op_norm(adjoint(vi) @ vj - t.twist(i, j) @ vj @ adjoint(vi))
            residuals[("plain-cross", i, j)] = op_norm(vi @ vj - t.twist(j, i) @ vj @ vi)
    for i in range(1, n + 1):
        residuals[("ppi", i)] = power_isometry_residual(t.ops[i - 1])
    return residuals


def _validate_loops(spec, eps=1e-9):
    """The loops of `ModelSpec.validate` before the relations were written once: True to accept."""

    def _unitary_within(u, eps):
        return all(_norm_within(a, eps) for a in _both_sides(u))

    e = spec.aux_dim
    pairs = sorted(spec.twist_data)
    for key in pairs:
        u = spec.twist_data[key]
        if u.shape != (e, e) or not _unitary_within(u, eps):
            return False
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            ua, ub = spec.twist_data[pairs[a]], spec.twist_data[pairs[b]]
            if not _norm_within(ua @ ub - ub @ ua, eps):
                return False
    u_slots = spec.unitary_slots()
    for i in u_slots:
        if i not in spec.slot_unitaries:
            return False
        ui = spec.slot_unitaries[i]
        if ui.shape != (e, e) or not _unitary_within(ui, eps):
            return False
        for key in pairs:
            upq = spec.twist_data[key]
            if not _norm_within(ui @ upq - upq @ ui, eps):
                return False
    for i in u_slots:
        for j in u_slots:
            if i >= j:
                continue
            ui, uj = spec.slot_unitaries[i], spec.slot_unitaries[j]
            lhs = adjoint(ui) @ uj
            rhs = spec.twist_data[(i, j)] @ uj @ adjoint(ui)
            if not _norm_within(lhs - rhs, eps):
                return False
    return True


def _unit_noise(rng, shape):
    e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return e / op_norm(e)


def _relation_corpus():
    """Scrambled and noisy model tuples, example 4.3 and random tuples that are not twisted."""
    rng = np.random.default_rng(14)
    out = []
    for seed in range(40):
        t, _ = random_scrambled_model(seed, max_dim=24)
        out += [t, perturbed_tuple(t, rng.choice([1e-12, 1e-9, 1e-6]), seed)]
    for p in (1, 2, 3):
        t = build_twisted_shift_pair(p, np.exp(0.7j))
        out += [t, conjugate_tuple(t, haar_unitary(t.dim, p))]
    for _ in range(40):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        ops = [_unit_noise(rng, (d, d)) * 2 for _ in range(n)]
        twists = {
            (i, j): haar_unitary(d, rng) if rng.random() < 0.5 else _unit_noise(rng, (d, d))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.8
        }
        out.append(TwistedTuple(dim=d, ops=ops, twists=twists))
    zero = np.zeros((2, 2), dtype=complex)
    out.append(TwistedTuple(dim=2, ops=[-zero, zero], twists={(1, 2): -np.eye(2)}))
    return out


def _spec_mutations():
    """Model specs moved off their relations, many of them within a few eps."""
    rng = np.random.default_rng(41)
    out = []
    for seed in range(80):
        spec = random_model_spec(seed)
        e, kinds = spec.aux_dim, list(spec.slot_kinds)
        pairs, slots = sorted(spec.twist_data), sorted(spec.slot_unitaries)

        def mutated(twists=None, units=None):
            return ModelSpec(kinds, e, twists or dict(spec.twist_data), units or dict(spec.slot_unitaries))

        out.append(spec)
        for delta in (0.3, 0.9, 1.1, 3.0):
            if pairs:
                key = pairs[int(rng.integers(len(pairs)))]
                out.append(mutated(twists={**spec.twist_data, key: spec.twist_data[key]
                                           + delta * 1e-9 * _unit_noise(rng, (e, e))}))
            if slots:
                i = slots[int(rng.integers(len(slots)))]
                out.append(mutated(units={**spec.slot_unitaries, i: spec.slot_unitaries[i]
                                          + delta * 1e-9 * _unit_noise(rng, (e, e))}))
                # a unitary rotation of the slot unitary breaks commutation and the star relation only
                w, q = np.linalg.eigh(_unit_noise(rng, (e, e)) + _unit_noise(rng, (e, e)).conj().T)
                turn = q @ np.diag(np.exp(1j * delta * 1e-9 * w)) @ q.conj().T
                out.append(mutated(units={**spec.slot_unitaries, i: turn @ spec.slot_unitaries[i]}))
        if pairs and e > 1:
            out.append(mutated(twists={**spec.twist_data, pairs[0]: haar_unitary(e, rng)}))
        if pairs:
            out.append(mutated(twists={**spec.twist_data, pairs[-1]: np.eye(e + 1)}))
        if slots:
            units = dict(spec.slot_unitaries)
            del units[slots[0]]
            out.append(ModelSpec(kinds, e, dict(spec.twist_data), units))
            out.append(mutated(units={**spec.slot_unitaries, slots[0]: np.eye(e + 1)}))
            out.append(mutated(units={**spec.slot_unitaries, slots[0]: np.ones((e, e + 1))}))
            if e > 1:
                out.append(mutated(units={**spec.slot_unitaries, slots[0]: haar_unitary(e, rng)}))
    clock, shift, omega = clock_shift_unitaries(3)
    for delta in (0.0, 0.9, 1.1, 3.0):
        lam = np.conj(omega) * np.exp(1j * delta * 1e-9)
        out.append(ModelSpec(["u", 2, "u"], 3, {(1, 3): lam * np.eye(3)}, {1: clock, 3: shift}))
    return out


class TestOneRelationList:
    """`verify_twisted` and `ModelSpec.validate` keep the answers of their separate loops."""

    def test_residuals_are_bit_identical(self):
        # but the one-sided twist-unitary rows, which move by rounding only
        def bits(residuals):
            return [(key, np.float64(value).tobytes()) for key, value in residuals.items()
                    if key[0] != "twist-unitary"]

        corpus = _relation_corpus()
        assert {verify_twisted(t).passed for t in corpus} == {True, False}
        twist_rows = 0
        for t in corpus:
            residuals, oracle = verify_twisted(t).residuals, _verify_loops(t)
            assert list(residuals) == list(oracle)
            assert bits(residuals) == bits(oracle)
            for key in (key for key in residuals if key[0] == "twist-unitary"):
                assert abs(residuals[key] - oracle[key]) <= 1e-15
                twist_rows += 1
        assert twist_rows > 100

    def test_validate_verdicts_are_unchanged(self):
        verdicts = []
        for spec in _spec_mutations():
            try:
                spec.validate()
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _validate_loops(spec)
            verdicts.append(accepted)
        assert 100 < sum(verdicts) < len(verdicts) - 100

    @pytest.mark.parametrize("n_ops", range(1, 9))
    def test_relation_rows_counts_every_row_of_verify(self, n_ops):
        t = TwistedTuple(dim=1, ops=[np.zeros((1, 1))] * n_ops)
        assert _relation_rows(n_ops) == len(verify_twisted(t).residuals)

    def test_a_failing_relation_is_named_as_verify_reports_it(self):
        u12 = np.diag([1.0, -1.0])
        spec = ModelSpec([2, "u"], 2, {(1, 2): u12}, {2: np.array([[0.0, 1.0], [1.0, 0.0]])})
        with pytest.raises(ValueError, match=r"^relation twist-commute \[2, 1, 2\] fails at tolerance$"):
            spec.validate()
