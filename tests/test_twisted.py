import itertools
import textwrap
import tracemalloc

import numpy as np
import pytest
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, prod

from partialiso import (
    CommutantTooLargeError,
    DecompositionError,
    DecompositionLeaf,
    DimensionMismatchError,
    EquivalenceResult,
    ModelSpec,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    check_projection_commutation,
    classify_partition,
    clock_shift_unitaries,
    commutant_dimension,
    conjugate_tuple,
    decompose_tuple,
    direct_sum_tuples,
    equivalence_check,
    extract_twist_factor,
    haar_unitary,
    hw_decompose,
    is_irreducible,
    kron,
    leaf_model_operator,
    nullspace,
    op_norm,
    op_norm_diff,
    permute_tuple,
    random_commuting_unitaries,
    random_model_spec,
    truncated_shift,
    verify_twisted,
)
from partialiso import commutant, twisted
from partialiso.halmos_wallen import RangeSourceLadder, _stable_projections, truncated_block_projection
from partialiso.linalg import (
    _BOUND_SLACK,
    DEFAULT_TOL,
    Tolerance,
    _frobenius,
    _norm_within,
    adjoint,
    identity,
)
from partialiso.operators import _Growth, _pair_lookup, unitarity_residual
from conftest import (
    assert_gates_decide_as_the_svd,
    commutant_instances,
    eager_residuals,
    leaf_key,
    non_power_partial_isometry_3d,
    perturbed_tuple,
    random_decomposition_instance,
    random_hw_instance,
    random_scrambled_model,
    residual_bits,
    resident_peak_growth,
    single_op_tuple,
    sylvester_pair_stack,
    sylvester_stack,
    traced_peak,
)


class TestVerifyTwisted:
    def test_shift_pair_passes(self):
        report = verify_twisted(build_twisted_shift_pair(2, 1j))
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_single_operator_only_runs_the_power_check(self):
        report = verify_twisted(single_op_tuple(truncated_shift(3)))
        assert report.passed
        assert set(k[0] for k in report.residuals) == {"ppi"}

    def test_adjointed_twist_fails_star_relations(self):
        t = build_twisted_shift_pair(2, 1j)
        corrupted = TwistedTuple(
            dim=t.dim, ops=t.ops, twists={(1, 2): t.twists[(1, 2)].conj().T}
        )
        report = verify_twisted(corrupted)
        assert not report.passed
        star = report.by_kind("star-cross")
        assert max(star.values()) > 1e-3

    def test_residual_key_order_for_three_operators(self):
        # the order fixes the row order of `verify` reports
        report = verify_twisted(build_model_tuple(random_model_spec(3, n_ops=3)))
        assert list(report.residuals) == [
            ("twist-unitary", 1, 2), ("twist-unitary", 1, 3), ("twist-unitary", 2, 3),
            ("twist-commuting-family", 1, 2, 1, 3),
            ("twist-commuting-family", 1, 2, 2, 3),
            ("twist-commuting-family", 1, 3, 2, 3),
            ("twist-commute", 1, 1, 2), ("twist-commute", 1, 1, 3), ("twist-commute", 1, 2, 3),
            ("twist-commute", 2, 1, 2), ("twist-commute", 2, 1, 3), ("twist-commute", 2, 2, 3),
            ("twist-commute", 3, 1, 2), ("twist-commute", 3, 1, 3), ("twist-commute", 3, 2, 3),
            ("star-cross", 1, 2), ("plain-cross", 1, 2),
            ("star-cross", 1, 3), ("plain-cross", 1, 3),
            ("star-cross", 2, 1), ("plain-cross", 2, 1),
            ("star-cross", 2, 3), ("plain-cross", 2, 3),
            ("star-cross", 3, 1), ("plain-cross", 3, 1),
            ("star-cross", 3, 2), ("plain-cross", 3, 2),
            ("ppi", 1), ("ppi", 2), ("ppi", 3),
        ]

    @pytest.mark.filterwarnings("error")
    def test_residual_that_is_not_finite_fails(self):
        # U_13 U_13* overflows, so its unitarity residual is NaN, which max() steps past
        zero = np.zeros((2, 2))
        t = TwistedTuple(dim=2, ops=[zero, zero, zero], twists={(1, 3): np.diag([1e200, 1.0])})
        report = verify_twisted(t)
        assert np.isnan(report.residuals[("twist-unitary", 1, 3)])
        assert not report.passed
        assert report.max_residual == np.inf
        assert report.worst()[0] == ("twist-unitary", 1, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_relation_product_is_nan_not_an_svd_error(self):
        # V_1* V_2 and V_2 V_1* overflow to inf, so the star defect holds inf - inf = NaN
        v = np.diag([1e200, 0.0])
        report = verify_twisted(TwistedTuple(dim=2, ops=[v, v]))
        assert np.isnan(report.residuals[("star-cross", 1, 2)])
        assert not report.passed
        assert report.max_residual == np.inf
        assert report.worst()[0] == ("star-cross", 1, 2)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_power_fails(self):
        report = verify_twisted(single_op_tuple(np.diag([1e200, 0.0])))
        assert report.residuals == {("ppi", 1): np.inf}
        assert not report.passed
        assert report.worst() == (("ppi", 1), np.inf)

    def test_worst_names_the_offender(self):
        t = build_twisted_shift_pair(2, 1j)
        bad_ops = [t.ops[0].copy(), t.ops[1]]
        bad_ops[0][0, 0] += 1e-3
        report = verify_twisted(TwistedTuple(dim=t.dim, ops=bad_ops, twists=t.twists))
        assert not report.passed
        key, value = report.worst()
        assert value == report.max_residual

    def test_a_later_change_to_the_input_moves_neither_verdict_nor_values(self):
        t = conjugate_tuple(build_twisted_shift_pair(3, np.exp(0.7j)), haar_unitary(18, 3))
        expected = eager_residuals(t)
        report = verify_twisted(t)
        t.ops[0][0, 0] += 1.0
        t.twists[(1, 2)][1, 1] *= 2.0
        assert not verify_twisted(t).passed
        assert report.passed
        assert residual_bits(report.residuals) == residual_bits(expected)


def _moved_to_the_cutoff(seed: int) -> list[TwistedTuple]:
    """A passing tuple of the tuple-stream kind (N <= 4, d <= 64) with one operator moved along a
    seeded unit direction: the size is bisected until the value verdict, max_residual <= eps,
    flips between sizes lo < hi less than 2^-45 hi apart, and each end is kept at 1 -+ 1e-12 and
    at 0.99 and 1.01 of itself."""
    eps = DEFAULT_TOL.eps
    t, _ = random_decomposition_instance(seed)
    rng = np.random.default_rng(seed + 900)
    k = int(rng.integers(t.n_ops))
    direction = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    direction /= op_norm(direction)

    def moved(size):
        ops = list(t.ops)
        ops[k] = t.ops[k] + size * direction
        return TwistedTuple(dim=t.dim, ops=ops, twists=t.twists)

    def passes(size):
        return verify_twisted(moved(size)).max_residual <= eps

    assert passes(0.0)
    lo, hi = 0.0, eps
    while passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 2.0**-45 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return [moved(size * f) for size in (lo, hi) for f in (1 - 1e-12, 1 + 1e-12, 0.99, 1.01)]


class TestVerdictAtTheCutoff:
    """`passed` is the verdict of the values, max_residual <= eps, read on a fresh report."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return [case for seed in range(16) for case in _moved_to_the_cutoff(seed)]

    def test_the_gate_gives_the_value_verdict_at_the_cutoff(self, corpus):
        eps = DEFAULT_TOL.eps
        worst = [verify_twisted(t).max_residual for t in corpus]
        assert [verify_twisted(t).passed for t in corpus] == [w <= eps for w in worst]
        # both verdicts, and half the cases within a millionth of eps
        assert 0 < sum(w <= eps for w in worst) < len(corpus)
        assert sum(abs(w - eps) <= 1e-6 * eps for w in worst) >= len(corpus) // 2

    def test_every_gate_decides_as_the_svd(self, corpus, gate_log, monkeypatch):
        for t in corpus:
            verify_twisted(t)
        gates, ranges = gate_log
        eps = DEFAULT_TOL.eps
        assert sum(abs(op_norm(a) - eps) <= 1e-6 * eps for a, _, _ in gates) >= len(corpus) // 2
        assert_gates_decide_as_the_svd(gates, ranges, monkeypatch)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [
        "twist-overflow", "product-overflow", "power-overflow", "one-operator", "not-a-ppi",
        "first-row",
    ])
    def test_the_gate_gives_the_value_verdict_off_the_norm_scale(self, case):
        zero, big = np.zeros((2, 2)), np.diag([1e200, 0.0])
        t = {
            "twist-overflow": lambda: TwistedTuple(dim=2, ops=[zero, zero, zero],
                                                   twists={(1, 3): np.diag([1e200, 1.0])}),
            "product-overflow": lambda: TwistedTuple(dim=2, ops=[big, big]),
            "power-overflow": lambda: single_op_tuple(big),
            "one-operator": lambda: single_op_tuple(truncated_shift(3)),
            "not-a-ppi": lambda: single_op_tuple(non_power_partial_isometry_3d()),
            # the first row, twist-unitary (1, 2), fails
            "first-row": lambda: TwistedTuple(dim=2, ops=[zero, zero], twists={(1, 2): 2 * np.eye(2)}),
        }[case]()
        assert verify_twisted(t).passed == (verify_twisted(t).max_residual <= DEFAULT_TOL.eps)
        assert verify_twisted(t).passed == (case == "one-operator")


# random_model_spec(seed, n_ops=2, max_p=3, max_aux=2) seeds whose slots are [p >= 2, "u"]
_SHIFT_THEN_UNITARY = [0, 1, 16, 19, 22, 23, 26, 37, 41, 43, 51, 55]


def _spectral_tree(t, tol=DEFAULT_TOL):
    """`decompose_tuple` with its reconstruction gate on the spectral norm: (leaves, residual),
    or the error text."""
    try:
        leaves = twisted._decompose_rec(
            list(range(1, t.n_ops + 1)), dict(enumerate(t.ops, 1)), t.dim, tol, ""
        )
        g = np.hstack([leaf.intertwiner for leaf in leaves])
        g_residual = op_norm(adjoint(g) @ g - identity(t.dim))
        if g_residual > tol.eps:
            return f"global intertwiner is not unitary (residual {g_residual:.3e})"
        leaves = [twisted._read_leaf(t, leaf, tol.eps) for leaf in leaves]
    except DecompositionError as exc:
        return str(exc)
    worst = max(
        op_norm(g @ twisted._block_diag([leaf_model_operator(leaf, n, tol) for leaf in leaves]) @ adjoint(g) - t.ops[n - 1])
        for n in range(1, t.n_ops + 1)
    )
    if worst > tol.eps:
        return f"reconstruction residual {worst:.3e} exceeds eps {tol.eps:.1e}"
    return [(leaf.multiindex, leaf.mult_dim) for leaf in leaves], worst


def _tree_moved_to_the_cutoff(seed):
    """A scrambled [p, "u"] model tuple with V_2 moved by s C X C*: C spans the second cell of its
    leaf and X is a seeded unit direction. Each restriction stays block diagonal over the grading
    and the first cell, where the leaf data is read, is untouched, so only the reconstruction
    sees s. The size is bisected until its spectral value crosses eps between sizes lo < hi less
    than 2^-45 hi apart; each end is kept at 1 -+ 1e-12 and at 0.99 and 1.01 of itself."""
    eps = DEFAULT_TOL.eps
    t, spec = random_scrambled_model(seed, n_ops=2)
    assert spec.slot_kinds[0] != "u" and spec.slot_kinds[1] == "u"
    (leaf,) = decompose_tuple(t).leaves
    m = leaf.mult_dim
    cell = leaf.intertwiner[:, m : 2 * m]
    rng = np.random.default_rng(seed + 950)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    direction = cell @ (x / op_norm(x)) @ adjoint(cell)

    def moved(size):
        return TwistedTuple(dim=t.dim, ops=[t.ops[0], t.ops[1] + size * direction], twists=t.twists)

    def passes(size):
        return not isinstance(_spectral_tree(moved(size)), str)

    lo, hi = 0.0, eps
    while passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 2.0**-45 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return [moved(size * f) for size in (lo, hi) for f in (1 - 1e-12, 1 + 1e-12, 0.99, 1.01)]


class TestTreeReconstructionAtTheCutoff:
    """`decompose_tuple` decides its reconstruction by bounds, as the spectral norm does."""

    def test_the_gate_and_the_lazy_residual_match_the_spectral_oracle(self):
        texts, values = [], []
        for t in (t for seed in _SHIFT_THEN_UNITARY for t in _tree_moved_to_the_cutoff(seed)):
            expected = _spectral_tree(t)
            try:
                tree = decompose_tuple(t)
            except DecompositionError as exc:
                assert str(exc) == expected
                texts.append(expected)
                continue
            leaves, worst = expected
            assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == leaves
            assert tree.residual.hex() == worst.hex()
            values.append(worst)
        eps = DEFAULT_TOL.eps
        assert texts and values
        assert all(text.startswith("reconstruction residual") for text in texts)
        assert sum(abs(r - eps) <= 1e-6 * eps for r in values) >= len(values) // 2


class TestProjectionCommutation:
    def test_identity_partner_commutes_exactly(self):
        residuals = check_projection_commutation(truncated_shift(3), np.eye(3))
        assert max(residuals.values()) == 0.0

    def test_twisted_pair_commutes(self):
        t = build_twisted_shift_pair(2, 1j)
        residuals = check_projection_commutation(t.ops[0], t.ops[1])
        assert max(residuals.values()) <= 1e-12
        assert "block_p=2" in residuals

    def test_random_pair_reports_without_raising(self):
        rng = np.random.default_rng(0)
        v = truncated_shift(4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        residuals = check_projection_commutation(v, w)
        assert all(np.isfinite(list(residuals.values())))

    def test_non_square_v_is_refused(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check_projection_commutation(np.zeros((3, 4)), np.eye(3))

    def test_w_of_another_shape_is_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"\(4, 4\).*\(3, 3\)"):
            check_projection_commutation(truncated_shift(3), np.eye(4))


def _walked_to_d(v, w, tol=DEFAULT_TOL):
    """`check_projection_commutation` with its ladder walked to d first, every step formed."""
    d = v.shape[0]
    p_mat, q_mat, ladder = _stable_projections(v, tol)
    eye = identity(d)

    def comm(a):
        return op_norm(a @ w - w @ a)

    out = {
        "stable_range": comm(p_mat),
        "stable_source": comm(q_mat),
        "unitary_part": comm(p_mat @ q_mat),
        "shift_part": comm((eye - p_mat) @ q_mat),
        "backshift_part": comm((eye - q_mat) @ p_mat),
    }
    ranges, sources = ladder.extend(d).ranges, ladder.sources
    with np.errstate(over="ignore", invalid="ignore"):
        x = [_frobenius(ranges[j] - ranges[j + 1]) for j in range(d)]
        y = [_frobenius(sources[j] - sources[j + 1]) for j in range(d)]
    for p in range(1, d + 1):
        if fsum(x[n - 1] * y[p - n] for n in range(1, p + 1)) * (1.0 + _BOUND_SLACK) <= 0.5:
            continue
        pi_p = truncated_block_projection(v, p, ladder)
        if not _norm_within(pi_p, 0.5):
            out[f"block_p={p}"] = comm(pi_p)
    return out


def _projection_check_pairs():
    for p in range(2, 7):
        t = build_twisted_shift_pair(p, np.exp(0.7j))
        yield f"example43-p{p}", *conjugate_tuple(t, haar_unitary(t.dim, p)).ops
    for seed in range(30):
        v, _, _ = random_hw_instance(seed)
        rng = np.random.default_rng(seed + 2000)
        g = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        yield f"hw-{seed}", v, g
        yield f"hw-{seed}+1e-10", v + 1e-10 * g / op_norm(g), v.conj().T @ v


class TestProjectionCheckTail:
    """The ladder stops where no later step can lift a block's bound; nothing else moves."""

    @staticmethod
    def _ladders(monkeypatch):
        built = []
        original_init = RangeSourceLadder.__init__

        def recording(self, v):
            original_init(self, v)
            built.append(self)

        monkeypatch.setattr(RangeSourceLadder, "__init__", recording)
        return built

    @pytest.mark.parametrize("name, v, w", [pytest.param(*pair, id=pair[0]) for pair in _projection_check_pairs()])
    def test_the_check_equals_the_walk_to_d(self, monkeypatch, name, v, w):
        built = self._ladders(monkeypatch)
        out = check_projection_commutation(v, w)
        expected = _walked_to_d(v, w)
        assert list(out) == list(expected)
        assert [x.hex() for x in out.values()] == [x.hex() for x in expected.values()]
        if name.startswith("example43"):
            # steps past order p are of rounding size: the ladder stops at power 2p - 1
            p = int(name[len("example43-p"):])
            assert len(built[0].ranges) == 2 * p

    @pytest.mark.parametrize("size", [1e-6, 1e-3])
    def test_a_v_that_fails_the_guard_walks_to_d(self, monkeypatch, size):
        t = build_twisted_shift_pair(3, np.exp(0.7j))
        v, w = perturbed_tuple(conjugate_tuple(t, haar_unitary(t.dim, 3)), size, 3).ops
        residual = v @ v.conj().T @ v - v
        assert np.linalg.norm(residual) > 2 * _BOUND_SLACK
        built = self._ladders(monkeypatch)
        out = check_projection_commutation(v, w)
        assert len(built[0].ranges) == t.dim + 1
        expected = _walked_to_d(v, w)
        assert [(k, x.hex()) for k, x in out.items()] == [(k, x.hex()) for k, x in expected.items()]

    def test_a_non_power_partial_isometry_fails_as_before(self):
        v = non_power_partial_isometry_3d()
        with pytest.raises(DecompositionError) as ours:
            check_projection_commutation(v, np.eye(3))
        with pytest.raises(DecompositionError) as walked:
            _walked_to_d(v, np.eye(3))
        assert str(ours.value) == str(walked.value)

    @pytest.mark.parametrize("d", [1, 8, 50, 128])
    @pytest.mark.parametrize("a", [0.0, 1e-300, 1e-160, 1e-20, 0.5, 1.0, 3.0, 1e100])
    def test_the_tail_bound_is_the_one_derived(self, d, a):
        # b = (1 + rho)^2 (2((1 + gamma) a^2 + mu) + mu) in the constants of the growth bound
        growth = _Growth(np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex))
        u = 2.0**-53
        gamma, mu, rho = 4 * (d + 2) * u, 16 * d * d * 2.0**-1074, 2 * (d * d + d + 8) * u
        b = growth.step_tail(a)
        assert b == (1 + rho) ** 2 * (2 * ((1 + gamma) * a * a + mu) + mu)
        # and it covers the real bound: `_frobenius` within 1 + rho and half a subnormal step
        # of the difference, which is within 1 + u of 2((1 + gamma) a^2 + mu)
        exact = [Fraction(x) for x in (u, gamma, mu, rho, a)]
        fu, fgamma, fmu, frho, fa = exact
        assert Fraction(b) >= (1 + frho) * (1 + fu) * 2 * ((1 + fgamma) * fa * fa + fmu) + fmu / 2

    def test_the_tail_bound_covers_every_later_step(self):
        # on steps the walk to d forms past each top N where the bound is read
        for name, v, _ in _projection_check_pairs():
            d = v.shape[0]
            ladder = RangeSourceLadder(v).extend(d)
            growth = _Growth(v, ladder.ranges[1] @ v - v)
            walk = RangeSourceLadder(v)
            for top in range(2, d):
                walk.extend(top)
                b = growth.step_tail(growth.later(top, walk.power))
                later = [
                    _frobenius(e[j] - e[j + 1]) for e in (ladder.ranges, ladder.sources) for j in range(top, d)
                ]
                assert max(later) <= b, (name, top)


class TestCommutant:
    def test_identity_has_full_commutant(self):
        assert commutant_dimension([np.eye(3)]) == 9

    def test_single_shift_without_adjoint(self):
        # commutant of J_2 alone is span{I, J_2}
        assert commutant_dimension([truncated_shift(2)]) == 2

    def test_single_shift_star_closed(self):
        assert commutant_dimension([truncated_shift(2)], include_adjoints=True) == 1

    def test_irreducible_twisted_model(self):
        spec = ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]})
        t = build_model_tuple(spec)
        assert commutant_dimension(t.ops, include_adjoints=True) == 1
        assert is_irreducible(t)

    def test_scalar_is_irreducible(self):
        assert is_irreducible(single_op_tuple(np.array([[np.exp(0.4j)]])))

    def test_direct_sum_is_reducible(self):
        t = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]}))
        both = direct_sum_tuples(t, t)
        assert not is_irreducible(both)
        assert commutant_dimension(both.ops, include_adjoints=True) >= 2

    def test_invariant_under_conjugation(self):
        t = build_model_tuple(random_model_spec(5, n_ops=2))
        base = commutant_dimension(t.ops, include_adjoints=True)
        for seed in range(5):
            moved = conjugate_tuple(t, haar_unitary(t.dim, seed))
            assert commutant_dimension(moved.ops, include_adjoints=True) == base


    def test_values_only_dimension_matches_nullspace_on_criterion_7_families(self):
        families, _ = commutant_instances(200)
        for seed, mats in families:
            assert commutant_dimension(mats) == nullspace(sylvester_stack(mats)).dim, seed

    @pytest.mark.parametrize("p,seed", [(2, 1), (3, 1), (4, 1), (2, 7), (3, 7)])
    def test_values_only_dimension_matches_nullspace_on_example43(self, p, seed):
        # the benchmark's commutant rungs and CLI documents: d = 8, 18, 32
        rng = np.random.default_rng(seed)
        pair = build_twisted_shift_pair(p, np.exp(2j * np.pi * rng.uniform(0.05, 0.45)))
        t = conjugate_tuple(pair, haar_unitary(pair.dim, rng))
        family = list(t.ops) + [adjoint(v) for v in t.ops]
        dimension = commutant_dimension(t.ops, include_adjoints=True)
        assert dimension == nullspace(sylvester_stack(family)).dim == 2

    def test_oversized_system_is_refused_before_allocation(self):
        # two 150 x 150 operators stack a complex (2 * 150^2, 150^2) system, or star-closed a
        # real (4 * 150^2, 150^2) one, and numpy's SVD copies it
        ops = [truncated_shift(150), np.eye(150, dtype=complex)]

        def refuse():
            for include_adjoints in (False, True):
                with pytest.raises(CommutantTooLargeError, match="30.2 GiB"):
                    commutant_dimension(ops, include_adjoints=include_adjoints)
            with pytest.raises(CommutantTooLargeError):
                is_irreducible(TwistedTuple(dim=150, ops=ops))

        # either stack alone would take 15.1 GiB
        assert traced_peak(refuse) < 16 * 1024**2

    def test_dense_commutant_allocates_nothing_beside_its_stack(self):
        # one operator at d = 24 stacks 24^4 complex entries; the copy numpy's SVD makes
        # is not traced, so the guard's other block does not show here
        a = haar_unitary(24, 5)
        stack_bytes = 24**4 * np.dtype(complex).itemsize
        assert traced_peak(lambda: commutant_dimension([a])) < 1.25 * stack_bytes

    def test_star_closed_commutant_holds_three_gram_matrices_not_its_stack(self, gram_route):
        # two operators at d = 24: the real stack S, (4 * 24^2, 24^2), is four Gram matrices;
        # the Gram route holds G, one chunk of S^T no larger than G and one chunk product.
        # The copies eigvalsh, solve and Cholesky make are not traced
        t = conjugate_tuple(build_twisted_shift_pair(2, 1j), haar_unitary(8, 5))
        ops = [kron(v, haar_unitary(3, 6)) for v in t.ops]
        n = 24**2
        stack_bytes, gram_bytes = 4 * n * n * 8, n * n * 8
        peak = traced_peak(lambda: commutant_dimension(ops, include_adjoints=True))
        # beside the three, the entries each chunk write gathers (about 6 / d of G), the basis
        # index arrays and the n x (k + 2) arrays of the split
        assert 3 * gram_bytes < peak < 3.3 * gram_bytes < stack_bytes

    _D32_SETUP = """
        import numpy as np
        from partialiso import build_twisted_shift_pair, commutant, commutant_dimension, conjugate_tuple, haar_unitary
        t = build_twisted_shift_pair(4, np.exp(0.7j))
        ops = conjugate_tuple(t, haar_unitary(t.dim, 4)).ops
    """

    def test_star_closed_count_at_d32_stays_under_two_blocks_of_resident_memory(self):
        # example 4.3 at d = 32: a complex d^2 x d^2 block is 16.8 MB. The Gram route peaks at
        # G, the copy Cholesky makes and its factor, 1.5 blocks, plus BLAS buffers. The eigenbasis
        # tier is switched off by assignment, which would patch nothing were the name gone
        setup = textwrap.dedent(self._D32_SETUP) + textwrap.dedent("""
            assert callable(vars(commutant)["_eigenbasis_count"])
            commutant._eigenbasis_count = lambda mats, eps: None
        """)
        growth = resident_peak_growth(setup, "assert commutant_dimension(ops, include_adjoints=True) == 2")
        assert growth < 2 * 32**4 * np.dtype(complex).itemsize

    def test_eigenbasis_tier_at_d32_stays_under_an_eighth_of_a_block_of_resident_memory(self):
        # the same count on r = 64 unknowns: the conjugated pair, chunks of 64 x 1024 reals and
        # 64 x 64 Gram matrices. A first count at d = 8 loads what any count loads, about 3 MB
        setup = self._D32_SETUP + """
        small = conjugate_tuple(build_twisted_shift_pair(2, np.exp(0.7j)), haar_unitary(8, 2)).ops
        assert commutant._eigenbasis_count(list(small), 1e-9) == 2
        """
        growth = resident_peak_growth(setup, "assert commutant._eigenbasis_count(list(ops), 1e-9) == 2")
        assert growth < 32**4 * np.dtype(complex).itemsize / 8

    def test_one_star_closed_operator_is_refused_at_its_gram_peak(self):
        # the guard counts 2.5 complex d^2 x d^2 blocks for one star-closed operator, 2.2 GiB at
        # d = 88; the Gram route peaks at 1.5 and the fallback SVD of the stack at 2
        with pytest.raises(CommutantTooLargeError, match="2 Sylvester maps at d = 88 need a 2.2 GiB"):
            commutant_dimension([truncated_shift(88)], include_adjoints=True)

    @staticmethod
    def _complex_stack_dimension(mats):
        """The count on the complex stack of the star-closed family, the oracle of the real one."""
        family = [m for a in mats for m in (a, adjoint(a))]
        stack = sylvester_stack(family)
        return int(np.count_nonzero(np.linalg.svd(stack, compute_uv=False) <= DEFAULT_TOL.eps))

    @pytest.mark.parametrize("f,expected", [(0.99, 8), (0.999, 8), (1.001, 6), (1.01, 6)])
    def test_star_closed_count_matches_complex_stack_at_the_cutoff(self, f, expected):
        # X = W E_01 W* and its adjoint give singular value sqrt(2) |l0 - l1| = f eps
        lam = np.array([0.3, 0.3 + f * DEFAULT_TOL.eps / np.sqrt(2), -0.7, 0.9, 1.4, -1.2])
        w = haar_unitary(6, 11)
        a = w @ np.diag(lam) @ adjoint(w)
        assert commutant_dimension([a], include_adjoints=True) == self._complex_stack_dimension([a]) == expected

    def test_star_closed_count_matches_complex_stack_on_scrambled_models(self):
        checked = 0
        for seed in range(192):
            scrambled, _ = random_scrambled_model(seed, max_dim=20)
            for size in (0.0, 1e-10, 1e-6):
                t = perturbed_tuple(scrambled, size, seed) if size else scrambled
                dimension = commutant_dimension(t.ops, include_adjoints=True)
                assert dimension == self._complex_stack_dimension(t.ops), (seed, size)
                checked += 1
        assert checked == 576

    @staticmethod
    def _ladder_example43(seed: int, ps=(2, 3, 4, 5)):
        """The example-4.3 pairs of the benchmark's dim-ladder at ``seed``, p = 2, ... in turn."""
        rng = np.random.default_rng([seed, 43])
        for p in range(2, max(ps) + 1):
            pair = build_twisted_shift_pair(p, complex(np.exp(2j * np.pi * rng.uniform(0.05, 0.45))))
            hidden = conjugate_tuple(pair, haar_unitary(pair.dim, rng))
            if p in ps:
                yield p, hidden

    @staticmethod
    def _tier_decisions(monkeypatch) -> list:
        """What each call of the eigenbasis tier returns while the test runs, None where it declines."""
        decisions, original = [], commutant._eigenbasis_count

        def recording(mats, eps):
            decisions.append(original(mats, eps))
            return decisions[-1]

        monkeypatch.setattr(commutant, "_eigenbasis_count", recording)
        return decisions

    @pytest.mark.parametrize("p", [4, 5])
    def test_eigenbasis_tier_decides_example43_on_the_ladder(self, monkeypatch, p):
        decisions = self._tier_decisions(monkeypatch)
        for seed in range(1, 11):
            (_, t), = self._ladder_example43(seed, ps=(p,))
            assert commutant_dimension(t.ops, include_adjoints=True) == 2, seed
        assert decisions == 10 * [2]

    @pytest.mark.parametrize("noise", [0.0, 1e-11, 1e-10, 3e-10, 6e-10, 1e-9])
    def test_star_closed_count_is_never_wrong_on_the_noise_ladder(self, monkeypatch, noise):
        # noise of norm 1e-11 to 1e-9 on each operator moves commutant directions towards and
        # past the cutoff: each tier certifies or declines, and the count stays the oracle's
        decisions = self._tier_decisions(monkeypatch)
        for seed in range(1, 6):
            for p, t in self._ladder_example43(seed, ps=(2, 3)):
                t = perturbed_tuple(t, noise, seed) if noise else t
                dimension = commutant_dimension(t.ops, include_adjoints=True)
                assert dimension == self._complex_stack_dimension(t.ops), (seed, p)
        if noise == 0.0:
            assert decisions == 10 * [2]
        for seed in range(60):
            scrambled, _ = random_scrambled_model(seed, max_dim=8)
            t = perturbed_tuple(scrambled, noise, seed) if noise else scrambled
            assert commutant_dimension(t.ops, include_adjoints=True) == self._complex_stack_dimension(t.ops), seed

    def test_a_cut_whose_square_overflows_counts_every_value(self, monkeypatch):
        # (1e300)^2 is past the float range: every singular value of S is at or below the cut
        t = conjugate_tuple(build_twisted_shift_pair(2, np.exp(0.7j)), haar_unitary(8, 2))
        assert commutant_dimension(t.ops, Tolerance(1e300), include_adjoints=True) == 64
        # the tier cannot hold its off-block directions down at that level, and declines
        assert commutant._eigenbasis_count(list(t.ops), 1e300) is None
        monkeypatch.setattr(commutant, "_eigenbasis_count", lambda mats, eps: None)
        assert commutant_dimension(t.ops, Tolerance(1e300), include_adjoints=True) == 64

    @pytest.mark.parametrize(
        "ops",
        [
            pytest.param([1e150 * np.diag([1, 2, 3.0])], id="diag-1e150"),
            pytest.param([1e160 * np.diag([1, 2, 3.0])], id="diag-1e160"),
            pytest.param([1e160 * v for v in build_twisted_shift_pair(2, np.exp(0.7j)).ops], id="example43-1e160"),
        ],
    )
    def test_an_overflowing_gram_sum_falls_through_without_a_warning(self, ops):
        # every RuntimeWarning is an error under this suite's settings
        assert commutant_dimension(ops, include_adjoints=True) == self._complex_stack_dimension(ops)

    @staticmethod
    def _misleading_eigh(monkeypatch, mislead):
        """np.linalg.eigh with its complex answers (the tier's) passed through ``mislead``."""
        original = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            lam, q = original(a, *args, **kwargs)
            return mislead(lam, q) if np.iscomplexobj(a) else (lam, q)

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    @pytest.mark.parametrize("mislead", ["scaled", "split", "mixed"])
    def test_a_misleading_eigenbasis_never_moves_the_count(self, monkeypatch, mislead):
        # example 4.3 at d = 8: A has four double eigenvalues, and the commutant is 2-dimensional.
        # Each answer below is wrong in one way that one bound of the tier must catch; without
        # it the tier would certify 1, the count of the identity alone
        t = conjugate_tuple(build_twisted_shift_pair(2, np.exp(0.7j)), haar_unitary(8, 2))
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._misleading_eigh(monkeypatch, {
            # eigenvectors scaled apart inside their blocks: A' stays block diagonal, but Q^ is
            # not unitary (epsilon)
            "scaled": lambda lam, q: (lam, q * (1.0 + 1e-5 * noise[0].real)),
            # each double eigenvalue split 2e-3 apart: two blocks of one, and A' - diag(lambda)
            # is their whole distance (g's perturbation term)
            "split": lambda lam, q: (lam + 1e-3 * np.tile([-1.0, 1.0], 4), q),
            # a unitary mixing of every eigenvector by about 1e-5: A' leaves its blocks (e,
            # sigma z0 and the level of step 3)
            "mixed": lambda lam, q: (lam, q @ np.linalg.qr(np.eye(8) + 1e-5 * noise)[0]),
        }[mislead])
        assert commutant._eigenbasis_count(list(t.ops), DEFAULT_TOL.eps) is None
        assert commutant_dimension(t.ops, include_adjoints=True) == 2

    def test_the_eigenbasis_step_returns_the_blocks_and_bounds_the_count_reads(self):
        # example 4.3 at d = 8: A has four double eigenvalues, so four blocks of two; the
        # identity has one eigenvalue, one block that is all of C^d, and the step declines
        t = conjugate_tuple(build_twisted_shift_pair(2, np.exp(0.7j)), haar_unitary(8, 2))
        c, sizes, conjugated, v_bar, e, g, epsilon, sigma = commutant._eigenbasis_step(list(t.ops))
        assert list(sizes) == [2, 2, 2, 2] and len(c) == len(conjugated) == 2
        assert v_bar == pytest.approx(sum(np.linalg.norm(v) ** 2 for v in t.ops))
        # A leaves its blocks by rounding only, the blocks' spectra lie far apart, and the
        # eigenbasis is unitary to rounding
        assert 0.0 < e < 1e-12 < g and 0.0 < epsilon < 1e-11 < sigma
        assert commutant._eigenbasis_step([identity(4)]) is None

    @pytest.mark.parametrize("include_adjoints", [False, True])
    def test_non_square_operand_is_refused(self, include_adjoints):
        with pytest.raises(ValueError, match="expected a square matrix"):
            commutant_dimension([np.eye(4), np.zeros((4, 6))], include_adjoints=include_adjoints)

    @pytest.mark.parametrize("include_adjoints", [False, True])
    def test_operands_of_different_sizes_are_refused(self, include_adjoints):
        with pytest.raises(DimensionMismatchError, match=r"\(4, 4\).*\(3, 3\)"):
            commutant_dimension([np.eye(3), np.eye(4)], include_adjoints=include_adjoints)

    @pytest.mark.parametrize("include_adjoints", [False, True])
    def test_empty_operators_have_an_empty_commutant(self, include_adjoints):
        assert commutant_dimension([np.zeros((0, 0))], include_adjoints=include_adjoints) == 0

    def test_oversized_multiplicity_match_is_refused_before_allocation(self):
        # two commuting unitaries at d = 77 decompose into one all-"u" leaf of
        # multiplicity 77; matching it stacks 2 * 77^4 complex entries, and its
        # QR peaks at three such stacks and the R factor, 7 * 77^4 entries
        t = TwistedTuple(dim=77, ops=random_commuting_unitaries(77, 2, 3))
        s = conjugate_tuple(t, haar_unitary(77, 4))

        def refuse():
            with pytest.raises(CommutantTooLargeError, match="2 Sylvester maps at d = 77 need a 3.7 GiB"):
                equivalence_check(t, s)

        # one 77^2 x 77^2 Sylvester block alone would take 562 MiB
        assert traced_peak(refuse) < 128 * 1024**2

    def test_multiplicity_match_allocates_nothing_beside_its_stack(self, monkeypatch):
        # a unitary at d = 24 decomposes into one "u" leaf of multiplicity 24; matching it
        # stacks X U1 - U2 X, 24^4 complex entries, and factorizes them
        t = single_op_tuple(haar_unitary(24, 5))
        s = conjugate_tuple(t, haar_unitary(24, 6))
        built = []
        qr = np.linalg.qr

        def recording(a, mode="reduced"):
            # the peak so far, before QR copies the stack it is handed
            built.append((tracemalloc.get_traced_memory()[1], a.nbytes))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        traced_peak(lambda: equivalence_check(t, s))
        [(peak, stack_bytes)] = built
        assert stack_bytes == 24**4 * np.dtype(complex).itemsize
        assert peak < 1.25 * stack_bytes


class TestExtractTwistFactor:
    def test_constructed_block_pair(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = haar_unitary(3, rng)
        block = np.zeros((6, 6), dtype=complex)
        block[:3, :3] = a
        block[3:, 3:] = u @ a
        got_u, got_a = extract_twist_factor(block, 2, 3)
        assert op_norm_diff(got_a, a) <= 1e-12
        assert op_norm_diff(got_u, u) <= 1e-9

    def test_identity_input(self):
        u, v = extract_twist_factor(np.eye(6), 2, 3)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(v, np.eye(3), atol=1e-12)

    def test_model_slot_recovery(self):
        u12 = np.diag([1.0, -1.0]).astype(complex)
        u2 = np.diag([1j, -1j])
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): u12}, slot_unitaries={2: u2})
        t = build_model_tuple(spec)
        got_u, got_v = extract_twist_factor(t.ops[1], 2, 2)
        assert op_norm_diff(got_u, u12) <= 1e-10
        assert op_norm_diff(got_v, u2) <= 1e-10

    def test_rank_deficient_needs_the_ambient_twist(self):
        # blocks B, uB with B singular: ratios cannot see the kernel direction
        u = np.diag([1j, -1j])
        b = np.diag([1.0, 0.0]).astype(complex)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = b
        block[2:, 2:] = u @ b
        got_u, got_b = extract_twist_factor(block, 2, 2, ambient_twist=u)
        assert op_norm_diff(got_u, u) <= 1e-12
        assert op_norm_diff(got_b, b) <= 1e-12

    def test_off_block_mass_raises(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 2] = 0.5
        with pytest.raises(DecompositionError):
            extract_twist_factor(bad, 2, 2)

    def test_inconsistent_ratios_raise(self):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = np.eye(2)
        block[2:, 2:] = np.diag([1.0, 2.0])  # not unitary times identity
        with pytest.raises(DecompositionError):
            extract_twist_factor(block, 2, 2)


class TestDecomposeTuple:
    def test_single_operator_matches_hw(self):
        v = np.zeros((3, 3), dtype=complex)
        v[1, 0] = 1.0
        v[2, 2] = np.exp(0.9j)
        tree = decompose_tuple(single_op_tuple(v))
        hw = hw_decompose(v)
        got = {leaf.multiindex: leaf.mult_dim for leaf in tree.leaves}
        expected = {(p,): m for p, m in hw.block_multiset()}
        if hw.unitary_dim:
            expected[("u",)] = hw.unitary_dim
        assert got == expected
        assert tree.residual <= 1e-12

    def test_two_shift_slots_round_trip(self):
        lam = np.exp(2j * np.pi / 7)
        spec = ModelSpec(slot_kinds=[2, 3], aux_dim=1, twist_data={(1, 2): [[lam]]})
        t = build_model_tuple(spec)
        scrambled = conjugate_tuple(t, haar_unitary(t.dim, 12))
        tree = decompose_tuple(scrambled)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [((2, 3), 1)]
        assert tree.residual <= 1e-9

    def test_direct_sum_of_distinct_models_gives_two_leaves(self):
        t1 = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]}))
        t2 = build_model_tuple(ModelSpec(slot_kinds=[3, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.8j)]]}))
        both = conjugate_tuple(direct_sum_tuples(t1, t2), haar_unitary(t1.dim + t2.dim, 3))
        tree = decompose_tuple(both)
        got = sorted(((leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves), key=leaf_key)
        assert got == [((2, 2), 1), ((3, "u"), 1)]
        assert tree.residual <= 1e-9

    def test_matching_summands_merge_multiplicities(self):
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): np.diag([1.0, -1.0])},
                         slot_unitaries={2: np.diag([1j, -1j])})
        t = build_model_tuple(spec)
        both = conjugate_tuple(direct_sum_tuples(t, t), haar_unitary(2 * t.dim, 4))
        tree = decompose_tuple(both)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [((2, "u"), 4)]

    @pytest.mark.parametrize("seed", range(15))
    def test_scrambled_models_recover_generator_structure(self, seed):
        scrambled, spec = random_scrambled_model(seed, n_ops=3)
        tree = decompose_tuple(scrambled)
        assert [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves] == [
            (tuple(spec.slot_kinds), spec.aux_dim)
        ]
        assert tree.residual <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_leaf_subspaces_reduce_every_operator(self, seed):
        scrambled, _ = random_scrambled_model(seed, n_ops=2)
        tree = decompose_tuple(scrambled)
        for leaf in tree.leaves:
            pi = leaf.intertwiner @ leaf.intertwiner.conj().T
            eye = np.eye(scrambled.dim)
            for v in scrambled.ops:
                assert op_norm((eye - pi) @ v @ pi) <= 1e-9
                assert op_norm(pi @ v @ (eye - pi)) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_slot_twists_match_ambient_compressions(self, seed):
        scrambled, _ = random_scrambled_model(seed + 40, n_ops=3)
        tree = decompose_tuple(scrambled)
        for leaf in tree.leaves:
            k_total = prod(leaf.shift_dims())
            for (m, n), symbol in leaf.slot_twists.items():
                compressed = (
                    leaf.intertwiner.conj().T
                    @ scrambled.twist(m, n)
                    @ leaf.intertwiner
                )
                ambient = _factor_out_identity(
                    compressed, k_total, leaf.mult_dim, 1e-8, "test"
                )
                assert op_norm_diff(symbol, ambient) <= 1e-9

    def test_a_leaf_datum_that_is_not_unitary_is_refused_by_path(self):
        t = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1, twist_data={(1, 2): [[1j]]}))
        bad = TwistedTuple(dim=t.dim, ops=t.ops, twists={(1, 2): 1.1 * t.twists[(1, 2)]})
        with pytest.raises(DecompositionError) as err:
            decompose_tuple(bad)
        assert str(err.value) == "/p=2/p=2: twist (1, 2): compression is not unitary (residual 2.100e-01)"

    def test_leaf_data_carry_the_whole_commutant(self):
        # the star-closed commutant is block diagonal over the leaf cells, one
        # copy per leaf of the commutant of its unit ops and visible symbols
        tuples = [random_scrambled_model(seed, max_dim=16)[0] for seed in range(80)]
        tuples += [t for t, _ in map(random_decomposition_instance, range(40)) if t.dim <= 16]
        for t in tuples:
            tree = decompose_tuple(t)
            per_leaf = 0
            for leaf in tree.leaves:
                data = [*leaf.unit_ops.values(), *leaf.slot_twists.values()]
                per_leaf += (
                    commutant_dimension(data, include_adjoints=True) if data else leaf.mult_dim**2
                )
            assert tree.commutant_dimension() == per_leaf
            assert per_leaf == commutant_dimension(t.ops, include_adjoints=True)

    def test_d324_commutant_comes_from_the_aux_space_data(self):
        # one leaf (3, 3, 4, 3) of multiplicity 3: every twist is visible
        spec = random_model_spec(45)
        t = conjugate_tuple(build_model_tuple(spec), haar_unitary(324, 45))
        assert (spec.slot_kinds, t.dim, spec.slot_unitaries) == ([3, 3, 4, 3], 324, {})
        dense = commutant_dimension(list(spec.twist_data.values()), include_adjoints=True)
        assert decompose_tuple(t).commutant_dimension() == dense == 3

    def test_a_restriction_off_the_shift_grading_is_refused_by_branch(self):
        # V_1 = J_3 x I splits exactly; noise on V_2 and V_3 leaves the order-3
        # block reducing but not block diagonal over C^3
        scrambled, spec = random_scrambled_model(1, n_ops=3)
        assert spec.slot_kinds[0] == 3
        with pytest.raises(DecompositionError) as err:
            decompose_tuple(perturbed_tuple(scrambled, 1e-6, 1, first=1))
        assert str(err.value).startswith(
            "/p=3: operator 2: not block diagonal over the shift grading (off-block mass "
        )

    def test_blocks_are_peeled_before_the_unitary_part(self):
        # V_2 = 0.1 E_31 maps the unitary part of V_1 into its order-2 block,
        # so neither part reduces it: the refusal names the block, peeled first
        v1 = np.zeros((4, 4), dtype=complex)
        v1[0, 0], v1[1, 1], v1[3, 2] = 1j, -1.0, 1.0
        v2 = np.zeros((4, 4), dtype=complex)
        v2[2, 0] = 0.1
        with pytest.raises(DecompositionError) as err:
            decompose_tuple(TwistedTuple(dim=4, ops=[v1, v2]))
        assert str(err.value) == "/p=2: operator 2: subspace is not reducing (off-block norm 1.000e-01)"

    def test_leaf_models_reproduce_operators(self):
        scrambled, spec = random_scrambled_model(9, n_ops=3)
        tree = decompose_tuple(scrambled)
        g = tree.global_intertwiner
        at = 0
        for leaf in tree.leaves:
            cols = g[:, at : at + leaf.leaf_dim]
            at += leaf.leaf_dim
            for n in range(1, scrambled.n_ops + 1):
                model = leaf_model_operator(leaf, n)
                restricted = cols.conj().T @ scrambled.ops[n - 1] @ cols
                assert op_norm_diff(model, restricted) <= 1e-9


class TestClassification:
    def test_pure_unitary_tuple(self):
        rng = np.random.default_rng(2)
        u1 = haar_unitary(3, rng)
        u2 = np.eye(3, dtype=complex)
        tree = decompose_tuple(TwistedTuple(dim=3, ops=[u1, u2]))
        partition = classify_partition(tree)
        assert partition.global_assignment == {1: "u", 2: "u"}
        assert partition.classes() == {"u": [1, 2]}

    def test_mixed_single_leaf(self):
        spec = ModelSpec(slot_kinds=[2, "u"], aux_dim=2,
                         twist_data={(1, 2): np.diag([1.0, -1.0])},
                         slot_unitaries={2: np.diag([1j, -1j])})
        tree = decompose_tuple(build_model_tuple(spec))
        partition = classify_partition(tree)
        assert partition.global_assignment == {1: 2, 2: "u"}
        assert partition.classes() == {"p=2": [1], "u": [2]}

    def test_single_shift(self):
        tree = decompose_tuple(single_op_tuple(truncated_shift(3)))
        assert classify_partition(tree).global_assignment == {1: 3}

    def test_disagreeing_leaves_have_no_global_assignment(self):
        t1 = single_op_tuple(truncated_shift(2))
        t2 = single_op_tuple(np.array([[np.exp(0.2j)]]))
        both = direct_sum_tuples(t1, t2)
        partition = decompose_tuple(both).partition
        assert partition.global_assignment is None
        assert len(partition.per_leaf) == 2

    def test_irreducible_tuple_has_single_leaf_filling_the_space(self):
        clock, shift, omega = clock_shift_unitaries(3)
        spec = ModelSpec(slot_kinds=[2, "u", "u"], aux_dim=3,
                         twist_data={(2, 3): np.conj(omega) * np.eye(3)},
                         slot_unitaries={2: clock, 3: shift})
        t = build_model_tuple(spec)
        assert is_irreducible(t)
        tree = decompose_tuple(t)
        assert len(tree.leaves) == 1
        leaf = tree.leaves[0]
        assert prod(leaf.shift_dims()) * leaf.mult_dim == t.dim


class TestEquivalence:
    def test_tuple_is_equivalent_to_its_scramble(self):
        t = build_model_tuple(random_model_spec(21, n_ops=2))
        moved = conjugate_tuple(t, haar_unitary(t.dim, 77))
        result = equivalence_check(t, moved)
        assert result.verdict == "EQUIVALENT"
        assert result.residual <= 1e-9
        u = result.intertwiner
        for a, b in zip(t.ops, moved.ops):
            assert op_norm(u @ a @ u.conj().T - b) <= 1e-9

    def test_different_shift_orders_are_not_equivalent(self):
        r = equivalence_check(
            single_op_tuple(truncated_shift(2)), single_op_tuple(truncated_shift(3))
        )
        assert r.verdict == "NOT_EQUIVALENT"

    def test_spectral_mismatch_in_unitary_part(self):
        a = single_op_tuple(np.diag([1.0, 1j]))
        b = single_op_tuple(np.diag([1.0, -1j]))
        r = equivalence_check(a, b)
        assert r.verdict == "NOT_EQUIVALENT"
        assert "spectra" in r.certificate

    @staticmethod
    def _matchings(a, b):
        """Largest matched eigenvalue distance of every matching, with its sum."""
        ea, eb = np.linalg.eigvals(a), np.linalg.eigvals(b)
        for perm in itertools.permutations(range(ea.size)):
            dist = np.abs(ea - eb[list(perm)])
            yield dist.max(), dist.sum()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_spectral_mismatch_is_the_bottleneck_distance(self, n):
        # points 1e-12 off the circle: the best cyclic shift is within 4e-12 of the bottleneck
        delta = 1e-12
        rng = np.random.default_rng(n)
        for trial in range(60):
            angles = 2 * np.pi * rng.random((2, n))
            if trial % 3 == 1:  # repeated eigenvalues with noise
                angles = np.repeat(angles[:, :1], n, axis=1) + 1e-7 * rng.standard_normal((2, n))
                angles[:, n // 2:] += 2.0
            elif trial % 3 == 2:  # one spectrum 2e-6 from the other, at the gate
                angles[1] = angles[0] + 2e-6 * rng.choice([-1.0, 1.0], n)
            radii = 1 + delta * rng.choice([-1.0, 1.0], (2, n))
            a, b = np.diag(radii[0] * np.exp(1j * angles[0])), np.diag(radii[1] * np.exp(1j * angles[1]))
            bottleneck = min(worst for worst, _ in self._matchings(a, b))
            assert bottleneck <= twisted._spectral_mismatch(a, b) <= bottleneck + 4 * delta

    def test_spectral_mismatch_is_below_the_min_sum_assignment(self):
        # angles 0, 30, 60 degrees against 0, 30, 240: the min-sum assignment matches 60 to 240
        a = np.diag(np.exp(1j * np.pi * np.array([0, 1, 2]) / 6))
        b = np.diag(np.exp(1j * np.pi * np.array([0, 1, 8]) / 6))
        min_sum_worst = min(self._matchings(a, b), key=lambda m: m[1])[0]
        bottleneck = min(worst for worst, _ in self._matchings(a, b))
        assert min_sum_worst == pytest.approx(2.0)
        assert twisted._spectral_mismatch(a, b) == bottleneck == pytest.approx(np.sqrt(3))

    def test_operator_count_mismatch(self):
        t = build_twisted_shift_pair(2, 1j)
        r = equivalence_check(t, single_op_tuple(truncated_shift(2)))
        assert r.verdict == "NOT_EQUIVALENT"

    def test_twisted_pair_equivalence_survives_scramble(self):
        t = build_twisted_shift_pair(3, np.exp(2j * np.pi / 5))
        moved = conjugate_tuple(t, haar_unitary(t.dim, 13))
        assert equivalence_check(t, moved).verdict == "EQUIVALENT"

    def test_equivalence_handles_mixed_leaf_entry_types(self):
        # leaf multiindices mixing ints and "u" at the same position
        t1 = build_model_tuple(ModelSpec(slot_kinds=[2, 2], aux_dim=1,
                                         twist_data={(1, 2): [[1j]]}))
        t2 = build_model_tuple(ModelSpec(slot_kinds=[2, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.3j)]]}))
        both = direct_sum_tuples(t1, t2)
        moved = conjugate_tuple(both, haar_unitary(both.dim, 3))
        assert equivalence_check(both, moved).verdict == "EQUIVALENT"
        t3 = build_model_tuple(ModelSpec(slot_kinds=[3, "u"], aux_dim=1,
                                         slot_unitaries={2: [[np.exp(0.3j)]]}))
        other = direct_sum_tuples(t1, t3)
        assert equivalence_check(both, other).verdict == "NOT_EQUIVALENT"

    def test_matching_invariants_without_a_match_stay_inconclusive(self):
        # clock-shift pairs generating inequivalent relations share every
        # computed invariant; the verdict must not guess a negative
        clock, shift, omega = clock_shift_unitaries(3)
        t1 = build_model_tuple(
            ModelSpec(slot_kinds=["u", "u"], aux_dim=3,
                      twist_data={(1, 2): np.conj(omega) * np.eye(3)},
                      slot_unitaries={1: clock, 2: shift})
        )
        t2 = build_model_tuple(
            ModelSpec(slot_kinds=["u", "u"], aux_dim=3,
                      twist_data={(1, 2): np.conj(omega) ** 2 * np.eye(3)},
                      slot_unitaries={1: clock, 2: shift @ shift})
        )
        result = equivalence_check(t1, t2)
        assert result.verdict == "INCONCLUSIVE"

    @pytest.mark.parametrize("kinds", [[2, 1], [1, "u"]])
    def test_a_twist_no_operator_sees_does_not_block_the_match(self, kinds):
        # at [2, 1] the twist multiplies V_2 = 0; at [1, "u"] its diagonal
        # twist sits at a one-dimensional slot, where it is the identity
        unitaries = {2: np.diag([np.exp(0.3j), np.exp(0.9j)])} if "u" in kinds else {}
        t1, t2 = (
            build_model_tuple(ModelSpec(slot_kinds=kinds, aux_dim=2, slot_unitaries=unitaries,
                                        twist_data={(1, 2): np.diag([1.0, z])}))
            for z in (1j, -1.0)
        )
        assert all(np.array_equal(a, b) for a, b in zip(t1.ops, t2.ops))
        assert verify_twisted(t1).passed and verify_twisted(t2).passed
        assert equivalence_check(t1, t2).verdict == "EQUIVALENT"

    @pytest.mark.parametrize("size", [1e-11, 1e-10, 3e-10])
    def test_verified_noisy_copies_are_equivalent_and_their_partners_are_not(self, size):
        instances = [random_decomposition_instance(seed) for seed in range(40)]
        equivalent = partners = 0
        for seed, (t, leaves) in enumerate(instances):
            copy = perturbed_tuple(conjugate_tuple(t, haar_unitary(t.dim, seed + 500)), size, seed)
            if not verify_twisted(copy).passed:
                continue
            assert equivalence_check(t, copy).verdict == "EQUIVALENT", seed
            equivalent += 1
            # a partner of the same shape with other leaves
            for other, other_leaves in instances:
                if (other.dim, other.n_ops) == (t.dim, t.n_ops) and other_leaves != leaves:
                    assert equivalence_check(other, copy).verdict == "NOT_EQUIVALENT", seed
                    partners += 1
                    break
        assert equivalent >= 15 and partners >= 5


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_invariants_survive_permutation(self, seed):
        scrambled, _ = random_scrambled_model(seed + 60, n_ops=3)
        tree = decompose_tuple(scrambled)
        base = sorted(((leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves), key=leaf_key)
        rng = np.random.default_rng(seed)
        perm = list(rng.permutation(3) + 1)
        permuted_tree = decompose_tuple(permute_tuple(scrambled, perm))
        reindexed = sorted(
            (
                (
                    tuple(leaf.multiindex[perm.index(o)] for o in range(1, 4)),
                    leaf.mult_dim,
                )
                for leaf in permuted_tree.leaves
            ),
            key=leaf_key,
        )
        assert reindexed == base
        assert len(permuted_tree.leaves) == len(tree.leaves)


# ---------------------------------------------------------------------------
# oracle: the recursion that carries every twist, slot twist symbol and
# unitary remainder down the tree, re-certifies each at every branch and fits
# each symbol with `extract_twist_factor`; the projector form of the reducing
# check; the equivalence check pairing leaves by multiindex, with the
# multiplicity null space cut at the relative rank_eps


@dataclass
class _OracleLeaf:
    multiindex: tuple
    leaf_dim: int
    mult_dim: int
    slot_twists: dict
    unit_ops: dict
    intertwiner: np.ndarray


@dataclass
class _OracleTree:
    leaves: list
    global_intertwiner: np.ndarray
    residual: float
    partition: object


def _oracle_check_reducing(op, basis, eps, what):
    proj = basis @ adjoint(basis)
    eye = identity(op.shape[0])
    off_out = (eye - proj) @ op @ proj
    off_in = proj @ op @ (eye - proj)
    if not (_norm_within(off_out, eps) and _norm_within(off_in, eps)):
        worst = max(op_norm(off_out), op_norm(off_in))
        raise DecompositionError(f"{what}: subspace is not reducing (off-block norm {worst:.3e})")


def _factor_out_identity(mat, blocks, block_dim, eps, what):
    """Certify mat = I_blocks x X and return X (the averaged diagonal block)."""
    if blocks == 1:
        return mat
    acc = np.zeros((block_dim, block_dim), dtype=complex)
    for a in range(blocks):
        acc += mat[a * block_dim : (a + 1) * block_dim, a * block_dim : (a + 1) * block_dim]
    x = acc / blocks
    defect = mat - kron(identity(blocks), x)
    if not _norm_within(defect, eps):
        raise DecompositionError(f"{what}: no identity tensor factor (residual {op_norm(defect):.3e})")
    return x


def _compress_unitary(u, basis, eps, what):
    c = adjoint(basis) @ u @ basis
    if not twisted._unitary_within(c, eps):
        raise DecompositionError(
            f"{what}: compression is not unitary (residual {unitarity_residual(c):.3e})"
        )
    return c


def _oracle_rec(remaining, ops, peeled, twists, symbols, dim, tol, path):
    if not remaining:
        return [_OracleLeaf((), dim, dim, dict(symbols), dict(peeled), identity(dim))]
    compress = _compress_unitary
    eps = tol.eps
    first = remaining[0]
    rest = remaining[1:]
    others = rest + sorted(peeled)
    hw = hw_decompose(ops[first], tol)
    leaves = []

    if hw.unitary_dim:
        basis = hw.unitary_basis.basis
        here = f"{path}/u"
        sub_ops = {}
        for n in rest:
            _oracle_check_reducing(ops[n], basis, eps, f"{here}: operator {n}")
            sub_ops[n] = adjoint(basis) @ ops[n] @ basis
        sub_peeled = {
            n: compress(t, basis, eps, f"{here}: unitary remainder {n}") for n, t in peeled.items()
        }
        sub_peeled[first] = hw.unitary_op
        sub_twists = {key: compress(u, basis, eps, f"{here}: twist {key}") for key, u in twists.items()}
        sub_symbols = {
            key: compress(s, basis, eps, f"{here}: slot twist {key}") for key, s in symbols.items()
        }
        for sub in _oracle_rec(
            rest, sub_ops, sub_peeled, sub_twists, sub_symbols, hw.unitary_dim, tol, here
        ):
            leaves.append(_OracleLeaf(
                ("u",) + sub.multiindex, sub.leaf_dim, sub.mult_dim, sub.slot_twists,
                sub.unit_ops, basis @ sub.intertwiner,
            ))

    at = hw.unitary_dim
    for block in hw.truncated_blocks:
        p, mult = block.p, block.mult
        here = f"{path}/p={p}"
        wp = hw.intertwiner[:, at : at + p * mult]
        at += p * mult

        def down_twistlike(u, what):
            return _factor_out_identity(compress(u, wp, eps, what), p, mult, eps, what)

        sub_ops = {}
        sub_peeled = {}
        sub_symbols = {
            key: down_twistlike(s, f"{here}: slot twist {key}") for key, s in symbols.items()
        }
        for n in others:
            carried = ops[n] if n in ops else peeled[n]
            _oracle_check_reducing(carried, wp, eps, f"{here}: operator {n}")
            restricted = adjoint(wp) @ carried @ wp
            ambient = down_twistlike(
                _pair_lookup(twists, first, n), f"{here}: twist ({first}, {n})"
            )
            u_n, v_tilde = extract_twist_factor(restricted, p, mult, tol, ambient_twist=ambient)
            sub_symbols[(first, n)] = u_n
            if n in ops:
                sub_ops[n] = v_tilde
            else:
                sub_peeled[n] = v_tilde
        sub_twists = {key: down_twistlike(u, f"{here}: twist {key}") for key, u in twists.items()}
        for sub in _oracle_rec(rest, sub_ops, sub_peeled, sub_twists, sub_symbols, mult, tol, here):
            leaves.append(_OracleLeaf(
                (p,) + sub.multiindex, p * sub.leaf_dim, sub.mult_dim, sub.slot_twists,
                sub.unit_ops, wp @ kron(identity(p), sub.intertwiner),
            ))
    return leaves


def _oracle_decompose(t, tol=DEFAULT_TOL):
    """`decompose_tuple` on the oracle recursion, with its leaf data."""
    leaves = []
    for old in _oracle_rec(
        list(range(1, t.n_ops + 1)), dict(enumerate(t.ops, 1)), {}, dict(t.twists), {}, t.dim, tol, ""
    ):
        leaf = DecompositionLeaf(
            old.multiindex, old.mult_dim, old.slot_twists, old.unit_ops, old.intertwiner
        )
        assert leaf.leaf_dim == old.leaf_dim
        leaves.append(leaf)
    leaves.sort(key=lambda leaf: leaf_key((leaf.multiindex, leaf.mult_dim)))
    total = sum(leaf.leaf_dim for leaf in leaves)
    if total != t.dim:
        raise DecompositionError(f"leaf dimensions sum to {total}, ambient is {t.dim}")
    g = np.hstack([leaf.intertwiner for leaf in leaves])
    g_defect = adjoint(g) @ g - identity(t.dim)
    if not _norm_within(g_defect, tol.eps):
        raise DecompositionError(f"global intertwiner is not unitary (residual {op_norm(g_defect):.3e})")
    worst = 0.0
    for n in range(1, t.n_ops + 1):
        model = twisted._block_diag([leaf_model_operator(leaf, n, tol) for leaf in leaves])
        worst = max(worst, op_norm(g @ model @ adjoint(g) - t.ops[n - 1]))
    if worst > tol.eps:
        raise DecompositionError(f"reconstruction residual {worst:.3e} exceeds eps {tol.eps:.1e}")
    return _OracleTree(leaves, g, float(worst), twisted._classify(leaves))


def _oracle_match(leaf1, leaf2, tol):
    m = leaf1.mult_dim
    pairs = [(leaf1.unit_ops[n], leaf2.unit_ops[n]) for n in sorted(leaf1.unit_ops)]
    pairs += [
        (leaf1.slot_twists[key], leaf2.slot_twists[key]) for key in sorted(leaf1.slot_twists)
    ]
    if not pairs:
        return identity(m)
    closed = [b for a1, a2 in pairs for b in ((a1, a2), (adjoint(a1), adjoint(a2)))]
    solutions = nullspace(sylvester_pair_stack(closed), tol)
    if solutions.dim == 0:
        return None
    basis = [solutions.basis[:, r].reshape(m, m) for r in range(solutions.dim)]
    for attempt in range(8):
        rng = np.random.default_rng(attempt)
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        z = sum(c * x for c, x in zip(coeffs, basis))
        s = np.linalg.svd(z, compute_uv=False)
        if s[0] == 0 or s[-1] < 1e-8 * s[0]:
            continue
        u = twisted._polar_unitary(z)
        if all(_norm_within(u @ a1 - a2 @ u, tol.eps * 100) for a1, a2 in pairs):
            return u
    return None


def _oracle_equivalence(t1, t2, tol=DEFAULT_TOL):
    if t1.n_ops != t2.n_ops:
        return EquivalenceResult("NOT_EQUIVALENT", "different number of operators")
    if t1.dim != t2.dim:
        return EquivalenceResult("NOT_EQUIVALENT", "different ambient dimension")
    tree1 = _oracle_decompose(t1, tol)
    tree2 = _oracle_decompose(t2, tol)
    inv1 = [(leaf.multiindex, leaf.mult_dim) for leaf in tree1.leaves]
    inv2 = [(leaf.multiindex, leaf.mult_dim) for leaf in tree2.leaves]
    if inv1 != inv2:
        return EquivalenceResult("NOT_EQUIVALENT", f"leaf invariants differ: {inv1} vs {inv2}")

    by_index1 = {leaf.multiindex: leaf for leaf in tree1.leaves}
    by_index2 = {leaf.multiindex: leaf for leaf in tree2.leaves}
    spectral_gate = max(1e-6, 100 * tol.eps)
    for index, leaf1 in by_index1.items():
        leaf2 = by_index2[index]
        for n in sorted(leaf1.unit_ops):
            gap = twisted._spectral_mismatch(leaf1.unit_ops[n], leaf2.unit_ops[n])
            if gap > spectral_gate:
                return EquivalenceResult(
                    "NOT_EQUIVALENT",
                    f"unitary-part spectra differ at leaf {index}, operator {n} (gap {gap:.3e})",
                )
    blocks = []
    for index, leaf1 in by_index1.items():
        leaf2 = by_index2[index]
        match = _oracle_match(leaf1, leaf2, tol)
        if match is None:
            return EquivalenceResult(
                "INCONCLUSIVE",
                f"invariants agree but no verified multiplicity match at leaf {index}",
            )
        k_total = prod(leaf1.shift_dims())
        blocks.append(
            leaf2.intertwiner @ kron(identity(k_total), match) @ adjoint(leaf1.intertwiner)
        )
    u_total = sum(blocks)
    if not twisted._unitary_within(u_total, tol.eps):
        return EquivalenceResult("INCONCLUSIVE", "assembled intertwiner failed the unitarity check")
    worst = max(
        op_norm(u_total @ t1.ops[n] @ adjoint(u_total) - t2.ops[n]) for n in range(t1.n_ops)
    )
    if worst <= tol.eps:
        return EquivalenceResult(
            "EQUIVALENT", "explicit intertwiner verified on every operator",
            intertwiner=u_total, residual=float(worst),
        )
    return EquivalenceResult(
        "INCONCLUSIVE",
        f"invariants agree but the assembled intertwiner has residual {worst:.3e}",
    )


def _same_bits(a, b) -> bool:
    """Equal values and equal signs of zero, real and imaginary parts alike."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _outcome(run, *args):
    try:
        return run(*args)
    except DecompositionError as exc:
        return str(exc)


def _visible(multiindex, key):
    """A symbol (m, n) some model operator sees: p_m >= 2 and V_n is not J_1."""
    m, n = key
    return multiindex[m - 1] != "u" and multiindex[m - 1] >= 2 and multiindex[n - 1] != 1


def _assert_agrees_with_oracle(new, old, noise):
    """Bit-identical structure; leaf data close to the oracle's, its visible symbols only."""
    close = 10 * noise if noise else 1e-12
    assert len(new.leaves) == len(old.leaves)
    for a, b in zip(new.leaves, old.leaves):
        assert (a.multiindex, a.leaf_dim, a.mult_dim) == (b.multiindex, b.leaf_dim, b.mult_dim)
        assert _same_bits(a.intertwiner, b.intertwiner)
        assert a.unit_ops.keys() == b.unit_ops.keys()
        assert set(a.slot_twists) == {key for key in b.slot_twists if _visible(b.multiindex, key)}
        for ours, theirs in ((a.unit_ops, b.unit_ops), (a.slot_twists, b.slot_twists)):
            assert all(op_norm_diff(ours[key], theirs[key]) <= close for key in ours)
    assert new.partition == old.partition
    assert _same_bits(new.global_intertwiner, old.global_intertwiner)
    assert new.residual <= DEFAULT_TOL.eps


@pytest.mark.parametrize("size", [1e-11, 1e-10, 3e-10, 1e-9])
def test_verified_noisy_tuples_certify_with_the_right_leaves_or_fail_by_name(size):
    # noise at 0.1x to 10x rank_eps = eps / 10; the projection ranks of
    # the recursion are cut at 1/2 and each leaf datum is one compression of
    # the input, so up to 3e-10 nothing that verifies is refused
    refused = []
    for seed in range(100):
        scrambled, spec = random_scrambled_model(seed)
        t = perturbed_tuple(scrambled, size, seed)
        if not verify_twisted(t).passed:
            continue
        try:
            tree = decompose_tuple(t)
        except DecompositionError as exc:
            refused.append((seed, str(exc)))
            continue
        leaves = [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves]
        assert leaves == [(tuple(spec.slot_kinds), spec.aux_dim)], seed
        assert tree.residual <= 1e-9
    if size <= 3e-10:
        assert refused == []


class TestRecursionOracle:
    """Peeling operators only and reading leaf data once agrees with the oracle above."""

    @pytest.mark.parametrize("seed", range(40))
    def test_trees_agree_with_the_oracle(self, seed):
        scrambled, _ = random_scrambled_model(seed, n_ops=3)
        summed, _ = random_decomposition_instance(seed)
        inputs = [(scrambled, 0.0), (summed, 0.0), (perturbed_tuple(summed, 1e-10, seed), 1e-10)]
        inputs += [(perturbed_tuple(scrambled, size, seed), size) for size in (1e-10, 1e-8, 1e-6)]
        # V_1 still splits cleanly, so the noise meets the restrictions below it
        inputs += [
            (perturbed_tuple(t, size, seed, first=1), size)
            for t in (scrambled, summed)
            for size in (1e-9, 1e-6)
        ]
        for t, size in inputs:
            new = _outcome(decompose_tuple, t)
            old = _outcome(_oracle_decompose, t)
            if isinstance(new, str) or isinstance(old, str):
                # the two may certify or fail apart only on input that fails verify
                if new != old:
                    assert not verify_twisted(t).passed
                continue
            _assert_agrees_with_oracle(new, old, size)

    @staticmethod
    def _equivalence_pairs(seed):
        t, _ = random_decomposition_instance(seed)
        pairs = [
            (t, conjugate_tuple(t, haar_unitary(t.dim, seed + 90))),
            (t, perturbed_tuple(conjugate_tuple(t, haar_unitary(t.dim, seed + 91)), 1e-10, seed)),
        ]
        phases = [np.exp(0.3j), np.exp(0.9j)]
        a, b = (
            build_model_tuple(ModelSpec(slot_kinds=[2, "u"], aux_dim=1, slot_unitaries={2: [[z]]}))
            for z in phases
        )
        clock, shift, omega = clock_shift_unitaries(3)
        c1, c2 = (
            build_model_tuple(ModelSpec(
                slot_kinds=["u", "u"], aux_dim=3,
                twist_data={(1, 2): np.conj(omega) ** k * np.eye(3)},
                slot_unitaries={1: clock, 2: np.linalg.matrix_power(shift, k)},
            ))
            for k in (1, 2)
        )
        return pairs + [(direct_sum_tuples(a, a), direct_sum_tuples(a, b)), (c1, c2)]

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_verdicts_agree_with_the_oracle(self, seed):
        verdicts = set()
        for t1, t2 in self._equivalence_pairs(seed):
            new = _outcome(equivalence_check, t1, t2)
            old = _outcome(_oracle_equivalence, t1, t2)
            if isinstance(new, str) or isinstance(old, str):
                assert new == old
                continue
            assert (new.verdict, new.certificate) == (old.verdict, old.certificate)
            verdicts.add(new.verdict)
            assert (new.intertwiner is None) == (old.intertwiner is None)
            if new.intertwiner is not None:
                # the match may pick another intertwiner than the oracle's: verify it
                u = new.intertwiner
                assert unitarity_residual(u) <= DEFAULT_TOL.eps
                worst = max(op_norm(u @ a @ adjoint(u) - b) for a, b in zip(t1.ops, t2.ops))
                assert new.residual == worst <= DEFAULT_TOL.eps
        assert verdicts == {"EQUIVALENT", "NOT_EQUIVALENT", "INCONCLUSIVE"}

    def test_non_reducing_subspace_fails_both_forms(self):
        rng = np.random.default_rng(5)
        op = haar_unitary(12, rng)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)))
        with pytest.raises(DecompositionError, match="not reducing") as new:
            twisted._restrict(op, basis, 1e-9, "op")
        with pytest.raises(DecompositionError) as old:
            _oracle_check_reducing(op, basis, 1e-9, "op")
        assert str(new.value) == str(old.value)

    def test_reducing_subspace_compresses_like_the_two_sided_product(self):
        scrambled, _ = random_scrambled_model(3, n_ops=2)
        basis = decompose_tuple(scrambled).leaves[0].intertwiner
        for v in scrambled.ops:
            _oracle_check_reducing(v, basis, 1e-9, "op")
            assert _same_bits(twisted._restrict(v, basis, 1e-9, "op"), adjoint(basis) @ v @ basis)
