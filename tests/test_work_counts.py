"""Work counts of the screened paths, independent of timing.

A counter on numpy's SVD (the one behind `op_norm` too) shows which
calls factorize and whether they ask for singular vectors; a counter on
`operators._power_walk` shows how many powers of V a check forms.
"""

import json

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest
from scipy.linalg import block_diag

from partialiso import (
    ModelSpec,
    TwistedTuple,
    build_model_tuple,
    build_twisted_shift_pair,
    check_projection_commutation,
    commutant_dimension,
    conjugate_tuple,
    decompose_tuple,
    equivalence_check,
    haar_unitary,
    is_power_partial_isometry,
    kron,
    power_isometry_residual,
    random_commuting_unitaries,
    random_model_spec,
    truncated_shift,
    verify_twisted,
)
from partialiso import cli, halmos_wallen, operators, twisted
from partialiso.documents import dumps_canonical, tuple_document
from partialiso.linalg import DEFAULT_TOL, _BOUND_SLACK, _frobenius, _norm_within, identity, op_norm


@pytest.fixture
def svd_calls(monkeypatch):
    """Every numpy SVD made while the test runs, as (shape, compute_uv)."""
    calls = []
    original = np.linalg.svd

    def counting(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv))
        return original(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np_linalg_impl, "svd", counting)
    return calls


@pytest.fixture
def power_draws(monkeypatch):
    """Powers drawn from each `operators._power_walk`, one count per walk."""
    counts = []
    original = operators._power_walk

    def counting(v):
        counts.append(0)
        walk = len(counts) - 1
        for item in original(v):
            counts[walk] += 1
            yield item

    monkeypatch.setattr(operators, "_power_walk", counting)
    return counts


def test_valid_operator_passes_the_power_check_without_an_svd(svd_calls):
    spec = ModelSpec(slot_kinds=[4, 4], aux_dim=4, twist_data={(1, 2): np.diag([1, 1j, -1, -1j])})
    t = build_model_tuple(spec)
    v = conjugate_tuple(t, haar_unitary(t.dim, 3)).ops[0]
    svd_calls.clear()
    assert v.shape == (64, 64)
    assert is_power_partial_isometry(v) == (True, None)
    assert svd_calls == []


def test_projection_check_builds_one_range_source_ladder(monkeypatch):
    built = []
    original_init = halmos_wallen.RangeSourceLadder.__init__

    def counting_init(self, v):
        original_init(self, v)
        built.append(self)

    monkeypatch.setattr(halmos_wallen.RangeSourceLadder, "__init__", counting_init)
    t = build_twisted_shift_pair(3, 1j)
    d = t.dim
    residuals = check_projection_commutation(t.ops[0], t.ops[1])
    assert "block_p=3" in residuals
    assert len(built) == 1
    # one product per power, up to the largest block order asked for
    assert len(built[0].ranges) == len(built[0].sources) == d + 1


def test_hw_decompose_factorizes_only_non_empty_projection_ranges(monkeypatch, svd_calls):
    # a unitary part and blocks of orders 2 and 4: orders 1 and 3 are empty
    rng = np.random.default_rng(4)
    parts = [haar_unitary(3, rng), kron(truncated_shift(2), identity(2)), truncated_shift(4)]
    w = haar_unitary(11, rng)
    v = w @ block_diag(*parts) @ w.conj().T
    spaces = []
    original = halmos_wallen.multiplicity_space

    def recording(*args):
        spaces.append(original(*args))
        return spaces[-1]

    monkeypatch.setattr(halmos_wallen, "multiplicity_space", recording)
    svd_calls.clear()
    hw = halmos_wallen.hw_decompose(v)
    assert (hw.unitary_dim, hw.block_multiset()) == (3, [(2, 2), (4, 1)])
    assert [s.dim for s in spaces] == [0, 2, 0, 1]
    # singular vectors for the unitary basis and each non-empty order only,
    # and no values-only SVD before them: the one left is the final residual
    assert sum(compute_uv for _, compute_uv in svd_calls) == 1 + 2
    assert sum(not compute_uv for _, compute_uv in svd_calls) == 1
    svd_calls.clear()
    assert halmos_wallen.assert_no_shift_parts(v)
    assert not any(compute_uv for _, compute_uv in svd_calls)


def test_decompose_tuple_takes_one_svd_per_operator_outside_hw_decompose(monkeypatch, svd_calls):
    inside = []
    original = twisted.hw_decompose

    def counting(v, tol):
        before = len(svd_calls)
        hw = original(v, tol)
        inside.append(len(svd_calls) - before)
        return hw

    def no_fit(*args, **kwargs):
        raise AssertionError("extract_twist_factor called")

    monkeypatch.setattr(twisted, "hw_decompose", counting)
    monkeypatch.setattr(twisted, "extract_twist_factor", no_fit)
    t = build_twisted_shift_pair(3, np.exp(0.7j))
    t = conjugate_tuple(t, haar_unitary(t.dim, 3))
    svd_calls.clear()
    decompose_tuple(t)
    # the reconstruction residual of each operator; every other gate is screened
    assert len(svd_calls) - sum(inside) == t.n_ops == 2


def test_equivalence_match_factorizes_only_square_operands(svd_calls):
    # two commuting unitaries decompose into one all-"u" leaf of multiplicity
    # 6: its match stacks 4 * 36 rows over 36 unknowns, and the null space
    # comes from the square R factor, not from an SVD of the tall stack
    t = TwistedTuple(dim=6, ops=random_commuting_unitaries(6, 2, 3))
    s = conjugate_tuple(t, haar_unitary(6, 4))
    svd_calls.clear()
    assert equivalence_check(t, s).verdict == "EQUIVALENT"
    assert ((36, 36), True) in svd_calls
    assert all(rows == cols for (rows, cols), _ in svd_calls)


@pytest.mark.parametrize("m", [4, 6])
def test_each_match_attempt_factors_its_candidate_once(svd_calls, monkeypatch, m):
    # the conditioning test and the polar factor read one SVD of the candidate
    t = TwistedTuple(dim=m, ops=random_commuting_unitaries(m, 2, m))
    s = conjugate_tuple(t, haar_unitary(m, m + 1))
    (leaf1,), (leaf2,) = decompose_tuple(t).leaves, decompose_tuple(s).leaves
    attempts = []
    original = np.random.default_rng

    def counting(seed):
        attempts.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    svd_calls.clear()
    assert twisted._match_leaf_unitary(leaf1, leaf2, DEFAULT_TOL) is not None
    candidates = [call for call in svd_calls if call[0] == (m, m)]
    assert attempts and len(candidates) == len(attempts)
    assert all(compute_uv for _, compute_uv in candidates)


def test_commutant_never_forms_singular_vectors(svd_calls, monkeypatch):
    stacks, operands = [], []
    original, counting = twisted._sylvester_stack, np.linalg.svd

    def recording(pairs, basis):
        stacks.append(original(pairs, basis))
        return stacks[-1]

    def factorizing(a, *args, **kwargs):
        operands.append(a)
        return counting(a, *args, **kwargs)

    monkeypatch.setattr(twisted, "_sylvester_stack", recording)
    monkeypatch.setattr(np.linalg, "svd", factorizing)
    t = build_twisted_shift_pair(2, np.exp(0.7j))
    assert commutant_dimension(t.ops, include_adjoints=True) == 2
    # two operators at d = 8: Re and Im rows of each map over 64 Hermitian unknowns
    assert svd_calls == [((4 * 64, 64), False)]
    # the SVD is handed a real view of the one stack built, not a copy of it
    assert [a.dtype for a in operands] == [np.float64]
    assert [np.shares_memory(a, stack) for a, stack in zip(operands, stacks)] == [True]


@pytest.mark.parametrize(
    "run",
    [
        lambda v, w: halmos_wallen.hw_decompose(v),
        lambda v, w: check_projection_commutation(v, w),
        lambda v, w: halmos_wallen.assert_no_shift_parts(v),
    ],
    ids=["hw_decompose", "check_projection_commutation", "assert_no_shift_parts"],
)
def test_p_and_q_take_one_power_walk_each(monkeypatch, run):
    walked = []
    original = halmos_wallen._power_walk

    def counting(v):
        walked.append(v)
        return original(v)

    monkeypatch.setattr(halmos_wallen, "_power_walk", counting)
    t = build_twisted_shift_pair(3, 1j)
    v, w = conjugate_tuple(t, haar_unitary(t.dim, 5)).ops
    run(v, w)
    assert len(walked) == 2
    assert np.array_equal(walked[0], v)
    assert np.array_equal(walked[1], v.conj().T)


def _walk_without_exit(v, eps=1e-9):
    """The screened checks over all d + 1 powers: (worst, op_norm calls, verdict)."""
    worst, calls, verdict = 0.0, 0, (True, None)
    vp = v.copy()
    for n in range(1, v.shape[0] + 2):
        residual = vp @ vp.conj().T @ vp - vp
        if _frobenius(residual) * (1.0 + _BOUND_SLACK) > worst:
            worst = max(worst, op_norm(residual))
            calls += 1
        if verdict[0] and not _norm_within(residual, eps):
            verdict = (False, n)
        vp = vp @ v
    return worst, calls, verdict


def _example43(p, scrambled):
    t = build_twisted_shift_pair(p, np.exp(0.7j))
    return conjugate_tuple(t, haar_unitary(t.dim, p)).ops if scrambled else t.ops


@pytest.mark.parametrize(
    "ops, expected",
    [
        # the exit: of 129 powers, the residual check forms 16 (<= 2p + 1
        # for p = 8) and the verdict 8
        pytest.param(_example43(8, True), [16, 8, 16, 8], id="example43-p8-scrambled"),
        # the zero rule: J_8 x I_8 and d[lambda] x J_8 vanish exactly at power 8
        pytest.param(_example43(8, False), [8, 8, 8, 8], id="example43-p8"),
        # a unitary keeps its norm, so no bound ends its walk
        pytest.param([haar_unitary(64, 11)], [65, 65], id="haar-d64"),
    ],
)
def test_power_walk_ends_where_no_later_power_can_matter(monkeypatch, power_draws, ops, expected):
    norm_calls = []
    monkeypatch.setattr(operators, "op_norm", lambda a: norm_calls.append(1) or op_norm(a))
    for v in ops:
        worst, calls, verdict = _walk_without_exit(v)
        norm_calls.clear()
        assert power_isometry_residual(v) == worst
        assert len(norm_calls) == calls
        assert is_power_partial_isometry(v) == verdict
    assert power_draws == expected


def test_d324_model_tuple_verifies_forming_few_powers(power_draws):
    t = build_model_tuple(random_model_spec(45))
    assert t.dim == 324
    report = verify_twisted(conjugate_tuple(t, haar_unitary(t.dim, 45)))
    assert report.passed
    assert len(power_draws) == t.n_ops
    assert max(power_draws) <= 10


def test_cli_commutant_builds_only_leaf_sized_sylvester_stacks(monkeypatch, tmp_path, capsys):
    widths = []
    original = twisted._sylvester_stack

    def recording(pairs, basis):
        stack = original(pairs, basis)
        # one row per unknown
        widths.append(stack.shape[0])
        return stack

    monkeypatch.setattr(twisted, "_sylvester_stack", recording)
    t = build_twisted_shift_pair(3, np.exp(0.7j))
    path = tmp_path / "d18.json"
    path.write_text(dumps_canonical(tuple_document(conjugate_tuple(t, haar_unitary(t.dim, 3)))))
    assert cli.main(["commutant", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2
    # one leaf (3, 3) of multiplicity m = 2: m^2 = 4 unknowns, not d^2 = 324
    assert widths == [2 * 2]
