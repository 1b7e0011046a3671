"""Work counts of the screened paths, independent of timing.

A log of numpy's factorizations (the SVD behind `op_norm` too, eigh,
eigvalsh, Cholesky, solve and QR) shows which calls factorize what size
and whether an SVD asks for singular vectors; a counter on
`operators._power_walk` shows how many powers of V a check forms.
"""

import functools
import json
from collections.abc import Sequence

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
from partialiso import cli, commutant, halmos_wallen, linalg, operators, twisted
from partialiso.documents import dumps_canonical, tuple_document
from partialiso.linalg import DEFAULT_TOL, identity, op_norm
from conftest import (
    eager_residuals,
    perturbed_tuple,
    random_hw_instance,
    random_scrambled_model,
    rerun_at_blas_threads,
    residual_bits,
    unscreened_power_residuals,
)


class FactorizationLog(list):
    """(function, shape) of each numpy factorization in call order; each SVD's compute_uv is
    kept beside it, for `SvdCalls`."""

    def __init__(self):
        super().__init__()
        self.compute_uv = []

    def record(self, function: str, shape: tuple, compute_uv=None) -> None:
        self.append((function, shape))
        self.compute_uv.append(compute_uv)

    def clear(self) -> None:
        super().clear()
        self.compute_uv.clear()


class SvdCalls(Sequence):
    """The SVDs of a `FactorizationLog` as (shape, compute_uv), read live; clear() clears the log."""

    def __init__(self, log: FactorizationLog):
        self._log = log

    def _calls(self) -> list:
        return [(shape, uv) for (function, shape), uv in zip(self._log, self._log.compute_uv) if function == "svd"]

    def __getitem__(self, index):
        return self._calls()[index]

    def __len__(self) -> int:
        return len(self._calls())

    def __eq__(self, other) -> bool:
        return self._calls() == list(other)

    def clear(self) -> None:
        self._log.clear()


@pytest.fixture
def factorizations(monkeypatch):
    """Every numpy svd, eigh, eigvalsh, cholesky, solve and qr made while the test runs."""
    log = FactorizationLog()
    for name in ("svd", "eigh", "eigvalsh", "cholesky", "solve", "qr"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            if _name == "svd":
                log.record(_name, np.shape(a), kwargs.get("compute_uv", args[1] if len(args) > 1 else True))
            else:
                log.record(_name, np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(np_linalg_impl, name, counting)
    return log


@pytest.fixture
def svd_calls(factorizations):
    """Every numpy SVD made while the test runs, as (shape, compute_uv)."""
    return SvdCalls(factorizations)


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
    residuals = check_projection_commutation(t.ops[0], t.ops[1])
    assert "block_p=3" in residuals
    assert len(built) == 1
    # one product per power, up to power 5 of the d = 18 walk: order 2p - 1 = 5 is the last
    # block its bound cannot drop, and past it the powers vanish exactly (V^3 = 0), so every
    # later step is bounded at underflow size
    assert len(built[0].ranges) == len(built[0].sources) == 2 * 3


@pytest.mark.parametrize("p", [3, 5])
def test_projection_check_forms_only_blocks_its_bound_cannot_drop(monkeypatch, p):
    formed = []
    original = twisted.truncated_block_projection

    def counting(v, order, ladder=None):
        formed.append(order)
        return original(v, order, ladder)

    monkeypatch.setattr(twisted, "truncated_block_projection", counting)
    t = build_twisted_shift_pair(p, np.exp(0.7j))
    v, w = conjugate_tuple(t, haar_unitary(t.dim, p)).ops
    residuals = check_projection_commutation(v, w)
    assert [key for key in residuals if key.startswith("block")] == [f"block_p={p}"]
    # R_n and S_n step only for n < p, so a block of order 2p or more has a bound of
    # rounding size: 2p - 1 blocks are formed of the d = 2p^2 orders
    assert formed == list(range(1, 2 * p))


def _unitary_and_orders_2_and_4() -> np.ndarray:
    """A scrambled 3-dimensional unitary part plus J_2 x I_2 and J_4: orders 1 and 3 are empty."""
    rng = np.random.default_rng(4)
    parts = [haar_unitary(3, rng), kron(truncated_shift(2), identity(2)), truncated_shift(4)]
    w = haar_unitary(11, rng)
    return w @ block_diag(*parts) @ w.conj().T


def test_hw_decompose_factorizes_only_non_empty_projection_ranges(monkeypatch, svd_calls):
    v = _unitary_and_orders_2_and_4()
    spaces = []
    original = halmos_wallen.multiplicity_space

    def recording(*args):
        spaces.append(original(*args))
        return spaces[-1]

    monkeypatch.setattr(halmos_wallen, "multiplicity_space", recording)
    svd_calls.clear()
    hw = halmos_wallen._hw_decompose(v, DEFAULT_TOL)
    assert (hw.unitary_dim, hw.block_multiset()) == (3, [(2, 2), (4, 1)])
    assert [s.dim for s in spaces] == [0, 2, 0, 1]
    # singular vectors for the unitary basis and each non-empty order only, and no
    # values-only SVD: the reconstruction gate is decided by bounds
    assert sum(compute_uv for _, compute_uv in svd_calls) == 1 + 2
    assert sum(not compute_uv for _, compute_uv in svd_calls) == 0
    # the residual's one SVD is taken when it is read, and once
    assert hw.residual == hw.residual <= DEFAULT_TOL.eps
    assert [compute_uv for _, compute_uv in svd_calls][3:] == [False]
    # the public function takes the same SVDs and reads the residual before it returns
    svd_calls.clear()
    public = halmos_wallen.hw_decompose(v)
    assert [compute_uv for _, compute_uv in svd_calls] == [True] * 3 + [False]
    assert public.residual.hex() == hw.residual.hex()
    assert [compute_uv for _, compute_uv in svd_calls][4:] == []
    svd_calls.clear()
    assert halmos_wallen.assert_no_shift_parts(v)
    assert not any(compute_uv for _, compute_uv in svd_calls)


def test_the_gates_never_call_numpy_norm(monkeypatch):
    # Frobenius norms, column norms and spectral norms are all taken without np.linalg.norm
    def no_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    monkeypatch.setattr(np_linalg_impl, "norm", no_norm)
    for seed in range(6):
        v, unitary_dim, blocks = random_hw_instance(seed)
        assert is_power_partial_isometry(v) == (True, None)
        hw = halmos_wallen.hw_decompose(v)
        assert (hw.unitary_dim, hw.block_multiset()) == (unitary_dim, blocks)
        t, spec = random_scrambled_model(seed)
        report = verify_twisted(t)
        assert report.passed and report.max_residual <= DEFAULT_TOL.eps
        tree = decompose_tuple(t)
        assert tree.residual <= DEFAULT_TOL.eps
        assert sum(leaf.leaf_dim for leaf in tree.leaves) == t.dim


def test_hw_decompose_forms_the_range_complement_once(monkeypatch):
    # four multiplicity spaces off one ladder
    v = _unitary_and_orders_2_and_4()
    formed = []
    original = halmos_wallen.RangeSourceLadder.range_complement

    def counting(ladder):
        formed.append(original.func(ladder))
        return formed[-1]

    complement = functools.cached_property(counting)
    complement.__set_name__(halmos_wallen.RangeSourceLadder, "range_complement")
    monkeypatch.setattr(halmos_wallen.RangeSourceLadder, "range_complement", complement)
    read = []
    original_space = halmos_wallen.multiplicity_space

    def recording(v, p, ladder):
        read.append(ladder.range_complement)
        return original_space(v, p, ladder)

    monkeypatch.setattr(halmos_wallen, "multiplicity_space", recording)
    hw = halmos_wallen._hw_decompose(v, DEFAULT_TOL)
    assert hw.block_multiset() == [(2, 2), (4, 1)]
    assert len(formed) == 1 and len(read) == 4
    assert all(a is formed[0] for a in read)
    ladder = halmos_wallen.RangeSourceLadder(v).extend(1)
    assert np.array_equal(formed[0], identity(11) - ladder.ranges[1])


def test_decompose_tuple_takes_no_svd_outside_hw_decompose(monkeypatch, svd_calls):
    inside = []
    original = twisted._hw_decompose

    def counting(v, tol):
        before = len(svd_calls)
        hw = original(v, tol)
        inside.append(len(svd_calls) - before)
        return hw

    def no_fit(*args, **kwargs):
        raise AssertionError("extract_twist_factor called")

    monkeypatch.setattr(twisted, "_hw_decompose", counting)
    monkeypatch.setattr(twisted, "extract_twist_factor", no_fit)
    t = build_twisted_shift_pair(3, np.exp(0.7j))
    t = conjugate_tuple(t, haar_unitary(t.dim, 3))
    svd_calls.clear()
    tree = decompose_tuple(t)
    # every gate, the reconstruction too, is decided by bounds
    assert t.n_ops == 2
    assert len(svd_calls) - sum(inside) == 0
    # reading the residual takes the SVD of the operator with the larger Gram-power
    # bound, which the other's bound cannot beat
    svd_calls.clear()
    assert tree.residual <= DEFAULT_TOL.eps
    assert svd_calls == [((18, 18), False)]


@pytest.mark.parametrize("seed", [None, 1, 11])
@pytest.mark.parametrize("front_end", ["equivalence_check", "commutant_dimension"])
def test_front_ends_take_no_svd_of_a_reconstruction_defect(monkeypatch, svd_calls, front_end, seed):
    # example 4.3 at p = 3, or a scrambled model tuple with a unitary slot
    trees, values_only = [], []
    original = twisted.decompose_tuple

    def recording(t, tol=DEFAULT_TOL):
        before = len(svd_calls)
        trees.append(original(t, tol))
        values_only.extend(not uv for _, uv in svd_calls[before:])
        return trees[-1]

    monkeypatch.setattr(twisted, "decompose_tuple", recording)
    if seed is None:
        t = conjugate_tuple(build_twisted_shift_pair(3, np.exp(0.7j)), haar_unitary(18, 3))
    else:
        t, _ = random_scrambled_model(seed, n_ops=2)
    if front_end == "equivalence_check":
        other = conjugate_tuple(t, haar_unitary(t.dim, 4))
        assert equivalence_check(t, other).verdict == "EQUIVALENT"
        assert len(trees) == 2
    else:
        assert twisted.decompose_tuple(t).commutant_dimension() >= 1
    # every gate of hw_decompose and of the reconstruction is decided by bounds,
    # and neither front end reads a tree's residual
    assert not any(values_only)
    assert all("residual" not in tree.__dict__ for tree in trees)


def test_equivalence_match_factorizes_only_square_operands(svd_calls):
    # two commuting unitaries decompose into one all-"u" leaf of multiplicity
    # 6: its match stacks 2 * 36 rows over 36 unknowns, and the null space
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
    original = commutant._uniform

    def counting(seed, *shape):
        attempts.append(seed)
        return original(seed, *shape)

    monkeypatch.setattr(commutant, "_uniform", counting)
    # one all-"u" leaf: its unit ops are all its data
    assert not leaf1.slot_twists
    pairs = [(leaf1.unit_ops[n], leaf2.unit_ops[n]) for n in sorted(leaf1.unit_ops)]
    svd_calls.clear()
    assert commutant._match_unitary(pairs, m, DEFAULT_TOL) is not None
    candidates = [call for call in svd_calls if call[0] == (m, m)]
    assert attempts and len(candidates) == len(attempts)
    assert all(compute_uv for _, compute_uv in candidates)


@pytest.mark.parametrize("n_ops,m", [(1, 5), (2, 6), (3, 4)])
def test_match_stacks_one_sylvester_map_per_pair(monkeypatch, n_ops, m):
    # commuting unitaries decompose into one all-"u" leaf of multiplicity m: P = n_ops
    # pairs give a stack of P m^4 entries, the adjoint maps left out
    t = TwistedTuple(dim=m, ops=random_commuting_unitaries(m, n_ops, m))
    s = conjugate_tuple(t, haar_unitary(m, m + 1))
    shapes = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    assert equivalence_check(t, s).verdict == "EQUIVALENT"
    assert shapes == [(n_ops * m**2, m**2)]


def _ladder_rung_96() -> TwistedTuple:
    """The d = 96 model rung of the benchmark ladder: four operators, six twists."""
    t = build_model_tuple(random_model_spec(49, n_ops=4))
    t = conjugate_tuple(t, haar_unitary(t.dim, 49))
    assert t.dim == 96
    return t


def _svds_per_row(monkeypatch, svd_calls) -> dict:
    """SVDs per relation row of the residual values, filled in as `TwistReport.residuals` forms them."""
    per_key = {}
    original = twisted._relation_defects

    def counting(tt):
        # the values take each norm before they draw the next key
        for key, defect in original(tt):
            before = len(svd_calls)
            yield key, defect
            per_key[key] = len(svd_calls) - before

    monkeypatch.setattr(twisted, "_relation_defects", counting)
    return per_key


def test_each_twist_unitary_row_takes_one_svd(monkeypatch, svd_calls):
    per_key = _svds_per_row(monkeypatch, svd_calls)
    report = verify_twisted(_ladder_rung_96())
    assert report.passed
    svd_calls.clear()
    report.residuals
    twist_rows = [calls for key, calls in per_key.items() if key[0] == "twist-unitary"]
    assert twist_rows == [1] * 6


def test_the_verdict_takes_no_svd_and_the_values_one_per_row(monkeypatch, svd_calls):
    t = _ladder_rung_96()
    per_key = _svds_per_row(monkeypatch, svd_calls)
    svd_calls.clear()
    report = verify_twisted(t)
    assert report.passed
    assert svd_calls == [] and per_key == {}
    residuals = report.residuals
    assert len(per_key) == len(residuals) - t.n_ops == 69 and set(per_key.values()) == {1}
    assert residual_bits(residuals) == residual_bits(eager_residuals(t))


@pytest.mark.parametrize("command", ["decompose", "commutant", "equiv", "generate"])
def test_cli_commands_that_print_no_residual_form_none(monkeypatch, tmp_path, capsys, command):
    # a passing verdict proves every residual finite, so the non-finite refusal reads none
    verifying, norms_in_verify, reports = [], [], []
    for module in (linalg, operators, twisted):
        def counting(a, original=module.op_norm):
            norms_in_verify.extend(verifying)
            return original(a)

        monkeypatch.setattr(module, "op_norm", counting)

    def recording(*args):
        verifying.append(True)
        try:
            reports.append(verify_twisted(*args))
        finally:
            verifying.pop()
        return reports[-1]

    monkeypatch.setattr(cli, "verify_twisted", recording)
    t = conjugate_tuple(build_twisted_shift_pair(3, np.exp(0.7j)), haar_unitary(18, 3))
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    for path, doc in zip(paths, (t, conjugate_tuple(t, haar_unitary(18, 4)))):
        path.write_text(dumps_canonical(tuple_document(doc)))
    argv = {
        "decompose": ["decompose", str(paths[0])],
        "commutant": ["commutant", str(paths[0])],
        "equiv": ["equiv", *map(str, paths)],
        "generate": ["generate", "--preset", "example43", "--p", "3", "--scramble", "--seed", "3",
                     "--output", str(tmp_path / "g.json")],
    }[command]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(reports) == (2 if command == "equiv" else 1) and all(r.passed for r in reports)
    assert norms_in_verify == []
    assert all("residuals" not in vars(report) for report in reports)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_star_closed_commutant_of_exact_example43_takes_no_svd(svd_calls, p):
    # d = 8, 18 and 32: the Gram certificate decides, with no SVD of any kind
    t = build_twisted_shift_pair(p, np.exp(0.7j))
    t = conjugate_tuple(t, haar_unitary(t.dim, p))
    svd_calls.clear()
    assert commutant_dimension(t.ops, include_adjoints=True) == 2
    assert svd_calls == []


@pytest.mark.parametrize("p", [2, 3, 4])
def test_exact_example43_count_factorizes_nothing_above_its_eigenbasis_blocks(factorizations, p):
    # d = 8, 18 and 32: A = sum c_k V_k + h.c. has d / 2 double eigenvalues, so the tier solves
    # for r = 2d unknowns, not d^2: one d x d eigh, then r x r eigvalsh, solve, Ritz step and
    # Cholesky, with no SVD
    t = build_twisted_shift_pair(p, np.exp(0.7j))
    t = conjugate_tuple(t, haar_unitary(t.dim, p))
    d, r = t.dim, 2 * t.dim
    factorizations.clear()
    assert commutant_dimension(t.ops, include_adjoints=True) == 2
    assert factorizations[0] == ("eigh", (d, d))
    assert ("eigvalsh", (r, r)) in factorizations and ("cholesky", (r, r)) in factorizations
    assert "svd" not in {function for function, _ in factorizations}
    assert max(max(shape) for _, shape in factorizations) == r < d * d


@pytest.mark.parametrize("f,expected", [(0.99, 8), (0.999, 8), (1.001, 6), (1.01, 6)])
def test_star_closed_commutant_at_the_cutoff_takes_one_svd_of_its_stack(svd_calls, monkeypatch, gram_route, f, expected):
    # two singular values at f eps: the certificate on the full stack cannot decide, so the SVD does
    stacks, operands = [], []
    original, counting = commutant._sylvester_stack, np.linalg.svd

    def recording(pairs, basis):
        stacks.append(original(pairs, basis))
        return stacks[-1]

    def factorizing(a, *args, **kwargs):
        operands.append(a)
        return counting(a, *args, **kwargs)

    monkeypatch.setattr(commutant, "_sylvester_stack", recording)
    monkeypatch.setattr(np.linalg, "svd", factorizing)
    lam = np.array([0.3, 0.3 + f * DEFAULT_TOL.eps / np.sqrt(2), -0.7, 0.9, 1.4, -1.2])
    w = haar_unitary(6, 11)
    assert commutant_dimension([w @ np.diag(lam) @ w.conj().T], include_adjoints=True) == expected
    # one operator at d = 6: Re and Im rows of each map over 36 Hermitian unknowns
    assert svd_calls == [((2 * 36, 36), False)]
    # the SVD is handed a real view of the last stack built, not a copy of it
    assert [a.dtype for a in operands] == [np.float64]
    assert np.shares_memory(operands[0], stacks[-1])


@pytest.mark.parametrize("claimed", [1, 3])
def test_a_wrong_gram_split_falls_back_to_the_svd(svd_calls, monkeypatch, gram_route, claimed):
    # eigvalsh made to claim 1 or 3 small eigenvalues where there are 2: the Cholesky check
    # refuses too few and the check on the rebuilt chunks too many, so the SVD decides
    original = np.linalg.eigvalsh

    def misleading(a):
        w = original(a).copy()
        w[1], w[2] = (w[2], w[2]) if claimed == 1 else (w[1], 0.0)
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", misleading)
    t = conjugate_tuple(build_twisted_shift_pair(2, np.exp(0.7j)), haar_unitary(8, 2))
    svd_calls.clear()
    assert commutant_dimension(t.ops, include_adjoints=True) == 2
    assert svd_calls == [((4 * 64, 64), False)]


@pytest.mark.parametrize(
    "ops, expected",
    [
        pytest.param([np.zeros((4, 4), dtype=complex)], 16, id="zero"),
        pytest.param([identity(5)], 25, id="identity"),
        pytest.param([identity(3), np.zeros((3, 3), dtype=complex)], 9, id="identity-and-zero"),
        *(pytest.param(random_scrambled_model(seed, max_dim=20)[0].ops, 1, id=f"1x1-model-{seed}")
          for seed in (20, 25, 30)),
    ],
)
def test_a_zero_gram_matrix_is_certified_with_no_solve_and_no_svd(svd_calls, monkeypatch, ops, expected):
    # G = 0, so every eigenvalue is small and k = n: the identity spans the small directions,
    # and a solve on G + alpha I, singular for alpha = 0, is never taken
    solves = []
    original = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or original(*args))
    assert commutant_dimension(ops, include_adjoints=True) == expected
    assert svd_calls == [] and solves == []


def test_gram_count_certifies_exact_and_slightly_noisy_models(svd_calls, gram_route):
    # the agreement with the complex stack is checked on the same families in test_twisted
    fallbacks = {0.0: 0, 1e-10: 0, 1e-6: 0}
    for seed in range(192):
        scrambled, _ = random_scrambled_model(seed, max_dim=20)
        for size in fallbacks:
            t = perturbed_tuple(scrambled, size, seed) if size else scrambled
            svd_calls.clear()
            commutant_dimension(t.ops, include_adjoints=True)
            fallbacks[size] += len(svd_calls)
    # noise of 1e-6 moves commutant directions far above eps but inside the Gram's rounding
    assert fallbacks[0.0] == fallbacks[1e-10] == 0
    assert 0 < fallbacks[1e-6] < 192


@pytest.mark.parametrize(
    "run",
    [
        lambda v, w: halmos_wallen.hw_decompose(v),
        lambda v, w: check_projection_commutation(v, w),
        lambda v, w: halmos_wallen.assert_no_shift_parts(v),
    ],
    ids=["hw_decompose", "check_projection_commutation", "assert_no_shift_parts"],
)
def test_p_and_q_come_off_one_power_walk(monkeypatch, run):
    walked = []
    original = halmos_wallen._power_walk

    def counting(v):
        walked.append(v)
        return original(v)

    monkeypatch.setattr(halmos_wallen, "_power_walk", counting)
    t = build_twisted_shift_pair(3, 1j)
    v, w = conjugate_tuple(t, haar_unitary(t.dim, 5)).ops
    run(v, w)
    # Q is the limit of the sources V*^n V^n of V's own ladder: V* is never walked
    assert len(walked) == 1
    assert np.array_equal(walked[0], v)


def _example43(p, scrambled):
    t = build_twisted_shift_pair(p, np.exp(0.7j))
    return conjugate_tuple(t, haar_unitary(t.dim, p)).ops if scrambled else t.ops


@pytest.mark.parametrize(
    "ops, expected, svds, blas_threads",
    [
        # the exit: of 129 powers, the residual check forms 16 (<= 2p + 1
        # for p = 8) and the verdict 8; at one BLAS thread each walk takes 2
        # SVDs, not 3, so the case runs at the 2 threads perfbench pins
        pytest.param(_example43(8, True), [16, 8, 16, 8], [3, 3], 2, id="example43-p8-scrambled"),
        # an exit at power 4, with residuals still waiting for their SVD: they are
        # settled first, so the walk ends where one taking every SVD at once would
        pytest.param(_example43(4, True), [4, 4, 4, 4], [2, 1], None, id="example43-p4-scrambled"),
        # the zero rule: J_8 x I_8 and d[lambda] x J_8 vanish exactly at power 8
        pytest.param(_example43(8, False), [8, 8, 8, 8], [3, 3], None, id="example43-p8"),
        # a unitary keeps its norm, so no bound ends its walk
        pytest.param([haar_unitary(64, 11)], [65, 65], [6], None, id="haar-d64"),
    ],
)
def test_power_walk_ends_where_no_later_power_can_matter(
    request, monkeypatch, power_draws, ops, expected, svds, blas_threads
):
    if blas_threads and rerun_at_blas_threads(request, blas_threads):
        return
    norm_calls = []
    monkeypatch.setattr(linalg, "op_norm", lambda a: norm_calls.append(1) or op_norm(a))
    for v, calls in zip(ops, svds, strict=True):
        residuals = unscreened_power_residuals(v)
        failing = [n for n, r in enumerate(residuals, 1) if r > DEFAULT_TOL.eps]
        norm_calls.clear()
        assert power_isometry_residual(v) == max([0.0, *residuals])
        assert len(norm_calls) == calls
        assert is_power_partial_isometry(v) == ((False, failing[0]) if failing else (True, None))
    assert power_draws == expected


def test_unitary_slot_walk_takes_few_svds(svd_calls):
    # the rounding residual of a unitary part grows with every power, so each
    # beats the Frobenius screen; its Gram-power bound and the waiting list
    # leave an SVD for few of the 97 powers
    t = build_model_tuple(random_model_spec(49, n_ops=4))
    v = conjugate_tuple(t, haar_unitary(t.dim, 49)).ops[3]
    assert v.shape == (96, 96)
    residuals = unscreened_power_residuals(v)
    svd_calls.clear()
    assert power_isometry_residual(v) == max(residuals)
    assert len(svd_calls) <= 20


def test_d324_model_tuple_verifies_forming_few_powers(power_draws):
    t = build_model_tuple(random_model_spec(45))
    assert t.dim == 324
    report = verify_twisted(conjugate_tuple(t, haar_unitary(t.dim, 45)))
    assert report.passed
    assert len(power_draws) == t.n_ops
    assert max(power_draws) <= 10


def test_cli_commutant_builds_only_leaf_sized_sylvester_stacks(monkeypatch, tmp_path, capsys):
    widths = []
    original = commutant._sylvester_rows

    def recording(pairs, basis, lo, hi):
        stack = original(pairs, basis, lo, hi)
        # one row per unknown
        widths.append(stack.shape[0])
        return stack

    monkeypatch.setattr(commutant, "_sylvester_rows", recording)
    t = build_twisted_shift_pair(3, np.exp(0.7j))
    path = tmp_path / "d18.json"
    path.write_text(dumps_canonical(tuple_document(conjugate_tuple(t, haar_unitary(t.dim, 3)))))
    assert cli.main(["commutant", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2
    # one leaf (3, 3) of multiplicity m = 2: not d^2 = 324 unknowns, nor m^2 = 4, but the r = 2
    # of its eigenbasis blocks (two of size 1), built one output row of its one map at a time
    # for the Gram matrix; all r singular values are small, so the certificate builds none
    assert widths == 2 * [2]


def test_no_numpy_kron_on_the_package_paths(monkeypatch):
    # every tensor model, intertwiner and certificate goes through `linalg.kron`,
    # the broadcast multiply without `numpy.kron`'s per-call bookkeeping
    def refused(*args, **kwargs):
        raise AssertionError("numpy.kron called")

    monkeypatch.setattr(np, "kron", refused)
    # slots [u, 4] at d = 12: the equivalence match lifts its unitary by a kron
    t = build_model_tuple(random_model_spec(9))
    s = conjugate_tuple(t, haar_unitary(t.dim, 9))
    assert decompose_tuple(s).residual <= DEFAULT_TOL.eps
    assert equivalence_check(t, s).verdict == "EQUIVALENT"
    # a unitary part of dimension 4 and blocks of orders 1, 3 and 4
    v, unitary_dim, blocks = random_hw_instance(5)
    hw = halmos_wallen.hw_decompose(v)
    assert (hw.unitary_dim, hw.block_multiset()) == (unitary_dim, blocks)
    assert hw.model_operator().shape == v.shape
