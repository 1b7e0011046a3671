import numpy as np
import pytest
from scipy.linalg import block_diag

from partialiso import (
    DecompositionError,
    TwistedTuple,
    assert_no_shift_parts,
    check_projection_commutation,
    decompose_tuple,
    haar_unitary,
    hw_decompose,
    is_power_partial_isometry,
    kron,
    multiplicity_space,
    op_norm,
    op_norm_diff,
    power_isometry_residual,
    projection_onto,
    stable_range_projection,
    truncated_block_projection,
    truncated_shift,
)
from partialiso.halmos_wallen import (
    RangeSourceLadder,
    _certify,
    _check_no_shift_parts,
    _hw_decompose,
    _projection_range,
    _stable_projections,
)
from partialiso import halmos_wallen, linalg
from partialiso.linalg import DEFAULT_TOL, _norm_within, orthonormal_range
from conftest import assert_gates_decide_as_the_svd, non_power_partial_isometry_3d, random_hw_instance


class TestStableRangeProjection:
    def test_unitary_stabilizes_immediately_at_identity(self):
        p, n0 = stable_range_projection(haar_unitary(4, 0))
        assert n0 == 1
        assert op_norm_diff(p, np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_truncated_shift_stabilizes_at_zero(self, p):
        mat, n0 = stable_range_projection(truncated_shift(p))
        assert n0 == p
        assert op_norm(mat) <= 1e-12

    def test_mixed_direct_sum(self):
        v = block_diag(truncated_shift(2), np.eye(1)).astype(complex)
        p, n0 = stable_range_projection(v)
        assert n0 == 2
        np.testing.assert_allclose(p, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_non_stabilizing_input_raises(self):
        with pytest.raises(DecompositionError):
            stable_range_projection(non_power_partial_isometry_3d())


class TestTruncatedBlockProjection:
    def test_shift_of_order_two(self):
        j2 = truncated_shift(2)
        np.testing.assert_allclose(truncated_block_projection(j2, 2), np.eye(2), atol=1e-12)
        assert op_norm(truncated_block_projection(j2, 1)) <= 1e-12

    def test_unitary_has_no_blocks(self):
        u = haar_unitary(3, 1)
        for p in range(1, 4):
            assert op_norm(truncated_block_projection(u, p)) <= 1e-12

    def test_zero_operator_is_pure_order_one(self):
        np.testing.assert_allclose(
            truncated_block_projection(np.zeros((3, 3)), 1), np.eye(3)
        )

    def test_distinct_orders_are_orthogonal(self):
        v = block_diag(truncated_shift(2), truncated_shift(3)).astype(complex)
        p2 = truncated_block_projection(v, 2)
        p3 = truncated_block_projection(v, 3)
        assert op_norm(p2 @ p3) <= 1e-12
        np.testing.assert_allclose(p2 + p3, np.eye(5), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ladder_returns_without_a_numpy_warning(self):
        assert truncated_block_projection(np.diag([1e200, 0.0]), 2).shape == (2, 2)


class TestMultiplicitySpace:
    def test_shift_multiplicity_basis(self):
        s = multiplicity_space(truncated_shift(2), 2)
        assert s.dim == 1
        np.testing.assert_allclose(s.basis[:, 0], [1.0, 0.0], atol=1e-12)

    def test_tensor_multiplicity(self):
        v = kron(truncated_shift(2), np.eye(2))
        assert multiplicity_space(v, 2).dim == 2

    def test_unitary_has_none(self):
        u = haar_unitary(4, 2)
        for p in range(1, 5):
            assert multiplicity_space(u, p).dim == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ladder_is_refused_as_non_finite(self):
        with pytest.raises(DecompositionError, match="non-finite"):
            multiplicity_space(np.diag([1e200, 0.0]), 2)


class TestHwDecompose:
    def test_pure_unitary(self):
        v = np.diag(np.exp(1j * np.array([0.3, 1.9])))
        hw = hw_decompose(v)
        assert hw.unitary_dim == 2
        assert hw.truncated_blocks == []
        assert hw.residual <= 1e-12
        # T is V expressed in the unitary-part basis
        b = hw.unitary_basis.basis
        assert op_norm_diff(b @ hw.unitary_op @ b.conj().T, v) <= 1e-12

    def test_shift_plus_fixed_point(self):
        v = block_diag(truncated_shift(2), np.eye(1)).astype(complex)
        hw = hw_decompose(v)
        assert hw.unitary_dim == 1
        assert hw.block_multiset() == [(2, 1)]
        assert hw.residual <= 1e-12
        np.testing.assert_allclose(hw.unitary_op, [[1.0]], atol=1e-12)

    def test_scrambled_tensor_block_with_unitary(self):
        rng = np.random.default_rng(8)
        v = block_diag(kron(truncated_shift(3), np.eye(2)), haar_unitary(2, rng))
        w = haar_unitary(8, rng)
        hw = hw_decompose(w @ v @ w.conj().T)
        assert hw.block_multiset() == [(3, 2)]
        assert hw.unitary_dim == 2
        assert hw.residual <= 1e-9

    def test_shift_exclusion_holds(self):
        assert assert_no_shift_parts(truncated_shift(3))
        assert assert_no_shift_parts(haar_unitary(4, 9))
        assert assert_no_shift_parts(
            block_diag(truncated_shift(2), haar_unitary(2, 5)).astype(complex)
        )
        for seed in range(5):
            v, _, _ = random_hw_instance(seed)
            assert assert_no_shift_parts(v)

    def test_rejects_non_power_partial_isometry(self):
        with pytest.raises(DecompositionError):
            hw_decompose(non_power_partial_isometry_3d())

    def test_rejects_a_contraction(self):
        with pytest.raises(DecompositionError):
            hw_decompose(np.diag([1.0, 0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "run",
        [
            hw_decompose,
            stable_range_projection,
            assert_no_shift_parts,
            lambda v: check_projection_commutation(v, v),
        ],
        ids=["hw_decompose", "stable_range_projection", "assert_no_shift_parts", "check_projection"],
    )
    def test_overflowing_powers_fail_without_a_numpy_warning(self, run):
        with pytest.raises(DecompositionError, match="did not stabilize by power 3"):
            run(np.diag([1e200, 0.0]))

    def test_an_overflowing_ladder_is_refused_as_non_finite(self):
        # V^2 V*^2 overflows to inf - inf in the multiplicity space of order 2
        with pytest.raises(DecompositionError, match="non-finite"):
            hw_decompose(1e160 * kron(truncated_shift(2), np.eye(2)))

    @pytest.mark.parametrize("seed", range(300))
    def test_noise_below_eps_keeps_the_blocks(self, seed):
        # projection ranks are cut at 1/2, so noise of 1e-10 = rank_eps
        # meets no rank decision
        v, u_dim, expected = random_hw_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        g = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        hw = hw_decompose(v + 1e-10 * g / np.linalg.norm(g, 2))
        assert (hw.unitary_dim, hw.block_multiset()) == (u_dim, expected)
        assert hw.residual <= 1e-9


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_block_structure_invariants(self, seed):
        v, u_dim, expected = random_hw_instance(seed)
        d = v.shape[0]
        hw = hw_decompose(v)
        assert hw.unitary_dim == u_dim
        assert hw.block_multiset() == expected

        p_mat, _ = stable_range_projection(v)
        q_mat, _ = stable_range_projection(v.conj().T)
        assert op_norm(p_mat @ q_mat - q_mat @ p_mat) <= 1e-10

        projections = []
        if hw.unitary_dim:
            projections.append(projection_onto(hw.unitary_basis))
        for block in hw.truncated_blocks:
            pi = truncated_block_projection(v, block.p)
            projections.append(pi)
            assert round(float(pi.trace().real)) == block.p * block.mult
        total = sum(projections)
        assert op_norm_diff(total, np.eye(d)) <= 1e-9
        for i in range(len(projections)):
            for j in range(i + 1, len(projections)):
                assert op_norm(projections[i] @ projections[j]) <= 1e-9
        eye = np.eye(d)
        for pi in projections:
            assert op_norm((eye - pi) @ v @ pi) <= 1e-9
            assert op_norm(pi @ v @ (eye - pi)) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_intertwiner_columns_are_isometric_before_any_fix(self, seed):
        v, _, _ = random_hw_instance(seed)
        hw = hw_decompose(v)
        columns = []
        if hw.unitary_dim:
            columns.append(hw.unitary_basis.basis)
        for block in hw.truncated_blocks:
            current = block.mult_basis.basis
            columns.append(current)
            for _ in range(block.p - 1):
                current = v @ current
                columns.append(current)
        gram = np.hstack(columns)
        gram = gram.conj().T @ gram
        assert op_norm_diff(gram, np.eye(v.shape[0])) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_reconstruction(self, seed):
        v, _, _ = random_hw_instance(seed + 500)
        hw = hw_decompose(v)
        w = hw.intertwiner
        assert op_norm(w @ hw.model_operator() @ w.conj().T - v) <= 1e-9


def _separate_power_residuals(v):
    # the power check's own loop, as it was before the shared power walk
    vp = v.copy()
    while True:
        yield vp @ vp.conj().T @ vp - vp
        vp = vp @ v


def _separate_stable_range(v, eps=1e-9):
    # stable_range_projection's own loop, as it was before the shared power
    # walk, with the unscreened spectral test
    d = v.shape[0]
    vp = v.copy()
    e_prev = vp @ vp.conj().T
    for n in range(1, d + 2):
        vp = vp @ v
        e_next = vp @ vp.conj().T
        if op_norm(e_next - e_prev) <= eps:
            return e_prev, n
        e_prev = e_next
    return None


def _separate_ladder(v, n_max):
    # RangeSourceLadder's own loop, which formed V^1 as I @ V
    power = np.eye(v.shape[0], dtype=complex)
    ranges, sources = [np.eye(v.shape[0], dtype=complex)], [np.eye(v.shape[0], dtype=complex)]
    for _ in range(n_max):
        power = power @ v
        ranges.append(power @ power.conj().T)
        sources.append(power.conj().T @ power)
    return ranges, sources


def _rebuilt_block_columns(v, p, mult_basis):
    cols = [mult_basis]
    for _ in range(p - 1):
        cols.append(v @ cols[-1])
    return np.hstack(cols)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _oracle_inputs():
    for seed in range(60):
        v, _, _ = random_hw_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        g = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        yield f"hw-{seed}", v
        yield f"hw-{seed}+1e-10", v + 1e-10 * g / np.linalg.norm(g, 2)


ORACLE_INPUTS = list(_oracle_inputs())


class TestOnePowerWalk:
    """Every power-based result keeps the bits of the separate loops the shared walk replaced."""

    @pytest.mark.parametrize("name, v", ORACLE_INPUTS)
    def test_power_results_match_the_separate_loops(self, name, v):
        d = v.shape[0]
        residuals = [op_norm(r) for _, r in zip(range(d + 1), _separate_power_residuals(v))]
        assert power_isometry_residual(v) == max([0.0, *residuals])
        failing = [n for n, r in enumerate(residuals, 1) if r > 1e-9]
        assert is_power_partial_isometry(v) == ((False, failing[0]) if failing else (True, None))

        for op in (v, v.conj().T):
            expected = _separate_stable_range(op)
            if expected is None:
                with pytest.raises(DecompositionError, match="did not stabilize"):
                    stable_range_projection(op)
            else:
                p_mat, n0 = stable_range_projection(op)
                assert n0 == expected[1]
                assert _same_bits(p_mat, expected[0])

        ranges, sources = _separate_ladder(v, d + 1)
        ladder = RangeSourceLadder(v).extend(d + 1)
        assert all(_same_bits(a, b) for a, b in zip(ladder.ranges, ranges))
        assert all(_same_bits(a, b) for a, b in zip(ladder.sources, sources))

    @pytest.mark.parametrize("name, v", ORACLE_INPUTS)
    def test_leaf_intertwiners_match_rebuilt_block_columns(self, name, v):
        try:
            hw = hw_decompose(v)
        except DecompositionError as exc:
            with pytest.raises(DecompositionError) as err:
                decompose_tuple(TwistedTuple(dim=v.shape[0], ops=[v]))
            assert str(err.value) == str(exc)
            return
        tree = decompose_tuple(TwistedTuple(dim=v.shape[0], ops=[v]))
        expected = {}
        if hw.unitary_dim:
            expected[("u",)] = hw.unitary_basis.basis @ np.eye(hw.unitary_dim, dtype=complex)
        for block in hw.truncated_blocks:
            wp = _rebuilt_block_columns(v, block.p, block.mult_basis.basis)
            expected[(block.p,)] = wp @ kron(np.eye(block.p), np.eye(block.mult, dtype=complex))
        assert sorted(expected, key=str) == sorted((leaf.multiindex for leaf in tree.leaves), key=str)
        for leaf in tree.leaves:
            assert _same_bits(leaf.intertwiner, expected[leaf.multiindex]), leaf.multiindex

    @pytest.mark.parametrize("seed", range(60))
    def test_unitary_part_matches_the_separate_ladder(self, seed):
        # P and Q are the stable limits of the ranges and the sources of one ladder of V
        v, _, _ = random_hw_instance(seed)
        ranges, sources = _separate_ladder(v, v.shape[0] + 2)
        p_mat, _ = _separate_stable_limit(ranges)
        q_mat, _ = _separate_stable_limit(sources)
        expected = orthonormal_range(p_mat @ q_mat)
        assert _same_bits(hw_decompose(v).unitary_basis.basis, expected.basis)


def _separate_stable_limit(projections, eps=1e-9):
    # (E_n, n) for the first n <= d + 1 with ||E_{n+1} - E_n|| <= eps, by the unscreened
    # spectral test, over a ladder list that reaches index d + 2; None if there is none
    for n in range(1, len(projections) - 1):
        if op_norm(projections[n + 1] - projections[n]) <= eps:
            return projections[n], n
    return None


def _noisy_hw_instance(seed, noise):
    v, _, _ = random_hw_instance(seed)
    rng = np.random.default_rng(seed + 1000)
    g = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return v + noise * g / op_norm(g)


class TestQFromTheSources:
    """Q read off the sources of V's ladder decides as Q walked from V* did."""

    @pytest.mark.parametrize("noise", [0.0, 1e-10, 3e-10, 6e-10, 1e-9])
    def test_q_from_the_sources_decides_as_the_walk_of_v_star(self, noise):
        eps = 1e-9
        walked = 0
        for seed in range(150):
            v = _noisy_hw_instance(seed, noise)
            d = v.shape[0]
            ranges, sources = _separate_ladder(v, d + 2)
            ours, theirs = _separate_stable_limit(sources), _separate_stable_range(v.conj().T)
            assert (ours is None) == (theirs is None), seed
            p_limit = _separate_stable_limit(ranges)
            if ours is None or p_limit is None:
                continue
            walked += 1
            (q_ours, n_ours), (q_theirs, n_theirs), p_mat = ours, theirs, p_limit[0]
            assert n_ours == n_theirs, seed
            # the library's Q is the sources' limit, bit for bit
            assert _same_bits(_stable_projections(v, DEFAULT_TOL)[1], q_ours)
            gates = [_norm_within(p_mat @ q - q @ p_mat, eps) for q in (q_ours, q_theirs)]
            assert gates[0] == gates[1], seed
            eye = np.eye(d)
            ranks = [
                [_projection_range(a).dim for a in (p_mat @ q, (eye - p_mat) @ q, (eye - q) @ p_mat)]
                for q in (q_ours, q_theirs)
            ]
            assert ranks[0] == ranks[1], seed
        # both limits exist on 150, 150, 150, 148 and 121 of the 150 inputs, level by level
        assert walked >= 120


def _spectral_hw(v, tol=DEFAULT_TOL):
    """`hw_decompose` with every gate taken on the spectral norm: (unitary dim, blocks,
    reconstruction residual), or the text of the first gate that fails."""
    d, eps = v.shape[0], tol.eps
    try:
        p_mat, q_mat, ladder = _stable_projections(v, tol)
        if op_norm(p_mat @ q_mat - q_mat @ p_mat) > eps:
            return (
                "stable range and source projections do not commute; "
                "the input is not a power partial isometry at this tolerance"
            )
        _check_no_shift_parts(p_mat, q_mat)
    except DecompositionError as exc:
        return str(exc)
    unitary = _projection_range(p_mat @ q_mat)
    columns, blocks, accounted = [unitary.basis], [], unitary.dim
    for p in range(1, d + 1):
        if accounted == d:
            break
        space = multiplicity_space(v, p, ladder)
        if space.dim:
            blocks.append((p, space.dim))
            columns.append(space.basis)
            for _ in range(p - 1):
                columns.append(v @ columns[-1])
            accounted += p * space.dim
    if accounted != d:
        return f"block dimensions sum to {accounted}, ambient dimension is {d}; decomposition is incomplete"
    w = np.hstack(columns)
    gram = op_norm(w.conj().T @ w - np.eye(d))
    if gram > eps:
        return (
            f"intertwiner columns are not orthonormal (residual {gram:.3e}); "
            "the block map failed to be isometric"
        )
    b_u = unitary.basis
    shifts = [kron(truncated_shift(p), np.eye(m, dtype=complex)) for p, m in blocks]
    model = block_diag(b_u.conj().T @ v @ b_u, *shifts).astype(complex)
    residual = op_norm(w @ model @ w.conj().T - v)
    if residual > eps:
        return (
            f"reconstruction residual {residual:.3e} exceeds eps {eps:.1e}; "
            "the input is certified not to be a power partial isometry"
        )
    return unitary.dim, blocks, residual


def _hw_moved_to_the_cutoff(seed):
    """A `random_hw_instance` with blocks, V moved by s c_0 c_{p-1}*, where c_0 spans the first
    level of its first block and c_{p-1} = V^{p-1} c_0 the last: the map the model sends to 0
    now sends c_{p-1} to s c_0, so the reconstruction value is about s while the projections
    and the columns stay put. s is bisected until the spectral reconstruction value crosses
    eps between sizes lo < hi less than 2^-45 hi apart; each end is kept at 1 -+ 1e-12 and at
    0.99 and 1.01 of itself."""
    eps = DEFAULT_TOL.eps
    v, _, _ = random_hw_instance(seed)
    hw = hw_decompose(v)
    if not hw.truncated_blocks:
        return []
    p, at = hw.truncated_blocks[0].p, hw.unitary_dim
    first, last = hw.intertwiner[:, at], hw.intertwiner[:, at + (p - 1) * hw.truncated_blocks[0].mult]
    direction = np.outer(first, last.conj())

    def passes(size):
        return not isinstance(_spectral_hw(v + size * direction), str)

    lo, hi = 0.0, eps
    while passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 2.0**-45 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return [v + size * f * direction for size in (lo, hi) for f in (1 - 1e-12, 1 + 1e-12, 0.99, 1.01)]


class TestCertify:
    """`_certify`, the one gate of every decomposition stage."""

    def test_passing_defects_come_back_without_a_spectral_norm(self, monkeypatch):
        monkeypatch.setattr(halmos_wallen, "_max_op_norm", lambda defects: pytest.fail("a norm was formed"))
        defects = (np.zeros((2, 2)), 1e-12 * np.eye(3))
        kept = _certify(iter(defects), 1e-9, str)
        assert len(kept) == 2 and all(a is b for a, b in zip(kept, defects))

    def test_a_failure_stops_the_gates_and_names_the_largest_norm(self, monkeypatch):
        gated = []
        monkeypatch.setattr(halmos_wallen, "_norm_within", lambda a, eps: gated.append(a) or _norm_within(a, eps))
        defects = [np.zeros((2, 2)), np.diag([2.0, 0.0]), np.diag([0.0, 3.0])]
        with pytest.raises(DecompositionError) as raised:
            _certify(defects, 1e-9, lambda r: f"{{stage}}: residual {r!r}")
        assert [a is b for a, b in zip(gated, defects)] == [True, True]
        # the message is called, not formatted, so a brace in it stays as written
        assert str(raised.value) == "{stage}: residual 3.0"

    @pytest.mark.parametrize(
        "bad", [pytest.param(np.inf, id="small-and-inf"), pytest.param(np.nan, id="nan")]
    )
    def test_a_defect_that_is_not_finite_reports_inf(self, bad):
        # an overflowed defect beside one below eps: the text never names a value below eps
        defects = [1e-12 * truncated_shift(2), np.where(truncated_shift(2) == 0, 0.0, bad)]
        with pytest.raises(DecompositionError, match=r"^residual inf$"):
            _certify(defects, 1e-9, lambda r: f"residual {r}")


class TestReconstructionGateAtTheCutoff:
    """`hw_decompose` decides its reconstruction by bounds, as the spectral norm does.

    The gated core `_hw_decompose` forms ``residual`` on first read; the public
    function has formed it before it returns, with the same bits.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return [v for seed in range(24) for v in _hw_moved_to_the_cutoff(seed)]

    def test_the_gate_and_the_lazy_residual_match_the_spectral_oracle(self, corpus):
        texts, values = [], []
        for v in corpus:
            expected = _spectral_hw(v)
            try:
                hw = _hw_decompose(v, DEFAULT_TOL)
            except DecompositionError as exc:
                assert str(exc) == expected
                with pytest.raises(DecompositionError) as public:
                    hw_decompose(v)
                assert str(public.value) == expected
                texts.append(expected)
                continue
            unitary_dim, blocks, residual = expected
            assert (hw.unitary_dim, hw.block_multiset()) == (unitary_dim, blocks)
            assert "residual" not in hw.__dict__
            assert hw.residual.hex() == residual.hex()
            assert hw_decompose(v).__dict__["residual"].hex() == residual.hex()
            values.append(residual)
        # both verdicts, each failure at the reconstruction gate, half the passes within a
        # millionth of eps
        eps = DEFAULT_TOL.eps
        assert texts and values
        assert all(text.startswith("reconstruction residual") for text in texts)
        assert sum(abs(r - eps) <= 1e-6 * eps for r in values) >= len(values) // 2

    def test_every_gate_and_range_decides_as_the_svd(self, corpus, gate_log, monkeypatch):
        for v in corpus:
            try:
                _hw_decompose(v, DEFAULT_TOL)
            except DecompositionError:
                pass
        gates, ranges = gate_log
        # the reconstruction gates sit at eps: half the corpus has one within a millionth of it
        assert sum(abs(op_norm(a) - eps) <= 1e-6 * eps for a, eps, _ in gates) >= len(corpus) // 2
        assert_gates_decide_as_the_svd(gates, ranges, monkeypatch)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_projection_range_at_the_half_cut_decides_as_the_svd(rank, monkeypatch):
    # c P for a scrambled rank-k projection P, moved to within 1e-12 of the Frobenius accept
    # (c sqrt(k) (1 + slack) = 1/2) and, for k = 1, of the SVD cut itself (c = 1/2)
    basis = haar_unitary(7, rank)[:, :rank]
    projection = basis @ basis.conj().T
    slack = linalg._BOUND_SLACK
    sizes = [0.5 / np.sqrt(rank) / (1.0 + slack), 0.5 / np.sqrt(rank), 0.5]
    cases = [size * f * projection for size in sizes for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    dims = [_projection_range(a).dim for a in cases]
    assert dims == [int(np.sum(np.linalg.svd(a, compute_uv=False) > 0.5)) for a in cases]
    assert dims[-1] == rank and dims[0] == 0
    monkeypatch.setattr(halmos_wallen, "_frobenius", lambda a: np.inf)
    assert [_projection_range(a).dim for a in cases] == dims
