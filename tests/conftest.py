"""Shared seeded generators for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
from math import inf

import numpy as np
import pytest
from scipy.linalg import block_diag

from partialiso import (
    TwistedTuple,
    build_model_tuple,
    conjugate_tuple,
    direct_sum_tuples,
    haar_unitary,
    kron,
    op_norm,
    power_isometry_residual,
    random_model_spec,
    truncated_shift,
)
from partialiso import commutant, halmos_wallen, linalg, operators, twisted
from partialiso.linalg import adjoint, identity
from partialiso.operators import _relation_defects


@pytest.fixture
def gram_route(monkeypatch):
    """The star-closed count with its eigenbasis tier undecided: steps 1-5 on the full stack."""
    monkeypatch.setattr(commutant, "_eigenbasis_count", lambda mats, eps: None)


@pytest.fixture
def gate_log(monkeypatch):
    """Every `_norm_within` gate ((matrix, eps, verdict)) and `_projection_range` ((matrix,
    dimension)) decided while the test runs, the matrices copied."""
    gates, ranges = [], []
    norm_within, projection_range = linalg._norm_within, halmos_wallen._projection_range

    def gate(a, eps):
        gates.append((np.array(a), eps, norm_within(a, eps)))
        return gates[-1][2]

    def range_of(a):
        ranges.append((np.array(a), projection_range(a)))
        return ranges[-1][1]

    for module in (commutant, halmos_wallen, operators, twisted):
        monkeypatch.setattr(module, "_norm_within", gate)
    monkeypatch.setattr(halmos_wallen, "_projection_range", range_of)
    return gates, ranges


def assert_gates_decide_as_the_svd(gates, ranges, monkeypatch):
    """Each logged gate is ``op_norm(a) <= eps`` and each range has the dimension of an SVD
    cut at 1/2, and both stay so with the Frobenius accept taken out (after the test's
    patches, the log's among them, are undone): where that accept decided, it only spared
    the SVD."""
    for a, eps, verdict in gates:
        assert verdict == (op_norm(a) <= eps)
    for a, space in ranges:
        assert space.dim == int(np.sum(np.linalg.svd(a, compute_uv=False) > 0.5))
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_frobenius", lambda a: inf)
    monkeypatch.setattr(halmos_wallen, "_frobenius", lambda a: inf)
    assert [linalg._norm_within(a, eps) for a, eps, _ in gates] == [verdict for _, _, verdict in gates]
    assert [halmos_wallen._projection_range(a).dim for a, _ in ranges] == [s.dim for _, s in ranges]


def leaf_key(item):
    """Sort key for (multiindex, mult) pairs with mixed int and "u" entries."""
    multiindex, mult = item
    return tuple((1,) if e == "u" else (0, e) for e in multiindex), mult


def random_hw_instance(seed: int):
    """A scrambled direct sum: random unitary (dim <= 6) plus up to 3 blocks
    J_p x I_m with p <= 5, m <= 3, conjugated by a Haar unitary.

    Returns (matrix, unitary_dim, expected block multiset merged by p).
    """
    rng = np.random.default_rng(seed)
    u_dim = int(rng.integers(0, 7))
    n_blocks = int(rng.integers(0, 4))
    if u_dim == 0 and n_blocks == 0:
        n_blocks = 1
    blocks = [(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for _ in range(n_blocks)]
    parts = []
    if u_dim:
        parts.append(haar_unitary(u_dim, rng))
    for p, m in blocks:
        parts.append(kron(truncated_shift(p), np.eye(m, dtype=complex)))
    v = block_diag(*parts).astype(complex)
    w = haar_unitary(v.shape[0], rng)
    merged: dict[int, int] = {}
    for p, m in blocks:
        merged[p] = merged.get(p, 0) + m
    return w @ v @ w.conj().T, u_dim, sorted(merged.items())


def random_scrambled_model(seed: int, n_ops: int | None = None, max_dim: int = 64):
    """A seeded model tuple, scrambled; resamples until the dimension fits.

    Returns (tuple, spec) with the scramble applied to the tuple only.
    """
    sub_seed = seed
    while True:
        spec = random_model_spec(sub_seed, n_ops=n_ops, max_p=3, max_aux=2)
        t = build_model_tuple(spec)
        if t.dim <= max_dim:
            break
        sub_seed += 10_000
    scrambled = conjugate_tuple(t, haar_unitary(t.dim, seed + 777))
    return scrambled, spec


def perturbed_tuple(t: TwistedTuple, size: float, seed: int, first: int = 0) -> TwistedTuple:
    """Add noise of norm ``size`` to the operators from index ``first`` on."""
    rng = np.random.default_rng(seed)
    ops = list(t.ops[:first])
    for v in t.ops[first:]:
        e = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        ops.append(v + size * e / op_norm(e))
    return TwistedTuple(dim=t.dim, ops=ops, twists=t.twists)


def random_decomposition_instance(seed: int):
    """A scrambled, possibly direct-summed model tuple with N <= 4, dim <= 64.

    Returns (tuple, expected) where expected is the sorted list of
    (multiindex, mult_dim) leaves, merged across summands that share a
    multiindex.
    """
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(1, 5))
    n_summands = 1 if rng.random() < 0.6 else 2
    summands = []
    specs = []
    sub_seed = seed * 13 + 1
    while len(summands) < n_summands:
        spec = random_model_spec(sub_seed, n_ops=n_ops, max_p=3, max_aux=2)
        t = build_model_tuple(spec)
        sub_seed += 1
        total = sum(s.dim for s in summands) + t.dim
        if t.dim <= 32 and total <= 64:
            summands.append(t)
            specs.append(spec)
    combined = summands[0] if len(summands) == 1 else direct_sum_tuples(*summands)
    scrambled = conjugate_tuple(combined, haar_unitary(combined.dim, seed + 31))
    merged: dict[tuple, int] = {}
    for spec in specs:
        key = tuple(spec.slot_kinds)
        merged[key] = merged.get(key, 0) + spec.aux_dim
    expected = sorted(merged.items(), key=leaf_key)
    return scrambled, expected


def non_power_partial_isometry_3d() -> np.ndarray:
    """Partial isometry on C^3 whose square is not one: columns
    e_3, 0, (e_1 + e_2) / sqrt(2)."""
    v = np.zeros((3, 3), dtype=complex)
    v[2, 0] = 1.0
    v[0, 2] = 1.0 / np.sqrt(2.0)
    v[1, 2] = 1.0 / np.sqrt(2.0)
    return v


def unscreened_power_residuals(v: np.ndarray) -> list[float]:
    """Spectral residuals of V^n for n = 1..d+1, one SVD each, in the library's product order.

    A residual with an entry that is not finite (V^n overflowed) reads inf and ends the list.
    """
    out = []
    vp = v.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(v.shape[0] + 1):
            residual = vp @ vp.conj().T @ vp - vp
            if not np.isfinite(residual).all():
                return out + [inf]
            out.append(op_norm(residual))
            vp = vp @ v
    return out


def eager_residuals(t: TwistedTuple) -> dict:
    """Every residual of `verify_twisted`, formed at once: the spectral norm of each relation
    defect (NaN where its SVD fails), then the power residual of each operator."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for key, defect in _relation_defects(t):
            try:
                out[key] = op_norm(defect())
            except np.linalg.LinAlgError:
                out[key] = np.nan
    for i, v in enumerate(t.ops, 1):
        out[("ppi", i)] = power_isometry_residual(v)
    return out


def residual_bits(residuals: dict) -> list:
    """(key, the float's bytes) per residual, so that equal lists mean bit-identical values, NaN too."""
    return [(key, np.float64(value).tobytes()) for key, value in residuals.items()]


def single_op_tuple(m: np.ndarray) -> TwistedTuple:
    m = np.asarray(m, dtype=complex)
    return TwistedTuple(dim=m.shape[0], ops=[m])


def sylvester_pair_stack(pairs) -> np.ndarray:
    """The stacked maps X -> X B1 - B2 X over pairs (B1, B2), row-major vectorized, built from kron."""
    d = pairs[0][0].shape[0]
    eye = identity(d)
    return np.vstack([kron(eye, b1.T) - kron(b2, eye) for b1, b2 in pairs])


def sylvester_stack(mats) -> np.ndarray:
    """The stacked maps X -> XA - AX, row-major vectorized, one block per A."""
    return sylvester_pair_stack([(m, m) for m in mats])


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``; tracing stops whether it returns or raises."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blas_env(threads: int) -> dict:
    """This process's environment with the three BLAS thread counts pinned to ``threads``."""
    return {**os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads))}


def rerun_at_blas_threads(request, threads: int) -> bool:
    """Run the calling test in a fresh pytest process with the BLAS thread counts pinned to
    ``threads``, and assert that it passes there; False, running nothing, where this process
    already has them. BLAS splits its sums by thread, so the last bits of an SVD, and with them
    an SVD count that a bound decides by a hair, can change with the thread count."""
    env = blas_env(threads)
    if env.items() <= os.environ.items():
        return False
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", request.node.nodeid],
        cwd=request.config.rootpath, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return True


def resident_peak_growth(setup: str, call: str) -> int:
    """How far, in bytes, the peak resident size of a fresh interpreter grows over the statement
    ``call``, once the statements ``setup`` have run there. Unlike `traced_peak` it sees the
    buffers numpy's LAPACK wrappers allocate outside Python: the copy of its operand that each
    factorization makes and LAPACK's workspace. The peak is VmHWM, the kernel's high-water mark
    behind ``ru_maxrss``: Linux carries ``ru_maxrss`` over from the parent's resident size across
    exec, so under a test process larger than the child it would hide the call."""
    script = "\n".join([
        "def high_water():",
        "    with open('/proc/self/status') as status:",
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))",
        textwrap.dedent(setup),
        "before = high_water()",
        textwrap.dedent(call),
        "print(high_water() - before)",
    ])
    # one BLAS thread: each keeps buffers of its own, so the peak would grow with the core count
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=blas_env(1))
    assert proc.returncode == 0, proc.stderr
    # /proc reports kB, that is KiB
    return int(proc.stdout.split()[-1]) * 1024


def _has_clean_rank_gap(mats) -> bool:
    """No Sylvester singular value in the band the two cutoffs straddle."""
    s = np.linalg.svd(sylvester_stack(mats), compute_uv=False)
    scale = max(float(s[0]), 1.0)
    return not np.any((s > 1e-12 * scale) & (s < 1e-5 * scale))


def commutant_instances(count: int):
    """The seeded operator families of acceptance criterion 7 (d <= 12).

    Returns (families, skipped): the first ``count`` draws whose Sylvester
    system has a clean rank gap, as (seed, mats) pairs, and the number of
    ambiguous draws passed over.
    """
    families = []
    skipped = 0
    seed = 0
    while len(families) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        kind = seed % 4
        if kind == 0:
            d = int(rng.integers(2, 13))
            mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for _ in range(int(rng.integers(1, 3)))]
        elif kind == 1:
            d = int(rng.integers(2, 13))
            mats = [haar_unitary(d, rng) for _ in range(int(rng.integers(1, 3)))]
        elif kind == 2:
            spec = random_model_spec(seed, n_ops=2, max_p=3, max_aux=2)
            t = build_model_tuple(spec)
            if t.dim > 12:
                continue
            mats = list(t.ops)
        else:
            p = int(rng.integers(1, 4))
            mats = [kron(truncated_shift(p), identity(int(rng.integers(1, 3))))]
        if rng.random() < 0.5:
            mats = mats + [adjoint(m) for m in mats]
        if not _has_clean_rank_gap(mats):
            skipped += 1
            continue
        families.append((seed, mats))
    return families, skipped
