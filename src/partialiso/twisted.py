"""Twisted relation verification and the recursive tuple decomposition.

A tuple (V_1, ..., V_N) with commuting unitary twists U_ij decomposes into
an orthogonal sum of leaves indexed by multiindices over {u} union
{1, 2, ...}: on each leaf every V_n acts as a tensor model built from
diagonal twists at the truncated-shift slots before it, a truncated shift
or a leaf unitary at its own position, and the identity elsewhere. The
recursion peels off the lowest-index operator with its single-operator
decomposition, restricts the operators still to peel to each of its
reducing parts (blocks by order, then the unitary part) and recurses;
each leaf reads its unitaries and visible twist symbols off the input
once, on its first cell. Every restriction, leaf datum and the final
reconstruction is checked against tolerance; violations raise instead of
being projected away.
"""

from __future__ import annotations

import random
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import frexp, fsum, inf, isfinite, ldexp, nan, prod, sqrt

import numpy as np

from .halmos_wallen import (
    DecompositionError,
    _hw_decompose,
    _stable_projections,
    truncated_block_projection,
)
from .linalg import (
    _BOUND_SLACK,
    _UNDERFLOW,
    _UNIT_ROUNDOFF,
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _frobenius,
    _gamma,
    _max_op_norm,
    _norm_within,
    _require_square,
    _sum_of_squares,
    _svd_rank,
    adjoint,
    as_matrix,
    identity,
    kron,
    op_norm,
)
from .operators import (
    TwistedTuple,
    _Growth,
    _block_diag,
    _first_failing_relation,
    _model_operator,
    _relation_defects,
    _unitary_within,
    diag_twist,
    is_power_partial_isometry,
    power_isometry_residual,
    unitarity_residual,
)

__all__ = [
    "CommutantTooLargeError",
    "DecompositionLeaf",
    "DecompositionTree",
    "EquivalenceResult",
    "PartitionReport",
    "TwistReport",
    "check_projection_commutation",
    "classify_partition",
    "commutant_dimension",
    "decompose_tuple",
    "equivalence_check",
    "extract_twist_factor",
    "is_irreducible",
    "leaf_model_operator",
    "verify_twisted",
]


# ---------------------------------------------------------------------------
# relation verification


@dataclass
class TwistReport:
    """The verdict on one tuple, and its per-relation residuals on demand.

    ``eps`` and ``passed`` are set when `verify_twisted` returns. ``residuals``
    is formed on its first read, from the copy of the tuple the verdict was
    taken on, and kept; ``max_residual``, `worst` and `by_kind` read it.
    ``passed`` equals ``max_residual <= eps``.

    Keys are tuples (kind, indices...) with kind in {"star-cross",
    "plain-cross", "twist-commute", "twist-unitary",
    "twist-commuting-family", "ppi"}; indices are 1-based operator or
    twist-pair positions.
    """

    eps: float
    passed: bool
    _checked: TwistedTuple = field(repr=False, compare=False)

    @cached_property
    def residuals(self) -> dict[tuple, float]:
        """The spectral norm of each relation's defect, then each operator's power residual."""
        residuals: dict[tuple, float] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for key, defect in _relation_defects(self._checked):
                try:
                    residuals[key] = op_norm(defect())
                except np.linalg.LinAlgError:
                    # an overflowed product (inf - inf) leaves NaN entries, on which the SVD fails
                    residuals[key] = nan
        for i, v in enumerate(self._checked.ops, 1):
            residuals[("ppi", i)] = power_isometry_residual(v)
        return residuals

    @property
    def max_residual(self) -> float:
        """The largest residual; inf when one is not finite, as max() cannot rank NaN."""
        values = self.residuals.values()
        return float(max(values)) if all(map(isfinite, values)) else inf

    def worst(self) -> tuple[tuple, float]:
        """The largest residual, or the first that is not finite."""
        key = max(self.residuals, key=lambda k: (not isfinite(r := self.residuals[k]), r))
        return key, self.residuals[key]

    def by_kind(self, kind: str) -> dict[tuple, float]:
        return {k: v for k, v in self.residuals.items() if k[0] == kind}


def verify_twisted(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> TwistReport:
    """Decide every defining relation of a twisted tuple; residuals on demand.

    Covers, for all ordered pairs i != j: the star relation
    V_i* V_j = U_ij V_j V_i* and the plain relation V_i V_j = U_ji V_j V_i;
    for every operator and twist pair the commutation V_k U_ij = U_ij V_k;
    unitarity of each twist; commutation within the twist family; and the
    power-partial-isometry residual of each operator. Each residual is the
    spectral norm of its one defect. For `twist-unitary` that is U*U - I:
    with U = W S V*, U*U - I = V (S^2 - I) V* and UU* - I = W (S^2 - I) W*
    have the same singular values, so the other side adds nothing. Nothing
    is thrown: failures live in the report, and a residual that is not
    finite fails it with ``max_residual`` = inf.

    The verdict is taken here, on a copy of every operator and twist, so a
    later change to ``t`` moves neither it nor the residuals. Each relation
    row is decided by `_norm_within`, then each operator by
    `is_power_partial_isometry`, up to the first that fails; no SVD is
    taken where exact bounds decide. That verdict is ``max_residual <= eps``:
    `_norm_within(a, eps)` is ``op_norm(a) <= eps``, both power walks end by
    the tail bound of `power_isometry_residual`, and an entry that is not
    finite fails either way. The residual values are formed only when the
    report's ``residuals`` is first read.
    """
    checked = copy(t)
    # order "K" keeps each layout, so the products round as they would on ``t``
    checked.ops = [v.copy(order="K") for v in t.ops]
    checked.twists = {key: u.copy(order="K") for key, u in t.twists.items()}
    passed = _first_failing_relation(checked, tol.eps) is None and all(
        is_power_partial_isometry(v, tol)[0] for v in checked.ops
    )
    return TwistReport(eps=tol.eps, passed=passed, _checked=checked)


def check_projection_commutation(
    v: np.ndarray, w: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> dict[str, float]:
    """Commutators of W with the block projections of V.

    For a twisted pair (V, W) the stabilized range and source projections
    of V, their products, and every truncated block projection commute
    with W; the residuals are returned keyed by projection name. Nothing
    is assumed about the input pair, so a random pair simply reports large
    values; V must be square and W of the same shape.

    A block pi_p = sum_n (R_{n-1} - R_n)(S_{p-n} - S_{p-n+1}) of spectral
    norm at most 1/2 is left out. It is not even formed when the Frobenius
    norms of its factors, the steps x_j = ||R_j - R_{j+1}|| and
    y_j = ||S_j - S_{j+1}||, give
    sum_n x_{n-1} y_{p-n} (1 + `_BOUND_SLACK`) <= 1/2: the computed block's
    Frobenius norm is at most that sum times (1 + ρ)²(1 + γ)(1 + u)^{2p}
    plus pμ, in the constants of `linalg._rounding`, which the slack
    covers with room for the SVD.

    The ladder of V stops as soon as the steps it has not formed cannot
    matter. Past its top N, every step is bounded by one number b, so a
    test that reads b for each step above N has a sum no smaller than the
    one on the formed steps; where it drops order p, the walk to d would
    drop it too, and an order it cannot drop walks the ladder on, one power
    at a time, up to p at most, where the steps are the walk's own. So the
    blocks formed, and the returned floats, are those of a ladder walked
    to d. The bound b, in the notation of that proof (‖·‖ Frobenius):
    `operators._Growth.later` bounds every computed V̂^m, N <= m <= d + 1, by a
    (steps 1 and 2; inf where the guard of step 5 fails, so the ladder goes
    on as before, and 0.0 where V̂^N is exactly zero). A computed
    R̂_m = fl(V̂^m V̂^m*) then has ‖R̂_m‖ <= (1 + γ)a² + μ, and Ŝ_m alike;
    the difference of two, rounded entrywise, is at most 1 + u times
    2((1 + γ)a² + μ), and `_frobenius` adds 1 + ρ and half a subnormal
    step. So b = (1 + ρ)²(2((1 + γ)a² + μ) + μ), the second 1 + ρ covering
    the 1 + u and the evaluation; `_Growth.step_tail` forms it. At d = 50,
    scrambled example 4.3 stops its ladder at power 9, not 50: order 9 is
    the last whose bound it cannot drop, and its steps past order 5 are of
    rounding size.
    """
    v = _require_square(v)
    w = as_matrix(w)
    if w.shape != v.shape:
        raise DimensionMismatchError(f"W has shape {w.shape}, V has shape {v.shape}")
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
    ranges, sources = ladder.ranges, ladder.sources
    x: list[float] = []
    y: list[float] = []

    def climb() -> float:
        """Form the steps x_j, y_j up to the ladder's top N; return b, the bound on every later step."""
        top = len(ranges) - 1
        for j in range(len(x), top):
            x.append(_frobenius(ranges[j] - ranges[j + 1]))
            y.append(_frobenius(sources[j] - sources[j + 1]))
        return growth.step_tail(growth.later(top, ladder.power) if top < d else inf)

    def dropped(p: int, b: float) -> bool:
        """Whether order p's bound, with b for each step not formed, drops its block."""
        pad = [b] * (p - len(x))
        xs, ys = x + pad, y + pad
        return fsum(xs[n - 1] * ys[p - n] for n in range(1, p + 1)) * (1.0 + _BOUND_SLACK) <= 0.5

    with np.errstate(over="ignore", invalid="ignore"):
        growth = _Growth(v, ranges[1] @ v - v)
        b = climb()
        for p in range(1, d + 1):
            while not (drop := dropped(p, b)) and len(x) < p:
                ladder.extend(len(ranges))
                b = climb()
            if drop:
                continue
            pi_p = truncated_block_projection(v, p, ladder)
            if not _norm_within(pi_p, 0.5):
                out[f"block_p={p}"] = comm(pi_p)
    return out


# ---------------------------------------------------------------------------
# commutant and irreducibility

# Largest peak of a Sylvester system the package will build: its stack and the copies factorizing it makes.
COMMUTANT_MAX_BYTES = 2 * 1024**3


class CommutantTooLargeError(ValueError):
    """A Sylvester system would peak above COMMUTANT_MAX_BYTES."""


def _check_size(maps: int, d: int, peak_blocks: float) -> None:
    """Refuse ``maps`` Sylvester maps at ``d`` when ``peak_blocks`` d^2 x d^2 complex blocks pass the limit."""
    peak_bytes = peak_blocks * d**4 * np.dtype(complex).itemsize
    if peak_bytes > COMMUTANT_MAX_BYTES:
        raise CommutantTooLargeError(
            f"{maps} Sylvester maps at d = {d} need a {peak_bytes / 1024**3:.1f} GiB "
            f"system, above the {COMMUTANT_MAX_BYTES / 1024**3:.0f} GiB limit"
        )


def _sylvester_rows(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple, lo: int, hi: int) -> np.ndarray:
    """Row b: basis element b, the sum of gamma E_pq over its entries (b, p, q, gamma), under each
    map X -> X B1 - B2 X of ``pairs`` (B1, B2) in turn, output rows lo:hi of each, row-major: a
    complex (n, maps (hi - lo) d) array for n basis elements, written in place, so nothing its
    size is formed beside it. The one code that writes Sylvester entries."""
    b, p, q, gamma = basis
    d = pairs[0][0].shape[0]
    out = np.zeros((_basis_size(basis), len(pairs), hi - lo, d), dtype=complex)
    inside = (lo <= p) & (p < hi)
    gamma_inside = gamma[inside] if np.ndim(gamma) else gamma

    def scaled(factor, entries: np.ndarray) -> np.ndarray:
        # in place: the gathered entries are the only temporary of each write
        return np.multiply(factor, entries, out=entries)

    # (E_pq B1 - B2 E_pq)[r, s] = delta_rp B1[q, s] - B2[r, p] delta_qs; each (b, p) and (b, q) occurs once
    for n, (b1, b2) in enumerate(pairs):
        out[b[inside], n, p[inside] - lo, :] = scaled(gamma_inside, b1[q[inside], :])
        out[b, n, :, q] -= scaled(gamma, b2[lo:hi, p].T)
    return out.reshape(len(out), len(pairs) * (hi - lo) * d)


def _sylvester_stack(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple) -> np.ndarray:
    """Every output row of `_sylvester_rows`: the whole stack, a complex (d^2, maps d^2) array."""
    return _sylvester_rows(pairs, basis, 0, pairs[0][0].shape[0])


def _basis_size(basis: tuple) -> int:
    """The number n of elements of a basis of `_sylvester_rows`, which numbers them 0, ..., n - 1."""
    return int(np.max(basis[0], initial=-1)) + 1


def _matrix_units(d: int) -> tuple:
    """The row-major basis E_pq of d x d matrices, as entries (b, p, q, gamma) of `_sylvester_stack`."""
    b = np.arange(d * d)
    return (b, *np.divmod(b, d), 1.0)


def _hermitian_units(sizes: list[int]) -> tuple:
    """sqrt(2) E_jj, E_jk + E_kj, i (E_jk - E_kj), j < k in one diagonal block of ``sizes``: sqrt(2)
    times an orthonormal basis of the block-diagonal Hermitian matrices; [d] gives all of them."""
    offsets = np.cumsum([0, *sizes[:-1]])
    j, k = np.concatenate([o + np.array(np.triu_indices(s, 1)) for o, s in zip(offsets, sizes)], axis=1)
    d = int(sum(sizes))
    diag, sym, anti = np.arange(d), d + np.arange(len(j)), d + len(j) + np.arange(len(j))
    b, p, q = (np.concatenate(x) for x in ((diag, sym, sym, anti, anti), (diag, j, k, j, k), (diag, k, j, k, j)))
    gamma = np.repeat([np.sqrt(2.0), 1.0, 1.0, 1j, -1j], [d] + 4 * [len(j)])[:, None]
    return b, p, q, gamma


def _uniform(seed: int, *shape: int) -> np.ndarray:
    """Seeded draws uniform on [-1/2, 1/2), from the standard library: numpy.random would add
    about 27 ms of imports to every CLI `commutant` and `equiv`."""
    bits = np.frombuffer(random.Random(seed).randbytes(8 * prod(shape)), dtype=np.uint64)
    return bits.reshape(shape) * 2.0**-64 - 0.5


def _small_eigenvectors(gram: np.ndarray, k: int) -> np.ndarray:
    """k Ritz vectors of ``gram`` for its smallest eigenvalues, 0 < k < n: one solve on
    gram + alpha I, alpha = tr(gram) 2^-52, from k + 2 fixed-seed columns, a QR and a
    Rayleigh-Ritz step. ``gram`` is shifted in place and its diagonal restored, bit for bit."""
    n = gram.shape[0]
    start = _uniform(0, n, min(k + 2, n))
    diagonal = gram.diagonal().copy()
    gram.flat[:: n + 1] += float(np.trace(gram)) * 2.0**-52
    try:
        # numpy's solve factors a copy of its own
        q = np.linalg.qr(np.linalg.solve(gram, start))[0]
    finally:
        gram.flat[:: n + 1] = diagonal
    _, v = np.linalg.eigh(q.T @ (gram @ q))
    return q @ v[:, :k]


def _gram_split(gram: np.ndarray, m: int, eps: float, floor: float, raised):
    """Steps 1-3 of the star-closed count: (k, Q_k, q, F^, delta) once at most k singular values
    are certified <= raised(eps + delta), else None; Q_k is None for k = n, standing for the
    identity. delta is at least ``floor``; ``raised`` returns None where it certifies nothing.
    ``gram`` is shifted in place."""
    n = gram.shape[0]
    trace = float(np.trace(gram))
    if not isfinite(trace):
        return None
    f_bar = trace * (1.0 + 2.0 * _gamma(m + n)) + _UNDERFLOW
    delta = max(n * _UNIT_ROUNDOFF * sqrt(f_bar), floor)
    level = raised(eps + delta)
    if level is None:
        return None
    try:
        w = np.linalg.eigvalsh(gram)
        # products, not powers: a square past the float range is inf, and every value lies below it
        k = int(np.count_nonzero(w <= (eps + delta) * (eps + delta) + 2.0 * _gamma(m + n + 8) * f_bar))
        if k == n:
            return k, None, float(n), f_bar, delta
        q_k = _small_eigenvectors(gram, k) if k else np.zeros((n, 0))
    except np.linalg.LinAlgError:
        return None
    q_bar = _sum_of_squares(q_k)
    c = ldexp(1.0, frexp(float(w[k]))[1])
    tau = level * level + 2.0 * _gamma(m + n + k + 8) * (f_bar + c * q_bar) + 4 * _UNDERFLOW
    deflation = q_k @ q_k.T
    deflation *= c
    gram += deflation
    del deflation
    gram.flat[:: n + 1] -= tau * (1.0 + _BOUND_SLACK)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return k, q_k, q_bar, f_bar, delta


def _spans_small_values(chunks, q_k: np.ndarray | None, q_bar: float, f_bar: float, limit: float) -> bool:
    """Step 4 of the star-closed count: the range of ``q_k`` (the identity when None) certifies
    k singular values of the stack S at or below ``limit``; ``chunks`` yields S^T by columns."""
    if q_k is None:
        # Q_k = I: ||S||_2 <= ||S||_F <= sqrt(F^), and no chunk is built
        phi, eta = 0.0, sqrt(f_bar)
    else:
        n, k = q_k.shape
        gram_k = q_k.T @ q_k
        gram_k.flat[:: k + 1] -= 1.0
        phi = sqrt(_sum_of_squares(gram_k)) * (1.0 + 2.0 * _UNIT_ROUNDOFF) + _gamma(n) * q_bar + _UNDERFLOW
        image = fsum(_sum_of_squares(q_k.T @ chunk) for chunk in chunks)
        eta = sqrt(image) + _gamma(n) * sqrt(f_bar * q_bar) + _UNDERFLOW
    return phi <= 0.5 and limit > 0.0 and eta * eta * (1.0 + _BOUND_SLACK) <= limit * limit * (1.0 - phi)


def _stack_chunks(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple):
    """The real stack S^T of `_star_closed_count` by columns, d // 2 output rows of one map at a
    time: from d = 2 on, each chunk holds at most d^4 entries, the size of the full Gram matrix."""
    d = pairs[0][0].shape[0]
    step = max(1, d // 2)
    for pair in pairs:
        for lo in range(0, d, step):
            # row b holds the image of unknown b, Re and Im of each entry in turn
            yield _sylvester_rows([pair], basis, lo, min(lo + step, d)).view(float)


def _gram_count(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple, eps: float,
                floor: float = 0.0, raised=lambda level: level) -> int | None:
    """Steps 1-4 on the real stack of ``pairs`` over ``basis``: its count of singular values at or
    below eps, certified with none within delta of eps, else None (see `_gram_split`)."""
    n = _basis_size(basis)
    gram, product = np.zeros((n, n)), np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _stack_chunks(pairs, basis):
            gram += np.matmul(chunk, chunk.T, out=product)
            del chunk  # before the next one is built
    del product
    # the stack has Re and Im rows of every entry of each map, over n unknowns
    split = _gram_split(gram, 2 * len(pairs) * pairs[0][0].size, eps, floor, raised)
    del gram
    if split is None:
        return None
    k, q_k, q_bar, f_bar, delta = split
    return k if _spans_small_values(_stack_chunks(pairs, basis), q_k, q_bar, f_bar, eps - delta) else None


# Consecutive eigenvalues of the first tier's Hermitian element this close share one block.
_CLUSTER_GAP = 1e-6


def _eigenbasis_count(mats: list[np.ndarray], eps: float) -> int | None:
    """The first tier of the star-closed count, on the eigenbasis blocks of one Hermitian element
    (see `commutant_dimension`); None where it cannot decide, or where one block is all of C^d."""
    d = mats[0].shape[0]
    real, imag = _uniform(1, 2, len(mats))
    c = real + 1j * imag
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.tensordot(c, mats, 1)
        a += a.conj().T
        if not np.isfinite(a).all():
            return None
        try:
            lam, q = np.linalg.eigh(a)
        except np.linalg.LinAlgError:
            return None
        cuts = np.flatnonzero(np.diff(lam) > _CLUSTER_GAP) + 1
        if not len(cuts):
            return None
        sizes = np.diff([0, *cuts, d])
        qh = q.conj().T
        conjugated = [qh @ v @ q for v in mats]
        # A' = sum c_k V'_k + h.c. of the conjugated family, less the eigenvalues eigh returned
        a_conj = np.tensordot(c, conjugated, 1)
        a_conj += a_conj.conj().T
        a_conj.flat[:: d + 1] -= lam
        block = np.repeat(np.arange(len(sizes)), sizes)
        inside = block[:, None] == block
        norms = fsum(abs(ck) * sqrt(_sum_of_squares(v)) for ck, v in zip(c, conjugated))
        rounding = 2.0 * _gamma(2 * len(mats) + 8) * norms
        e = sqrt(_sum_of_squares(a_conj[~inside])) * (1.0 + _BOUND_SLACK) + rounding
        rho = sqrt(_sum_of_squares(a_conj[inside])) * (1.0 + _BOUND_SLACK) + rounding
        g = float(np.min(lam[cuts] - lam[cuts - 1])) * (1.0 - _BOUND_SLACK) - 2.0 * rho
        q_bar = _sum_of_squares(q)
        gram_q = qh @ q
        gram_q.flat[:: d + 1] -= 1.0
        theta = sqrt(_sum_of_squares(gram_q)) * (1.0 + 2.0 * _UNIT_ROUNDOFF)
        theta += _gamma(2 * d + 4) * q_bar + _UNDERFLOW
        v_bar = fsum(_sum_of_squares(v) for v in mats)
    if not (g > 0.0 and theta < 1.0 and isfinite(e + v_bar + q_bar)):
        return None
    scale = 2.0 * sqrt(2.0) * sqrt(v_bar) * (1.0 + _BOUND_SLACK)
    epsilon = scale * (2.0 * theta + theta * theta + _gamma(4 * d + 8) * q_bar)
    sigma = scale + epsilon
    m = 2 * len(mats) * d * d
    band = d * d * _UNIT_ROUNDOFF * sqrt(4.0 * d * v_bar * (1.0 + 4.0 * _gamma(m + d * d + 2)) + _UNDERFLOW)
    c_norm = sqrt(fsum(abs(ck) ** 2 for ck in c)) * (1.0 + _BOUND_SLACK)

    def raised(level: float) -> float | None:
        z = (sqrt(2.0) * c_norm * level + 2.0 * e) / g * (1.0 + _BOUND_SLACK)
        if not z < 1.0:
            return None
        return (level + sigma * z) / sqrt(1.0 - z * z) * (1.0 + _BOUND_SLACK)

    return _gram_count([(v, v) for v in conjugated], _hermitian_units(sizes), eps, band + epsilon, raised)


def _star_closed_count(pairs: list[tuple[np.ndarray, np.ndarray]], d: int, eps: float) -> int:
    """The star-closed count of `commutant_dimension`: certified on the eigenbasis blocks, else
    from the full Gram matrix, else the SVD."""
    count = _eigenbasis_count([b1 for b1, _ in pairs], eps)
    if count is None:
        count = _gram_count(pairs, _hermitian_units([d]), eps)
    if count is not None:
        return count
    rows = _sylvester_stack(pairs, _hermitian_units([d])).view(float)
    return int(np.count_nonzero(np.linalg.svd(rows.T, compute_uv=False) <= eps))


def commutant_dimension(
    ops: list[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
    include_adjoints: bool = False,
) -> int:
    """Dimension of {X : XA = AX for every A in the family}.

    The family is exactly ``ops`` unless ``include_adjoints`` is set, which
    star-closes it (the right notion for reducibility questions). Solved
    on the stacked Sylvester maps X -> XA - AX in row-major vectorization:
    the stack is at least as tall as it is wide, so the dimension counts its d^2
    singular values at or below eps, absolute: the cut of every Sylvester null
    space here, as norm-O(1) operators keep rounding far below it. No singular
    vectors are formed; 0 for 0 x 0 operators, else >= 1. Dense for any matrices
    (a certified tuple's is read off its leaves by `DecompositionTree.commutant_dimension`).

    A star-closed family is solved in real arithmetic. X commutes with it exactly
    when X* does, so write X = A + iB with A, B Hermitian. The map S of the family
    sends A to (M_k, -M_k*) and iB to (N_k, N_k*) with M_k = [A, V_k], N_k = [iB, V_k],
    whose real inner product is sum Re tr(M_k* N_k) - Re tr(M_k N_k*) = 0, and
    S(iB) = i S(B). So S is, as a real map, the direct sum of two copies of
    S_H(A) = sqrt(2) ([A, V_k])_k on Hermitian A: the d^2 complex singular values of S
    are those of the real stack of S_H, m = 2 N d^2 rows over n = d^2 unknowns.

    The star-closed count is read off the Gram matrix G = S^T S of that real stack S,
    first on the eigenbasis blocks of one Hermitian element of the family (step 0), then
    on all of S, with its SVD only where the bounds below cannot decide. Write u = 2^-53,
    gamma_j = j u / (1 - j u), F = ||S||_F^2 and mu = 2^-900, which covers every
    underflow term; each bound is evaluated with 1 + `_BOUND_SLACK` to spare, far
    above its own rounding.

    1. Gram. G^ = sum_c fl(S_c^T S_c) is summed over row chunks S_c of S, each d // 2
       output rows of one map: every entry is still the sum of the m products of two
       columns of S, in some order. A computed product of inner dimension j, in any order
       of its sums, errs entrywise by gamma_j times the product of the absolute values
       (Higham, *Accuracy and Stability*, section 3.5), so G^ is within gamma_m F of
       S^T S in norm. Its diagonal sums squares, so F <= F^ = tr G^ (1 + 2 gamma_{m+n}) + mu.
       The band delta = n u sqrt(F^) sits n times above LAPACK's own error estimate
       u ||S||_2 for the singular values its SVD returns.
    2. Split. eigvalsh(G^) gives ascending w; k counts the w_i at or below
       (eps + delta)^2 + 2 gamma_{m+n+8} F^ (a square past the float range is inf, so
       every value counts). For 0 < k < n, Q_k holds k Ritz vectors:
       one solve of (G^ + alpha I) X = W, alpha = 2^-52 tr G^, from k + 2 columns W of a
       fixed seed, Q from the QR of X, and Q_k = Q V_k for the k smallest eigenvalues of
       Q^T G^ Q. Q_k is empty for k = 0 and the identity, never formed, for k = n, where
       no solve is taken. Nothing below assumes that w or Q_k is accurate: a poor split
       only makes a check fail.
    3. At most k, at a level s: eps + delta on the full stack, s_req in step 0. Let c be
       the power of two at or above w_{k+1}, q >= ||Q_k||_F^2 and
       tau = s^2 + 2 gamma_{m+n+k+8} (F^ + c q) + 4 mu. The matrix
       M = fl(G^ + c fl(Q_k Q_k^T) - tau I) differs from A = S^T S + c Q_k Q_k^T - tau I
       by at most gamma_{m+3} F + gamma_{k+3} c q + u tau + 3 mu, and its trace is at most
       (1 + gamma_{m+1}) F + (1 + gamma_{k+1}) c q + mu. If Cholesky runs to completion on
       M, its factor gives M + dM = R^T R positive definite with ||dM||_2 <= gamma_{n+1}
       tr(M) / (1 - gamma_{n+1}) (ibid., Thm 10.3). The two bounds sum to less than
       tau - s^2, so lambda_min(A) > s^2 - tau. As c Q_k Q_k^T is positive semidefinite
       of rank <= k, Weyl's inequalities give lambda_min(A) <= lambda_{k+1}(S^T S) - tau:
       at most k singular values of S are <= s.
    4. At least k. With the chunks rebuilt, phi = ||fl(Q_k^T Q_k) - I||_F (1 + 2u) +
       gamma_n q + mu bounds ||Q_k^T Q_k - I||_2 and eta = (sum_c ||fl(S_c Q_k)||_F^2)^1/2
       + gamma_n sqrt(F^ q) + mu bounds ||S Q_k||_2: the S_c Q_k are the row chunks of
       S Q_k, each of inner dimension n. If phi <= 1/2, each x = Q_k y of the
       k-dimensional range of Q_k has ||S x|| <= eta ||y|| <= eta ||x|| / sqrt(1 - phi), so
       by Courant-Fischer at least k singular values are at most eta / sqrt(1 - phi). The
       check asks for eps - delta. For Q_k = I no chunk is built: phi = 0 and
       eta = sqrt(F^) >= ||S||_F.
    5. Fallback. When either check fails, G^ overflows, or eigvalsh, the solve or a
       factorization of the split fails in LAPACK, the count is that of the values-only
       SVD of the whole stack, built only then.

    0. Eigenbasis blocks, the first tier (Murota, Kanno, Kojima and Kojima, Japan J.
       Indust. Appl. Math. 27, 2010). Every X of the commutant commutes with the Hermitian
       A = sum_k (c_k V_k + conj(c_k) V_k*), c_k fixed draws of `_uniform`, so it is block
       diagonal over the eigenspaces of A. eigh(A) gives ascending lambda and Q^;
       consecutive eigenvalues within 1e-6 share a block, of size k_b. Steps 1-4 run on
       S'_B: the columns, for the r = sum k_b^2 block-diagonal Hermitian unknowns, of the
       stack S' of the stored V'_k = fl(Q^* V_k Q^). With one block (r = d^2) the tier is
       skipped; wherever a check of it fails, steps 1-5 run on S as if it had not been tried.
       Its bounds, each on the computed data:
       - W, the unitary polar factor of Q^, and S_W, the stack of the W* V_k W: X -> W* X W
         is unitary on inputs and outputs, so S_W has the singular values of S.
       - theta >= ||Q^* Q^ - I||_2 is formed as phi in step 4, with gamma_{2d+4} for a
         complex product. Q^ = W P with ||P - I||_2 <= theta, so ||Q^* V Q^ - W* V W||_2 <=
         (2 theta + theta^2) ||V||_2, and the two stored products err by gamma_{4d+8}
         ||Q^||_F^2 ||V||_F in Frobenius norm. ||S x|| = (sum_k ||[X, V_k]||_F^2)^1/2 with
         ||X||_F = sqrt(2) ||x||, so ||S||_2 <= s_V = 2 sqrt(2) (sum_k ||V_k||_F^2)^1/2 and
         epsilon = s_V (2 theta + theta^2 + gamma_{4d+8} ||Q^||_F^2) >= ||S' - S_W||_2;
         sigma = s_V + epsilon >= ||S'||_2.
       - A' = sum_k c_k V'_k + h.c., exactly, and D its block-diagonal part. fl(A') errs by
         at most 2 gamma_{2N+8} sum_k |c_k| ||V'_k||_F; with it, the Frobenius norms of the
         off-block and block parts of fl(A') - diag(lambda) give e >= ||A' - D||_2 and
         rho >= ||D - diag(lambda)||_2. By Weyl's inequalities each diagonal block of D has
         its spectrum within rho of its own lambda, so g = (smallest gap of lambda between
         consecutive blocks) - 2 rho bounds the distance between the spectra of any two.
       - delta, at least d^2 u (4d sum_k ||V_k||_F^2)^1/2, the band of step 1 on all of S
         (F <= 4d sum_k ||V_k||_F^2), plus epsilon; L = eps + delta,
         z0 = (sqrt(2) ||c||_2 L + 2e) / g, and step 3 runs at
         s_req = (L + sigma z0) / sqrt(1 - z0^2), step 4 at eps - delta, and only for z0 < 1.
       At least k: step 4 gives a k-dimensional range with ||S' x|| <= (eps - delta) ||x||,
       so ||S_W x|| <= (eps - delta + epsilon) ||x||. At most k: were k + 1 singular values
       of S at or below eps + delta - epsilon, S' would have a (k + 1)-dimensional U with
       ||S' x|| <= L ||x||. For Hermitian X, [X, V*] = -[X, V]*, so ||[X, A']||_F <=
       2 ||c||_2 ||S' x||. ad_D keeps block-diagonal and off-block parts apart, and its
       off-block part X_O has ||[X_O, D]||_F >= g ||X_O||_F (the blocks of D are
       Hermitian); as the off-block part of [X, A'] is [X_O, D] plus that of [X, A' - D],
       g ||X_O||_F <= 2 ||c||_2 ||S' x|| + 2e ||X||_F, that is ||x_O|| <= z0 ||x|| on U.
       With z0 < 1, x -> x_B is one-to-one on U, and ||S' x_B|| <= ||S' x|| + sigma ||x_O||
       <= s_req ||x_B||: k + 1 singular values of S'_B at or below s_req, which step 3
       excludes. For k = r there is no step 3: no r + 1 dimensions map one-to-one into r.

    Steps 3 and 4, in either tier, leave no singular value of S within delta of eps (in
    step 0, delta - epsilon, still at least the band of step 1 on S), so the certified count
    is the one that SVD would return unless its values erred by n times LAPACK's estimate.
    Exact models keep a wide gap on both sides; near the cutoff, or when noise moves a
    commutant direction off zero by far more than eps, a check fails and the SVD decides.
    The plain branch keeps its SVD: its one-operator stack is square, so G would be as
    large as the stack.

    Operators that are not square or not all of one shape raise before any stack is
    built. Above COMMUTANT_MAX_BYTES a system raises `CommutantTooLargeError` first. The
    plain branch peaks at its stack of N complex d^2 x d^2 blocks and the copy numpy's SVD
    makes. The star-closed stack is the same size (Re and Im of each entry in turn), but
    the Gram route never holds it. A chunk of S^T is at most d^4 reals, the size of G^ on
    all of S, and G^ is half a block, so each phase holds at most 1.5 blocks: G^, one chunk and one
    chunk product; then G^ and the copy that eigvalsh, numpy's solve or Cholesky makes
    (with Cholesky's factor); then two chunks. Beside them sit n x (k + 2) arrays for the
    solve and Q_k. Only the fallback builds the stack, and it peaks as the plain branch
    does. The guard still counts max(2N, 2.5) blocks, so for one operator its 2.5 is now
    conservative. Step 0 holds the N conjugated operators and a few d x d arrays beside the
    same phases over r <= d^2 unknowns: r x r matrices and chunks of r d^2 reals. The Gram
    sums and the products of step 0 run with numpy's overflow and invalid warnings off: an
    overflow leaves a non-finite trace or bound, and the next tier runs.
    """
    mats = [_require_square(a) for a in ops]
    if not mats:
        raise ValueError("need at least one operator")
    for n, m in enumerate(mats[1:], 2):
        if m.shape != mats[0].shape:
            raise DimensionMismatchError(f"operator {n} has shape {m.shape}, operator 1 has shape {mats[0].shape}")
    d, pairs = mats[0].shape[0], [(m, m) for m in mats]
    if include_adjoints:
        _check_size(2 * len(mats), d, max(2 * len(mats), 2.5))
        return _star_closed_count(pairs, d, tol.eps)
    _check_size(len(mats), d, 2 * len(mats))
    singular_values = np.linalg.svd(_sylvester_stack(pairs, _matrix_units(d)).T, compute_uv=False)
    return int(np.count_nonzero(singular_values <= tol.eps))


def is_irreducible(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the dense commutant of {V_i, V_i*} is the scalars; needs no decomposition. The
    count runs on the eigenbasis blocks of one Hermitian element first (step 0 of
    `commutant_dimension`): d unknowns where that element has a simple spectrum, not d^2."""
    return commutant_dimension(t.ops, tol, include_adjoints=True) == 1


# ---------------------------------------------------------------------------
# slot twist extraction


def _grading_blocks(v: np.ndarray, p: int, m: int, eps: float, what: str) -> list[np.ndarray]:
    """The p diagonal m x m blocks of ``v``, which must be block diagonal over C^p within eps."""
    blocks = [v[a * m : (a + 1) * m, a * m : (a + 1) * m] for a in range(p)]
    off_block = v - _block_diag(blocks)
    if not _norm_within(off_block, eps):
        raise DecompositionError(
            f"{what} not block diagonal over the shift grading (off-block mass {op_norm(off_block):.3e})"
        )
    return blocks


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def extract_twist_factor(
    vj_block: np.ndarray,
    p: int,
    mult_dim: int,
    tol: Tolerance = DEFAULT_TOL,
    ambient_twist: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a block-diagonal operator on C^p x C^m into twist and remainder.

    The input must be block diagonal over the C^p grading with blocks
    B_1, ..., B_p satisfying B_{a+1} = u B_a for one unitary u; the return
    value (u, B_1) reconstructs the input as d_1[u] (I_p x B_1). The
    unitary is recovered from consecutive block ratios when B_1 has full
    rank; otherwise the compression ``ambient_twist`` (when supplied)
    fills the directions the ratios cannot see. Off-block-diagonal mass or
    an inconsistent ratio above tolerance raises `DecompositionError`.
    `decompose_tuple` does not call it: it reads symbols off the twists.
    """
    v = as_matrix(vj_block)
    m = mult_dim
    if v.shape != (p * m, p * m):
        raise ValueError(f"block operator has shape {v.shape}, expected ({p * m}, {p * m})")
    blocks = _grading_blocks(v, p, m, tol.eps, "operator is")
    v_tilde = blocks[0]

    candidates: list[np.ndarray] = []
    if p == 1:
        candidates.append(ambient_twist if ambient_twist is not None else identity(m))
    else:
        s = np.linalg.svd(v_tilde, compute_uv=False)
        full_rank = _svd_rank(s, tol) == m
        if full_rank:
            b_stack = np.hstack(blocks[:-1])
            c_stack = np.hstack(blocks[1:])
            sol, *_ = np.linalg.lstsq(b_stack.T, c_stack.T, rcond=None)
            candidates.append(_polar_unitary(sol.T))
        if ambient_twist is not None:
            candidates.append(as_matrix(ambient_twist))
        if not candidates:
            # rank-deficient with no ambient data: Procrustes fit of the
            # ratio equations, arbitrary (deterministic) on the kernel
            acc = np.zeros((m, m), dtype=complex)
            for a in range(p - 1):
                acc += blocks[a + 1] @ adjoint(blocks[a])
            candidates.append(_polar_unitary(acc))

    last_defect = None
    for u in candidates:
        if not _unitary_within(u, tol.eps):
            continue
        last_defect = v - diag_twist([p], 1, u, m, tol) @ kron(identity(p), v_tilde)
        if _norm_within(last_defect, tol.eps):
            return u, v_tilde
    last_residual = None if last_defect is None else op_norm(last_defect)
    raise DecompositionError(
        f"inconsistent block ratios: best reconstruction residual {last_residual}"
    )


# ---------------------------------------------------------------------------
# the decomposition tree


@dataclass
class DecompositionLeaf:
    """One multiindexed leaf of the tuple decomposition.

    ``multiindex`` has one entry per operator: an int p for a truncated
    shift slot or "u" for a unitary slot. ``intertwiner`` has orthonormal
    columns spanning the leaf subspace of the ambient space, ordered so the
    model acts on (x_{shift slots} C^p) x C^{mult_dim} with the left factors
    slow; its first ``mult_dim`` columns G1 span the first cell, where every
    shift slot is at position 1. ``unit_ops`` maps each unitary position n
    to its leaf unitary G1* V_n G1, and ``slot_twists`` each visible (m, n)
    to the twist symbol G1* U_mn G1: m is a shift slot of order >= 2 and n
    a unitary slot or a later shift slot of order >= 2. Any other symbol is
    the identity (at a one-dimensional slot) or multiplies J_1 = 0, so no
    model matrix needs it. ``leaf_dim`` is derived: the product of the
    shift dims times mult_dim.
    """

    multiindex: tuple
    mult_dim: int
    slot_twists: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    unit_ops: dict[int, np.ndarray] = field(default_factory=dict)
    intertwiner: np.ndarray | None = None

    @property
    def leaf_dim(self) -> int:
        return prod(self.shift_dims()) * self.mult_dim

    def shift_dims(self) -> list[int]:
        return [e for e in self.multiindex if e != "u"]


@dataclass
class PartitionReport:
    """Per-leaf operator classification, plus the global one when consistent.

    Each assignment maps the operator position to "u" or to its shift
    order p. Different leaves of a reducible tuple may classify the same
    operator differently, in which case ``global_assignment`` is None.
    """

    per_leaf: list[dict[int, object]]
    global_assignment: dict[int, object] | None

    def classes(self) -> dict[str, list[int]] | None:
        if self.global_assignment is None:
            return None
        out: dict[str, list[int]] = {}
        for n, label in sorted(self.global_assignment.items()):
            key = "u" if label == "u" else f"p={label}"
            out.setdefault(key, []).append(n)
        return out


@dataclass
class DecompositionTree:
    """All leaves, the assembled global intertwiner, and the certificate.

    ``_defects`` holds G model_n G* - V_n for each operator, formed when
    `decompose_tuple` decided them within eps; ``residual``, the largest of
    their spectral norms, is formed on its first read and kept.
    """

    ambient_dim: int
    n_ops: int
    leaves: list[DecompositionLeaf]
    global_intertwiner: np.ndarray
    partition: PartitionReport
    _defects: list[np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        """The reconstruction residual max_n ||G model_n G* - V_n||."""
        return float(_max_op_norm(self._defects))

    def commutant_dimension(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """Dimension of the commutant of {V_n, V_n*}, read off the leaves.

        The leaf and shift-position projections are polynomials in the V_n, V_n* (products of
        R_k - R_{k+1}, S_k - S_{k+1} and P Q), so each X in it is block diagonal over the cells
        (leaf, shift position). A shift maps each block unitarily onto the next, and a leaf's
        first block commutes with the leaf's unit ops, visible symbols and their adjoints: one
        star-closed `commutant_dimension` per leaf, on the eigenbasis blocks of one Hermitian
        element of its data where they certify the count (step 0), else on all m^2 unknowns;
        all of M_m for a leaf with no data.
        """
        data = [(leaf.mult_dim, [*leaf.unit_ops.values(), *leaf.slot_twists.values()])
                for leaf in self.leaves]
        return sum(commutant_dimension(ops, tol, include_adjoints=True) if ops else m * m for m, ops in data)


def leaf_model_operator(leaf: DecompositionLeaf, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The model matrix of operator ``n`` on the leaf space."""
    return _model_operator(
        list(leaf.multiindex), leaf.slot_twists, leaf.unit_ops, leaf.mult_dim, n, tol
    )


def _restrict(op: np.ndarray, basis: np.ndarray, eps: float, what: str) -> np.ndarray:
    """C = B* op B, certified from the products that form it.

    For orthonormal B and P = B B*: ||op B - B C|| = ||(I - P) op P|| and
    ||B* op - C B*|| = ||P op (I - P)||, so range(B) reduces op within eps.
    """
    left = adjoint(basis) @ op
    c = left @ basis
    off_out = op @ basis - basis @ c
    off_in = left - c @ adjoint(basis)
    if not (_norm_within(off_out, eps) and _norm_within(off_in, eps)):
        worst = _max_op_norm((off_out, off_in))
        raise DecompositionError(f"{what}: subspace is not reducing (off-block norm {worst:.3e})")
    return c


def _path_step(kind) -> str:
    """One step of the stage path that `DecompositionError` texts name: "/u" or "/p=<p>"."""
    return "/u" if kind == "u" else f"/p={kind}"


def _decompose_rec(
    remaining: list[int], carried: dict[int, np.ndarray], dim: int, tol: Tolerance, path: str
) -> list[DecompositionLeaf]:
    """Peel ``remaining[0]`` and recurse; ``carried`` holds ``remaining``'s operators on C^dim.

    Every part of the peeled operator is peeled alike: an order-p block is
    graded over C^p and the unitary part, labelled "u", over C^1. Each
    restriction must be block diagonal over the grading, and its top-left
    mult x mult block carries on. Parts are peeled in canonical order,
    blocks in ascending p and then "u", so the leaves come back in canonical
    order, with multiindex, mult_dim and intertwiner only.
    """
    if not remaining:
        return [DecompositionLeaf(multiindex=(), mult_dim=dim, intertwiner=identity(dim))]

    eps = tol.eps
    first, rest = remaining[0], remaining[1:]
    hw = _hw_decompose(carried[first], tol)
    # (label, grading p, mult, columns), read off the intertwiner's layout [u | blocks]
    layout = [("u", 1, hw.unitary_dim)] + [(b.p, b.p, b.mult) for b in hw.truncated_blocks]
    parts, at = [], 0
    for label, p, mult in layout:
        parts.append((label, p, mult, hw.intertwiner[:, at : at + p * mult]))
        at += p * mult

    leaves: list[DecompositionLeaf] = []
    for label, p, mult, wp in parts[1:] + parts[:1]:
        if not mult:
            continue
        here = path + _path_step(label)
        sub = {}
        for n in rest:
            c = _restrict(carried[n], wp, eps, f"{here}: operator {n}")
            sub[n] = _grading_blocks(c, p, mult, eps, f"{here}: operator {n}:")[0]
        for leaf in _decompose_rec(rest, sub, mult, tol, here):
            leaves.append(
                replace(
                    leaf,
                    multiindex=(label,) + leaf.multiindex,
                    intertwiner=wp @ kron(identity(p), leaf.intertwiner),
                )
            )
    return leaves


def _read_leaf(t: TwistedTuple, leaf: DecompositionLeaf, eps: float) -> DecompositionLeaf:
    """The leaf with its unit ops and visible slot twists, each unitary within eps.

    The diagonal twists act as the identity on the first cell, so there the
    leaf unitary of a "u" slot n is G1* V_n G1 and the symbol (m, n) is G1* U_mn G1.
    """
    g1 = leaf.intertwiner[:, : leaf.mult_dim]
    kinds = leaf.multiindex
    slots = [m for m, kind in enumerate(kinds, 1) if kind != "u" and kind >= 2]

    def compress(a: np.ndarray, what: str) -> np.ndarray:
        c = adjoint(g1) @ a @ g1
        if not _unitary_within(c, eps):
            where = "".join(map(_path_step, kinds))
            raise DecompositionError(
                f"{where}: {what}: compression is not unitary (residual {unitarity_residual(c):.3e})"
            )
        return c

    unit_ops, slot_twists = {}, {}
    for n, kind in enumerate(kinds, 1):
        if kind == "u":
            unit_ops[n] = compress(t.ops[n - 1], f"unit op {n}")
        for m in slots:
            if kind != 1 and (kind == "u" or m < n):
                slot_twists[(m, n)] = compress(t.twist(m, n), f"twist ({m}, {n})")
    return replace(leaf, slot_twists=slot_twists, unit_ops=unit_ops)


def _classify(leaves: list[DecompositionLeaf]) -> PartitionReport:
    per_leaf = [dict(enumerate(leaf.multiindex, 1)) for leaf in leaves]
    agree = per_leaf and all(assignment == per_leaf[0] for assignment in per_leaf)
    return PartitionReport(
        per_leaf=per_leaf,
        global_assignment=dict(per_leaf[0]) if agree else None,
    )


def decompose_tuple(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> DecompositionTree:
    """Recursive decomposition of a twisted tuple into multiindexed leaves.

    Each level peels one operator's parts in canonical order, its blocks in
    ascending p and then its unitary part (the first column block of its
    intertwiner, with grading 1), so the leaves come out sorted.

    The caller is expected to have run `verify_twisted` first; structural
    failures (non-reducing subspaces, leaf data that is not unitary on the
    first cell) raise `DecompositionError` naming the leaf path and stage.
    On success, conjugating the block-diagonal leaf models by the global
    intertwiner reproduces every operator within eps. Each operator's
    defect is decided by `_norm_within`; the largest spectral norm goes into
    the error text on a failure, and into the tree's ``residual`` only when
    that is read.
    """
    leaves = _decompose_rec(
        remaining=list(range(1, t.n_ops + 1)),
        carried={n: t.ops[n - 1] for n in range(1, t.n_ops + 1)},
        dim=t.dim,
        tol=tol,
        path="",
    )

    total = sum(leaf.leaf_dim for leaf in leaves)
    if total != t.dim:
        raise DecompositionError(f"leaf dimensions sum to {total}, ambient is {t.dim}")
    g = np.hstack([leaf.intertwiner for leaf in leaves])
    g_defect = adjoint(g) @ g - identity(t.dim)
    if not _norm_within(g_defect, tol.eps):
        raise DecompositionError(f"global intertwiner is not unitary (residual {op_norm(g_defect):.3e})")
    leaves = [_read_leaf(t, leaf, tol.eps) for leaf in leaves]

    defects = [
        g @ _block_diag([leaf_model_operator(leaf, n, tol) for leaf in leaves]) @ adjoint(g) - t.ops[n - 1]
        for n in range(1, t.n_ops + 1)
    ]
    if not all(_norm_within(a, tol.eps) for a in defects):
        raise DecompositionError(
            f"reconstruction residual {_max_op_norm(defects):.3e} exceeds eps {tol.eps:.1e}"
        )

    return DecompositionTree(
        ambient_dim=t.dim,
        n_ops=t.n_ops,
        leaves=leaves,
        global_intertwiner=g,
        partition=_classify(leaves),
        _defects=defects,
    )


def classify_partition(tree: DecompositionTree) -> PartitionReport:
    """Assign each operator to "u" or its shift order, per leaf.

    The global assignment is reported only when every leaf agrees, which
    is automatic for irreducible tuples (single leaf) but can fail for
    direct sums. `decompose_tuple` already computed it.
    """
    return tree.partition


# ---------------------------------------------------------------------------
# simultaneous unitary equivalence


@dataclass
class EquivalenceResult:
    verdict: str  # "EQUIVALENT" | "NOT_EQUIVALENT" | "INCONCLUSIVE"
    certificate: str
    intertwiner: np.ndarray | None = None
    residual: float | None = None


def _spectral_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Bottleneck distance between the spectra of two near-unitaries, to within 4 delta.

    The bottleneck distance is the least, over all matchings of the two spectra, of the largest
    matched distance |x - y|. For unitaries it is at most ||A - B|| (Bhatia-Davis, 1984), so it
    is an invariant of unitary equivalence. It is read off the best cyclic shift of the two
    spectra sorted by angle, in O(n^2).

    On the circle a cyclic shift is optimal. Chord length grows with arc length, so take a
    matching whose arcs are at most r, with angles a_1 <= ... <= a_n in [0, 2 pi) on one side
    (tied angles ordered by partner) and lifts b_i of the partners, |b_i - a_i| <= r <= pi; there
    are finitely many such lifts. If a_i < a_j but b_i > b_j, swapping the partners puts both
    new displacements between the old two; if b_n - b_1 >= 2 pi, so does matching a_1 to
    b_n - 2 pi and a_n to b_1 + 2 pi. Either step lowers sum (b_i - a_i)^2, so the steps end,
    with b_1 <= ... <= b_n spanning less than 2 pi: a cyclic shift, all arcs still <= r.

    Leaf unit ops are unitary within eps, so each eigenvalue lies between the extreme singular
    values, within delta ~ eps of the circle. Radial projection moves a point by at most delta
    and keeps its angle, so the sorted orders stay valid for the projected points, and each
    matched distance moves by at most 2 delta. So the best shift here is at most the projected
    bottleneck plus 2 delta, which is at most the true bottleneck plus 4 delta, and at least the
    true bottleneck. The gate max(1e-6, 100 eps) leaves room for that.
    """
    ea, eb = (e[np.argsort(np.angle(e))] for e in (np.linalg.eigvals(a), np.linalg.eigvals(b)))
    if not ea.size:
        return 0.0
    shifts = (np.arange(ea.size)[:, None] + np.arange(ea.size)) % ea.size
    return float(np.abs(ea - eb[shifts]).max(axis=1).min())


def _match_leaf_unitary(
    leaf1: DecompositionLeaf, leaf2: DecompositionLeaf, tol: Tolerance
) -> np.ndarray | None:
    """A unitary on the multiplicity space conjugating leaf1 data to leaf2, verified per pair."""
    m = leaf1.mult_dim
    pairs = [(leaf1.unit_ops[n], leaf2.unit_ops[n]) for n in sorted(leaf1.unit_ops)]
    pairs += [
        (leaf1.slot_twists[key], leaf2.slot_twists[key]) for key in sorted(leaf1.slot_twists)
    ]
    if not pairs:
        return identity(m)
    # X A1 = A2 X for every pair. For unitaries this implies X A1* = A2* X, since
    # X A1* - A2* X = -A2* (X A1 - A2 X) A1*: the star-closed stack is [S; W S] with W
    # unitary, so its singular values are sqrt(2) times those of S, and the cut at
    # eps / sqrt(2) on S is the eps cut on that stack. Unitary pairs give S norm O(1),
    # so the cut is absolute. It is the null space of the square R factor, so no left
    # factor as tall as the stack is formed. The peak, all of it counted by the guard, is
    # the stack (written in place), the two copies np.linalg.qr makes (astype and its
    # column-major buffer) and R
    _check_size(len(pairs), m, 3 * len(pairs) + 1)
    _, s, vh = np.linalg.svd(np.linalg.qr(_sylvester_stack(pairs, _matrix_units(m)).T, mode="r"))
    basis = [x.conj().reshape(m, m) for x in vh[s <= tol.eps / sqrt(2)]]
    if not basis:
        return None
    for attempt in range(8):
        real, imag = _uniform(attempt, 2, len(basis))
        z = sum(c * x for c, x in zip(real + 1j * imag, basis))
        w, s, vh = np.linalg.svd(z)
        if s[0] == 0 or s[-1] < 1e-8 * s[0]:
            continue
        u = w @ vh  # the polar factor, as `_polar_unitary(z)` forms it
        if all(_norm_within(u @ a1 - a2 @ u, tol.eps * 100) for a1, a2 in pairs):
            return u
    return None


def equivalence_check(
    t1: TwistedTuple, t2: TwistedTuple, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceResult:
    """Decide simultaneous unitary equivalence of two tuples.

    NOT_EQUIVALENT comes only with an invariant certificate: mismatched
    leaf multiindex multisets, multiplicity dimensions, or unitary-part
    spectra whose bottleneck (matching) distance, the gap in the
    certificate, passes max(1e-6, 100 eps) (see `_spectral_mismatch`).
    EQUIVALENT comes with an explicit unitary, assembled from the
    two trees plus a per-leaf multiplicity match, verified operator by
    operator. When the invariants agree but no verified match is found the
    verdict is INCONCLUSIVE, never a guessed negative. A multiplicity match
    above COMMUTANT_MAX_BYTES raises `CommutantTooLargeError` before it is built.
    """
    if t1.n_ops != t2.n_ops:
        return EquivalenceResult("NOT_EQUIVALENT", "different number of operators")
    if t1.dim != t2.dim:
        return EquivalenceResult("NOT_EQUIVALENT", "different ambient dimension")
    tree1 = decompose_tuple(t1, tol)
    tree2 = decompose_tuple(t2, tol)

    # leaves arrive in canonical order, so the invariant lists line up
    inv1 = [(leaf.multiindex, leaf.mult_dim) for leaf in tree1.leaves]
    inv2 = [(leaf.multiindex, leaf.mult_dim) for leaf in tree2.leaves]
    if inv1 != inv2:
        return EquivalenceResult(
            "NOT_EQUIVALENT",
            f"leaf invariants differ: {inv1} vs {inv2}",
        )

    # equal invariant lists pair each leaf with the one of the same multiindex
    pairs = list(zip(tree1.leaves, tree2.leaves))
    spectral_gate = max(1e-6, 100 * tol.eps)
    for leaf1, leaf2 in pairs:
        for n in sorted(leaf1.unit_ops):
            gap = _spectral_mismatch(leaf1.unit_ops[n], leaf2.unit_ops[n])
            if gap > spectral_gate:
                return EquivalenceResult(
                    "NOT_EQUIVALENT",
                    f"unitary-part spectra differ at leaf {leaf1.multiindex}, operator {n} (gap {gap:.3e})",
                )

    blocks: list[np.ndarray] = []
    for leaf1, leaf2 in pairs:
        match = _match_leaf_unitary(leaf1, leaf2, tol)
        if match is None:
            return EquivalenceResult(
                "INCONCLUSIVE",
                f"invariants agree but no verified multiplicity match at leaf {leaf1.multiindex}",
            )
        k_total = prod(leaf1.shift_dims())
        blocks.append(
            leaf2.intertwiner @ kron(identity(k_total), match) @ adjoint(leaf1.intertwiner)
        )
    u_total = sum(blocks)
    if not _unitary_within(u_total, tol.eps):
        return EquivalenceResult(
            "INCONCLUSIVE", "assembled intertwiner failed the unitarity check"
        )
    worst = _max_op_norm(u_total @ t1.ops[n] @ adjoint(u_total) - t2.ops[n] for n in range(t1.n_ops))
    if worst <= tol.eps:
        return EquivalenceResult(
            "EQUIVALENT",
            "explicit intertwiner verified on every operator",
            intertwiner=u_total,
            residual=float(worst),
        )
    return EquivalenceResult(
        "INCONCLUSIVE",
        f"invariants agree but the assembled intertwiner has residual {worst:.3e}",
    )
