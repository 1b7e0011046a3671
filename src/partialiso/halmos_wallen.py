"""Orthogonal decomposition of a single power partial isometry.

A power partial isometry on C^d splits into a unitary part and truncated
shift blocks J_p x I_m. The infinite shift and backward-shift parts that
occur on infinite-dimensional spaces are forced to zero here (an isometry
on a finite-dimensional space is unitary), and `hw_decompose` checks that
rather than assuming it. The decomposition is certified by an explicit
intertwining unitary: if the reconstruction residual exceeds tolerance,
the input was not a power partial isometry and a `DecompositionError`
surfaces instead of a silently truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

import numpy as np

from .linalg import (
    _BOUND_SLACK,
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _frobenius,
    _norm_within,
    _phase_fixed,
    _require_square,
    adjoint,
    identity,
    kron,
    op_norm,
    zero_subspace,
)
from .operators import _block_diag, _power_walk, truncated_shift

__all__ = [
    "DecompositionError",
    "HWDecomposition",
    "TruncatedBlock",
    "assert_no_shift_parts",
    "hw_decompose",
    "multiplicity_space",
    "stable_range_projection",
    "truncated_block_projection",
]


class DecompositionError(RuntimeError):
    """A decomposition step failed its certificate at tolerance."""


class RangeSourceLadder:
    """The projections R_n = V^n V*^n and S_n = V*^n V^n of one operator V.

    ``ranges`` and ``sources`` hold n = 0..N (index 0 is I) and `extend`
    grows them one power at a time, so the functions that take a ladder
    share each product instead of walking the powers again. The powers
    come from `_power_walk`, so R_n has the bits of every other walk of V;
    ``power`` is V^N, None while N = 0. ``range_complement``, the I - R_1 of
    every multiplicity space, is formed once, on first read.
    """

    def __init__(self, v: np.ndarray) -> None:
        d = v.shape[0]
        self._walk = _power_walk(v)
        self.ranges = [identity(d)]
        self.sources = [identity(d)]
        self.power = None

    def extend(self, n_max: int) -> RangeSourceLadder:
        """Make sure ``ranges`` and ``sources`` reach index n_max."""
        while len(self.ranges) <= n_max:
            self.power, range_n = next(self._walk)
            self.ranges.append(range_n)
            self.sources.append(adjoint(self.power) @ self.power)
        return self

    @cached_property
    def range_complement(self) -> np.ndarray:
        """I - R_1, the projection onto ker V*, formed on first read and kept for every order."""
        return self.ranges[0] - self.extend(1).ranges[1]


def _stable_limit(ranges, tol: Tolerance) -> tuple[np.ndarray, int]:
    """(R_n0, n0) for the first n0 <= d + 1 with ||R_{n0+1} - R_n0|| <= eps, R_n from ``ranges``."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_prev = next(ranges)
        d = e_prev.shape[0]
        for n, e_next in zip(range(1, d + 2), ranges):
            if _norm_within(e_next - e_prev, tol.eps):
                return e_prev, n
            e_prev = e_next
    raise DecompositionError(
        f"range projections did not stabilize by power {d + 1}; "
        "the input is not a power partial isometry at this tolerance"
    )


def stable_range_projection(
    v: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, int]:
    """Stabilized limit of the decreasing projections V^n V*^n.

    Returns (P, n0) where P = V^{n0} V*^{n0} and the next step moves by at
    most eps. For a power partial isometry the ranks can drop at most d
    times, so stabilization by n0 <= d + 1 is guaranteed; failure to
    stabilize signals a non power-partial-isometry input. Passing the
    adjoint gives Q; `hw_decompose` reads both off one `RangeSourceLadder`.
    """
    v = _require_square(v)
    return _stable_limit((r for _, r in _power_walk(v)), tol)


def _stable_projections(
    v: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, RangeSourceLadder]:
    """(P, Q, the ladder of V) for a square V, both read off the one ladder.

    P is the stable limit of the ranges R_n = V^n V*^n. Q, the stable limit
    of the range projections of V*^n, is that of the sources S_n = V*^n V^n,
    which are those projections: V*^n (V*^n)* = V*^n V^n. The sources up to
    the largest block order are formed for the multiplicity spaces anyway,
    so V* is never walked. Each limit stops by the rule of `_stable_limit`.
    """
    ladder = RangeSourceLadder(v)
    p_mat, _ = _stable_limit((ladder.extend(n).ranges[n] for n in count(1)), tol)
    q_mat, _ = _stable_limit((ladder.extend(n).sources[n] for n in count(1)), tol)
    return p_mat, q_mat, ladder


def truncated_block_projection(
    v: np.ndarray, p: int, ladder: RangeSourceLadder | None = None
) -> np.ndarray:
    """Projection onto the span of the order-p truncated shift blocks.

    Built as sum_{n=1}^{p} (R_{n-1} - R_n)(S_{p-n} - S_{p-n+1}) with
    R_n = V^n V*^n and S_n = V*^n V^n. For a power partial isometry this
    is an orthogonal projection, mutually orthogonal across different p.
    Pass the ``ladder`` of V to reuse its projections across calls.
    """
    v = _require_square(v)
    if p < 1:
        raise ValueError("p must be >= 1")
    d = v.shape[0]
    out = np.zeros((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        ladder = (ladder or RangeSourceLadder(v)).extend(p)
        ranges, sources = ladder.ranges, ladder.sources
        for n in range(1, p + 1):
            out += (ranges[n - 1] - ranges[n]) @ (sources[p - n] - sources[p - n + 1])
    return out


def _projection_range(a: np.ndarray) -> Subspace:
    """Range of ``a``, a projection or a product of commuting ones for valid input, so its
    singular values near 0 or 1 are cut at 1/2; a Frobenius norm <= 1/2 is empty with no SVD."""
    a = _require_square(a)
    if _frobenius(a) * (1.0 + _BOUND_SLACK) <= 0.5:
        return zero_subspace(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(a.shape[0], _phase_fixed(u[:, s > 0.5]))


def multiplicity_space(v: np.ndarray, p: int, ladder: RangeSourceLadder | None = None) -> Subspace:
    """The space counting order-p blocks: (1 - V V*)(V*^{p-1} V^{p-1} - V*^p V^p) H.

    Its dimension m satisfies p * m = dim of the order-p part; for p = 1 the
    formula reduces to ker(V) intersect ker(V*). Its rank is cut at 1/2, not
    at the tolerance. Pass the ``ladder`` of V to reuse its projections.
    """
    v = _require_square(v)
    if p < 1:
        raise ValueError("p must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        ladder = (ladder or RangeSourceLadder(v)).extend(p)
        sources = ladder.sources
        return _projection_range(ladder.range_complement @ (sources[p - 1] - sources[p]))


def _check_no_shift_parts(p_mat: np.ndarray, q_mat: np.ndarray) -> None:
    """Raise unless the ranges of (1 - P) Q and (1 - Q) P are empty."""
    eye = identity(p_mat.shape[0])
    shift_dim = _projection_range((eye - p_mat) @ q_mat).dim
    backshift_dim = _projection_range((eye - q_mat) @ p_mat).dim
    if shift_dim or backshift_dim:
        raise DecompositionError(
            f"nonzero shift part (dims {shift_dim}, {backshift_dim}) in finite dimension"
        )


def assert_no_shift_parts(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Confirm the shift and backward-shift parts vanish.

    Returns True when the ranges of (1 - P) Q and (1 - Q) P are empty (rank
    cut at 1/2). A nonzero value is impossible in finite dimensions, so it
    is raised as a `DecompositionError` (a rank misdecision or an invalid
    input), never truncated away.
    """
    v = _require_square(v)
    p_mat, q_mat, _ = _stable_projections(v, tol)
    _check_no_shift_parts(p_mat, q_mat)
    return True


@dataclass(frozen=True)
class TruncatedBlock:
    """One J_p x I_mult block: order p, multiplicity, multiplicity basis."""

    p: int
    mult: int
    mult_basis: Subspace


@dataclass
class HWDecomposition:
    """Unitary part, truncated blocks and the certifying intertwiner.

    The model operator is T oplus (oplus_p J_p x I_mult) on
    C^{unitary_dim} oplus (oplus_p C^p x C^mult), blocks in ascending p;
    ``intertwiner`` maps the model space onto C^d and satisfies
    ||W model W* - V|| <= residual. `_hw_decompose` keeps that defect and
    ``residual``, its spectral norm, is formed on first read (0.0 for a
    decomposition built without one); `hw_decompose` reads it before it
    returns. Its columns follow the same order [u | blocks]: the unitary part is the first column block, a part with
    grading 1 (T is 0 x 0 when it is empty), and a block's columns are
    V^j m_k (j slow), so each summand reduces V on its column range.
    Shift parts are not stored: `hw_decompose` certifies they vanish.
    """

    ambient_dim: int
    unitary_basis: Subspace
    unitary_op: np.ndarray
    truncated_blocks: list[TruncatedBlock] = field(default_factory=list)
    intertwiner: np.ndarray | None = None
    _defect: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        """||W model W* - V||, the certificate `hw_decompose` decided within eps."""
        return 0.0 if self._defect is None else float(op_norm(self._defect))

    @property
    def unitary_dim(self) -> int:
        return self.unitary_basis.dim

    def block_multiset(self) -> list[tuple[int, int]]:
        return [(b.p, b.mult) for b in self.truncated_blocks]

    def model_operator(self) -> np.ndarray:
        shifts = [kron(truncated_shift(b.p), identity(b.mult)) for b in self.truncated_blocks]
        return _block_diag([self.unitary_op, *shifts])


def hw_decompose(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> HWDecomposition:
    """Full orthogonal decomposition of a power partial isometry.

    Steps: stabilize the range and source projections P and Q, take the
    unitary part on range(PQ), read off multiplicity spaces for each block
    order p, and assemble the intertwiner column-block-wise, sending
    e_{j+1} x m_k to V^j m_k over each multiplicity basis. The map is
    guaranteed isometric for valid inputs, which is asserted (no silent
    re-orthonormalization); the final reconstruction residual certifies
    the whole computation and is formed before the decomposition is
    returned. The steps are those of `_hw_decompose`, which
    `decompose_tuple` calls at each node and whose ``residual`` it never
    reads.
    """
    decomposition = _hw_decompose(v, tol)
    decomposition.residual  # formed now and cached on the instance
    return decomposition


def _hw_decompose(v: np.ndarray, tol: Tolerance) -> HWDecomposition:
    """`hw_decompose` with its reconstruction kept as a gated defect.

    P and Q come off one ladder of V (see `_stable_projections`). Each gate
    is decided by `_norm_within`, which is ``op_norm(defect) <= eps`` from
    exact bounds, so no spectral norm is taken where they decide; the value
    goes into the error text only on a failure, and ``residual`` is formed
    only when it is read.
    """
    v = _require_square(v)
    d = v.shape[0]
    eps = tol.eps

    p_mat, q_mat, ladder = _stable_projections(v, tol)
    pq = p_mat @ q_mat
    if not _norm_within(pq - q_mat @ p_mat, eps):
        raise DecompositionError(
            "stable range and source projections do not commute; "
            "the input is not a power partial isometry at this tolerance"
        )

    _check_no_shift_parts(p_mat, q_mat)

    unitary_basis = _projection_range(pq)
    b_u = unitary_basis.basis
    t_op = adjoint(b_u) @ v @ b_u

    blocks: list[TruncatedBlock] = []
    columns = [b_u]
    accounted = unitary_basis.dim
    for p in range(1, d + 1):
        if accounted == d:
            break
        space = multiplicity_space(v, p, ladder)
        if space.dim:
            blocks.append(TruncatedBlock(p=p, mult=space.dim, mult_basis=space))
            columns.append(space.basis)
            for _ in range(p - 1):
                columns.append(v @ columns[-1])
            accounted += p * space.dim
    if accounted != d:
        raise DecompositionError(
            f"block dimensions sum to {accounted}, ambient dimension is {d}; "
            "decomposition is incomplete"
        )

    w = np.hstack(columns)
    gram_defect = adjoint(w) @ w - identity(d)
    if not _norm_within(gram_defect, eps):
        raise DecompositionError(
            f"intertwiner columns are not orthonormal (residual {op_norm(gram_defect):.3e}); "
            "the block map failed to be isometric"
        )

    decomposition = HWDecomposition(
        ambient_dim=d,
        unitary_basis=unitary_basis,
        unitary_op=t_op,
        truncated_blocks=blocks,
        intertwiner=w,
    )
    defect = w @ decomposition.model_operator() @ adjoint(w) - v
    if not _norm_within(defect, eps):
        raise DecompositionError(
            f"reconstruction residual {op_norm(defect):.3e} exceeds eps {eps:.1e}; "
            "the input is certified not to be a power partial isometry"
        )
    decomposition._defect = defect
    return decomposition
