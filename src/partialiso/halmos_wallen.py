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
from itertools import count

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _norm_within,
    _require_square,
    adjoint,
    identity,
    kron,
    op_norm,
    orthonormal_range,
)
from .operators import _block_diag, _power_walk, truncated_shift

__all__ = [
    "DecompositionError",
    "HWDecomposition",
    "RangeSourceLadder",
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
    come from `_power_walk`, so R_n has the bits of every other walk of V.
    """

    def __init__(self, v: np.ndarray) -> None:
        d = v.shape[0]
        self._walk = _power_walk(v)
        self.ranges = [identity(d)]
        self.sources = [identity(d)]

    def extend(self, n_max: int) -> RangeSourceLadder:
        """Make sure ``ranges`` and ``sources`` reach index n_max."""
        while len(self.ranges) <= n_max:
            power, range_n = next(self._walk)
            self.ranges.append(range_n)
            self.sources.append(adjoint(power) @ power)
        return self


def _stable_limit(ranges, tol: Tolerance) -> tuple[np.ndarray, int]:
    """(R_n0, n0) for the first n0 <= d + 1 with ||R_{n0+1} - R_n0|| <= eps, R_n from ``ranges``."""
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
    stabilize signals a non power-partial-isometry input. Q is obtained by
    passing the adjoint; `hw_decompose` reads P off its `RangeSourceLadder`.
    """
    v = _require_square(v)
    return _stable_limit((r for _, r in _power_walk(v)), tol)


def _stable_projections(
    v: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, RangeSourceLadder]:
    """(P, Q, the ladder of V) for a square V; P is read off the ladder.

    Q walks V* on its own: its powers are not bit for bit the adjoints of V's.
    """
    ladder = RangeSourceLadder(v)
    p_mat, _ = _stable_limit((ladder.extend(n).ranges[n] for n in count(1)), tol)
    q_mat, _ = stable_range_projection(adjoint(v), tol)
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
    ladder = (ladder or RangeSourceLadder(v)).extend(p)
    ranges, sources = ladder.ranges, ladder.sources
    d = v.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for n in range(1, p + 1):
        out += (ranges[n - 1] - ranges[n]) @ (sources[p - n] - sources[p - n + 1])
    return out


def multiplicity_space(
    v: np.ndarray,
    p: int,
    tol: Tolerance = DEFAULT_TOL,
    ladder: RangeSourceLadder | None = None,
) -> Subspace:
    """The space counting order-p blocks: (1 - V V*)(V*^{p-1} V^{p-1} - V*^p V^p) H.

    Its dimension m satisfies p * m = dim of the order-p part; for p = 1
    the formula reduces to ker(V) intersect ker(V*). Pass the ``ladder``
    of V to reuse its projections across calls.
    """
    v = _require_square(v)
    if p < 1:
        raise ValueError("p must be >= 1")
    ladder = (ladder or RangeSourceLadder(v)).extend(p)
    ranges, sources = ladder.ranges, ladder.sources
    mat = (identity(v.shape[0]) - ranges[1]) @ (sources[p - 1] - sources[p])
    return orthonormal_range(mat, tol)


def _check_no_shift_parts(p_mat: np.ndarray, q_mat: np.ndarray, tol: Tolerance) -> None:
    """Raise unless the ranges of (1 - P) Q and (1 - Q) P are zero at the rank tolerance."""
    eye = identity(p_mat.shape[0])
    shift_dim = orthonormal_range((eye - p_mat) @ q_mat, tol).dim
    backshift_dim = orthonormal_range((eye - q_mat) @ p_mat, tol).dim
    if shift_dim or backshift_dim:
        raise DecompositionError(
            f"nonzero shift part (dims {shift_dim}, {backshift_dim}) in finite dimension"
        )


def assert_no_shift_parts(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Confirm the shift and backward-shift parts vanish.

    Returns True when the ranges of (1 - P) Q and (1 - Q) P are zero at the
    rank tolerance. A nonzero value is impossible in finite dimensions, so
    it is raised as a `DecompositionError` (a rank misdecision or an invalid
    input), never truncated away.
    """
    v = _require_square(v)
    p_mat, q_mat, _ = _stable_projections(v, tol)
    _check_no_shift_parts(p_mat, q_mat, tol)
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
    ||W model W* - V|| <= residual. Its columns follow the same order, a
    block's being V^j m_k (j slow), so each summand reduces V on its column
    range. Shift parts are not stored: `hw_decompose` certifies they vanish.
    """

    ambient_dim: int
    unitary_basis: Subspace
    unitary_op: np.ndarray
    truncated_blocks: list[TruncatedBlock] = field(default_factory=list)
    intertwiner: np.ndarray | None = None
    residual: float = 0.0

    @property
    def unitary_dim(self) -> int:
        return self.unitary_basis.dim

    def block_multiset(self) -> list[tuple[int, int]]:
        return [(b.p, b.mult) for b in self.truncated_blocks]

    def model_operator(self) -> np.ndarray:
        blocks = [self.unitary_op] if self.unitary_dim else []
        for b in self.truncated_blocks:
            blocks.append(kron(truncated_shift(b.p), identity(b.mult)))
        if not blocks:
            return np.zeros((0, 0), dtype=complex)
        return _block_diag(blocks)


def hw_decompose(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> HWDecomposition:
    """Full orthogonal decomposition of a power partial isometry.

    Steps: stabilize the range and source projections P and Q, take the
    unitary part on range(PQ), read off multiplicity spaces for each block
    order p, and assemble the intertwiner column-block-wise, sending
    e_{j+1} x m_k to V^j m_k over each multiplicity basis. The map is
    guaranteed isometric for valid inputs, which is asserted (no silent
    re-orthonormalization); the final reconstruction residual certifies
    the whole computation.
    """
    v = _require_square(v)
    d = v.shape[0]
    eps = tol.eps

    p_mat, q_mat, ladder = _stable_projections(v, tol)
    if not _norm_within(p_mat @ q_mat - q_mat @ p_mat, eps):
        raise DecompositionError(
            "stable range and source projections do not commute; "
            "the input is not a power partial isometry at this tolerance"
        )

    _check_no_shift_parts(p_mat, q_mat, tol)

    unitary_basis = orthonormal_range(p_mat @ q_mat, tol)
    b_u = unitary_basis.basis
    t_op = adjoint(b_u) @ v @ b_u

    blocks: list[TruncatedBlock] = []
    accounted = unitary_basis.dim
    for p in range(1, d + 1):
        if accounted == d:
            break
        space = multiplicity_space(v, p, tol, ladder)
        if space.dim:
            blocks.append(TruncatedBlock(p=p, mult=space.dim, mult_basis=space))
            accounted += p * space.dim
    if accounted != d:
        raise DecompositionError(
            f"block dimensions sum to {accounted}, ambient dimension is {d}; "
            "decomposition is incomplete"
        )

    columns = [b_u] if unitary_basis.dim else []
    for b in blocks:
        columns.append(b.mult_basis.basis)
        for _ in range(b.p - 1):
            columns.append(v @ columns[-1])
    w = np.hstack(columns) if columns else np.zeros((d, 0), dtype=complex)
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
    residual = op_norm(w @ decomposition.model_operator() @ adjoint(w) - v)
    if residual > eps:
        raise DecompositionError(
            f"reconstruction residual {residual:.3e} exceeds eps {eps:.1e}; "
            "the input is certified not to be a power partial isometry"
        )
    decomposition.residual = float(residual)
    return decomposition
