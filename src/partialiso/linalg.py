"""Dense complex matrix primitives shared by the whole package.

Every operator is a plain numpy array with dtype complex128. Rank and
residual decisions are governed by a single `Tolerance` object so the
numerical policy has one home: `rank_eps` is a relative singular value
cutoff, `eps` an absolute bound on operator norm residuals (the
operators in scope are partial isometries, so entries are O(1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "Subspace",
    "Tolerance",
    "adjoint",
    "as_matrix",
    "identity",
    "kron",
    "nullspace",
    "op_norm",
    "op_norm_diff",
    "orthonormal_range",
    "projection_onto",
    "zero_subspace",
]

# Orthonormality guard used when a Subspace is constructed.
_ORTHO_TOL = 1e-10

# Relative threshold below which a component does not qualify as the
# leading entry when fixing the phase of a basis vector.
_PHASE_TOL = 1e-8

# Relative slack on the Frobenius and column-norm bounds in `_norm_within`.
# It dwarfs their rounding error and the SVD's, so a bound only decides a
# gate the computed spectral norm would decide the same way.
_BOUND_SLACK = 1e-8


class DimensionMismatchError(ValueError):
    """Shapes of two operands do not agree."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: absolute residual bound and relative rank cutoff."""

    eps: float = 1e-9
    rank_eps: float = 1e-10

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.rank_eps > 0.0:
            raise ValueError("rank_eps must be positive")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(a) -> np.ndarray:
    """`as_matrix`, then reject a non-square result."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the slow index.

    (A otimes B)[(i1, i2), (j1, j2)] = A[i1, j1] * B[i2, j2], where the
    row index is i1 * rows(B) + i2. This convention is fixed package-wide
    so tensor-model comparisons are bit-reproducible.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def op_norm(a: np.ndarray) -> float:
    """Operator (spectral) norm; zero for empty matrices."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _norm_within(a: np.ndarray, eps: float) -> bool:
    """``op_norm(a) <= eps``, deciding from exact bounds before any SVD.

    The largest column norm <= ||a||_2 <= the Frobenius norm: a small
    Frobenius norm accepts, a large column rejects, and only a matrix
    between the two pays for the SVD.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0 <= eps
    if np.linalg.norm(a) * (1.0 + _BOUND_SLACK) <= eps:
        return True
    if np.linalg.norm(a, axis=0).max() * (1.0 - _BOUND_SLACK) > eps:
        return False
    return op_norm(a) <= eps


def op_norm_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return op_norm(a - b)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^d held as an orthonormal column basis.

    ``basis`` has shape (ambient_dim, k); k = 0 encodes the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis shape {b.shape} does not match ambient dimension {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        if b.shape[1] > 0:
            if not _norm_within(adjoint(b) @ b - identity(b.shape[1]), _ORTHO_TOL):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))


def _phase_fixed(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is positive real."""
    b = basis.copy()
    for k in range(b.shape[1]):
        col = b[:, k]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > _PHASE_TOL * top))
        pivot = col[lead]
        if pivot != 0:
            b[:, k] = col * (pivot.conjugate() / abs(pivot))
    return b


def _svd_rank(singular_values: np.ndarray, tol: Tolerance) -> int:
    """The one rank-decision routine: singular values above rank_eps * scale.

    The scale is the largest singular value, floored at 1: every operator
    in scope (partial isometries, projections and their products) has norm
    O(1), so a matrix whose largest singular value is itself below the
    unit-scale cutoff is rounding noise and gets rank zero rather than
    full rank.
    """
    if singular_values.size == 0:
        return 0
    scale = max(float(singular_values[0]), 1.0)
    return int(np.sum(singular_values > tol.rank_eps * scale))


def orthonormal_range(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space of ``a``.

    Basis vectors are the left singular vectors for the significant
    singular values, in descending singular-value order, each with its
    first significant component rotated to positive real. The zero
    matrix yields the zero subspace.
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        return zero_subspace(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _svd_rank(s, tol)
    return Subspace(a.shape[0], _phase_fixed(u[:, :rank]))


def nullspace(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {x : a x = 0} at the relative rank cutoff.

    Only a wide input needs the full right factor; for a tall one the
    thin factorization has every right singular vector and skips the
    rows x rows left factor.
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        return zero_subspace(0)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = _svd_rank(s, tol)
    basis = adjoint(vh[rank:, :])
    return Subspace(a.shape[1], _phase_fixed(basis))


def projection_onto(s: Subspace) -> np.ndarray:
    """The orthogonal projection basis @ basis* onto the subspace."""
    if s.dim == 0:
        return np.zeros((s.ambient_dim, s.ambient_dim), dtype=complex)
    return s.basis @ adjoint(s.basis)
