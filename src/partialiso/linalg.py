"""Dense complex matrix primitives shared by the whole package.

Every operator is a plain numpy array with dtype complex128. Rank and
residual decisions are governed by a single `Tolerance` object so the
numerical policy has one home: `eps` is an absolute bound on operator
norm residuals (the operators in scope are partial isometries, so entries
are O(1)) and `rank_eps` = eps / 10 the relative singular value cutoff of
`orthonormal_range` and `nullspace`; `halmos_wallen` cuts projection ranks at 1/2.
The rounding model that every certificate's bound rests on (`_rounding` and the
constants beside it) has its one home here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, inf, isfinite, ldexp, sqrt

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "Subspace",
    "Tolerance",
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

# The rounding model of Higham, "Accuracy and Stability of Numerical Algorithms", section 3.5,
# which every certificate of the package reads from here: the unit roundoff of double
# precision, the smallest subnormal, and a bound on the underflow of every Gram-count product
# of the star-closed commutant (each is at most (m + n + k)^2 n 2^-1074 < 2^-980 at any size
# its guard admits).
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074
_UNDERFLOW = 2.0**-900


def _rounding(n: int) -> tuple[float, float, float]:
    """(γ, μ, ρ) for products of inner dimension n and norms of n x n matrices.

    A computed complex product of inner dimension n (a BLAS product, summed in any order,
    fused multiply-adds or not) obeys ‖fl(AB) − AB‖ ≤ γ‖A‖‖B‖ + μ in the Frobenius norm,
    with γ = 4(n + 2)u and μ = 16n²2^-1074, ten times its underflow, so the spare also covers
    the underflow in evaluating a bound. With ρ = 2(n² + n + 8)u, a norm computed by
    `_frobenius` is at most 1 + ρ times the exact one, and ‖A‖ ≤ (1 + ρ)² √(σ + μ), where
    σ = Σ|a_ij|² is one BLAS dot: its rounding is within 1 + ρ, its underflow within μ, and
    the other 1 + ρ covers evaluating the bound. u = 2^-53 is `_UNIT_ROUNDOFF`.
    """
    return 4 * (n + 2) * _UNIT_ROUNDOFF, 16 * n * n * _SUBNORMAL, 2 * (n * n + n + 8) * _UNIT_ROUNDOFF


def _gamma(j: int) -> float:
    """gamma_j = j u / (1 - j u): the relative rounding of j chained products and sums."""
    return j * _UNIT_ROUNDOFF / (1.0 - j * _UNIT_ROUNDOFF)


def _sum_of_squares(a: np.ndarray) -> float:
    """An upper bound on the sum of the squared moduli of the entries of ``a``, from one BLAS dot."""
    reals = 2 * a.size if np.iscomplexobj(a) else a.size
    return float(np.vdot(a, a).real) * (1.0 + 2.0 * _gamma(reals + 1)) + _UNDERFLOW


class DimensionMismatchError(ValueError):
    """Shapes of two operands do not agree."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: absolute residual bound, 0 < eps < inf; the relative rank cutoff tracks it at 10:1.

    An infinite eps would pass every gate, whatever the residual.
    """

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    @property
    def rank_eps(self) -> float:
        return self.eps / 10.0


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

    Operands must be matrices (2-d), or ValueError is raised. This is the
    one broadcast multiply `np.kron` makes, so bit for bit the same, without
    the axis bookkeeping that costs `np.kron` about six times as much per
    call. Keep identity factors: (1+0j)(-0-1j) = 0-1j, so kron(identity(1), x)
    may differ from x in the sign of a zero (a report's -0.0 becomes 0.0).
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes matrices, got arrays of ndim {a.ndim} and {b.ndim}")
    (r1, c1), (r2, c2) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)


def op_norm(a: np.ndarray) -> float:
    """Operator (spectral) norm; zero for empty matrices, inf for one with an entry that is not finite.

    The package's one rule for a residual that is not finite: an inf or NaN
    entry (an overflowed product, inf - inf) reads inf, decided by one
    `np.isfinite` scan before any SVD, on which LAPACK would return NaN or
    fail. A finite matrix gives the first value of its values-only SVD. LAPACK
    returns the values in descending order, so that is the maximum
    `np.linalg.norm(a, 2)` takes over the same SVD, bit for bit, without its
    axis bookkeeping, which costs as much as the SVD of a small matrix. Any
    other finite input (a vector) keeps `np.linalg.norm(a, 2)`.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        return inf
    if a.ndim != 2:
        return float(np.linalg.norm(a, 2))
    return float(np.linalg.svd(a, compute_uv=False)[0])


# Below this a computed Frobenius norm may have lost squares to underflow.
_FROBENIUS_FLOOR = 1e-140


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``, from one BLAS dot, rescaled where its squares would under- or overflow.

    The sum of squared moduli is the real part of ``np.vdot(a, a)``, unscaled,
    so entries below about 1e-154 count as zero and entries above about 1e154
    give inf. Outside the range where that cannot matter, the norm is taken of
    the moduli of ``a`` divided by the largest one, again by one dot. A dot
    sums its N <= 2d² non-negative products in some order, each addition and
    product rounded once at most, so the sum is within a relative γ_N =
    Nu / (1 - Nu) of the exact one and its square root within (d² + 4)u of the
    exact norm for d x d input up to d = 4096 (u = 2^-53), and half a subnormal
    step where the norm is itself subnormal; it is inf or NaN only when ``a``
    has such an entry.
    """
    f = sqrt(np.vdot(a, a).real)
    if _FROBENIUS_FLOOR <= f < inf:
        return f
    moduli = np.abs(a)
    scale = float(moduli.max(initial=0.0))
    if scale == 0.0 or not isfinite(scale):
        return scale
    scaled = moduli / scale
    return scale * sqrt(np.vdot(scaled, scaled))


def _gram_power_bound(a: np.ndarray, f: float) -> float:
    """A bound h with ||a||_2 <= h from three products; ``f`` = `_frobenius(a)`, finite, > 0.

    With f = m 2^k (1/2 <= m < 1), A = 2^-k a is scaled exactly but for
    underflow, B = A*A (AA* for a wide ``a``) is squared twice, and
    ||a||_2 = 2^k ||B||_2^(1/2) = 2^k ||B^4||_2^(1/8) <= 2^k ||B^4||_F^(1/8).
    For singular values s_1 >= s_2 >= ... this is s_1 (sum_i (s_i / s_1)^16)^(1/16)
    up to rounding, at most 1.08 s_1 on the power-walk residuals of the
    example-4.3 and model tuples up to d = 96. Outside 2^-900 <= f < 2^900
    the bound is f.

    Rounding, in the model of `_rounding` (γ, μ and ρ of n, the larger
    side of ``a``; ‖·‖ the Frobenius norm): ‖fl(XY) − XY‖ ≤ γ‖X‖‖Y‖ + μ,
    and `_frobenius` is within 1 + ρ and half a subnormal step.

    1. Scaling. ‖a‖ ≤ (1 + ρ)f < 2^k (1 + ρ), so the exact A has
       ‖A‖ < 1 + ρ, and the computed Â differs from it by underflow
       alone: ‖Â − A‖ ≤ μ, ‖Â‖ ≤ α = 1 + ρ + μ. Nothing overflows.
    2. Products. With H = Â*Â exactly (Hermitian, ‖H‖ ≤ β = α²), the
       computed B̂ = H + E₁ has ‖E₁‖ ≤ e₁ = γβ + μ. Squaring,
       ‖fl(B̂²) − H²‖ ≤ e₂ = γ(β + e₁)² + μ + 2βe₁ + e₁², and once more
       ‖fl(fl(B̂²)²) − H⁴‖ ≤ e₃ = γ(β² + e₂)² + μ + 2β²e₂ + e₂².
    3. Bound. ||A||_2 ≤ ||Â||_2 + μ = ||H⁴||_2^(1/8) + μ and
       ||H⁴||_2 ≤ ‖H⁴‖ ≤ (1 + ρ)²√(σ + μ) + e₃, with σ the sum of the
       squared moduli of the computed fourth power in one BLAS dot, as
       the walk bounds its norms. The result is 2^k times that, times
       (1 + ρ)² for the some 20 roundings of evaluating it; the
       comparison with an SVD's value leaves `_BOUND_SLACK` for the SVD.
    """
    _, k = frexp(f)
    if not -900 <= k < 900:
        return f
    rows, cols = a.shape
    gamma, mu, rho = _rounding(max(rows, cols))
    scaled = a * ldexp(1.0, -k)
    gram = adjoint(scaled) @ scaled if rows >= cols else scaled @ adjoint(scaled)
    gram = gram @ gram
    fourth = gram @ gram
    beta = (1 + rho + mu) ** 2
    e1 = gamma * beta + mu
    e2 = gamma * (beta + e1) ** 2 + mu + 2 * beta * e1 + e1 * e1
    e3 = gamma * (beta * beta + e2) ** 2 + mu + 2 * beta * beta * e2 + e2 * e2
    root = ((1 + rho) ** 2 * sqrt(np.vdot(fourth, fourth).real + mu) + e3) ** 0.125 + mu
    return ldexp(root * (1 + rho) ** 2, k)


# At most this many terms wait for an SVD in `_ScreenedMax`: 16 matrices held at once.
_PENDING = 16


class _ScreenedMax:
    """The running ``max(op_norm(a) for a in terms)``, the same float, with an SVD only
    for a term whose bound can still beat the largest value taken so far.

    A term is dropped when its Frobenius norm, and then its `_gram_power_bound`, times
    1 + `_BOUND_SLACK` is at most that value: a computed spectral norm never exceeds
    either bound times that. The Gram bound is formed only once there is a value to
    decide against. Other terms wait, at most `_PENDING` of them, and `settle` takes
    them by descending bound (the Frobenius norm where no Gram bound is formed yet),
    screening each again against the value the SVDs before it have set.
    """

    def __init__(self) -> None:
        self.worst = 0.0
        # [Gram bound or None, Frobenius norm, matrix]
        self._pending: list[list] = []

    def _dominated(self, term: list) -> bool:
        """Whether ``term`` cannot beat ``worst``; its Gram bound is formed and kept if needed."""
        h, f, a = term
        if f * (1.0 + _BOUND_SLACK) <= self.worst:
            return True
        if self.worst == 0.0:
            return False
        if h is None:
            h = term[0] = _gram_power_bound(a, f)
        return h * (1.0 + _BOUND_SLACK) <= self.worst

    def add(self, a: np.ndarray) -> bool:
        """Screen ``a`` in; False, recording nothing, if its Frobenius norm is not finite."""
        a = np.asarray(a)
        if a.size == 0:
            return True
        f = _frobenius(a)
        if not isfinite(f):
            return False
        term = [None, f, a]
        if not self._dominated(term):
            self._pending.append(term)
            if len(self._pending) == _PENDING:
                self.settle()
        return True

    def ceiling(self) -> float:
        """A bound on what `settle` can return."""
        return max([self.worst, *(_term_bound(term) * (1.0 + _BOUND_SLACK) for term in self._pending)])

    def settle(self) -> float:
        """Take the SVDs still needed, largest bound first, and return the maximum."""
        pending, self._pending = self._pending, []
        pending.sort(key=_term_bound, reverse=True)
        for term in pending:
            if not self._dominated(term):
                self.worst = max(self.worst, op_norm(term[2]))
        return self.worst


def _term_bound(term: list) -> float:
    """The bound a waiting term of `_ScreenedMax` is ranked by: its Gram bound once formed, else its Frobenius norm."""
    h, f, _ = term
    return f if h is None else h


def _max_op_norm(matrices) -> float:
    """``max(op_norm(a) for a in matrices)``, the same float, by `_ScreenedMax`; 0.0 for none.

    A term whose Frobenius norm is not finite leaves it and the rest to the
    unscreened maximum: inf for an entry that is not finite, by the rule of
    `op_norm`, and the spectral norm, which may still be finite, for a finite
    term past the largest float.
    """
    terms = iter(matrices)
    screened = _ScreenedMax()
    for a in terms:
        if not screened.add(a):
            return max([screened.settle(), *map(op_norm, (a, *terms))])
    return screened.settle()


def _norm_within(a: np.ndarray, eps: float) -> bool:
    """``op_norm(a) <= eps``, deciding from exact bounds before any SVD.

    The largest column norm <= ||a||_2 <= the Frobenius norm: a small
    Frobenius norm accepts, a large column rejects, and only a matrix
    between the two pays for the SVD. A matrix with an entry that is not
    finite is rejected before any SVD.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0 <= eps
    if _frobenius(a) * (1.0 + _BOUND_SLACK) <= eps:
        return True
    # the largest column norm, the sqrt of its squares as np.linalg.norm(a, axis=0) forms
    # them; "not <=" so that a NaN column rejects as an infinite one does
    if not sqrt((a.conj() * a).real.sum(axis=0).max()) * (1.0 - _BOUND_SLACK) <= eps:
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
    """The rank rule of `orthonormal_range` and `nullspace`: singular values above rank_eps * scale.

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
