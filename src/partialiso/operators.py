"""Concrete operator constructors and tuple-level helpers.

The central object is `TwistedTuple`: N square matrices V_1..V_N together
with a commuting family of unitary twists U_ij (stored for i < j, with
U_ji read as the adjoint). The builders here produce tuples whose twisted
commutation relations

    V_i* V_j = U_ij V_j V_i*,   V_i V_j = U_ji V_j V_i,   V_k U_ij = U_ij V_k

hold exactly up to rounding; `partialiso.twisted.verify_twisted` measures
the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, permutations
from math import inf, prod, sqrt

import numpy as np

from .linalg import (
    _BOUND_SLACK,
    _UNIT_ROUNDOFF,
    DEFAULT_TOL,
    Tolerance,
    _norm_within,
    _require_square,
    _rounding,
    _ScreenedMax,
    adjoint,
    as_matrix,
    identity,
    kron,
    op_norm,
)

__all__ = [
    "ModelSpec",
    "TwistedTuple",
    "build_model_tuple",
    "build_twisted_shift_pair",
    "clock_shift_unitaries",
    "conjugate_tuple",
    "diag_twist",
    "direct_sum_tuples",
    "haar_unitary",
    "is_partial_isometry",
    "is_power_partial_isometry",
    "permute_tuple",
    "power_isometry_residual",
    "random_commuting_unitaries",
    "random_model_spec",
    "truncated_shift",
]


def truncated_shift(p: int) -> np.ndarray:
    """The p x p truncated shift: e_n -> e_{n+1} for n < p, e_p -> 0.

    For p = 1 this is the 1 x 1 zero matrix.
    """
    p = _positive_int(p, "p")
    j = np.zeros((p, p), dtype=complex)
    for n in range(p - 1):
        j[n + 1, n] = 1.0
    return j


def unitarity_residual(u: np.ndarray) -> float:
    """||U*U - I||, which for square U is also ||UU* - I||.

    With U = W S V*, U*U - I = V (S^2 - I) V* and UU* - I = W (S^2 - I) W*: both have
    the singular values |s_i^2 - 1|, so one side decides.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return op_norm(adjoint(u) @ u - identity(u.shape[0]))


def _unitary_within(u: np.ndarray, eps: float) -> bool:
    """``unitarity_residual(u) <= eps``, decided by `_norm_within`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm_within(adjoint(u) @ u - identity(u.shape[0]), eps)


def diag_twist(
    p_list: list[int],
    j: int,
    u: np.ndarray,
    aux_dim: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Diagonal twist with symbol ``u`` at slot ``j`` (1-based).

    Acts on (C^{p_1} x ... x C^{p_m}) x E by e_k x eta -> e_k x u^{k_j - 1} eta,
    where k_j in {1, ..., p_j} indexes slot j and E = C^{aux_dim}. The result
    is unitary whenever ``u`` is.
    """
    u = _require_square(u)
    if aux_dim is not None and u.shape[0] != aux_dim:
        raise ValueError(f"symbol is {u.shape[0]}-dimensional, expected {aux_dim}")
    if not 1 <= j <= len(p_list):
        raise ValueError(f"slot index {j} out of range for {len(p_list)} slots")
    if not _unitary_within(u, tol.eps):
        raise ValueError("twist symbol is not unitary at tolerance")
    aux = u.shape[0]
    pre = prod(p_list[: j - 1])
    post = prod(p_list[j:])
    p_j = p_list[j - 1]
    blocks = []
    power = identity(aux)
    for _ in range(p_j):
        blocks.append(kron(identity(post), power))
        power = power @ u
    inner = _block_diag(blocks)
    return kron(identity(pre), inner)


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b in blocks:
        n = b.shape[0]
        out[at : at + n, at : at + n] = b
        at += n
    return out


def is_partial_isometry(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Test ||V V* V - V|| <= eps; the residual is always returned, inf if it overflows."""
    v = _require_square(v)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = op_norm(v @ adjoint(v) @ v - v)
    return residual <= tol.eps, residual


def _power_walk(v: np.ndarray):
    """Pairs (V^n, V^n V^n*) for n = 1, 2, ...: the one loop that forms V^n."""
    vp = v.copy()
    while True:
        yield vp, vp @ adjoint(vp)
        vp = vp @ v


class _Growth:
    """Every bound on the later powers of one operator: steps 1, 2 and 5 of the proof in
    `power_isometry_residual` (`later`), its step 3 (`residual_tail`), and the ladder steps
    of `halmos_wallen._block_projections` (`step_tail`).

    Built from V and its computed power-1 residual VV*V - V (the products of `_power_walk`),
    it holds γ, μ and ρ of `linalg._rounding` for d x d input, and the growth per power c,
    which stays None unless the guard of step 5 holds.
    """

    def __init__(self, v: np.ndarray, residual: np.ndarray) -> None:
        d = v.shape[0]
        self.d = d
        self.gamma, self.mu, self.rho = _rounding(d)
        self.c = None
        size = self.norm_bound(np.vdot(v, v).real)
        t = self.norm_bound(np.vdot(residual, residual).real)
        if t <= 2 * _BOUND_SLACK:
            nu = 1 + (t * (1 + 2 * _UNIT_ROUNDOFF) + 3 * self.gamma * size**3 + 2 * self.mu * (1 + size)) / 2
            self.c = nu + self.gamma * size

    def norm_bound(self, squares: float) -> float:
        """A bound on a Frobenius norm from ``squares``, the sum of squared moduli in one BLAS dot."""
        return (1 + self.rho) ** 2 * sqrt(squares + self.mu)

    def later(self, n: int, vp: np.ndarray) -> float:
        """a: a bound on the computed Frobenius norm of every power V^m, n <= m <= d + 1, from V^n.

        It is 0.0 when V^n is exactly zero, as every later power then is (the zero rule), and
        inf otherwise while the guard fails. Norms are bounded from the squares of one BLAS dot,
        the sum `_frobenius` starts from, with μ for its underflow in place of a rescale.
        """
        squares = np.vdot(vp, vp).real
        if squares == 0.0 and not vp.any():
            return 0.0
        if self.c is None:
            return inf
        k = self.d + 1 - n
        return (self.norm_bound(squares) + k * self.mu) * self.c**k

    def residual_tail(self, a: float) -> float:
        """Step 3: a bound on the computed Frobenius norm of every later residual
        V^m V^m* V^m - V^m, from ``a`` = `later` at the power the walk stands on."""
        return (1 + self.rho) ** 2 * (1 + self.gamma) ** 2 * (a * (1 + a * a) + self.mu * (1 + a))

    def step_tail(self, a: float) -> float:
        """b, a bound on `_frobenius` of each computed R_m - R_{m+1} and S_m - S_{m+1} of a
        ladder whose powers V^m, m >= N, are bounded by ``a`` (see `halmos_wallen._block_projections`)."""
        return (1 + self.rho) ** 2 * (2 * ((1 + self.gamma) * a * a + self.mu) + self.mu)


def _residual_walk(v: np.ndarray):
    """(V^n V^n* V^n - V^n, tail) for n = 1..d+1, in the products of `_power_walk`.

    ``tail`` bounds the computed Frobenius norm of every later residual; the
    proof is in `power_isometry_residual`. It is inf except at n = 1, 2,
    4, 8, ..., where the walk also ends if V^n is exactly zero, since every
    later power and residual is then exactly zero too.
    """
    d = v.shape[0]
    growth = None
    for n, (vp, r) in enumerate(islice(_power_walk(v), d + 1), 1):
        residual = r @ vp - vp
        if n & (n - 1):
            yield residual, inf
            continue
        if n == 1:
            growth = _Growth(vp, residual)
        a = growth.later(n, vp)
        if a == 0.0:
            yield residual, 0.0
            return
        yield residual, growth.residual_tail(a)


def power_isometry_residual(v: np.ndarray) -> float:
    """Worst partial-isometry residual ||V^n V^n* V^n - V^n|| over n = 1..d+1.

    The residuals go through `linalg._ScreenedMax`, so a power takes an SVD
    only if its Frobenius norm and then its Gram-power bound can still beat
    the worst residual, and the walk ends once a bound shows that no later
    power can beat it; the result is the same float as the spectral norm of
    every power would give. A residual that is not finite (V^n overflowed)
    gives inf.

    The bound. Write u = 2^-53, ‖·‖ for the Frobenius norm, and hats for
    computed matrices. Rounding follows `linalg._rounding` at n = d: a
    computed product obeys ‖fl(AB) − AB‖ ≤ γ‖A‖‖B‖ + μ, a norm computed
    by `_frobenius` is at most 1 + ρ times the exact one, and the walk
    bounds ‖A‖ ≤ (1 + ρ)² √(σ + μ), with σ = Σ|a_ij|² one BLAS dot.

    1. Norm of V. The singular values s of V give VV*V − V singular values
       |s³ − s|, and s³ − s ≥ 2(s − 1) for s ≥ 1, since their difference
       is (s − 1)²(s + 2). So ‖V‖₂ ≤ ν = 1 + t/2, where t bounds the exact
       power-1 residual: the walk's bound on the computed one, times
       1 + 2u for the subtraction, plus 3γf³ + 2μ(1 + f) for the two
       products, with f the walk's bound on ‖V‖.
    2. Later powers. V̂^{m+1} = fl(V̂^m V), so
       ‖V̂^{m+1}‖ ≤ (ν + γf)‖V̂^m‖ + μ = c‖V̂^m‖ + μ, and for m ≤ n + K
       ‖V̂^m‖ ≤ a = c^K (‖V̂^n‖ + Kμ), since c ≥ 1.
    3. Later residuals. Forming V̂^m V̂^m*, the product with V̂^m and the
       difference with V̂^m, a residual has computed norm at most
       (1 + ρ)²(1 + γ)² (a(1 + a²) + μ(1 + a)), which grows with a, so
       the bound at n + K covers every later power.
    4. Stop. At n = 1, 2, 4, ..., with K = d + 1 − n powers left, the walk
       ends when that bound times 1 + `_BOUND_SLACK` is below the worst
       residual so far: each later power would then skip its SVD and leave
       the worst as it is, and no later residual can be inf. Residuals
       still waiting for their SVD are settled first whenever their bounds
       could lift the worst above the stop bound, so the walk ends at the
       same power as one that takes every SVD at once. Zero rule: at
       the same powers, a V̂^n that is exactly zero ends the walk whatever
       the bound says, as every later power is exactly zero. Exact models
       have a worst residual of 0.0, so only this rule ends their walks.
       Testing at powers of two keeps the cost off walks that never stop.
    5. Guard. Unless t ≤ 2 `_BOUND_SLACK` (V numerically a partial
       isometry), the walk is never cut. An operator with a unitary part
       of dimension k keeps ‖V̂^n‖ ≥ √k, so its walk runs in full anyway.

    `_Growth` holds steps 1, 2, 3 and 5 (ν, c, a and the tail); the stop
    of `halmos_wallen._block_projections` reads the same a.
    """
    v = _require_square(v)
    residuals = _ScreenedMax()
    with np.errstate(over="ignore", invalid="ignore"):
        for residual, tail in _residual_walk(v):
            if not residuals.add(residual):
                return inf
            stop = tail * (1.0 + _BOUND_SLACK)
            if stop < residuals.ceiling() and stop < residuals.settle():
                break
        return residuals.settle()


def is_power_partial_isometry(
    v: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, int | None]:
    """Check V^n is a partial isometry for n = 1..d+1.

    Returns (True, None) when every power passes, else (False, n) with the
    first failing power. Each power is decided by exact norm bounds and
    takes an SVD only when they cannot, so a valid operator usually costs
    no SVD at all; the verdict is the spectral one. The walk ends once the
    bound of `power_isometry_residual` on every later residual, times
    1 + `_BOUND_SLACK`, is at most eps, or by its zero rule.
    Passing this finite check is a heuristic; the decomposition round-trip
    in `partialiso.halmos_wallen` turns it into a certificate.
    """
    v = _require_square(v)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (residual, tail) in enumerate(_residual_walk(v), 1):
            if not _norm_within(residual, tol.eps):
                return False, n
            if tail * (1.0 + _BOUND_SLACK) <= tol.eps:
                break
    return True, None


def _pair_lookup(half: dict[tuple[int, int], np.ndarray], i: int, j: int) -> np.ndarray:
    """U_ij from a family stored as its i < j half, reading U_ji as U_ij*."""
    if i < j:
        return half[(i, j)]
    return adjoint(half[(j, i)])


def _twist_family(
    twists: dict[tuple[int, int], np.ndarray], n: int, dim: int
) -> dict[tuple[int, int], np.ndarray]:
    """A twist family over N = ``n`` operators, stored for 1 <= i < j <= N: each given
    U_ij coerced by `as_matrix` (shapes are left to the caller), the identity on C^dim
    for each pair left out. A pair out of range is refused."""
    family: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), u in twists.items():
        if not (1 <= i < j <= n):
            raise ValueError(f"twist index pair {(i, j)} out of range (need 1 <= i < j <= {n})")
        family[(i, j)] = as_matrix(u)
    for pair in combinations(range(1, n + 1), 2):
        family.setdefault(pair, identity(dim))
    return family


@dataclass
class TwistedTuple:
    """N operators on C^dim plus the commuting twist family.

    ``twists`` maps (i, j) with 1 <= i < j <= N to the twist U_ij; missing
    pairs default to the identity (an untwisted, star-commuting pair).
    U_ji is implicitly U_ij*. Construction checks ``dim`` (an integer
    >= 1) and shapes only; the math (unitarity, commutation, the twisted
    relations, the power-partial-isometry property of each operator) is
    verified, not assumed, by `partialiso.twisted.verify_twisted`.
    """

    dim: int
    ops: list[np.ndarray]
    twists: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dim = _positive_int(self.dim, "dim")
        self.ops = [as_matrix(v) for v in self.ops]
        if not self.ops:
            raise ValueError("a tuple needs at least one operator")
        for k, v in enumerate(self.ops, 1):
            if v.shape != (self.dim, self.dim):
                raise ValueError(f"operator {k} has shape {v.shape}, expected ({self.dim}, {self.dim})")
        self.twists = _twist_family(self.twists, len(self.ops), self.dim)
        for key, u in self.twists.items():
            if u.shape != (self.dim, self.dim):
                raise ValueError(f"twist {key} has shape {u.shape}, expected ({self.dim}, {self.dim})")

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def twist(self, i: int, j: int) -> np.ndarray:
        """U_ij for any ordered pair i != j, reading U_ji as U_ij*."""
        if i == j:
            raise ValueError("twist indices must differ")
        return _pair_lookup(self.twists, i, j)

    def pair_keys(self) -> list[tuple[int, int]]:
        return sorted(self.twists.keys())


def _relation_rows(n_ops: int) -> int:
    """Rows of `verify_twisted` for N operators, about N^4 / 8: the `_relation_defects` rows and
    one power row per operator. Every pair has a twist (the identity when a tuple leaves it
    out), and the twists are checked pair by pair."""
    twists = n_ops * (n_ops - 1) // 2
    return twists * (twists + 1) // 2 + n_ops * twists + 2 * n_ops * (n_ops - 1) + n_ops


def _relation_defects(t: TwistedTuple):
    """(key, defect) for every relation of ``t`` but the power checks, in report order.

    A relation holds when the matrix ``defect()`` returns vanishes. It is formed only
    when it is called, so a caller that skips a key forms nothing for it; each ``defect``
    holds its own operands, so the rows may be drawn in any order. A twist is unitary when
    U*U - I vanishes: UU* - I has the same singular values (see `unitarity_residual`).
    """
    pairs = t.pair_keys()
    eye = identity(t.dim)
    for p in pairs:
        u = t.twists[p]
        yield ("twist-unitary", *p), lambda u=u: adjoint(u) @ u - eye
    for a, p in enumerate(pairs):
        for q in pairs[a + 1 :]:
            yield ("twist-commuting-family", *p, *q), lambda x=t.twists[p], y=t.twists[q]: x @ y - y @ x
    for k, v in enumerate(t.ops, 1):
        for p in pairs:
            yield ("twist-commute", k, *p), lambda v=v, u=t.twists[p]: v @ u - u @ v
    for i, j in permutations(range(1, t.n_ops + 1), 2):
        vi, vj = t.ops[i - 1], t.ops[j - 1]
        yield ("star-cross", i, j), lambda vi=vi, vj=vj, i=i, j=j: (
            adjoint(vi) @ vj - t.twist(i, j) @ vj @ adjoint(vi))
        yield ("plain-cross", i, j), lambda vi=vi, vj=vj, i=i, j=j: vi @ vj - t.twist(j, i) @ vj @ vi


def _first_failing_relation(t: TwistedTuple, eps: float, skip=lambda key: False) -> tuple | None:
    """The key of the first `_relation_defects` row whose defect is not within eps, or None.

    Each row is decided by `_norm_within`, which fails a defect with an entry that is not
    finite before any SVD, as its inf residual would. Rows that ``skip`` names form nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for key, defect in _relation_defects(t):
            if not skip(key) and not _norm_within(defect(), eps):
                return key
    return None


def build_twisted_shift_pair(
    p: int, lam: complex, tol: Tolerance = DEFAULT_TOL
) -> TwistedTuple:
    """The block pair of twisted truncated-shift tensors on C^{2p^2}.

    With S1 = J_p x I_p and S2 = d[lam] x J_p, the operators are
    V1 = diag(S1, S2) and V2 = diag(S2, S1), twisted by
    U = diag(lam I, conj(lam) I). The relation residuals vanish up to
    rounding; for p = 1 all four blocks are zero.
    """
    p = _positive_int(p, "p")
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= tol.eps:
        raise ValueError(f"lambda must be unimodular, got |lambda| = {abs(lam)}")
    j_p = truncated_shift(p)
    d_lam = np.diag(lam ** np.arange(p)).astype(complex)
    s1 = kron(j_p, identity(p))
    s2 = kron(d_lam, j_p)
    v1 = _block_diag([s1, s2])
    v2 = _block_diag([s2, s1])
    u = _block_diag([lam * identity(p * p), np.conj(lam) * identity(p * p)])
    return TwistedTuple(dim=2 * p * p, ops=[v1, v2], twists={(1, 2): u})


def _positive_int(value, what: str) -> int:
    """``value`` as an int; bools, other non-integers and values below 1 are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return int(value)


@dataclass
class ModelSpec:
    """Slot data for a tensor model tuple.

    ``slot_kinds`` lists, per operator, either an int p >= 1 (truncated
    shift slot) or the string "u" (unitary slot). ``twist_data`` holds the
    commuting unitaries U_ij on E = C^{aux_dim} for i < j (missing pairs
    default to the identity). ``slot_unitaries`` gives the unitary U_i on E
    for each "u" slot; the family must satisfy U_i* U_j = U_ij U_j U_i* for
    unitary-slot pairs and commute with every U_pq.
    """

    slot_kinds: list[object]
    aux_dim: int
    twist_data: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    slot_unitaries: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.aux_dim = _positive_int(self.aux_dim, "aux_dim")
        self.slot_kinds = [
            "u" if kind == "u" else _positive_int(kind, f"slot {k}: shift size")
            for k, kind in enumerate(self.slot_kinds, 1)
        ]
        self.twist_data = _twist_family(self.twist_data, len(self.slot_kinds), self.aux_dim)
        self.slot_unitaries = {
            _positive_int(i, "slot_unitaries key"): as_matrix(u) for i, u in self.slot_unitaries.items()
        }
        if stray := sorted(set(self.slot_unitaries).difference(self.unitary_slots())):
            raise ValueError(f"slot_unitaries keys {stray} name no unitary slot")

    @property
    def n_ops(self) -> int:
        return len(self.slot_kinds)

    def shift_slots(self) -> list[int]:
        return [i for i, kind in enumerate(self.slot_kinds, 1) if kind != "u"]

    def unitary_slots(self) -> list[int]:
        return [i for i, kind in enumerate(self.slot_kinds, 1) if kind == "u"]

    def symbol(self, slot: int, op: int) -> np.ndarray:
        """Twist symbol placed at ``slot`` inside operator ``op``."""
        return _pair_lookup(self.twist_data, slot, op)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Raise ValueError on any relation violation above tolerance.

        These are the relations of the order-1 model on E (twists, slot unitaries, J_1 = 0 at
        shift slots) but its plain ones and its star ones with i > j, which unitaries imply,
        and the rows on a shift slot's zero operator, which vanish exactly.
        """
        u_slots = self.unitary_slots()
        for i in u_slots:
            if i not in self.slot_unitaries:
                raise ValueError(f"unitary slot {i} is missing its slot unitary")
        zero = np.zeros((self.aux_dim, self.aux_dim), dtype=complex)
        ops = [self.slot_unitaries[i] if i in u_slots else zero for i in range(1, self.n_ops + 1)]
        model = TwistedTuple(dim=self.aux_dim, ops=ops, twists=self.twist_data)
        for i in u_slots:
            if not _unitary_within(model.ops[i - 1], tol.eps):
                raise ValueError(f"slot unitary {i} is not unitary at tolerance")
        shift = set(self.shift_slots())
        key = _first_failing_relation(
            model,
            tol.eps,
            skip=lambda key: (
                key[0] == "plain-cross"
                or key[0] == "star-cross" and (key[1] > key[2] or not shift.isdisjoint(key[1:]))
                or key[0] == "twist-commute" and key[1] in shift
            ),
        )
        if key is not None:
            raise ValueError(f"relation {key[0]} {list(key[1:])} fails at tolerance")


def _model_operator(
    kinds: list[object],
    twists: dict[tuple[int, int], np.ndarray],
    unit_ops: dict[int, np.ndarray],
    mult: int,
    n: int,
    tol: Tolerance,
) -> np.ndarray:
    """Operator ``n`` of the tensor model on (x_{shift slots} C^p) x C^mult.

    ``kinds`` holds one int p (truncated shift slot) or "u" per operator.
    The operator is the product of a diagonal twist at each shift slot m
    with (m, n) in ``twists``, then the truncated shift at its own slot or,
    for a "u" slot, I_K x unit_ops[n].
    """
    shift_slots = [i for i, kind in enumerate(kinds, 1) if kind != "u"]
    k_dims = [kinds[i - 1] for i in shift_slots]
    k_total = prod(k_dims)
    op = identity(k_total * mult)
    for rank, m in enumerate(shift_slots, 1):
        if (m, n) in twists:
            op = op @ diag_twist(k_dims, rank, twists[(m, n)], mult, tol)
    kind = kinds[n - 1]
    if kind == "u":
        return op @ kron(identity(k_total), unit_ops[n])
    rank = shift_slots.index(n)
    pre = prod(k_dims[:rank])
    post = prod(k_dims[rank + 1 :])
    return op @ kron(kron(identity(pre), truncated_shift(kind)), identity(post * mult))


def build_model_tuple(spec: ModelSpec, tol: Tolerance = DEFAULT_TOL) -> TwistedTuple:
    """Assemble the tuple on (x_{shift slots} C^{p_i}) x E from a ModelSpec.

    A shift-slot operator is the product of diagonal twists at every
    earlier shift slot with the truncated shift at its own slot; a
    unitary-slot operator carries diagonal twists at every shift slot and
    its slot unitary on E. The ambient twists are I_K x U_ij. Only
    truncated-shift and unitary slots exist in finite dimensions; there is
    no faithful finite model for shift or backward-shift slots, so they
    are not representable here by design.
    """
    spec.validate(tol)
    kinds = spec.slot_kinds
    shift_slots = spec.shift_slots()
    carried = {
        (m, n): spec.symbol(m, n)
        for n, kind in enumerate(kinds, 1)
        for m in shift_slots
        if kind == "u" or m < n
    }
    ops = [
        _model_operator(kinds, carried, spec.slot_unitaries, spec.aux_dim, n, tol)
        for n in range(1, spec.n_ops + 1)
    ]
    k_total = prod(kinds[i - 1] for i in shift_slots)
    twists = {
        (i, j): kron(identity(k_total), u) for (i, j), u in spec.twist_data.items()
    }
    return TwistedTuple(dim=k_total * spec.aux_dim, ops=ops, twists=twists)


def haar_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Gaussian)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_commuting_unitaries(dim: int, how_many: int, seed: int) -> list[np.ndarray]:
    """Pairwise commuting unitaries, deterministic per seed.

    All matrices share one random eigenbasis with independent random
    unimodular spectra, so commutators vanish up to rounding.
    """
    dim = _positive_int(dim, "dim")
    rng = np.random.default_rng(seed)
    q = haar_unitary(dim, rng)
    out = []
    for _ in range(how_many):
        phases = np.exp(2j * np.pi * rng.random(dim))
        out.append(q @ np.diag(phases) @ adjoint(q))
    return out


def clock_shift_unitaries(q: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Clock and cyclic-shift unitaries on C^q.

    Returns (C, S, omega) with C = diag(1, w, ..., w^{q-1}), S e_k = e_{k+1 mod q}
    and w = exp(2 pi i / q); they satisfy C* S = conj(w) S C*.
    """
    q = _positive_int(q, "q")
    omega = np.exp(2j * np.pi / q)
    clock = np.diag(omega ** np.arange(q)).astype(complex)
    shift = np.zeros((q, q), dtype=complex)
    for k in range(q):
        shift[(k + 1) % q, k] = 1.0
    return clock, shift, omega


def conjugate_tuple(t: TwistedTuple, w: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> TwistedTuple:
    """Conjugate every operator and twist by the unitary ``w``."""
    w = as_matrix(w)
    if w.shape != (t.dim, t.dim):
        raise ValueError(f"conjugator has shape {w.shape}, expected ({t.dim}, {t.dim})")
    if not _unitary_within(w, tol.eps):
        raise ValueError("conjugator is not unitary at tolerance")
    wh = adjoint(w)
    return TwistedTuple(
        dim=t.dim,
        ops=[w @ v @ wh for v in t.ops],
        twists={key: w @ u @ wh for key, u in t.twists.items()},
    )


def direct_sum_tuples(*tuples: TwistedTuple) -> TwistedTuple:
    """Block-diagonal direct sum; all summands need the same operator count."""
    if not tuples:
        raise ValueError("need at least one tuple")
    n = tuples[0].n_ops
    for t in tuples:
        if t.n_ops != n:
            raise ValueError("all summands must have the same number of operators")
    dim = sum(t.dim for t in tuples)
    ops = [_block_diag([t.ops[k] for t in tuples]) for k in range(n)]
    twists = {
        key: _block_diag([t.twists[key] for t in tuples])
        for key in tuples[0].pair_keys()
    }
    return TwistedTuple(dim=dim, ops=ops, twists=twists)


def permute_tuple(t: TwistedTuple, perm: list[int]) -> TwistedTuple:
    """Reorder operators by ``perm`` (1-based), carrying twists along."""
    n = t.n_ops
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a permutation of 1..{n}")
    ops = [t.ops[perm[k] - 1] for k in range(n)]
    twists = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            twists[(i, j)] = t.twist(perm[i - 1], perm[j - 1])
    return TwistedTuple(dim=t.dim, ops=ops, twists=twists)


def random_model_spec(
    seed: int,
    n_ops: int | None = None,
    max_p: int = 4,
    max_aux: int = 3,
) -> ModelSpec:
    """A seeded random ModelSpec that always validates.

    Twists and slot unitaries are drawn from one commuting family (shared
    random eigenbasis) mixed with random scalar phases; pairs of unitary
    slots stay untwisted, since realizing a nonscalar twist between two
    unitary slots needs special spectra (see `clock_shift_unitaries` for
    the genuinely twisted case used in the tests). ``n_ops``, ``max_p`` and
    ``max_aux`` are positive integers.
    """
    max_p, max_aux = _positive_int(max_p, "max_p"), _positive_int(max_aux, "max_aux")
    rng = np.random.default_rng(seed)
    n = _positive_int(n_ops, "n_ops") if n_ops is not None else int(rng.integers(1, 5))
    kinds: list[object] = []
    for _ in range(n):
        if rng.random() < 0.3:
            kinds.append("u")
        else:
            kinds.append(int(rng.integers(1, max_p + 1)))
    aux = int(rng.integers(1, max_aux + 1))
    u_slots = [i for i, k in enumerate(kinds, 1) if k == "u"]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    family = random_commuting_unitaries(
        aux, len(pairs) + len(u_slots), int(rng.integers(2**32))
    )
    it = iter(family)
    twist_data: dict[tuple[int, int], np.ndarray] = {}
    for i, j in pairs:
        member = next(it)
        if i in u_slots and j in u_slots:
            twist_data[(i, j)] = identity(aux)
        elif rng.random() < 0.5:
            twist_data[(i, j)] = np.exp(2j * np.pi * rng.random()) * identity(aux)
        else:
            twist_data[(i, j)] = member
    slot_unitaries = {i: next(it) for i in u_slots}
    return ModelSpec(
        slot_kinds=kinds,
        aux_dim=aux,
        twist_data=twist_data,
        slot_unitaries=slot_unitaries,
    )
