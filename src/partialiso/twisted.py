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

from dataclasses import dataclass, field, replace
from math import inf, isfinite, prod

import numpy as np

from .halmos_wallen import (
    DecompositionError,
    _stable_projections,
    hw_decompose,
    truncated_block_projection,
)
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _norm_within,
    _require_square,
    _svd_rank,
    adjoint,
    as_matrix,
    identity,
    kron,
    op_norm,
)
from .operators import (
    TwistedTuple,
    _block_diag,
    _model_operator,
    _unitary_within,
    diag_twist,
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
    """Per-relation residuals for one tuple.

    Keys are tuples (kind, indices...) with kind in {"star-cross",
    "plain-cross", "twist-commute", "twist-unitary",
    "twist-commuting-family", "ppi"}; indices are 1-based operator or
    twist-pair positions.
    """

    eps: float
    residuals: dict[tuple, float]
    max_residual: float
    passed: bool

    def worst(self) -> tuple[tuple, float]:
        """The largest residual, or the first that is not finite."""
        key = max(self.residuals, key=lambda k: (not isfinite(r := self.residuals[k]), r))
        return key, self.residuals[key]

    def by_kind(self, kind: str) -> dict[tuple, float]:
        return {k: v for k, v in self.residuals.items() if k[0] == kind}


def verify_twisted(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> TwistReport:
    """Residuals of every defining relation of a twisted tuple.

    Covers, for all ordered pairs i != j: the star relation
    V_i* V_j = U_ij V_j V_i* and the plain relation V_i V_j = U_ji V_j V_i;
    for every operator and twist pair the commutation V_k U_ij = U_ij V_k;
    unitarity of each twist; commutation within the twist family; and the
    power-partial-isometry residual of each operator. Nothing is thrown:
    failures live in the report, and a residual that is not finite fails it
    with ``max_residual`` = inf.
    """
    n = t.n_ops
    pairs = t.pair_keys()
    residuals: dict[tuple, float] = {}

    def commutator(a, b):
        return op_norm(a @ b - b @ a)

    for i, j in pairs:
        residuals[("twist-unitary", i, j)] = unitarity_residual(t.twists[(i, j)])
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            key = ("twist-commuting-family", *pairs[a], *pairs[b])
            residuals[key] = commutator(t.twists[pairs[a]], t.twists[pairs[b]])
    for k in range(1, n + 1):
        for i, j in pairs:
            residuals[("twist-commute", k, i, j)] = commutator(t.ops[k - 1], t.twists[(i, j)])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            vi, vj = t.ops[i - 1], t.ops[j - 1]
            residuals[("star-cross", i, j)] = op_norm(adjoint(vi) @ vj - t.twist(i, j) @ vj @ adjoint(vi))
            residuals[("plain-cross", i, j)] = op_norm(vi @ vj - t.twist(j, i) @ vj @ vi)
    for i in range(1, n + 1):
        residuals[("ppi", i)] = power_isometry_residual(t.ops[i - 1])

    # max() cannot rank NaN, so a residual that is not finite fails outright
    worst = max(residuals.values()) if all(map(isfinite, residuals.values())) else inf
    return TwistReport(
        eps=tol.eps,
        residuals=residuals,
        max_residual=float(worst),
        passed=worst <= tol.eps,
    )


def check_projection_commutation(
    v: np.ndarray, w: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> dict[str, float]:
    """Commutators of W with the block projections of V.

    For a twisted pair (V, W) the stabilized range and source projections
    of V, their products, and every truncated block projection commute
    with W; the residuals are returned keyed by projection name. Nothing
    is assumed about the input pair, so a random pair simply reports large
    values; V must be square and W of the same shape.
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
    for p in range(1, d + 1):
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


def _check_size(maps: int, d: int, peak_blocks: int) -> None:
    """Refuse ``maps`` Sylvester maps at ``d`` when ``peak_blocks`` d^2 x d^2 complex blocks pass the limit."""
    peak_bytes = peak_blocks * d**4 * np.dtype(complex).itemsize
    if peak_bytes > COMMUTANT_MAX_BYTES:
        raise CommutantTooLargeError(
            f"{maps} Sylvester maps at d = {d} need a {peak_bytes / 1024**3:.1f} GiB "
            f"system, above the {COMMUTANT_MAX_BYTES / 1024**3:.0f} GiB limit"
        )


def _sylvester_stack(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple) -> np.ndarray:
    """Row b: basis element b, the sum of gamma E_pq over its entries (b, p, q, gamma), under each
    map X -> X B1 - B2 X of ``pairs`` (B1, B2) in turn, row-major: a complex (d^2, maps d^2) array,
    written in place, so nothing the size of the stack is formed beside it."""
    b, p, q, gamma = basis
    d = pairs[0][0].shape[0]
    out = np.zeros((d * d, len(pairs), d, d), dtype=complex)

    def scaled(entries: np.ndarray) -> np.ndarray:
        # in place: the gathered entries are the only temporary of each write
        return np.multiply(gamma, entries, out=entries)

    # (E_pq B1 - B2 E_pq)[r, s] = delta_rp B1[q, s] - B2[r, p] delta_qs; each (b, p) and (b, q) occurs once
    for n, (b1, b2) in enumerate(pairs):
        out[b, n, p, :] = scaled(b1[q, :])
        out[b, n, :, q] -= scaled(b2[:, p].T)
    return out.reshape(d * d, len(pairs) * d * d)


def _matrix_units(d: int) -> tuple:
    """The row-major basis E_pq of d x d matrices, as entries (b, p, q, gamma) of `_sylvester_stack`."""
    b = np.arange(d * d)
    return (b, *np.divmod(b, d), 1.0)


def _hermitian_units(d: int) -> tuple:
    """sqrt(2) E_jj, E_jk + E_kj, i (E_jk - E_kj), j < k: sqrt(2) times an orthonormal Hermitian basis."""
    j, k = np.triu_indices(d, 1)
    diag, sym, anti = np.arange(d), d + np.arange(len(j)), d + len(j) + np.arange(len(j))
    b, p, q = (np.concatenate(x) for x in ((diag, sym, sym, anti, anti), (diag, j, k, j, k), (diag, k, j, k, j)))
    gamma = np.repeat([np.sqrt(2.0), 1.0, 1.0, 1j, -1j], [d] + 4 * [len(j)])[:, None]
    return b, p, q, gamma


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
    are those of the real stack of S_H, a quarter of the SVD's flops on half the bytes.

    Operators that are not square or not all of one shape raise before any stack is
    built. The stack, N complex d^2 x d^2 blocks on either branch (the real one holds Re and
    Im of each entry in turn), and the copy numpy's SVD makes are all that is allocated at
    that size; above COMMUTANT_MAX_BYTES they raise `CommutantTooLargeError` first.
    """
    mats = [_require_square(a) for a in ops]
    if not mats:
        raise ValueError("need at least one operator")
    for n, m in enumerate(mats[1:], 2):
        if m.shape != mats[0].shape:
            raise DimensionMismatchError(f"operator {n} has shape {m.shape}, operator 1 has shape {mats[0].shape}")
    d, pairs = mats[0].shape[0], [(m, m) for m in mats]
    _check_size(len(mats) * (2 if include_adjoints else 1), d, 2 * len(mats))
    if include_adjoints:
        stack = _sylvester_stack(pairs, _hermitian_units(d)).view(float).T
    else:
        stack = _sylvester_stack(pairs, _matrix_units(d)).T
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(singular_values <= tol.eps))


def is_irreducible(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the dense commutant of {V_i, V_i*} is the scalars; needs no decomposition."""
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
    """All leaves, the assembled global intertwiner, and the certificate."""

    ambient_dim: int
    n_ops: int
    leaves: list[DecompositionLeaf]
    global_intertwiner: np.ndarray
    residual: float
    partition: PartitionReport

    def commutant_dimension(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """Dimension of the commutant of {V_n, V_n*}, read off the leaves.

        The leaf and shift-position projections are polynomials in the V_n, V_n* (products of
        R_k - R_{k+1}, S_k - S_{k+1} and P Q), so each X in it is block diagonal over the cells
        (leaf, shift position). A shift maps each block unitarily onto the next, and a leaf's
        first block commutes with the leaf's unit ops, visible symbols and their adjoints: one
        m^2-unknown `commutant_dimension` per leaf, all of M_m for a leaf with no data.
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
        worst = max(op_norm(off_out), op_norm(off_in))
        raise DecompositionError(f"{what}: subspace is not reducing (off-block norm {worst:.3e})")
    return c


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
    hw = hw_decompose(carried[first], tol)
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
        here = f"{path}/u" if label == "u" else f"{path}/p={p}"
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
            where = "".join("/u" if kind == "u" else f"/p={kind}" for kind in kinds)
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
    intertwiner reproduces every operator within eps, and that residual is
    stored in the tree.
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

    worst = 0.0
    for n in range(1, t.n_ops + 1):
        model = _block_diag([leaf_model_operator(leaf, n, tol) for leaf in leaves])
        worst = max(worst, op_norm(g @ model @ adjoint(g) - t.ops[n - 1]))
    if worst > tol.eps:
        raise DecompositionError(
            f"reconstruction residual {worst:.3e} exceeds eps {tol.eps:.1e}"
        )

    return DecompositionTree(
        ambient_dim=t.dim,
        n_ops=t.n_ops,
        leaves=leaves,
        global_intertwiner=g,
        residual=float(worst),
        partition=_classify(leaves),
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
    """Worst matched eigenvalue distance under the optimal assignment."""
    # deferred: scipy.optimize is the slowest import of the package
    from scipy.optimize import linear_sum_assignment

    ea = np.linalg.eigvals(a)
    eb = np.linalg.eigvals(b)
    cost = np.abs(ea[:, None] - eb[None, :])
    row, col = linear_sum_assignment(cost)
    return float(cost[row, col].max()) if row.size else 0.0


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
    # X A1 = A2 X and X A1* = A2* X for every pair
    closed = [b for a1, a2 in pairs for b in ((a1, a2), (adjoint(a1), adjoint(a2)))]
    # unitary pairs give the (tall) stack norm O(1): its null space is cut at an absolute eps.
    # It is the null space of the square R factor, so no left factor as tall as the stack is formed.
    # The peak, all of it counted by the guard, is the stack (written in place), the two copies
    # np.linalg.qr makes (astype and its column-major buffer) and R
    _check_size(len(closed), m, 3 * len(closed) + 1)
    _, s, vh = np.linalg.svd(np.linalg.qr(_sylvester_stack(closed, _matrix_units(m)).T, mode="r"))
    basis = [x.conj().reshape(m, m) for x in vh[s <= tol.eps]]
    if not basis:
        return None
    for attempt in range(8):
        rng = np.random.default_rng(attempt)
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        z = sum(c * x for c, x in zip(coeffs, basis))
        s = np.linalg.svd(z, compute_uv=False)
        if s[0] == 0 or s[-1] < 1e-8 * s[0]:
            continue
        u = _polar_unitary(z)
        if all(_norm_within(u @ a1 - a2 @ u, tol.eps * 100) for a1, a2 in pairs):
            return u
    return None


def equivalence_check(
    t1: TwistedTuple, t2: TwistedTuple, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceResult:
    """Decide simultaneous unitary equivalence of two tuples.

    NOT_EQUIVALENT comes only with an invariant certificate: mismatched
    leaf multiindex multisets, multiplicity dimensions, or unitary-part
    spectra. EQUIVALENT comes with an explicit unitary, assembled from the
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
    worst = max(
        op_norm(u_total @ t1.ops[n] @ adjoint(u_total) - t2.ops[n]) for n in range(t1.n_ops)
    )
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
