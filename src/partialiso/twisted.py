"""Twisted relation verification, the recursive tuple decomposition and unitary equivalence.

This module keeps what is asked of a twisted tuple as a whole: `verify_twisted` decides its
relations, `check_projection_commutation` tests one operator against the block projections
of another, `extract_twist_factor` splits a twist off a graded operator, `decompose_tuple`
builds the tree of leaves, and `is_irreducible` and `equivalence_check` answer from the
tuple or its trees. The Sylvester systems behind the last two, the star-closed commutant
count and the multiplicity match of two leaves, are built and solved in
`partialiso.commutant`.

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

from copy import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import prod

import numpy as np

from .commutant import _match_unitary, commutant_dimension
from .halmos_wallen import DecompositionError, _block_projections, _certify, _hw_decompose, _summands
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _max_op_norm,
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
    _first_failing_relation,
    _model_operator,
    _relation_defects,
    _unitary_within,
    diag_twist,
    is_power_partial_isometry,
    power_isometry_residual,
)

__all__ = [
    "DecompositionLeaf",
    "DecompositionTree",
    "EquivalenceResult",
    "PartitionReport",
    "TwistReport",
    "check_projection_commutation",
    "classify_partition",
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
    ``passed`` equals ``max_residual <= eps``. A defect with an entry that is
    not finite (an overflowed product) reads inf, by the rule of `op_norm`.

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
                residuals[key] = op_norm(defect())
        for i, v in enumerate(self._checked.ops, 1):
            residuals[("ppi", i)] = power_isometry_residual(v)
        return residuals

    @property
    def max_residual(self) -> float:
        """The largest residual, inf when one is not finite."""
        return float(max(self.residuals.values()))

    def worst(self) -> tuple[tuple, float]:
        """The largest residual, the first of them on a tie, so the first inf."""
        key = max(self.residuals, key=self.residuals.get)
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
    is assumed about the input pair: a random W simply reports large
    values, but a V whose range projections never stabilize raises
    `DecompositionError`. V must be square and W of the same shape.

    A block of spectral norm at most 1/2 is left out, and the ladder of V
    stops as soon as the steps it has not formed cannot matter, so the
    blocks, and the returned floats, are those of a ladder walked to d.
    The projections, that rule and its proof live with the ladder, in
    `halmos_wallen._block_projections`; this function measures
    ||aW - Wa|| for each projection a it yields. At d = 50, scrambled
    example 4.3 stops its ladder at power 9, not 50.
    """
    v = _require_square(v)
    w = as_matrix(w)
    if w.shape != v.shape:
        raise DimensionMismatchError(f"W has shape {w.shape}, V has shape {v.shape}")
    return {name: op_norm(a @ w - w @ a) for name, a in _block_projections(v, tol)}


# ---------------------------------------------------------------------------
# irreducibility


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
    _certify([v - _block_diag(blocks)], eps, lambda r: (
        f"{what} not block diagonal over the shift grading (off-block mass {r:.3e})"
    ))
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

    ``_defects`` holds G model_n G* - V_n for each operator, as `_certify`
    returned them in `decompose_tuple`; ``residual``, the largest of their
    spectral norms, is formed on its first read and kept.
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
    _certify([op @ basis - basis @ c, left - c @ adjoint(basis)], eps, lambda r: (
        f"{what}: subspace is not reducing (off-block norm {r:.3e})"
    ))
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
    leaves: list[DecompositionLeaf] = []
    for label, p, mult, wp in _summands(_hw_decompose(carried[first], tol)):
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
    where = "".join(map(_path_step, kinds))

    def compress(a: np.ndarray, what: str) -> np.ndarray:
        c = adjoint(g1) @ a @ g1
        with np.errstate(over="ignore", invalid="ignore"):
            _certify([adjoint(c) @ c - identity(leaf.mult_dim)], eps, lambda r: (
                f"{where}: {what}: compression is not unitary (residual {r:.3e})"
            ))
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
    ascending p and then its unitary part (with grading 1), as
    `halmos_wallen._summands` reads them, so the leaves come out sorted.

    The caller is expected to have run `verify_twisted` first; structural
    failures (non-reducing subspaces, leaf data that is not unitary on the
    first cell) raise `DecompositionError` naming the leaf path and stage.
    On success, conjugating the block-diagonal leaf models by the global
    intertwiner reproduces every operator within eps. Every stage (each
    restriction, grading, leaf datum, the global intertwiner and the
    reconstruction) is certified by `_certify`; the tree's ``residual`` is
    formed from the kept defects only when it is read.
    """
    leaves = _decompose_rec(
        remaining=list(range(1, t.n_ops + 1)),
        carried={n: t.ops[n - 1] for n in range(1, t.n_ops + 1)},
        dim=t.dim,
        tol=tol,
        path="",
    )

    g = np.hstack([leaf.intertwiner for leaf in leaves])
    g_defect = adjoint(g) @ g - identity(t.dim)
    _certify([g_defect], tol.eps, lambda r: f"global intertwiner is not unitary (residual {r:.3e})")
    leaves = [_read_leaf(t, leaf, tol.eps) for leaf in leaves]

    defects = _certify([
        g @ _block_diag([leaf_model_operator(leaf, n, tol) for leaf in leaves]) @ adjoint(g) - t.ops[n - 1]
        for n in range(1, t.n_ops + 1)
    ], tol.eps, lambda r: f"reconstruction residual {r:.3e} exceeds eps {tol.eps:.1e}")

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
        return EquivalenceResult("NOT_EQUIVALENT", f"leaf invariants differ: {inv1} vs {inv2}")

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
        data = [(leaf1.unit_ops[n], leaf2.unit_ops[n]) for n in sorted(leaf1.unit_ops)]
        data += [(leaf1.slot_twists[key], leaf2.slot_twists[key]) for key in sorted(leaf1.slot_twists)]
        match = _match_unitary(data, leaf1.mult_dim, tol)
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
        return EquivalenceResult("INCONCLUSIVE", "assembled intertwiner failed the unitarity check")
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
