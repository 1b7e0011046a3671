"""Twisted relation verification and the recursive tuple decomposition.

A tuple (V_1, ..., V_N) with commuting unitary twists U_ij decomposes into
an orthogonal sum of leaves indexed by multiindices over {u} union
{1, 2, ...}: on each leaf every V_n acts as a tensor model built from
diagonal twists at the truncated-shift slots before it, a truncated shift
or a leaf unitary at its own position, and the identity elsewhere. The
recursion peels off the lowest-index operator with its single-operator
decomposition, restricts the rest to each reducing block, splits off the
slot twist with `extract_twist_factor`, and recurses on the remainders.
Every restriction, factorization and the final reconstruction is checked
against tolerance; violations raise instead of being projected away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

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
    nullspace,
    op_norm,
)
from .operators import (
    TwistedTuple,
    _block_diag,
    _model_operator,
    _pair_lookup,
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
        key = max(self.residuals, key=self.residuals.get)
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
    failures live in the report.
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

    worst = max(residuals.values()) if residuals else 0.0
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

# Largest stacked Sylvester system the package will build.
COMMUTANT_MAX_BYTES = 2 * 1024**3


class CommutantTooLargeError(ValueError):
    """A stacked Sylvester system would exceed COMMUTANT_MAX_BYTES."""


def _sylvester_stack(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The maps X -> X B1 - B2 X over ``pairs`` (B1, B2), stacked in row-major vectorization.

    The size is checked before any block is built, and the blocks are
    filled in place, so they and the stack never coexist.
    """
    d = pairs[0][0].shape[0]
    stack_bytes = len(pairs) * d**4 * np.dtype(complex).itemsize
    if stack_bytes > COMMUTANT_MAX_BYTES:
        raise CommutantTooLargeError(
            f"{len(pairs)} Sylvester maps at d = {d} need a {stack_bytes / 1024**3:.1f} GiB "
            f"system, above the {COMMUTANT_MAX_BYTES / 1024**3:.0f} GiB limit"
        )
    eye = identity(d)
    stack = np.empty((len(pairs) * d * d, d * d), dtype=complex)
    for k, (b1, b2) in enumerate(pairs):
        # vec(X B1 - B2 X) = (I x B1^T - B2 x I) vec(X), row-major vec
        stack[k * d * d : (k + 1) * d * d] = kron(eye, b1.T) - kron(b2, eye)
    return stack


def commutant_dimension(
    ops: list[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
    include_adjoints: bool = False,
) -> int:
    """Dimension of {X : XA = AX for every A in the family}.

    The family is exactly ``ops`` unless ``include_adjoints`` is set, which
    star-closes it (the right notion for reducibility questions). Solved
    on the stacked Sylvester maps X -> XA - AX in row-major vectorization:
    the stack is at least as tall as it is wide, so the dimension is d^2
    minus its rank, read off the singular values alone (no singular
    vectors are formed). Always >= 1 since the identity commutes. A stack
    above COMMUTANT_MAX_BYTES raises `CommutantTooLargeError` before any
    of it is allocated.
    """
    mats = [as_matrix(a) for a in ops]
    if not mats:
        raise ValueError("need at least one operator")
    if include_adjoints:
        mats = mats + [adjoint(a) for a in mats]
    d = mats[0].shape[0]
    stack = _sylvester_stack([(m, m) for m in mats])
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return d * d - _svd_rank(singular_values, tol)


def is_irreducible(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the commutant of {V_i, V_i*} is the scalars."""
    return commutant_dimension(t.ops, tol, include_adjoints=True) == 1


# ---------------------------------------------------------------------------
# slot twist extraction


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
    """
    v = as_matrix(vj_block)
    m = mult_dim
    if v.shape != (p * m, p * m):
        raise ValueError(f"block operator has shape {v.shape}, expected ({p * m}, {p * m})")
    blocks = [v[a * m : (a + 1) * m, a * m : (a + 1) * m] for a in range(p)]
    off_block = v - _block_diag(blocks)
    if not _norm_within(off_block, tol.eps):
        raise DecompositionError(
            "operator is not block diagonal over the shift grading "
            f"(off-block mass {op_norm(off_block):.3e})"
        )
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
    shift slot or "u" for a unitary slot. ``slot_twists`` maps (m, n) with
    m a shift slot and n an operator carrying a diagonal twist there, to
    the twist symbol on the multiplicity space C^{mult_dim}: shift-slot
    operators carry twists at the shift slots before them, unitary-slot
    operators at every shift slot. ``unit_ops`` maps each unitary position
    to its leaf unitary. ``intertwiner`` has orthonormal columns spanning
    the leaf subspace of the ambient space, ordered so the model acts on
    (x_{shift slots} C^p) x C^{mult_dim} with the left factors slow.
    """

    multiindex: tuple
    leaf_dim: int
    mult_dim: int
    slot_twists: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    unit_ops: dict[int, np.ndarray] = field(default_factory=dict)
    intertwiner: np.ndarray | None = None

    def shift_positions(self) -> list[int]:
        return [i for i, e in enumerate(self.multiindex, 1) if e != "u"]

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


def leaf_model_operator(leaf: DecompositionLeaf, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The model matrix of operator ``n`` on the leaf space."""
    return _model_operator(
        list(leaf.multiindex), leaf.slot_twists, leaf.unit_ops, leaf.mult_dim, n, tol
    )


def _check_reducing(op: np.ndarray, basis: np.ndarray, eps: float, what: str) -> None:
    proj = basis @ adjoint(basis)
    eye = identity(op.shape[0])
    off_out = (eye - proj) @ op @ proj
    off_in = proj @ op @ (eye - proj)
    if not (_norm_within(off_out, eps) and _norm_within(off_in, eps)):
        worst = max(op_norm(off_out), op_norm(off_in))
        raise DecompositionError(f"{what}: subspace is not reducing (off-block norm {worst:.3e})")


def _factor_out_identity(mat: np.ndarray, blocks: int, block_dim: int, eps: float, what: str) -> np.ndarray:
    """Certify mat = I_blocks x X and return X (the averaged diagonal block)."""
    if blocks == 1:
        return mat
    acc = np.zeros((block_dim, block_dim), dtype=complex)
    for a in range(blocks):
        acc += mat[a * block_dim : (a + 1) * block_dim, a * block_dim : (a + 1) * block_dim]
    x = acc / blocks
    defect = mat - kron(identity(blocks), x)
    if not _norm_within(defect, eps):
        raise DecompositionError(f"{what}: no identity tensor factor (residual {op_norm(defect):.3e})")
    return x


def _compress_unitary(u: np.ndarray, basis: np.ndarray, eps: float, what: str) -> np.ndarray:
    c = adjoint(basis) @ u @ basis
    if not _unitary_within(c, eps):
        raise DecompositionError(
            f"{what}: compression is not unitary (residual {unitarity_residual(c):.3e})"
        )
    return c


def _decompose_rec(
    remaining: list[int],
    ops: dict[int, np.ndarray],
    peeled: dict[int, np.ndarray],
    twists: dict[tuple[int, int], np.ndarray],
    symbols: dict[tuple[int, int], np.ndarray],
    dim: int,
    tol: Tolerance,
    path: str,
) -> list[DecompositionLeaf]:
    """Peel ``remaining[0]`` and recurse; all carried matrices live on C^dim.

    ``peeled`` holds the unitary remainders of operators already split off
    through a unitary branch: they ride along because they pick up a
    diagonal-twist factor at every shift slot created below them, exactly
    like remaining operators do. ``symbols`` accumulates those slot twist
    symbols, compressed level by level onto the running multiplicity
    space. Leaves come back unitary branch first, then blocks in ascending p.
    """
    if not remaining:
        return [
            DecompositionLeaf(
                multiindex=(),
                leaf_dim=dim,
                mult_dim=dim,
                slot_twists=dict(symbols),
                unit_ops=dict(peeled),
                intertwiner=identity(dim),
            )
        ]

    eps = tol.eps
    first = remaining[0]
    rest = remaining[1:]
    others = rest + sorted(peeled)
    hw = hw_decompose(ops[first], tol)
    leaves: list[DecompositionLeaf] = []

    if hw.unitary_dim:
        basis = hw.unitary_basis.basis
        here = f"{path}/u"
        sub_ops = {}
        for n in rest:
            _check_reducing(ops[n], basis, eps, f"{here}: operator {n}")
            sub_ops[n] = adjoint(basis) @ ops[n] @ basis
        sub_peeled = {
            n: _compress_unitary(t, basis, eps, f"{here}: unitary remainder {n}")
            for n, t in peeled.items()
        }
        sub_peeled[first] = hw.unitary_op
        sub_twists = {
            key: _compress_unitary(u, basis, eps, f"{here}: twist {key}")
            for key, u in twists.items()
        }
        sub_symbols = {
            key: _compress_unitary(s, basis, eps, f"{here}: slot twist {key}")
            for key, s in symbols.items()
        }
        for sub in _decompose_rec(
            rest, sub_ops, sub_peeled, sub_twists, sub_symbols, hw.unitary_dim, tol, here
        ):
            leaves.append(
                DecompositionLeaf(
                    multiindex=("u",) + sub.multiindex,
                    leaf_dim=sub.leaf_dim,
                    mult_dim=sub.mult_dim,
                    slot_twists=sub.slot_twists,
                    unit_ops=sub.unit_ops,
                    intertwiner=basis @ sub.intertwiner,
                )
            )

    at = hw.unitary_dim
    for block in hw.truncated_blocks:
        p, mult = block.p, block.mult
        here = f"{path}/p={p}"
        wp = hw.intertwiner[:, at : at + p * mult]
        at += p * mult

        def down_twistlike(u, what):
            return _factor_out_identity(
                _compress_unitary(u, wp, eps, what), p, mult, eps, what
            )

        sub_ops: dict[int, np.ndarray] = {}
        sub_peeled: dict[int, np.ndarray] = {}
        sub_symbols = {
            key: down_twistlike(s, f"{here}: slot twist {key}") for key, s in symbols.items()
        }
        for n in others:
            carried = ops[n] if n in ops else peeled[n]
            _check_reducing(carried, wp, eps, f"{here}: operator {n}")
            restricted = adjoint(wp) @ carried @ wp
            ambient = down_twistlike(
                _pair_lookup(twists, first, n), f"{here}: twist ({first}, {n})"
            )
            u_n, v_tilde = extract_twist_factor(restricted, p, mult, tol, ambient_twist=ambient)
            sub_symbols[(first, n)] = u_n
            if n in ops:
                sub_ops[n] = v_tilde
            else:
                sub_peeled[n] = v_tilde
        sub_twists = {
            key: down_twistlike(u, f"{here}: twist {key}") for key, u in twists.items()
        }
        for sub in _decompose_rec(
            rest, sub_ops, sub_peeled, sub_twists, sub_symbols, mult, tol, here
        ):
            leaves.append(
                DecompositionLeaf(
                    multiindex=(p,) + sub.multiindex,
                    leaf_dim=p * sub.leaf_dim,
                    mult_dim=sub.mult_dim,
                    slot_twists=sub.slot_twists,
                    unit_ops=sub.unit_ops,
                    intertwiner=wp @ kron(identity(p), sub.intertwiner),
                )
            )
    return leaves


def _leaf_sort_key(leaf: DecompositionLeaf) -> tuple:
    # numeric entries sort ascending, "u" after every shift order
    return tuple((1,) if e == "u" else (0, e) for e in leaf.multiindex)


def _classify(leaves: list[DecompositionLeaf]) -> PartitionReport:
    per_leaf = [
        {n: e for n, e in enumerate(leaf.multiindex, 1)} for leaf in leaves
    ]
    global_assignment = per_leaf[0] if per_leaf else None
    for assignment in per_leaf[1:]:
        if assignment != global_assignment:
            global_assignment = None
            break
    return PartitionReport(
        per_leaf=per_leaf,
        global_assignment=dict(global_assignment) if global_assignment else None,
    )


def decompose_tuple(t: TwistedTuple, tol: Tolerance = DEFAULT_TOL) -> DecompositionTree:
    """Recursive decomposition of a twisted tuple into multiindexed leaves.

    The caller is expected to have run `verify_twisted` first; structural
    failures inside the recursion (non-reducing subspaces, missing tensor
    factors, bad block ratios) raise `DecompositionError` naming the leaf
    path and stage. On success, conjugating the block-diagonal leaf models
    by the global intertwiner reproduces every operator within eps, and
    that residual is stored in the tree.
    """
    leaves = _decompose_rec(
        remaining=list(range(1, t.n_ops + 1)),
        ops={n: t.ops[n - 1] for n in range(1, t.n_ops + 1)},
        peeled={},
        twists=dict(t.twists),
        symbols={},
        dim=t.dim,
        tol=tol,
        path="",
    )
    leaves.sort(key=_leaf_sort_key)

    total = sum(leaf.leaf_dim for leaf in leaves)
    if total != t.dim:
        raise DecompositionError(f"leaf dimensions sum to {total}, ambient is {t.dim}")
    g = np.hstack([leaf.intertwiner for leaf in leaves])
    g_defect = adjoint(g) @ g - identity(t.dim)
    if not _norm_within(g_defect, tol.eps):
        raise DecompositionError(f"global intertwiner is not unitary (residual {op_norm(g_defect):.3e})")

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
    """A unitary on the multiplicity space conjugating leaf1 data to leaf2."""
    m = leaf1.mult_dim
    pairs = [(leaf1.unit_ops[n], leaf2.unit_ops[n]) for n in sorted(leaf1.unit_ops)]
    pairs += [
        (leaf1.slot_twists[key], leaf2.slot_twists[key]) for key in sorted(leaf1.slot_twists)
    ]
    if not pairs:
        return identity(m)
    # X A1 = A2 X and X A1* = A2* X for every pair
    closed = [b for a1, a2 in pairs for b in ((a1, a2), (adjoint(a1), adjoint(a2)))]
    solutions = nullspace(_sylvester_stack(closed), tol)
    if solutions.dim == 0:
        return None
    basis = [solutions.basis[:, r].reshape(m, m) for r in range(solutions.dim)]
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

    by_index1 = {leaf.multiindex: leaf for leaf in tree1.leaves}
    by_index2 = {leaf.multiindex: leaf for leaf in tree2.leaves}
    spectral_gate = max(1e-6, 100 * tol.eps)
    for index, leaf1 in by_index1.items():
        leaf2 = by_index2[index]
        for n in sorted(leaf1.unit_ops):
            gap = _spectral_mismatch(leaf1.unit_ops[n], leaf2.unit_ops[n])
            if gap > spectral_gate:
                return EquivalenceResult(
                    "NOT_EQUIVALENT",
                    f"unitary-part spectra differ at leaf {index}, operator {n} (gap {gap:.3e})",
                )

    blocks: list[np.ndarray] = []
    for index, leaf1 in by_index1.items():
        leaf2 = by_index2[index]
        match = _match_leaf_unitary(leaf1, leaf2, tol)
        if match is None:
            return EquivalenceResult(
                "INCONCLUSIVE",
                f"invariants agree but no verified multiplicity match at leaf {index}",
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
