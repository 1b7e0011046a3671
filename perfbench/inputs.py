"""Seeded inputs for the four workloads, each with its ground truth.

A workload's structure is fixed: the operator shapes and model specs of
its items, which items are invalid, and which run the equivalence check
are drawn once from ``STRUCTURE_SEED``. The workload seed draws every
random unitary: the unitary parts, the hiding conjugations, the scalar
twists of the example-4.3 pairs and the perturbation directions. So the
seed changes every matrix the program sees while the amount of work in a
pass stays the same, which keeps runs with different seeds comparable.

The expected outcome of each item is known from the generator, never
from the program under test. partialiso functions are looked up on the
package at call time, so that a tracer installed later sees these calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag

import partialiso as pi
from checks import leaf_key
from partialiso import ModelSpec, TwistedTuple

STRUCTURE_SEED = 2211_07753
# Items per pass. Tuples cost about ten times more than single operators;
# fewer of them give each one more passes, so its best time is steadier.
SINGLE_LEN = 100
TUPLE_LEN = 40
# Far above the default eps of 1e-9, so a perturbed input must be rejected.
PERTURBATION = 1e-6
# Example-4.3 pairs (d = 2p^2) on the ladder, and where the costlier checks stop.
LADDER_P = tuple(range(2, 9))
PROJECTION_CHECK_MAX_DIM = 50
COMMUTANT_DIMS = (8, 18, 32)
# random_model_spec seeds whose specs have N = 3, d = 72 and N = 4, d = 96.
LADDER_SPECS = ((9, 3), (49, 4))


def merged_leaves(specs: list[ModelSpec]) -> list:
    """Expected leaves of a direct sum: multiplicities add per multiindex."""
    merged: dict[tuple, int] = {}
    for spec in specs:
        key = tuple(spec.slot_kinds)
        merged[key] = merged.get(key, 0) + spec.aux_dim
    return sorted(merged.items(), key=leaf_key)


def model_dim(spec: ModelSpec) -> int:
    return prod(k for k in spec.slot_kinds if k != "u") * spec.aux_dim


def first_operator_truth(spec: ModelSpec) -> tuple[int, list]:
    """(unitary_dim, blocks) of V_1 in a model tuple.

    A unitary slot makes V_1 unitary; a shift slot of order p makes it
    J_p tensored with an identity, one block of order p.
    """
    d = model_dim(spec)
    kind = spec.slot_kinds[0]
    if kind == "u":
        return d, []
    return 0, [(kind, d // kind)]


def _perturb(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return m + PERTURBATION * e / pi.op_norm(e)


# ---------------------------------------------------------------------------
# single-stream


# A partial isometry on C^3 whose square is not one: columns e_3, 0,
# (e_1 + e_2) / sqrt(2). Summed with a valid operator it fails at power 2.
NON_PPI_3D = np.zeros((3, 3), dtype=complex)
NON_PPI_3D[2, 0] = 1.0
NON_PPI_3D[0, 2] = NON_PPI_3D[1, 2] = 1.0 / np.sqrt(2.0)


@dataclass
class SingleItem:
    matrix: np.ndarray
    expected: dict


def single_structure() -> list[tuple[str, int, list]]:
    """(role, unitary dim, blocks) per item, shaped like random_hw_instance.

    One item in ten is a perturbed valid operator and one in ten carries a
    non-power-partial-isometry summand: 20% must be rejected.
    """
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    for i in range(SINGLE_LEN):
        u_dim = int(rng.integers(0, 7))
        n_blocks = int(rng.integers(0, 4))
        if u_dim == 0 and n_blocks == 0:
            n_blocks = 1
        blocks = [(int(rng.integers(1, 6)), int(rng.integers(1, 4))) for _ in range(n_blocks)]
        role = {4: "perturbed", 9: "non_ppi"}.get(i % 10, "valid")
        out.append((role, u_dim, blocks))
    return out


def single_stream(seed: int) -> list[SingleItem]:
    items = []
    for i, (role, u_dim, blocks) in enumerate(single_structure()):
        rng = np.random.default_rng([seed, i])
        parts = [pi.haar_unitary(u_dim, rng)] if u_dim else []
        parts += [pi.kron(pi.truncated_shift(p), np.eye(m)) for p, m in blocks]
        if role == "non_ppi":
            parts.append(NON_PPI_3D)
        v = block_diag(*parts).astype(complex)
        w = pi.haar_unitary(v.shape[0], rng)
        v = w @ v @ w.conj().T
        if role == "perturbed":
            v = _perturb(v, rng)
        if role == "valid":
            merged: dict[int, int] = {}
            for p, m in blocks:
                merged[p] = merged.get(p, 0) + m
            expected = {"accept": True, "unitary_dim": u_dim, "blocks": sorted(merged.items())}
        else:
            expected = {"accept": False}
        items.append(SingleItem(v, expected))
    return items


# ---------------------------------------------------------------------------
# tuple-stream


@dataclass
class TupleItem:
    tuple: TwistedTuple
    expected: dict
    equivalent: TwistedTuple | None = None
    inequivalent: TwistedTuple | None = None


def tuple_structure() -> list[tuple[str, list[ModelSpec]]]:
    """(role, summand specs) per item, shaped like acceptance criterion 6.

    N <= 4, one summand (60%) or two, each summand d <= 32 and the sum
    d <= 64. One item in five is perturbed; one in ten also runs the
    equivalence check.
    """
    rng = np.random.default_rng(STRUCTURE_SEED + 1)
    out = []
    for i in range(TUPLE_LEN):
        n_ops = int(rng.integers(1, 5))
        n_summands = 1 if rng.random() < 0.6 else 2
        specs: list[ModelSpec] = []
        total = 0
        while len(specs) < n_summands:
            spec = pi.random_model_spec(int(rng.integers(2**31)), n_ops=n_ops, max_p=3, max_aux=2)
            d = model_dim(spec)
            if d <= 32 and total + d <= 64:
                specs.append(spec)
                total += d
        role = "perturbed" if i % 5 == 4 else "equiv" if i % 10 == 0 else "valid"
        out.append((role, specs))
    return out


def _partner_spec(n_ops: int, dim: int, leaves: list, rng: np.random.Generator) -> ModelSpec:
    """A valid spec with the same N and d but different leaf invariants.

    N commuting unitaries on C^d (one leaf (u, ..., u) of multiplicity d),
    or N zero operators when that would repeat the original leaves.
    """
    if leaves == [(("u",) * n_ops, dim)]:
        return ModelSpec(slot_kinds=[1] * n_ops, aux_dim=dim)
    unitaries = pi.random_commuting_unitaries(dim, n_ops, int(rng.integers(2**31)))
    return ModelSpec(
        slot_kinds=["u"] * n_ops,
        aux_dim=dim,
        slot_unitaries={i: u for i, u in enumerate(unitaries, 1)},
    )


def tuple_stream(seed: int) -> list[TupleItem]:
    items = []
    for i, (role, specs) in enumerate(tuple_structure()):
        rng = np.random.default_rng([seed, i])
        summands = [pi.build_model_tuple(spec) for spec in specs]
        model = summands[0] if len(summands) == 1 else pi.direct_sum_tuples(*summands)
        hidden = pi.conjugate_tuple(model, pi.haar_unitary(model.dim, rng))
        leaves = merged_leaves(specs)
        item = TupleItem(hidden, {"verify": True, "leaves": leaves})
        if role == "perturbed":
            ops = list(hidden.ops)
            k = int(rng.integers(len(ops)))
            ops[k] = _perturb(ops[k], rng)
            item.tuple = TwistedTuple(dim=hidden.dim, ops=ops, twists=hidden.twists)
            item.expected = {"verify": False}
        elif role == "equiv":
            item.equivalent = pi.conjugate_tuple(model, pi.haar_unitary(model.dim, rng))
            partner = pi.build_model_tuple(_partner_spec(model.n_ops, model.dim, leaves, rng))
            item.inequivalent = pi.conjugate_tuple(partner, pi.haar_unitary(model.dim, rng))
            item.expected["verdicts"] = ["EQUIVALENT", "NOT_EQUIVALENT"]
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# dim-ladder


@dataclass
class Rung:
    name: str
    tuple: TwistedTuple
    expected: dict
    repeat: int = 1


def _lambda(rng: np.random.Generator) -> complex:
    # non-real, so the example-4.3 twist has two distinct eigenvalues and
    # the star-closed commutant has dimension 2
    return complex(np.exp(2j * np.pi * rng.uniform(0.05, 0.45)))


def ladder(seed: int) -> list[Rung]:
    """Example 4.3 at p = 2..8 (d = 8..128) and two model tuples.

    Left out: model tuples at d = 216 and 324, where verify_twisted alone
    took 21 s and 34.6 s on a 2-vCPU Xeon guest.
    """
    rng = np.random.default_rng([seed, 43])
    rungs = []
    for p in LADDER_P:
        pair = pi.build_twisted_shift_pair(p, _lambda(rng))
        hidden = pi.conjugate_tuple(pair, pi.haar_unitary(pair.dim, rng))
        d = pair.dim
        expected = {
            "verify": True,
            "leaves": [((p, p), 2)],
            "hw": (0, [(p, 2 * p)]),
            "projection_check": d <= PROJECTION_CHECK_MAX_DIM,
            "commutant": 2 if d in COMMUTANT_DIMS else None,
        }
        rungs.append(Rung(f"example43 p={p} d={d}", hidden, expected))
    for spec_seed, n_ops in LADDER_SPECS:
        spec = pi.random_model_spec(spec_seed, n_ops=n_ops)
        model = pi.build_model_tuple(spec)
        hidden = pi.conjugate_tuple(model, pi.haar_unitary(model.dim, rng))
        expected = {
            "verify": True,
            "leaves": merged_leaves([spec]),
            "hw": first_operator_truth(spec),
            "projection_check": False,
            "commutant": None,
        }
        rungs.append(Rung(f"model N={n_ops} d={model.dim}", hidden, expected))
    for rung in rungs:
        # The d = 32 commutant (about 8 s) and the rungs from d = 96 up fill
        # most of a pass; the cheaper rungs run three times per pass, so
        # their best time is steady on a noisy machine.
        d = rung.tuple.dim
        rung.repeat = 1 if d == 32 or d >= 96 else 3
    rungs.sort(key=lambda r: r.tuple.dim)
    return rungs


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliItem:
    name: str
    argv: list[str]
    expected: dict
    inputs: list[Path]
    output: Path


def _generate_argv(p: int, lam: complex, scramble_seed: int, output: Path) -> list[str]:
    # the "=" form keeps argparse from reading a negative real part as a flag
    return [
        "generate", "--preset", "example43", "--p", str(p),
        f"--lambda={lam.real!r},{lam.imag!r}", "--scramble", "--seed", str(scramble_seed),
        "--output", str(output),
    ]


def cli_documents(seed: int, directory: Path) -> tuple[list[list[str]], tuple[Path, Path], list[CliItem]]:
    """The generate calls that build the documents, the (source, target)
    of the perturbed copy, and the timed CLI items.

    Documents are example-4.3 pairs at d = 8, 18 and 50, a second
    scramble of the d = 8 and 18 pairs for `equiv`, and a perturbed d = 8
    document that `verify` must fail with exit code 1 (see
    `perturb_document`). The commutant of the d = 50 document is left out:
    it took 69 s and 4.9 GB of memory on a 2-vCPU Xeon guest.
    """
    rng = np.random.default_rng([seed, 50])
    lams = {p: _lambda(rng) for p in (2, 3, 5)}
    docs: dict[str, Path] = {}
    setup: list[list[str]] = []
    for p, suffix in ((2, ""), (3, ""), (5, ""), (2, "b"), (3, "b")):
        key = f"d{2 * p * p}{suffix}"
        docs[key] = directory / f"{key}.json"
        setup.append(_generate_argv(p, lams[p], int(rng.integers(2**31)), docs[key]))
    docs["bad"] = directory / "d8-perturbed.json"

    items: list[CliItem] = []

    def add(name: str, argv: list[str], expected: dict, inputs: list[Path]) -> None:
        if argv[0] == "generate":
            output = Path(argv[-1])
        else:
            output = directory / f"{name.replace(' ', '-').replace('=', '')}.out.json"
            argv = argv + ["--output", str(output)]
        items.append(CliItem(name, argv, expected, inputs, output))

    for p in (2, 3):
        d = 2 * p * p
        argv = _generate_argv(p, lams[p], int(rng.integers(2**31)), directory / f"gen-d{d}.json")
        add(f"generate d={d}", argv, {"exit": 0, "generated_dim": d}, [])
    for p in (2, 3, 5):
        d = 2 * p * p
        doc = docs[f"d{d}"]
        add(f"verify d={d}", ["verify", str(doc)], {"exit": 0, "pass": True}, [doc])
        add(f"decompose d={d}", ["decompose", str(doc)],
            {"exit": 0, "pass": True, "leaves": [((p, p), 2)]}, [doc])
        if p == 5:
            continue
        add(f"hw d={d}", ["hw", str(doc), "--op", "V1"],
            {"exit": 0, "pass": True, "unitary_dim": 0, "blocks": [(p, 2 * p)]}, [doc])
        other = docs[f"d{d}b"]
        add(f"equiv d={d}", ["equiv", str(doc), str(other)], {"exit": 0, "verdict": "EQUIVALENT"}, [doc, other])
        add(f"commutant d={d}", ["commutant", str(doc)], {"exit": 0, "dimension": 2}, [doc])
    add("verify perturbed d=8", ["verify", str(docs["bad"])], {"exit": 1, "pass": False}, [docs["bad"]])
    return setup, (docs["d8"], docs["bad"]), items


def perturb_document(source: Path, target: Path, seed: int) -> None:
    """Copy a tuple document with one entry of V1 moved by PERTURBATION."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    rng = np.random.default_rng([seed, 51])
    matrix = doc["operators"][0]["matrix"]
    i, j = (int(x) for x in rng.integers(len(matrix), size=2))
    matrix[i][j][0] += PERTURBATION
    target.write_text(json.dumps(doc), encoding="utf-8")
