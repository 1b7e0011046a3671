"""Command-line front end.

Subcommands: verify, hw, decompose, generate, commutant, equiv. Input and
output documents are JSON (see `partialiso.documents`); reports go to
--output or stdout. Exit codes: 0 success, 1 mathematical failure,
2 input or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import prod

import numpy as np

from .documents import (
    SCHEMA_VERSION,
    SchemaError,
    _parse_model_spec,
    _spec_shape,
    dumps_canonical,
    matrix_to_json,
    parse_tuple_document,
    tuple_document,
)
from .halmos_wallen import DecompositionError, hw_decompose
from .linalg import Tolerance
from .operators import (
    _relation_rows,
    build_model_tuple,
    build_twisted_shift_pair,
    conjugate_tuple,
    haar_unitary,
    is_power_partial_isometry,
)
from .twisted import (
    COMMUTANT_MAX_BYTES,
    CommutantTooLargeError,
    decompose_tuple,
    equivalence_check,
    verify_twisted,
)

__all__ = ["entry", "main"]

PRESETS = ("example43",)

# Relation rows a document may ask of `verify`: eight operators ask for 750.
MAX_RELATION_ROWS = 100_000


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, and an integer past the 4300 digits int() reads
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} nests deeper than the parser can follow") from exc


def _require_rows_fit(n_ops: int) -> None:
    rows = _relation_rows(n_ops)
    if rows > MAX_RELATION_ROWS:
        raise SchemaError(
            f"{n_ops} operators ask for {rows} relation rows, above the {MAX_RELATION_ROWS} limit"
        )


def _load_tuple(path: str):
    doc = _load_json(path)
    # refused before the parser builds a twist for every pair
    operators = doc.get("operators") if isinstance(doc, dict) else None
    if isinstance(operators, list):
        _require_rows_fit(len(operators))
    return parse_tuple_document(doc)


def _load_spec(path: str):
    doc = _load_json(path)
    # refused before the spec fills in an aux_dim x aux_dim twist for every pair
    kinds, aux_dim = _spec_shape(doc)
    _require_rows_fit(len(kinds))
    _require_generate_fits(len(kinds), prod(k for k in kinds if k != "u") * aux_dim)
    return _parse_model_spec(doc, kinds, aux_dim)


def _write(args, code: int, fields: dict) -> int:
    """Emit one report to --output or stdout and return the exit code ``code``.

    `generate` emits ``fields``, its tuple document, as it is. Every other subcommand
    emits the report skeleton followed by ``fields`` in their order; its "timing" stays
    null unless --timing stamps it at this moment.
    """
    doc = fields
    if args.command != "generate":
        timing = time.perf_counter() - args.started if args.timing else None
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, "tolerance": args.tol,
               "timing": timing, **fields}
    text = dumps_canonical(doc) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return code


def _verify(t, tol: Tolerance):
    # a residual that is not finite puts an operator far outside the norm-O(1) scope; a
    # passing verdict proves every residual finite, so only a failing one forms the values
    report = verify_twisted(t, tol)
    if not report.passed:
        key, value = report.worst()
        if not np.isfinite(value):
            raise SchemaError(f"relation {key[0]} {list(key[1:])} has a non-finite residual")
    return report


def _row(key: tuple, value: float) -> dict:
    return {"kind": key[0], "indices": list(key[1:]), "value": value}


def _sorted_eigenvalues(matrix: np.ndarray) -> list:
    values = np.sort_complex(np.linalg.eigvals(matrix))
    return [[float(v.real), float(v.imag)] for v in values]


def _partition_json(partition) -> dict:
    per_leaf = [
        {str(n): label for n, label in sorted(assignment.items())}
        for assignment in partition.per_leaf
    ]
    if partition.global_assignment is None:
        global_part = None
        classes = None
    else:
        global_part = {str(n): label for n, label in sorted(partition.global_assignment.items())}
        classes = partition.classes()
    return {"per_leaf": per_leaf, "global": global_part, "classes": classes}


def cmd_verify(args, tol: Tolerance) -> int:
    t, _ = _load_tuple(args.input)
    result = _verify(t, tol)
    return _write(args, 0 if result.passed else 1, {
        "pass": result.passed,
        "max_residual": result.max_residual,
        "worst": _row(*result.worst()),
        "residuals": [_row(*item) for item in result.residuals.items()],
    })


def cmd_hw(args, tol: Tolerance) -> int:
    t, names = _load_tuple(args.input)
    if args.op is None and t.n_ops != 1:
        raise SchemaError(f"--op is required; available operators: {', '.join(names)}")
    if args.op is not None and args.op not in names:
        raise SchemaError(f"no operator named {args.op!r}; available: {', '.join(names)}")
    name = names[0] if args.op is None else args.op
    v = t.ops[names.index(name)]
    ok, first_failing = is_power_partial_isometry(v, tol)
    if not ok:
        return _write(args, 1, {"operator": name, "pass": False, "first_failing_power": first_failing})
    try:
        hw = hw_decompose(v, tol)
    except DecompositionError as exc:
        return _write(args, 1, {"operator": name, "pass": False, "error": str(exc)})
    fields = {
        "operator": name,
        "pass": True,
        "ambient_dim": hw.ambient_dim,
        "unitary_dim": hw.unitary_dim,
        "unitary_eigenvalues": _sorted_eigenvalues(hw.unitary_op),
        "blocks": [{"p": b.p, "mult": b.mult} for b in hw.truncated_blocks],
        "residual": hw.residual,
    }
    if args.emit_intertwiner:
        fields["intertwiner"] = matrix_to_json(hw.intertwiner)
    return _write(args, 0, fields)


def _certified_tree(args, tol: Tolerance):
    """(tree, None) for the input tuple, or (None, the report fields of the stage that failed)."""
    t, _ = _load_tuple(args.input)
    verification = _verify(t, tol)
    if not verification.passed:
        return None, {"pass": False, "stage": "verify", "worst": _row(*verification.worst())}
    try:
        return decompose_tuple(t, tol), None
    except DecompositionError as exc:
        return None, {"pass": False, "stage": "decompose", "error": str(exc)}


def cmd_decompose(args, tol: Tolerance) -> int:
    tree, failure = _certified_tree(args, tol)
    if tree is None:
        return _write(args, 1, failure)
    leaves = []
    for leaf in tree.leaves:
        entry = {
            "multiindex": list(leaf.multiindex),
            "leaf_dim": leaf.leaf_dim,
            "mult_dim": leaf.mult_dim,
            "unit_ops": {
                str(n): matrix_to_json(u) for n, u in sorted(leaf.unit_ops.items())
            },
        }
        if args.emit_intertwiner:
            entry["intertwiner"] = matrix_to_json(leaf.intertwiner)
        leaves.append(entry)
    fields = {
        "pass": True,
        "ambient_dim": tree.ambient_dim,
        "n_operators": tree.n_ops,
        "residual": tree.residual,
        "leaves": leaves,
        "partition": _partition_json(tree.partition),
    }
    if args.emit_intertwiner:
        fields["global_intertwiner"] = matrix_to_json(tree.global_intertwiner)
    return _write(args, 0, fields)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("--lambda expects RE,IM")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SchemaError(f"--lambda expects two floats: {exc}") from exc


def _rounded_div(a: int, b: int) -> int:
    """a / b rounded half to even, in integers: the size of a huge spec is past the float range."""
    q, r = divmod(a, b)
    return q + (2 * r > b or 2 * r == b and q % 2)


def _figure(n: int) -> str:
    """``n`` in full below 10^1000, else to four significant digits: str() refuses an int of
    more than 4300 digits."""
    if n < 10**1000:
        return str(n)
    from decimal import Decimal

    return f"{Decimal(n):.3e}"


def _require_generate_fits(n_ops: int, dim: int) -> None:
    """Refuse a tuple whose operators and twists would pass COMMUTANT_MAX_BYTES."""
    size = (n_ops + n_ops * (n_ops - 1) // 2) * dim * dim * np.dtype(complex).itemsize
    if size > COMMUTANT_MAX_BYTES:
        # tenths of a GiB rounded half to even, as f"{size / 1024**3:.1f}" would
        tenths = _rounded_div(size * 10, 1024**3)
        gib = f"{tenths // 10}.{tenths % 10}" if tenths < 10**1000 else _figure(_rounded_div(size, 1024**3))
        raise SchemaError(
            f"{n_ops} operators at d = {_figure(dim)} need {gib} GiB with their twists, "
            f"above the {COMMUTANT_MAX_BYTES / 1024**3:.0f} GiB limit"
        )


def cmd_generate(args, tol: Tolerance) -> int:
    if args.spec is not None and args.preset is not None:
        raise SchemaError("use either --preset or --spec, not both")
    if args.scramble and args.seed < 0:
        raise SchemaError(f"--seed must be >= 0 with --scramble, got {args.seed}")
    if args.spec is not None:
        spec = _load_spec(args.spec)
        try:
            t = build_model_tuple(spec, tol)
        except ValueError as exc:
            raise SchemaError(f"spec violates the model relations: {exc}") from exc
        metadata = {"source": "model-spec"}
    elif args.preset is not None:
        if args.preset not in PRESETS:
            raise SchemaError(f"unknown preset {args.preset!r}; available: {', '.join(PRESETS)}")
        lam = _parse_complex_pair(args.lam)
        # two operators and one twist on C^{2p^2}; p < 1 is the builder's error
        _require_generate_fits(2, 2 * max(args.p, 1) ** 2)
        try:
            t = build_twisted_shift_pair(args.p, lam, tol)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        metadata = {"preset": args.preset, "p": args.p, "lambda": [lam.real, lam.imag]}
    else:
        raise SchemaError("generate needs --preset NAME or --spec PATH")
    metadata.update(seed=args.seed, scrambled=bool(args.scramble))
    if args.scramble:
        t = conjugate_tuple(t, haar_unitary(t.dim, args.seed))
    check = verify_twisted(t, Tolerance(eps=1e-9))
    if not check.passed:
        raise SchemaError(
            f"generated tuple failed self-verification (max residual {check.max_residual:.3e})"
        )
    return _write(args, 0, tuple_document(t, metadata=metadata))


def cmd_commutant(args, tol: Tolerance) -> int:
    tree, failure = _certified_tree(args, tol)
    if tree is None:
        return _write(args, 1, failure)
    dimension = tree.commutant_dimension(tol)
    return _write(args, 0, {"verify_pass": True, "dimension": dimension, "irreducible": dimension == 1})


def cmd_equiv(args, tol: Tolerance) -> int:
    t1, _ = _load_tuple(args.input1)
    t2, _ = _load_tuple(args.input2)
    for label, t in (("first", t1), ("second", t2)):
        verification = _verify(t, tol)
        if not verification.passed:
            return _write(args, 1, {
                "pass": False,
                "stage": "verify",
                "which": label,
                "max_residual": verification.max_residual,
            })
    try:
        result = equivalence_check(t1, t2, tol)
    except DecompositionError as exc:
        return _write(args, 1, {"pass": False, "stage": "decompose", "error": str(exc)})
    fields = {"verdict": result.verdict, "certificate": result.certificate, "residual": result.residual}
    if args.emit_intertwiner and result.intertwiner is not None:
        fields["intertwiner"] = matrix_to_json(result.intertwiner)
    return _write(args, 0, fields)


def _add_common(parser: argparse.ArgumentParser, jobs: bool = False) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="residual tolerance (default 1e-9)")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="accepted and ignored, so older command lines still parse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialiso",
        description="Verify and decompose twisted power partial isometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the twisted relations of a tuple document")
    p_verify.add_argument("input")
    _add_common(p_verify, jobs=True)
    p_verify.set_defaults(func=cmd_verify)

    p_hw = sub.add_parser("hw", help="decompose one operator into unitary and shift blocks")
    p_hw.add_argument("input")
    p_hw.add_argument("--op", default=None, help="operator name (required when several)")
    p_hw.add_argument("--emit-intertwiner", action="store_true")
    _add_common(p_hw)
    p_hw.set_defaults(func=cmd_hw)

    p_dec = sub.add_parser("decompose", help="full tuple decomposition into multiindexed leaves")
    p_dec.add_argument("input")
    p_dec.add_argument("--emit-intertwiner", action="store_true")
    _add_common(p_dec, jobs=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("generate", help="emit a tuple document from a preset or model spec")
    p_gen.add_argument("--preset", default=None, help=f"one of: {', '.join(PRESETS)}")
    p_gen.add_argument("--p", type=int, default=2, help="shift order for the preset")
    p_gen.add_argument("--lambda", dest="lam", default="0,1", metavar="RE,IM",
                       help="unimodular twist scalar for the preset")
    p_gen.add_argument("--spec", default=None, help="path to a model spec document")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--scramble", action="store_true",
                       help="conjugate by a seeded random unitary")
    p_gen.add_argument("--tol", type=float, default=1e-9)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_comm = sub.add_parser("commutant", help="commutant dimension and irreducibility")
    p_comm.add_argument("input")
    _add_common(p_comm)
    p_comm.set_defaults(func=cmd_commutant)

    p_eq = sub.add_parser("equiv", help="decide simultaneous unitary equivalence of two tuples")
    p_eq.add_argument("input1")
    p_eq.add_argument("input2")
    p_eq.add_argument("--emit-intertwiner", action="store_true")
    _add_common(p_eq)
    p_eq.set_defaults(func=cmd_equiv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise SchemaError(f"--tol must be positive and finite, got {args.tol}")
        return args.func(args, Tolerance(eps=args.tol))
    except (SchemaError, CommutantTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
