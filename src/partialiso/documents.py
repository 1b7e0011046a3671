"""JSON document schemas for tuples, model specs and reports.

Matrices travel as row-major nested arrays of [re, im] pairs; documents
carry schema_version "1". Serialization goes through a canonical emitter
(insertion-ordered keys, floats at 17 significant digits) so reports are
byte-identical across repeated runs.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import ModelSpec, TwistedTuple

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "dumps_canonical",
    "matrix_from_json",
    "matrix_to_json",
    "parse_model_spec_document",
    "parse_tuple_document",
    "tuple_document",
]

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    """A document failed validation; the message names the offending field."""


# ---------------------------------------------------------------------------
# canonical JSON


def dumps_canonical(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("cannot serialize non-finite float")
        parts.append(format(value, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                parts.append(",")
            if not isinstance(key, str):
                raise ValueError(f"document keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(":")
            _emit(value, parts)
        parts.append("}")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in m
    ]


def matrix_from_json(obj, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise SchemaError(f"{where}[{i}][{j}]: expected a [re, im] pair of numbers")
            out[i, j] = complex(entry[0], entry[1])
    if not np.isfinite(out).all():
        raise SchemaError(f"{where}: matrix contains non-finite entries")
    return out


def _require_key(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return obj[key]


def _check_version(doc, where: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    version = _require_key(doc, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schema_version {version!r}")


def _parse_twists(items, n: int, dim: int, where: str) -> dict[tuple[int, int], np.ndarray]:
    """Twist entries {"i", "j", "matrix"} with integer 1 <= i < j <= n, each pair once."""
    twists: dict[tuple[int, int], np.ndarray] = {}
    for k, item in enumerate(items):
        at = f"{where}[{k}]"
        i = _require_key(item, "i", at)
        j = _require_key(item, "j", at)
        for label, value in (("i", i), ("j", j)):
            if type(value) is not int:
                raise SchemaError(f"{at}.{label}: expected an integer")
        if not (1 <= i < j <= n):
            raise SchemaError(f"{at}: indices ({i}, {j}) must satisfy 1 <= i < j <= {n}")
        if (i, j) in twists:
            raise SchemaError(f"{at}: duplicate twist pair ({i}, {j})")
        twists[(i, j)] = matrix_from_json(
            _require_key(item, "matrix", at), dim, dim, f"{at}.matrix"
        )
    return twists


# ---------------------------------------------------------------------------
# tuple documents


def tuple_document(
    t: TwistedTuple,
    names: list[str] | None = None,
    metadata: dict | None = None,
) -> dict:
    if names is None:
        names = [f"V{k}" for k in range(1, t.n_ops + 1)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": t.dim,
        "operators": [
            {"name": name, "matrix": matrix_to_json(op)}
            for name, op in zip(names, t.ops)
        ],
        "twists": [
            {"i": i, "j": j, "matrix": matrix_to_json(t.twists[(i, j)])}
            for (i, j) in t.pair_keys()
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def parse_tuple_document(doc) -> tuple[TwistedTuple, list[str]]:
    _check_version(doc, "document")
    dim = _require_key(doc, "dim", "document")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("document.dim: expected a positive integer")
    operators = _require_key(doc, "operators", "document")
    if not isinstance(operators, list) or not operators:
        raise SchemaError("document.operators: expected a non-empty list")
    names: list[str] = []
    ops: list[np.ndarray] = []
    for k, item in enumerate(operators):
        where = f"document.operators[{k}]"
        name = _require_key(item, "name", where)
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}.name: expected a non-empty string")
        if name in names:
            raise SchemaError(f"{where}.name: duplicate operator name {name!r}")
        names.append(name)
        ops.append(matrix_from_json(_require_key(item, "matrix", where), dim, dim, f"{where}.matrix"))
    twists = _parse_twists(doc.get("twists", []), len(ops), dim, "document.twists")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("document.metadata: expected an object")
    return TwistedTuple(dim=dim, ops=ops, twists=twists), names


# ---------------------------------------------------------------------------
# model spec documents


def parse_model_spec_document(doc) -> ModelSpec:
    _check_version(doc, "spec")
    slots = _require_key(doc, "slots", "spec")
    if not isinstance(slots, list) or not slots:
        raise SchemaError("spec.slots: expected a non-empty list")
    kinds: list[object] = []
    for k, entry in enumerate(slots):
        if entry == "u":
            kinds.append("u")
        elif isinstance(entry, int) and not isinstance(entry, bool) and entry >= 1:
            kinds.append(entry)
        else:
            raise SchemaError(f"spec.slots[{k}]: expected a positive integer or \"u\"")
    aux_dim = _require_key(doc, "aux_dim", "spec")
    if not isinstance(aux_dim, int) or isinstance(aux_dim, bool) or aux_dim < 1:
        raise SchemaError("spec.aux_dim: expected a positive integer")
    n = len(kinds)
    twist_data = _parse_twists(doc.get("twists", []), n, aux_dim, "spec.twists")
    slot_unitaries: dict[int, np.ndarray] = {}
    for k, item in enumerate(doc.get("slot_unitaries", [])):
        where = f"spec.slot_unitaries[{k}]"
        slot = _require_key(item, "slot", where)
        if type(slot) is not int or not (1 <= slot <= n) or kinds[slot - 1] != "u":
            raise SchemaError(f"{where}.slot: must name a unitary slot")
        if slot in slot_unitaries:
            raise SchemaError(f"{where}: duplicate slot {slot}")
        slot_unitaries[slot] = matrix_from_json(
            _require_key(item, "matrix", where), aux_dim, aux_dim, f"{where}.matrix"
        )
    for slot, kind in enumerate(kinds, 1):
        if kind == "u" and slot not in slot_unitaries:
            raise SchemaError(f"spec.slot_unitaries: unitary slot {slot} has no matrix")
    try:
        return ModelSpec(
            slot_kinds=kinds,
            aux_dim=aux_dim,
            twist_data=twist_data,
            slot_unitaries=slot_unitaries,
        )
    except ValueError as exc:
        raise SchemaError(f"spec: {exc}") from exc


def model_spec_document(spec: ModelSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "slots": list(spec.slot_kinds),
        "aux_dim": spec.aux_dim,
        "twists": [
            {"i": i, "j": j, "matrix": matrix_to_json(u)}
            for (i, j), u in sorted(spec.twist_data.items())
        ],
        "slot_unitaries": [
            {"slot": slot, "matrix": matrix_to_json(u)}
            for slot, u in sorted(spec.slot_unitaries.items())
        ],
    }
