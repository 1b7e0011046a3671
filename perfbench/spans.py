"""Span tracing around partialiso's public functions, for the traced run.

`Tracer.install` replaces each wrapped function by a recording wrapper in
every partialiso module that holds a reference to it (the modules import
each other's functions by name), plus `numpy.linalg.svd` as the `kernel`
layer; `uninstall` puts the originals back. A span records its name,
start, end, parent span, item id, whether it raised, and one number the
layer metrics need (flops, bytes or an outcome flag). Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl

# Layer -> public functions wrapped. The small matrix helpers (identity,
# adjoint, kron, as_matrix, projection_onto) are left out: they run
# thousands of times per item and their spans would mostly time the tracer.
WRAPPED = {
    "linalg": ["op_norm", "op_norm_diff", "orthonormal_range", "nullspace"],
    "operators": [
        "build_model_tuple", "build_twisted_shift_pair", "conjugate_tuple", "diag_twist",
        "direct_sum_tuples", "haar_unitary", "is_partial_isometry", "is_power_partial_isometry",
        "permute_tuple", "power_isometry_residual", "random_commuting_unitaries",
        "random_model_spec", "unitarity_residual",
    ],
    "halmos_wallen": [
        "assert_no_shift_parts", "hw_decompose", "multiplicity_space",
        "stable_range_projection", "truncated_block_projection",
    ],
    "twisted": [
        "check_projection_commutation", "classify_partition", "commutant_dimension",
        "decompose_tuple", "equivalence_check", "extract_twist_factor", "is_irreducible",
        "leaf_model_operator", "verify_twisted",
    ],
    "documents": [
        "dumps_canonical", "matrix_from_json", "matrix_to_json", "parse_model_spec_document",
        "parse_tuple_document", "tuple_document",
    ],
    "cli": ["cmd_commutant", "cmd_decompose", "cmd_equiv", "cmd_generate", "cmd_hw", "cmd_verify"],
}
# The input builders whose outermost spans make up operators.build.s.
BUILDERS = {
    "operators.build_model_tuple", "operators.build_twisted_shift_pair",
    "operators.conjugate_tuple", "operators.direct_sum_tuples", "operators.haar_unitary",
    "operators.random_model_spec",
}

NAME, START, END, PARENT, ITEM, ERROR, VALUE = range(7)


def svd_flops(args, kwargs, result) -> int:
    """Real flops of an SVD from its operand shape (Golub and Van Loan).

    For an m x n operand with K = max(m, n) and k = min(m, n): values only
    4Kk^2 - 4k^3/3; thin factors 14Kk^2 + 8k^3; full factors
    4K^2k + 8Kk^2 + 9k^3. Complex operands count 4 real flops per
    complex one. A stacked operand multiplies by the stack size.
    """
    a = np.asarray(args[0])
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    if not compute_uv:
        flops = (12 * big * k * k - 4 * k**3) // 3
    elif full:
        flops = 4 * big * big * k + 8 * big * k * k + 9 * k**3
    else:
        flops = 14 * big * k * k + 8 * k**3
    if np.iscomplexobj(a):
        flops *= 4
    return int(flops * int(np.prod(a.shape[:-2], dtype=np.int64)))


def operand_bytes(args, kwargs, result) -> int:
    # nullspace works on a complex128 copy of its operand
    return int(np.prod(np.shape(args[0]), dtype=np.int64)) * 16


def _rejected(args, kwargs, result) -> int:
    return int(not result.passed)


def _nonempty(args, kwargs, result) -> int:
    return int(result.dim > 0)


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


VALUE_OF = {
    "kernel.svd": svd_flops,
    "linalg.nullspace": operand_bytes,
    "twisted.verify_twisted": _rejected,
    "halmos_wallen.multiplicity_space": _nonempty,
    "documents.dumps_canonical": _text_bytes,
}


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        value_of = VALUE_OF.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if value_of is not None:
                span[VALUE] = value_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        layers = {layer: importlib.import_module(f"partialiso.{layer}") for layer in WRAPPED}
        modules = [m for key, m in sys.modules.items() if key == "partialiso" or key.startswith("partialiso.")]
        targets = []
        for layer, names in WRAPPED.items():
            module = layers[layer]
            targets += [(f"{layer}.{name}", getattr(module, name), modules) for name in names]
        targets.append(("kernel.svd", np.linalg.svd, [np.linalg, np_linalg_impl]))
        for name, original, holders in targets:
            wrapper = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as [name, start_s, end_s, parent, item, error, value]."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], round(s[START] - origin, 7), round(s[END] - origin, 7), *s[PARENT:]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "item", "error", "value"],
                       "spans": rows}, handle, separators=(",", ":"))


def summarize(spans: list[list], first: int, last: int) -> dict[str, dict]:
    """Per-name totals over spans[first:last], one pass or one build.

    calls, errors and value (also its maximum) run over every span; ``s``
    sums the outermost span of each name (a nested span of the same name
    is already inside it); ``self_s`` subtracts direct children; ``under``
    counts, per name, the spans that have it as an ancestor.
    """
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "errors": 0, "value": 0, "max_value": 0,
                                                   "s": 0.0, "self_s": 0.0, "under": defaultdict(int)})
    child_time: dict[int, float] = defaultdict(float)
    for index in range(first, last):
        span = spans[index]
        if span[PARENT] >= first:
            child_time[span[PARENT]] += span[END] - span[START]
    for index in range(first, last):
        span = spans[index]
        entry = stats[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["errors"] += int(span[ERROR])
        entry["value"] += span[VALUE]
        entry["max_value"] = max(entry["max_value"], span[VALUE])
        entry["self_s"] += duration - child_time.get(index, 0.0)
        parent = span[PARENT]
        outermost = True
        seen = set()
        while parent >= first:
            ancestor = spans[parent][NAME]
            if ancestor == span[NAME]:
                outermost = False
            elif ancestor not in seen:
                seen.add(ancestor)
                stats[ancestor]["under"][span[NAME]] += 1
            parent = spans[parent][PARENT]
        if outermost:
            entry["s"] += duration
    return stats


def builder_seconds(spans: list[list], first: int, last: int) -> float:
    """Seconds in input builders over spans[first:last], nested builders counted once."""
    total = 0.0
    for index in range(first, last):
        span = spans[index]
        if span[NAME] not in BUILDERS:
            continue
        parent = span[PARENT]
        while parent >= first and spans[parent][NAME] not in BUILDERS:
            parent = spans[parent][PARENT]
        if parent < first:
            total += span[END] - span[START]
    return total
