"""The benchmark's definition; `python3 perfbench/run.py --write-spec` writes it to BENCHMARK.json.

Per-layer metrics name the layer (a partialiso module, or `kernel` for
numpy.linalg under it) and the function, then the quantity:

- ``.calls`` spans per pass, ``.errors`` spans that raised, ``.rejects``
  verify_twisted reports that did not pass;
- ``.s`` inclusive seconds per pass, ``.self_s`` the same minus child spans;
- ``kernel.svd.flops`` flops computed from operand shapes,
  ``linalg.nullspace.max_bytes`` the largest operand in bytes;
- ``halmos_wallen.multiplicity_space.nonempty_ratio`` calls returning a
  nonzero space over all calls (the ladder is rebuilt for every p);
- ``operators.power_isometry_residual.op_norm_calls`` op_norm spans below it;
- ``operators.build.s`` the input builders while the workload's inputs
  are built; ``documents.bytes_in`` and ``bytes_out`` the document bytes
  the CLI items read and emit; ``cli.import_s`` the wall time of
  ``python -c "import partialiso"``; ``cli.<subcommand>.s`` the
  in-process `main` of each subcommand; ``trace.overhead_s`` the traced
  minus the untraced pass time.

Counts are per pass of the workload's fixed item list, so they repeat
exactly for a seed. A layer that a workload does not run reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = [
    {"name": "single-stream",
     "why": "Scrambled single operators, 20% invalid, through is_power_partial_isometry and hw_decompose: per-call "
            "overhead in halmos_wallen, operators and linalg; twisted does no work"},
    {"name": "tuple-stream",
     "why": "Scrambled model tuples and direct sums (N<=4, d<=64), 20% perturbed: verify_twisted, the "
            "decompose_tuple recursion and equivalence_check; no commutant"},
    {"name": "dim-ladder",
     "why": "Dense flop-bound kernels, d=8..128. Left out until the power ladder and commutant are fixed: "
            "d=216 and 324 tuples, where verify_twisted took 21 s and 34.6 s"},
    {"name": "cli",
     "why": "python -m partialiso processes on generated d=8/18/50 documents: start-up, import and JSON cost. "
            "Left out: commutant at d=50 (69 s, 4.9 GB peak RSS)"},
]

# Timings get the widest bound allowed. On a shared 2-vCPU KVM guest the
# CPU speed drifts by up to 1.6 times over seconds to minutes, and the
# quartile spread of ten runs reached 20% on tuple-stream and 10% on cli
# and dim-ladder even with each item's best time over the run (README).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _function(layer: str, function: str, *quantities: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s", "errors": "count", "rejects": "count",
             "flops": "flop", "max_bytes": "B", "nonempty_ratio": "ratio", "op_norm_calls": "count"}
    return [(f"{layer}.{function}.{q}", units[q]) for q in quantities]


PER_LAYER_UNITS: list[tuple[str, str]] = [
    *_function("kernel", "svd", "calls", "s", "flops"),
    *_function("linalg", "op_norm", "calls", "s"),
    *_function("linalg", "orthonormal_range", "calls", "s"),
    *_function("linalg", "nullspace", "calls", "s", "max_bytes"),
    *_function("operators", "power_isometry_residual", "calls", "s", "op_norm_calls"),
    *_function("operators", "is_power_partial_isometry", "calls", "s"),
    *_function("operators", "unitarity_residual", "calls", "s"),
    ("operators.build.s", "s"),
    *_function("halmos_wallen", "hw_decompose", "calls", "s", "self_s", "errors"),
    *_function("halmos_wallen", "stable_range_projection", "calls", "s"),
    *_function("halmos_wallen", "multiplicity_space", "calls", "s", "nonempty_ratio"),
    *_function("halmos_wallen", "truncated_block_projection", "calls", "s"),
    *_function("twisted", "verify_twisted", "calls", "s", "rejects"),
    *_function("twisted", "decompose_tuple", "calls", "s", "self_s", "errors"),
    *_function("twisted", "extract_twist_factor", "calls", "s"),
    *_function("twisted", "equivalence_check", "calls", "s"),
    *_function("twisted", "commutant_dimension", "calls", "s"),
    *_function("twisted", "check_projection_commutation", "calls", "s"),
    ("documents.parse_tuple_document.s", "s"),
    ("documents.dumps_canonical.s", "s"),
    ("documents.bytes_in", "B"),
    ("documents.bytes_out", "B"),
    ("cli.import_s", "s"),
    *((f"cli.{sub}.s", "s") for sub in ("verify", "hw", "decompose", "equiv", "commutant", "generate")),
    ("trace.overhead_s", "s"),
]

# Quantities that must repeat exactly across traced runs with one seed.
EXACT = ("calls", "errors", "rejects", "flops", "max_bytes", "op_norm_calls")

RUN_SECONDS = 10


def benchmark() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": _better(name)} for name, unit in PER_LAYER_UNITS],
    }


def _better(name: str) -> str:
    return "higher" if name.endswith("nonempty_ratio") else "lower"


def render() -> str:
    return json.dumps(benchmark(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    return path
