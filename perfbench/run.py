"""Run one workload of the partialiso benchmark and print its metrics.

    python3 perfbench/run.py --workload single-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # each workload in its own process
    python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json

Run from a checkout: partialiso is imported from its ``src`` directory.
One process is one closed-loop caller with BLAS limited to at most two
threads. Set-up (import, inputs, warm-up) is measured in this process and
in two more started only for that, and the median is reported. The
workload then runs whole passes over its fixed item list until
``--seconds`` have passed, checking every answer against the ground truth.
Timings are taken from each item's best latency over the passes.

With ``--trace 0`` the end-to-end metrics are printed and nothing is
installed in the program. With ``--trace 1`` half the time runs untraced
and half traced, and the per-layer metrics are printed: counts per pass,
seconds averaged over the traced passes. Every result, with the machine
it ran on, is also written to ``.perfbench_out/``; the spans of a traced
run go beside it. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
NAMES = [w["name"] for w in spec.WORKLOADS]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def configure() -> None:
    """Pin BLAS threads before numpy loads, and import partialiso from the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int):
    """Import partialiso, build the inputs and warm up; (workload, seconds, warm-up results)."""
    started = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.build()
    warm = workload.warm_up()
    return workload, perf_counter() - started, warm


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh process."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


class Tally:
    """Items attempted and failed, with the first problems kept for the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_passes(workload, seconds: float, min_passes: int, tally: Tally, tracer=None):
    """Whole passes over the items until `seconds` have passed.

    A pass runs every item once, then again in later rounds for items
    whose `repeat` asks for more, so an item's runs are spread over the
    pass. There are at least `min_passes` passes. Returns each item's best
    latency over the run (None if any of its runs was wrong), the number
    of passes, and the span index at each pass boundary when tracing.
    """
    best: list[float | None] = [float("inf")] * len(workload.items)
    rounds = max(getattr(item, "repeat", 1) for item in workload.items)
    passes = 0
    bounds: list[int] = []
    started = perf_counter()
    while passes < min_passes or perf_counter() - started < seconds:
        if tracer is not None:
            bounds.append(len(tracer.spans))
        for round_ in range(rounds):
            for index, item in enumerate(workload.items):
                if getattr(item, "repeat", 1) <= round_:
                    continue
                if tracer is not None:
                    tracer.item = passes * len(workload.items) + index
                try:
                    problems, latency = workload.timed(item)
                except Exception as exc:  # a wrong outcome, recorded and counted
                    traceback.print_exc(file=sys.stderr)
                    problems, latency = [f"unexpected {type(exc).__name__}: {exc}"], 0.0
                tally.add(f"pass {passes} item {index}", problems)
                if problems:
                    best[index] = None
                elif best[index] is not None:
                    best[index] = min(best[index], latency)
        passes += 1
    if tracer is not None:
        bounds.append(len(tracer.spans))
    return best, passes, bounds


def end_to_end(workload, setups: list[float], best: list, passes: int) -> tuple[dict, dict]:
    """Timings from each item's best latency in the run.

    A shared 2-vCPU KVM guest alternates between a fast and a slow phase
    lasting seconds (a plain Python loop runs 1.5 times slower in the slow
    one), so a median over a 10 s run depends on how its phases fell. The
    best time of an item over the run's passes does not.
    """
    if workload.name == "cli":
        peak_kb = workload.peak_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    good = [x for x in best if x is not None]
    ms = sorted(1e3 * x for x in good) or [float("nan")]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(good) / sum(good) if good else 0.0,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
        "wall_s": sum(good),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    per_item = f"{len(good)} items, best of {passes} passes"
    samples = {"setup_s": f"{len(setups)} set-ups", "items_per_s": per_item, "latency_p50_ms": per_item,
               "latency_p90_ms": per_item, "wall_s": per_item, "peak_rss_mb": "1 process"}
    return values, samples


def _layer_value(name: str, stats: dict) -> float:
    if name.startswith("cli.") and name.endswith(".s"):
        function, quantity = "cli.cmd_" + name.split(".")[1], "s"
    else:
        function, quantity = name.rsplit(".", 1)
    entry = stats.get(function)
    if entry is None:
        return 0
    if quantity in ("calls", "errors", "s", "self_s"):
        return entry[quantity]
    if quantity in ("rejects", "flops"):
        return entry["value"]
    if quantity == "max_bytes":
        return entry["max_value"]
    if quantity == "nonempty_ratio":
        return entry["value"] / entry["calls"]
    if quantity == "op_norm_calls":
        return entry["under"]["linalg.op_norm"]
    raise KeyError(name)


SPECIAL = ("operators.build.s", "documents.bytes_in", "documents.bytes_out", "cli.import_s", "trace.overhead_s")


def per_layer(per_pass: list[dict], special: dict) -> tuple[dict, list[str]]:
    """Layer metrics from each traced pass's summary; names of counts that differ between passes."""
    values = {}
    unstable = []
    for name, _ in spec.PER_LAYER_UNITS:
        if name in SPECIAL:
            values[name] = special[name]
            continue
        readings = [_layer_value(name, stats) for stats in per_pass]
        if name.rsplit(".", 1)[1] in spec.EXACT:
            values[name] = readings[0]
            if len(set(readings)) > 1:
                unstable.append(name)
        else:
            values[name] = sum(readings) / len(readings)
    return values, unstable


def measure_import() -> float:
    """Median wall time of `python -c "import partialiso"`."""
    times = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_SAMPLES):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", "import partialiso"], env=env, check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - started)
    return statistics.median(times)


def traced_run(args, workload, tally: Tally):
    """Untraced passes, then the inputs rebuilt and the passes repeated under the tracer."""
    import spans

    special = {"cli.import_s": 0.0, "documents.bytes_in": 0}
    if workload.name == "cli":
        # both halves call main in this process, so their difference is the tracer's
        workload.in_process = True
        special["cli.import_s"] = measure_import()
        special["documents.bytes_in"] = sum(p.stat().st_size for item in workload.items for p in item.inputs)
    untraced, _, _ = run_passes(workload, args.seconds / 2, 1, tally)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.build()
        build_end = len(tracer.spans)
        traced, passes, bounds = run_passes(workload, args.seconds / 2, 1, tally, tracer)
    finally:
        tracer.uninstall()
    per_pass = [spans.summarize(tracer.spans, a, b) for a, b in zip(bounds, bounds[1:])]
    special["operators.build.s"] = spans.builder_seconds(tracer.spans, 0, build_end)
    special["documents.bytes_out"] = per_pass[0].get("documents.dumps_canonical", {}).get("value", 0)
    special["trace.overhead_s"] = _pass_time(traced) - _pass_time(untraced)
    values, unstable = per_layer(per_pass, special)
    trace_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    tracer.write(trace_path, {"workload": workload.name, "seed": args.seed, "passes": passes,
                              "build_spans": build_end, "pass_bounds": bounds})
    return values, {name: f"{passes} traced passes" for name in values}, unstable


def _pass_time(best: list) -> float:
    return sum(x for x in best if x is not None)


def run_workload(args) -> int:
    import machine

    tally = Tally()
    setups = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    workload, own_setup, warm = set_up(args.workload, args.seed)
    setups.append(own_setup)
    for index, problems in enumerate(warm):
        tally.add(f"warm-up item {index}", problems)

    unstable: list[str] = []
    best: list = []
    if args.trace:
        values, samples, unstable = traced_run(args, workload, tally)
        units = dict(spec.PER_LAYER_UNITS)
    else:
        best, passes, _ = run_passes(workload, args.seconds, workload.min_passes, tally)
        values, samples = end_to_end(workload, setups, best, passes)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    info = machine.describe(args.seed, BLAS_THREADS)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine {json.dumps(info)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]} ({samples[name]})")
    failed_frac = tally.failed / tally.attempted
    print(f"failed_frac = {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted} items)")
    for problem in tally.problems:
        print(f"# wrong: {problem}")
    for name in unstable:
        print(f"# count differs between passes: {name}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": tally.failed == 0 and not unstable, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  samples=samples, failed_frac=failed_frac, problems=tally.problems, unstable_counts=unstable,
                  setups_s=setups, item_best_ms=[None if x is None else 1e3 * x for x in best], machine=info)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, stdin=subprocess.DEVNULL, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if not (SRC / "partialiso" / "__init__.py").is_file():
        print(f"error: no partialiso sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    configure()
    if args.setup_probe:
        _, seconds, warm = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "warm_up_failures": sum(1 for p in warm if p)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
