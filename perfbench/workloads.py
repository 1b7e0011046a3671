"""The four workloads: how each builds its items, warms up and runs one item.

A workload is driven by one closed-loop caller: `run_item` sends one item
through the library (or one `python -m partialiso` process) and returns
only once the answer has been checked against the ground truth. Its
result is the list of problems found; an empty list is a correct answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import partialiso as pi
import partialiso.cli
import checks
import inputs

EPS = pi.DEFAULT_TOL.eps


class Workload:
    """Items built from a seed; warm-up is one untimed pass unless overridden."""

    name = ""
    min_passes = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.items: list = []

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> list[list[str]]:
        return [self.run_item(item) for item in self.items]

    def timed(self, item) -> tuple[list[str], float]:
        """Problems with the checked answer, and seconds from the call to it."""
        started = perf_counter()
        problems = self.run_item(item)
        return problems, perf_counter() - started

    def run_item(self, item) -> list[str]:
        raise NotImplementedError


class SingleStream(Workload):
    """Scrambled single operators through the `partialiso hw` path."""

    name = "single-stream"

    def build(self) -> None:
        self.items = inputs.single_stream(self.seed)

    def run_item(self, item) -> list[str]:
        ok, first_failing = pi.is_power_partial_isometry(item.matrix)
        if not ok:
            return checks.check_single(item.expected, {"accept": False, "reason": f"power {first_failing}"})
        try:
            hw = pi.hw_decompose(item.matrix)
        except pi.DecompositionError as exc:
            return checks.check_single(item.expected, {"accept": False, "reason": str(exc)})
        outcome = {"accept": True, "unitary_dim": hw.unitary_dim, "blocks": hw.block_multiset()}
        return checks.check_single(item.expected, outcome)


def _tuple_outcome(t) -> dict:
    """verify_twisted, then decompose_tuple on a tuple that passes."""
    if not pi.verify_twisted(t).passed:
        return {"verify": False}
    try:
        tree = pi.decompose_tuple(t)
    except pi.DecompositionError as exc:
        return {"verify": True, "leaves": None, "reason": str(exc)}
    return {"verify": True, "leaves": [(leaf.multiindex, leaf.mult_dim) for leaf in tree.leaves]}


class TupleStream(Workload):
    """Scrambled model tuples and direct sums: verify, decompose, sometimes equiv."""

    name = "tuple-stream"

    def build(self) -> None:
        self.items = inputs.tuple_stream(self.seed)

    def run_item(self, item) -> list[str]:
        outcome = _tuple_outcome(item.tuple)
        if item.equivalent is not None and outcome.get("leaves") is not None:
            outcome["verdicts"] = [
                pi.equivalence_check(item.tuple, other).verdict
                for other in (item.equivalent, item.inequivalent)
            ]
        return checks.check_tuple(item.expected, outcome)


class DimLadder(Workload):
    """One instance per rung from d = 8 to 128; a pass solves the whole ladder."""

    name = "dim-ladder"

    def build(self) -> None:
        self.items = inputs.ladder(self.seed)

    def warm_up(self) -> list[list[str]]:
        return [self.run_item(self.items[0])]

    def run_item(self, rung) -> list[str]:
        t = rung.tuple
        outcome = _tuple_outcome(t)
        hw = pi.hw_decompose(t.ops[0])
        outcome["hw"] = (hw.unitary_dim, hw.block_multiset())
        if rung.expected["projection_check"]:
            outcome["projection_max"] = max(pi.check_projection_commutation(t.ops[0], t.ops[1]).values())
        if rung.expected["commutant"] is not None:
            outcome["commutant"] = pi.commutant_dimension(t.ops, include_adjoints=True)
        return checks.check_rung(rung.expected, outcome, EPS)


class Cli(Workload):
    """`python -m partialiso` processes on documents built by `generate`.

    Each item is timed from spawn to exit, from outside the process; the
    report's own `timing` field is never read. `in_process` runs the same
    argument lists through `partialiso.cli.main` instead, for the traced
    run.
    """

    name = "cli"
    # a pass is 15 process starts, about as long as a run's seconds; the
    # second pass gives every item a second chance at a quiet moment
    min_passes = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.directory = out_dir / f"cli-seed{seed}"
        self.in_process = False
        self.last_exit_s = 0.0
        self.peak_child_rss_kb = 0
        src = str(Path(pi.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def build(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        setup, (source, perturbed), self.items = inputs.cli_documents(self.seed, self.directory)
        for argv in setup:
            if partialiso.cli.main(argv) != 0:
                raise RuntimeError(f"generate failed: {argv}")
        inputs.perturb_document(source, perturbed, self.seed)

    def warm_up(self) -> list[list[str]]:
        # one process start fills the file cache for the interpreter and imports
        return [self.run_item(next(item for item in self.items if item.argv[0] == "verify"))]

    def spawn(self, argv: list[str]) -> tuple[int, float]:
        """Run one child to its exit; (exit code, wall seconds). Records its peak RSS."""
        with open(self.directory / "stderr.txt", "wb") as err:
            started = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, elapsed

    def timed(self, item) -> tuple[list[str], float]:
        if self.in_process:
            return super().timed(item)
        return self.run_item(item), self.last_exit_s

    def run_item(self, item) -> list[str]:
        item.output.unlink(missing_ok=True)
        if self.in_process:
            code = partialiso.cli.main(item.argv)
        else:
            code, self.last_exit_s = self.spawn([sys.executable, "-m", "partialiso", *item.argv])
        try:
            report = json.loads(item.output.read_text(encoding="utf-8"))
        except FileNotFoundError:
            report = None
        return checks.check_cli(item.expected, code, report)


WORKLOADS = {w.name: w for w in (SingleStream, TupleStream, DimLadder, Cli)}
