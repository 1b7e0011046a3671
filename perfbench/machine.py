"""A description of the machine and software a result was measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Per-core cache sizes by level, as the kernel reports them for cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        kind = _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{index}/size")
    return out


def _mem_total_gb() -> float | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return round(int(line.split()[1]) / 2**20, 2)
    return None


def python_loop_ms() -> float:
    """Median of five timings of a fixed pure-Python loop.

    It tells a slow moment of a shared machine from a slow program: the
    loop does not touch partialiso.
    """
    times = []
    for _ in range(5):
        started = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (perf_counter() - started))
    return sorted(times)[2]


def describe(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_gb": _mem_total_gb(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "python_loop_ms": python_loop_ms(),
    }
