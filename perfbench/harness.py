"""Shared plumbing for the benchmark: paths, statistics, pins, output.

Everything here belongs to the benchmark, not to the system under
test: the exact percentile ruler, the process-memory and host-steal
probes, the pinned input digests, and the one-JSON-line result format.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

#: the checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
#: the system's sources, benchmarked straight from the checkout
SRC = ROOT / "src"
#: scratch space for stores, cached corpora and span dumps (gitignored)
WORK = ROOT / ".bench_build" / "perfbench"
#: the pinned input digests, checked on every run
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class BenchError(Exception):
    """A run that cannot produce a trustworthy result (exit non-zero)."""


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or fail.

    The benchmark measures the code in this checkout only; a directory
    without the sources must not silently import an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no system sources at {SRC}; run from a full checkout")
    path = str(SRC)
    if sys.path[:1] != [path]:
        sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# ----------------------------------------------------------------------
# statistics: exact, from raw samples
# ----------------------------------------------------------------------


def quantile(samples, q: float) -> float:
    """The ``q`` quantile of ``samples`` by linear interpolation between
    order statistics (numpy's default), computed exactly from the raw
    values — no buckets."""
    values = sorted(samples)
    if not values:
        raise BenchError("quantile of no samples")
    position = q * (len(values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def median(samples) -> float:
    """The median of ``samples`` (exact)."""
    return quantile(samples, 0.5)


# ----------------------------------------------------------------------
# host and process probes
# ----------------------------------------------------------------------


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()[1:]
    values = [int(value) for value in fields[:8]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor stole between two probes."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


#: the probe's duration at the reference host speed that scaled times are
#: expressed in (about its uncontended time on a 2-vCPU cloud guest)
PROBE_REF_S = 0.005


def probe() -> float:
    """Time one run of the host-speed probe: a fixed piece of pure Python
    that calls no system code.  The collector is paused around it, so its
    time does not depend on how large the host process's heap is."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i * 7919) % 6007, i & 255] = (i, i + 1)
        sorted(table.items())
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostScale:
    """Express CPU-bound durations at a reference host speed.

    The shared guest runs whole stretches — seconds to minutes — 20-45 %
    slower, and the slowdown hits every CPU-bound operation alike (a
    pure-Python loop, a 2k-entry and a 10k-entry ``refine()`` rose and
    fell together).  A median over the operations of one run cannot
    remove a stretch that covers most of the run, so each measured
    duration is multiplied by ``PROBE_REF_S / probe time``, the probe
    timed right before and right after it.  The probe runs no system
    code, so a change to the system moves the scaled time exactly as it
    moves the raw one; raw medians stay in the diagnostics line.
    """

    def __init__(self) -> None:
        self.probes = [probe()]

    def factor(self) -> float:
        """Probe again; the scale for the work done since the last probe."""
        before = self.probes[-1]
        self.probes.append(probe())
        return PROBE_REF_S / ((before + self.probes[-1]) / 2)


def store_bytes(directory: Path) -> int:
    """On-disk bytes of a durable audit store: manifest, segments, indexes
    (sidecar files other components keep in the directory are excluded)."""
    return sum(
        path.stat().st_size
        for path in Path(directory).iterdir()
        if path.name == "MANIFEST.json" or path.name.endswith((".seg", ".idx.json"))
    )


# ----------------------------------------------------------------------
# pinned inputs
# ----------------------------------------------------------------------


def digest(payload) -> str:
    """Sha256 of a JSON-encodable value (sorted keys, compact)."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def file_digest(paths) -> str:
    """Sha256 over the bytes of ``paths``, in the order given."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(Path(path).name.encode("utf-8") + b"\x00")
        hasher.update(Path(path).read_bytes())
    return hasher.hexdigest()


def pins() -> dict:
    """The pinned digests of every workload's generated input."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check_pin(name: str, actual: str) -> None:
    """Fail the run if a generated input differs from its pin."""
    expected = pins().get(name)
    if expected != actual:
        raise BenchError(
            f"input pin {name!r} mismatch: pinned {expected!r}, generated "
            f"{actual!r} — the workload's input changed; refusing to "
            f"measure a different input"
        )


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict, info: dict) -> None:
    """Print the diagnostics line, then the result as the last line."""
    print("# info " + json.dumps(info, sort_keys=True), flush=True)
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
