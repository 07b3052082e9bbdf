"""E17 — parallel sharded refinement over the segmented audit store.

DESIGN.md §10 commits the map-reduce refinement path to two promises:

1. **Byte-identical results** — serial ``refine()`` (the kernel's
   one-shard, in-process case) and the sharded run both produce exactly
   the literal pipeline's output (``tests/reference.py``: Filter → the
   Algorithm 5 SQL statement → Prune): same patterns in the same order,
   same useful/pruned partition, same coverage ratios, same
   uncovered-entry indices, same practice subset.
2. **Wall-clock wins at scale** — on a multi-core host, the workers
   over a ≥100k-entry segmented store beat serial ``refine()`` by at
   least 2×.  The floor was set when serial meant the three-pass
   literal pipeline; against the one-pass serial kernel the map is
   nearly the whole call, so fewer than three workers cannot clear it
   once pool start-up is counted.  The identity checks always run; the
   2× floor is asserted only when the host has at least four CPUs.

Each side runs one warm-up call first, so neither side's ratio figure
pays first start-up, then reports the median of three timed calls.  The
cold warm-up seconds are kept in the record but enter no ratio.

Knobs: ``E17_ENTRIES`` (default 100_000), ``E17_WORKERS`` (default 4).
A JSON perf record lands in ``benchmarks/out/e17_parallel_refinement.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.experiments.reporting import format_table
from repro.parallel.execution import ExecutionPolicy
from repro.parallel.shards import shards_of
from repro.policy.grounding import Grounder
from repro.refinement.engine import RefinementConfig, refine
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.vocab.builtin import healthcare_vocabulary
from repro.workload.scenarios import figure3_policy
from tests.reference import reference_refine, result_fields

_ENTRIES = int(os.environ.get("E17_ENTRIES", "100000"))
_WORKERS = int(os.environ.get("E17_WORKERS", "4"))
_SEGMENT_ENTRIES = 8_000
_MIN_SPEEDUP = 2.0
_MIN_CPUS_FOR_SPEEDUP = 4
_TIMED_CALLS = 3

_OUT_PATH = Path(__file__).parent / "out" / "e17_parallel_refinement.json"

# a skewed ward mix: common workflows dominate, rare combinations give
# the miner thresholds something to reject
_COMBOS = (
    ("referral", "registration", "nurse"),
    ("lab_results", "treatment", "doctor"),
    ("prescription", "treatment", "nurse"),
    ("insurance", "billing", "clerk"),
    ("referral", "treatment", "physician"),
    ("payment_history", "billing", "registrar"),
    ("psychiatry", "diagnosis", "physician"),
    ("name", "registration", "registrar"),
)
_WEIGHTS = (24, 20, 16, 12, 10, 8, 3, 2)


def _build_store(directory) -> DurableAuditLog:
    """Write a deterministic skewed workload into a segmented store."""
    wheel: list[int] = []
    for combo_index, weight in enumerate(_WEIGHTS):
        wheel.extend([combo_index] * weight)
    durable = DurableAuditLog(
        directory,
        StoreConfig(max_segment_entries=_SEGMENT_ENTRIES, fsync="off"),
        name="e17_trail",
    )

    def entries():
        for tick in range(_ENTRIES):
            # a multiplicative-hash walk over the wheel: deterministic,
            # cheap, and scrambles combo/user/status correlations
            slot = (tick * 2654435761) % len(wheel)
            data, purpose, role = _COMBOS[wheel[slot]]
            status = (
                AccessStatus.EXCEPTION
                if (tick * 40503) % 100 < 55
                else AccessStatus.REGULAR
            )
            yield make_entry(
                tick, f"user{(tick * 97) % 41}", data, purpose, role,
                status=status,
            )

    durable.extend(entries())
    return durable


def _timed_refine(policy, durable, vocabulary, execution):
    """A warm-up call, then ``_TIMED_CALLS`` timed ones.

    Returns the last result, the timed calls' median seconds and the
    cold warm-up call's seconds.
    """
    grounder = Grounder(vocabulary)
    config = RefinementConfig(execution=execution)
    seconds = []
    for _ in range(1 + _TIMED_CALLS):
        started = time.perf_counter()
        result = refine(policy, durable, vocabulary, config, grounder)
        seconds.append(time.perf_counter() - started)
    return result, statistics.median(seconds[1:]), seconds[0]


def test_e17_parallel_refinement(tmp_path):
    vocabulary = healthcare_vocabulary()
    policy = figure3_policy()
    durable = _build_store(tmp_path / "store")
    try:
        stats = durable.stats()
        shards = shards_of(durable, _WORKERS)
        serial, serial_seconds, serial_cold = _timed_refine(
            policy, durable, vocabulary, None
        )
        parallel, parallel_seconds, parallel_cold = _timed_refine(
            policy, durable, vocabulary, ExecutionPolicy(workers=_WORKERS)
        )
        literal = result_fields(
            reference_refine(policy, durable, vocabulary, None, Grounder(vocabulary))
        )
        identical = (
            result_fields(serial) == literal and result_fields(parallel) == literal
        )
    finally:
        durable.close()

    cpus = os.cpu_count() or 1
    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")

    record = {
        "experiment": "E17",
        "entries": _ENTRIES,
        "workers": _WORKERS,
        "cpus": cpus,
        "segments": stats.segments,
        "shards": [
            {"label": shard.label, "planned_entries": shard.planned_entries}
            for shard in shards
        ],
        "timed_calls": _TIMED_CALLS,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "serial_cold_seconds": round(serial_cold, 4),
        "parallel_cold_seconds": round(parallel_cold, 4),
        "speedup": round(speedup, 3),
        "patterns": len(serial.patterns),
        "useful_patterns": len(serial.useful_patterns),
        "entry_coverage": round(serial.entry_coverage.ratio, 4),
        "identical_results": identical,
        "speedup_floor_asserted": cpus >= _MIN_CPUS_FOR_SPEEDUP,
    }
    _OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    _OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        format_table(
            ["measure", "value"],
            [
                ["store", f"{_ENTRIES:,} entries / {stats.segments} segments"],
                ["shards", f"{len(shards)} (workers={_WORKERS}, cpus={cpus})"],
                ["serial refine (median, cold)",
                 f"{serial_seconds:.3f}s, {serial_cold:.3f}s"],
                ["parallel refine (median, cold)",
                 f"{parallel_seconds:.3f}s, {parallel_cold:.3f}s"],
                ["speedup", f"{speedup:.2f}x"],
                ["patterns mined", len(serial.patterns)],
                ["entry coverage", f"{serial.entry_coverage.ratio:.1%}"],
                ["results identical", identical],
            ],
            title=f"E17 — parallel refinement with {_WORKERS} workers",
        )
        + f"\nJSON record: {_OUT_PATH}"
    )

    assert identical, (
        "serial and parallel refine() must reproduce the literal pipeline exactly"
    )
    assert serial.patterns, "the workload must mine a non-trivial rule set"
    assert len(shards) == min(_WORKERS, stats.segments)
    if cpus >= _MIN_CPUS_FOR_SPEEDUP:
        assert speedup >= _MIN_SPEEDUP, (
            f"{_WORKERS} workers on {cpus} CPUs reached only {speedup:.2f}x "
            f"(floor {_MIN_SPEEDUP}x)"
        )
    else:
        # on starved hosts the single-pass map stage must still keep the
        # parallel path from regressing behind serial
        assert speedup >= 0.8, (
            f"parallel path {speedup:.2f}x slower than serial on {cpus} CPU(s)"
        )
