"""Workload ``refine_corpus``: the privacy officer's offline ``refine()``.

Input: a HIPAA corpus from :mod:`repro.corpus` with E23's rulebook (6
departments, 221 rules over 4-level hierarchies) and one of E23's five
10k-access traffic rounds (10k audit entries), generated once per
checkout in a child process, saved with ``save_corpus`` and written
into a sealed durable store.  Both the bundle digest and the store
bytes are pinned and checked every run.  One round rather than five
keeps a serial call under a second, so a run takes the median of
dozens of calls of each kind instead of three or four: single calls on
this kind of host swing by half (1.2 s to 2.3 s at 20k entries), and
only many calls per run hold the median still.

The set-up is what a privacy officer's session does before refining:
load the policy store and vocabulary and open the trail.  It is timed
:data:`SETUP_REPS` times before the first call and once after every
pair of calls, so its samples spread over the run.  Each run warms up
with one call of each kind, then alternates serial ``refine()`` with
``ExecutionPolicy(workers=2)`` calls until the time is up, at least
:data:`MIN_CALLS` of each.  The pool start is part of every sharded
call.

Checks: every result, serial and sharded, serialises to the pinned
digest, and every sharded call really ran on the process pool
(``run_sharded`` falls back to in-process silently otherwise).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness

CORPUS_SPEC = {
    "seed": 20260807,
    "departments": 6,
    "staff_per_role": 3,
    "patients": 300,
    "rounds": 1,
    "accesses_per_round": 10000,
    "protocol_rules": 60,
    "name": "e23-corpus",
}
#: the paper's Algorithm 4 thresholds, as E23 mines them
MIN_SUPPORT, MIN_USERS = 5, 2
#: set-ups timed before the first call for ``setup_s``
SETUP_REPS = 5
#: calls of each kind a run makes at least, however short ``--seconds``
MIN_CALLS = 3
WORKERS = 2

CORPUS_DIR = harness.WORK / "corpus"
BUNDLE = CORPUS_DIR / "bundle"
STORE = CORPUS_DIR / "store"


def store_files(directory: Path) -> list[Path]:
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.endswith((".seg", ".idx.json")) and path.stat().st_size > 64
    )


def prepare() -> None:
    """Generate the corpus bundle and its sealed store (child process)."""
    from repro.corpus import CorpusSpec, generate_corpus, save_corpus, simulate_corpus_trace
    from repro.store.durable import copy_to_durable

    shutil.rmtree(CORPUS_DIR, ignore_errors=True)
    corpus = generate_corpus(CorpusSpec(**CORPUS_SPEC))
    trace = simulate_corpus_trace(corpus)
    save_corpus(corpus, trace, BUNDLE)
    durable = copy_to_durable(trace.log, STORE)
    durable.seal_active()
    durable.close()


def _ensure_inputs() -> None:
    """Build the cached inputs if needed; check both pins."""
    from repro.corpus import bundle_digest

    for attempt in (0, 1):
        ready = (BUNDLE / "CORPUS.json").is_file() and STORE.is_dir()
        if ready:
            try:
                harness.check_pin("corpus_bundle", bundle_digest(BUNDLE))
                harness.check_pin("corpus_store", harness.file_digest(store_files(STORE)))
                return
            except harness.BenchError:
                if attempt:
                    raise
        elif attempt:
            raise harness.BenchError("corpus preparation produced no bundle")
        subprocess.run(
            [sys.executable, __file__, "--prepare"],
            cwd=str(harness.ROOT),
            env=harness.child_env(),
            check=True,
            timeout=600,
        )


def result_digest(result) -> str:
    """A canonical digest of everything ``refine()`` returns but the lazy
    practice view (equal by construction; iterating it is a scan)."""
    from repro.policy.parser import format_rule

    def patterns(items):
        return [[format_rule(p.rule), p.support, p.distinct_users] for p in items]

    return harness.digest(
        {
            "patterns": patterns(result.patterns),
            "useful": patterns(result.useful_patterns),
            "pruned": patterns(result.pruned_patterns),
            "set_coverage": result.coverage.ratio,
            "entry_coverage": [
                result.entry_coverage.ratio,
                result.entry_coverage.matched,
                result.entry_coverage.total,
            ],
            "uncovered": harness.digest(list(result.entry_coverage.uncovered_entries)),
        }
    )


def run(seed: int, seconds: float, trace: int) -> tuple:
    """One run; returns ``(correct, attempted, failed, values, info, layers)``."""
    _ensure_inputs()
    from repro.mining.patterns import MiningConfig
    from repro.obs.runtime import get_registry
    from repro.parallel import refine as parallel
    from repro.parallel.execution import ExecutionPolicy
    from repro.policy import store_io
    from repro.refinement import engine
    from repro.refinement.engine import RefinementConfig
    from repro.store.durable import DurableAuditLog
    from repro.vocab import io as vocab_io

    import spans

    def open_session():
        vocabulary = vocab_io.load(BUNDLE / "vocabulary.json")
        policy = store_io.load(BUNDLE / "policy_store.json").policy()
        opened = time.perf_counter()
        log = DurableAuditLog(STORE, name="corpus")
        store_open.append(time.perf_counter() - opened)
        return vocabulary, policy, log

    def timed_setup():
        started = time.perf_counter()
        session = open_session()
        elapsed = time.perf_counter() - started
        setup.append(elapsed * host.factor())
        session[2].close()

    mining = MiningConfig(min_support=MIN_SUPPORT, min_distinct_users=MIN_USERS)
    configs = {
        "serial": RefinementConfig(mining=mining),
        "sharded": RefinementConfig(
            mining=mining, execution=ExecutionPolicy(workers=WORKERS)
        ),
    }

    recorder = spans.Recorder()
    # the pool check runs on every sharded call, traced or not
    modes: list = []
    run_sharded = parallel.run_sharded

    def _recording_run_sharded(worker, shards, task, workers):
        results, mode = run_sharded(worker, shards, task, workers)
        modes.append((mode, len(shards), max(p.seconds for p in results), recorder.on))
        return results, mode

    parallel.run_sharded = _recording_run_sharded
    if trace:
        import plans

        spans.install(recorder, plans.refine_plan())

    host = harness.HostScale()
    setup: list = []
    store_open: list = []
    for _ in range(SETUP_REPS):
        timed_setup()
    vocabulary, policy, log = open_session()

    rows = get_registry().counter("repro_sqlmini_rows_scanned_total")
    digests: list = []
    timings: dict = {"serial": [], "sharded": [], "traced": []}
    raw: dict = {"serial": [], "sharded": []}
    layer_rows: list = []
    mined = 0
    coverage = 0.0

    def call(kind: str, traced: bool = False) -> float:
        nonlocal mined, coverage
        if traced:
            rows_before = rows.value
            recorder.on = True
            root = recorder.open(f"op.refine_{kind}")
        started = time.perf_counter()
        result = engine.refine(policy, log, vocabulary, configs[kind])
        elapsed = time.perf_counter() - started
        if traced:
            recorder.close(root)
            recorder.on = False
            if kind == "serial":
                layer_rows.append(rows.value - rows_before)
        digests.append((kind, result_digest(result)))
        mined = len(result.patterns)
        coverage = result.entry_coverage.ratio
        return elapsed

    order = ("serial", "sharded") if seed % 2 == 0 else ("sharded", "serial")
    steal_before = harness.cpu_times()
    for kind in order:
        call(kind)  # warm-up, not measured
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(timings["serial"]) < MIN_CALLS
        or len(timings["sharded"]) < MIN_CALLS
    ):
        for kind in order:
            elapsed = call(kind)
            raw[kind].append(elapsed)
            timings[kind].append(elapsed * host.factor())
        timed_setup()
        if trace:
            host.factor()
            timings["traced"].append(call("serial", traced=True) * host.factor())
            call("sharded", traced=True)
    steal = harness.steal_share(steal_before, harness.cpu_times())
    peak = harness.peak_rss_mib()
    stats = log.stats()
    entries = len(log)
    store_bytes = harness.store_bytes(STORE)
    log.close()
    parallel.run_sharded = run_sharded

    pinned = harness.pins()["refine_result"]
    failed = sum(1 for _, value in digests if value != pinned)
    failed += sum(1 for entry in modes if entry[0] != "pool")
    values = {
        "setup_s": harness.median(setup),
        "peak_rss_mb": peak,
        "op_p50_ms": harness.median(timings["serial"]) * 1e3,
        "op2_p50_ms": harness.median(timings["sharded"]) * 1e3,
        "bytes_per_entry": store_bytes / entries,
        "coverage_pct": coverage * 100.0,
    }
    info = {
        "workload": "refine_corpus",
        "seed": seed,
        "serial_calls": len(timings["serial"]),
        "sharded_calls": len(timings["sharded"]),
        "serial_raw_s": raw["serial"],
        "sharded_raw_s": raw["sharded"],
        "serial_raw_p50_s": harness.median(raw["serial"]),
        "sharded_raw_p50_s": harness.median(raw["sharded"]),
        "host_probe_p50_ms": harness.median(host.probes) * 1e3,
        "host_steal_share": steal,
        "entries": entries,
        "segments": stats.segments,
        "result_digest": digests[0][1],
    }
    layers = {}
    if trace:
        layers = _layers(recorder, modes, timings, layer_rows, mined, store_open, steal)
    return failed == 0, len(digests), failed, values, info, layers


def _layers(recorder, modes, timings, layer_rows, mined, store_open, steal) -> dict:
    import spans

    serial_s, _, serial_roots, serial_total = spans.layer_totals(
        recorder.spans, "op.refine_serial"
    )
    sharded_s, _, sharded_roots, sharded_total = spans.layer_totals(
        recorder.spans, "op.refine_sharded"
    )

    def per_serial(*names):
        return sum(serial_s.get(name, 0.0) for name in names) / max(1, serial_roots)

    def per_sharded(*names):
        return sum(sharded_s.get(name, 0.0) for name in names) / max(1, sharded_roots)

    traced_modes = [entry for entry in modes if entry[3]]
    worker_s = sum(entry[2] for entry in traced_modes) / max(1, len(traced_modes))
    unattributed = serial_s.get("op.refine_serial", 0.0) + sharded_s.get(
        "op.refine_sharded", 0.0
    )
    return {
        "store.scan_s": per_serial("store.scan"),
        "store.open_ms": harness.median(store_open) * 1e3,
        "refinement.to_policy_s": per_serial("refinement.to_policy"),
        "refinement.filter_extract_s": per_serial(
            "refinement.filter", "refinement.extract", "refinement.filter_view"
        ),
        "refinement.prune_s": per_serial("refinement.prune"),
        "refinement.patterns_mined": mined,
        "coverage.set_s": per_serial("coverage.set"),
        "coverage.entry_s": per_serial("coverage.entry"),
        "sqlmini.load_s": per_serial("sqlmini.load"),
        "sqlmini.execute_s": per_serial("sqlmini.execute"),
        "sqlmini.rows_scanned": harness.median(layer_rows) if layer_rows else 0.0,
        "parallel.map_s": per_sharded("parallel.map"),
        "parallel.merge_s": per_sharded("parallel.merge"),
        "parallel.pool_overhead_s": per_sharded("parallel.map") - worker_s,
        "parallel.shards": traced_modes[-1][1] if traced_modes else 0,
        "parallel.pool_used": float(all(entry[0] == "pool" for entry in modes)),
        "host.steal_share": steal,
        "obs.trace_overhead_pct": (
            harness.median(timings["traced"]) / harness.median(timings["serial"]) - 1
        ) * 100.0,
        "obs.attributed_pct": (1 - unattributed / (serial_total + sharded_total)) * 100.0,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--prepare"]:
        harness.require_source()
        prepare()
    else:
        sys.exit(f"usage: {Path(__file__).name} --prepare (run.py drives this workload)")
