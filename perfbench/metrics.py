"""The benchmark's metric catalogue: every name, its unit, its direction.

``BENCHMARK.json`` at the checkout root lists the same names; the
benchmark's tests hold the two equal.  Every workload prints every
end-to-end metric (untraced runs) and every per-layer metric (traced
runs); a layer that does no work on a workload reads 0.
"""

from __future__ import annotations

#: name -> (unit, better); printed by every untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op2_p50_ms": ("ms", "lower"),
    "bytes_per_entry": ("B", "lower"),
    "coverage_pct": ("%", "higher"),
}

#: end-to-end metrics that do not depend on timing or on the seed: they
#: must read the same in every run of a workload
EXACT = ("bytes_per_entry", "coverage_pct")

#: name -> (unit, better); printed by every traced run
PER_LAYER = {
    "serve.protocol.decode_us": ("us", "lower"),
    "serve.protocol.encode_us": ("us", "lower"),
    "serve.server.transport_us": ("us", "lower"),
    "serve.cache.hit_ratio": ("ratio", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.cache.invalidations": ("count", "lower"),
    "serve.cache.lookup_us": ("us", "lower"),
    "serve.engine.decide_self_us": ("us", "lower"),
    "serve.engine.snapshot_swaps": ("count", "lower"),
    "hdb.enforcement.permits_us": ("us", "lower"),
    "hdb.auditing.record_us": ("us", "lower"),
    "hdb.auditing.entries_per_decide": ("count", "lower"),
    "store.append_us": ("us", "lower"),
    "store.fsyncs_per_1k_entries": ("count", "lower"),
    "store.fsync_us": ("us", "lower"),
    "store.seal_ms": ("ms", "lower"),
    "store.scan_s": ("s", "lower"),
    "store.open_ms": ("ms", "lower"),
    "refinement.to_policy_s": ("s", "lower"),
    "refinement.filter_extract_s": ("s", "lower"),
    "refinement.prune_s": ("s", "lower"),
    "refinement.patterns_mined": ("count", "higher"),
    "coverage.set_s": ("s", "lower"),
    "coverage.entry_s": ("s", "lower"),
    "sqlmini.load_s": ("s", "lower"),
    "sqlmini.execute_s": ("s", "lower"),
    "sqlmini.rows_scanned": ("count", "lower"),
    "parallel.map_s": ("s", "lower"),
    "parallel.merge_s": ("s", "lower"),
    "parallel.pool_overhead_s": ("s", "lower"),
    "parallel.shards": ("count", "higher"),
    "parallel.pool_used": ("count", "higher"),
    "refine_daemon.consume_ms": ("ms", "lower"),
    "refine_daemon.mine_ms": ("ms", "lower"),
    "refine_daemon.gate_ms": ("ms", "lower"),
    "refine_daemon.state_save_ms": ("ms", "lower"),
    "refine_daemon.adopt_ms": ("ms", "lower"),
    "refine_daemon.poll_self_ms": ("ms", "lower"),
    "refine_daemon.rules_adopted": ("count", "higher"),
    "loadgen.late_share": ("ratio", "lower"),
    "loadgen.achieved_rps": ("1/s", "higher"),
    "loadgen.p99_ms": ("ms", "lower"),
    "host.steal_share": ("ratio", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
    "obs.attributed_pct": ("%", "higher"),
}


def fill(values: dict, catalogue: dict) -> dict:
    """Every catalogue metric with its unit; absent ones read 0."""
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in catalogue.items()
    }
