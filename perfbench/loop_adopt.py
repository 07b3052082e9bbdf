"""Workload ``loop_adopt``: decide, seal, poll, adopt — in one process.

One process builds the served deployment over a durable trail
(``build_demo_engine``) plus a ``RefineDaemon`` adopting through
``EnginePolicyTarget`` behind an ``AutoAcceptGate``.  An *episode* runs
:data:`ROUNDS` rounds on a fresh store; a round makes
:data:`REGULAR` in-process ``PdpEngine.decide`` calls from the skewed
regular mix plus :data:`PRACTICE` break-the-glass decides on one new
uncovered combination, then calls ``seal_active()`` and ``poll()`` and
stops the clock once the mined rule is in ``engine.manager.current``.
Episodes repeat, identically, until the time is up.

Per round: the adoption lag (seal to live rule) and the round's wall
time per 1000 audited entries, seal and poll included.

Checks: every round adopts exactly its combination's rule; the final
live rule set equals what the offline ``RefinementLoop`` accepts over
the recorded trail (the E19 contract), with equal coverage; and every
episode leaves byte-identical store segments and the same rule set.
"""

from __future__ import annotations

import shutil
import time

import harness
import traffic

ROUNDS = 12
REGULAR = 300
PRACTICE = 10
PRACTICE_USERS = 3
MIN_SUPPORT, MIN_USERS = 5, 2
#: loop set-ups timed before the first episode for ``setup_s`` (one
#: more follows every round, so the samples spread over the run)
SETUP_REPS = 5
MIN_EPISODES = 2
#: the traced spans the adoption lag is made of
LAG_SPANS = ("store.seal", "refine_daemon.poll")

WORK = harness.WORK / "loop_adopt"


def inputs() -> tuple[list, list]:
    """Every round's requests and the combination each should adopt.

    The rounds do not depend on the run's seed, so the trail's bytes,
    ``bytes_per_entry`` and ``coverage_pct`` are the same in every run."""
    from repro.serve import build_demo_engine

    enforcer = build_demo_engine().manager.current.enforcer
    combos = traffic.uncovered_combos(enforcer.policy_permits)
    rounds = [
        traffic.loop_round(index, REGULAR, combos[index], PRACTICE, PRACTICE_USERS)
        for index in range(ROUNDS)
    ]
    return rounds, combos[:ROUNDS]


def _build(directory):
    """The system's set-up: durable trail, served engine, daemon."""
    from repro.mining.patterns import MiningConfig
    from repro.refine_daemon import (
        AutoAcceptGate,
        DaemonConfig,
        EnginePolicyTarget,
        RefineDaemon,
    )
    from repro.serve import build_demo_engine
    from repro.store.durable import DurableAuditLog
    from repro.vocab.builtin import healthcare_vocabulary

    durable = DurableAuditLog(directory, name="served")
    engine = build_demo_engine(audit_log=durable)
    daemon = RefineDaemon(
        durable,
        EnginePolicyTarget(engine),
        healthcare_vocabulary(),
        AutoAcceptGate(min_support=MIN_SUPPORT, min_distinct_users=MIN_USERS),
        DaemonConfig(mining=MiningConfig(min_support=MIN_SUPPORT, min_distinct_users=MIN_USERS)),
    )
    return durable, engine, daemon


def _offline_rules(trail, boundaries):
    """The E19 comparator: the stock loop over the recorded windows."""
    from repro.experiments.harness import DEMO_RULES, ReplayEnvironment
    from repro.mining.patterns import MiningConfig
    from repro.policy.parser import format_rule, parse_rule
    from repro.policy.store import PolicyStore
    from repro.refinement.engine import RefinementConfig
    from repro.refinement.loop import RefinementLoop
    from repro.refinement.review import ThresholdReview
    from repro.vocab.builtin import healthcare_vocabulary

    windows = [trail[boundaries[i] : boundaries[i + 1]] for i in range(ROUNDS)]
    store = PolicyStore()
    for dsl in DEMO_RULES:
        store.add(parse_rule(dsl))
    RefinementLoop(
        ReplayEnvironment(windows),
        store,
        healthcare_vocabulary(),
        ThresholdReview(MIN_SUPPORT, MIN_USERS),
        config=RefinementConfig(
            mining=MiningConfig(min_support=MIN_SUPPORT, min_distinct_users=MIN_USERS)
        ),
    ).run(ROUNDS)
    return sorted(format_rule(rule) for rule in store.policy()), store


def _coverage(policy, trail) -> float:
    from repro.audit.log import AuditLog
    from repro.coverage.engine import compute_entry_coverage
    from repro.vocab.builtin import healthcare_vocabulary

    audit_policy = AuditLog(tuple(trail)).to_policy()
    return compute_entry_coverage(policy, iter(audit_policy), healthcare_vocabulary()).ratio


def run(seed: int, seconds: float, trace: int) -> tuple:
    """One run; returns ``(correct, attempted, failed, values, info, layers)``."""
    from repro.mining.patterns import MiningConfig
    from repro.policy.parser import format_rule, parse_rule
    from repro.policy.rule import Rule
    from repro.policy.store import PolicyStore
    from repro.serve.protocol import ServeRequest
    from repro.store.durable import DurableAuditLog

    import spans

    rounds, combos = inputs()
    harness.check_pin("loop_traffic", harness.digest([rounds[:3], combos]))
    attributes = MiningConfig().attributes
    requests = [
        [ServeRequest(**{**payload, "categories": tuple(payload["categories"])}) for payload in batch]
        for batch in rounds
    ]
    targets = [
        Rule.from_pairs(list(zip(attributes, combo))) for combo in combos
    ]

    recorder = spans.Recorder()
    if trace:
        import plans

        spans.install(recorder, plans.serve_plan() + plans.daemon_plan())

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    host = harness.HostScale()
    setup: list = []

    def rehearse():
        directory = WORK / f"rehearsal-{len(setup)}"
        started = time.perf_counter()
        durable, _, _ = _build(directory)
        elapsed = time.perf_counter() - started
        setup.append(elapsed * host.factor())
        durable.close()
        shutil.rmtree(directory)

    for _ in range(SETUP_REPS):
        rehearse()

    lag_ms: list = []
    per_1k_ms: list = []
    raw_lag_ms: list = []
    raw_per_1k_ms: list = []
    traced_per_1k_ms: list = []
    failed = attempted = 0
    episodes: list = []
    steal_before = harness.cpu_times()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(episodes) < MIN_EPISODES:
        directory = WORK / f"episode-{len(episodes)}"
        started = time.perf_counter()
        durable, engine, daemon = _build(directory)
        setup.append((time.perf_counter() - started) * host.factor())
        boundaries = [0]
        adopted = 0
        for index, batch in enumerate(requests):
            # traced runs trace every other episode, so both halves hold
            # the same rounds and the overhead compares like with like
            traced = bool(trace) and len(episodes) % 2 == 1
            recorder.on = traced
            root = recorder.open("op.round") if traced else -1
            began = time.perf_counter()
            for request in batch:
                engine.decide(request)
            sealed = time.perf_counter()
            durable.seal_active()
            report = daemon.poll()
            live = targets[index] in engine.manager.current.policy_store
            ended = time.perf_counter()
            if traced:
                recorder.close(root)
                recorder.on = False
            attempted += 1
            adopted += len(report.accepted)
            if not live or len(report.accepted) != 1:
                failed += 1
            entries = len(durable) - boundaries[-1]
            boundaries.append(len(durable))
            scale = host.factor()
            per_1k = (ended - began) / entries * 1e6
            if traced:
                traced_per_1k_ms.append(per_1k * scale)
            else:
                raw_lag_ms.append((ended - sealed) * 1e3)
                raw_per_1k_ms.append(per_1k)
                lag_ms.append((ended - sealed) * 1e3 * scale)
                per_1k_ms.append(per_1k * scale)
            rehearse()
        live_rules = sorted(
            format_rule(rule) for rule in engine.manager.current.policy_store.policy()
        )
        episodes.append(
            {
                "directory": directory,
                "boundaries": boundaries,
                "rules": live_rules,
                "segments": harness.file_digest(
                    sorted(directory.glob("*.seg"))
                ),
                "cache": engine.cache.stats(),
                "patterns_mined": report.patterns_mined,
                "adopted": adopted,
            }
        )
        durable.close()
    steal = harness.steal_share(steal_before, harness.cpu_times())
    peak = harness.peak_rss_mib()

    # --- the E19 contract on the first episode, identity on the rest
    first = episodes[0]
    trail_log = DurableAuditLog(first["directory"], name="served")
    try:
        trail = list(trail_log)
        store_bytes = harness.store_bytes(first["directory"])
    finally:
        trail_log.close()
    offline_rules, offline_store = _offline_rules(trail, first["boundaries"])
    live_store = PolicyStore()
    for dsl in first["rules"]:
        live_store.add(parse_rule(dsl))
    live_coverage = _coverage(live_store.policy(), trail)
    offline_coverage = _coverage(offline_store.policy(), trail)
    contract_ok = offline_rules == first["rules"] and live_coverage == offline_coverage
    identical = all(
        episode["rules"] == first["rules"] and episode["segments"] == first["segments"]
        for episode in episodes
    )
    failed += (0 if contract_ok else 1) + (0 if identical else 1)
    for episode in episodes:
        shutil.rmtree(episode["directory"], ignore_errors=True)

    values = {
        "setup_s": harness.median(setup),
        "peak_rss_mb": peak,
        "op_p50_ms": harness.median(lag_ms),
        "op2_p50_ms": harness.median(per_1k_ms),
        "bytes_per_entry": store_bytes / len(trail),
        "coverage_pct": live_coverage * 100.0,
    }
    info = {
        "workload": "loop_adopt",
        "seed": seed,
        "episodes": len(episodes),
        "rounds": attempted,
        "trail_entries": len(trail),
        "rules": len(first["rules"]),
        "loop_entries_per_s_raw": 1e6 / harness.median(raw_per_1k_ms),
        "adopt_lag_raw_p50_ms": harness.median(raw_lag_ms),
        "host_probe_p50_ms": harness.median(host.probes) * 1e3,
        "offline_identical": contract_ok,
        "episodes_identical": identical,
        "host_steal_share": steal,
        "traffic_digest": harness.digest(rounds),
        "setup_samples": len(setup),
    }
    layers = {}
    if trace:
        layers = _layers(
            recorder, episodes, per_1k_ms, traced_per_1k_ms, steal, info
        )
    return failed == 0, attempted, failed, values, info, layers


def _layers(recorder, episodes, per_1k_ms, traced_per_1k_ms, steal, info) -> dict:
    import spans

    seconds, calls, roots, root_seconds = spans.layer_totals(recorder.spans, "op.round")

    def sec(*names):
        return sum(seconds.get(name, 0.0) for name in names)

    def per_call(name):
        n = calls.get(name, 0)
        return seconds.get(name, 0.0) / n if n else 0.0

    polls = max(1, calls.get("refine_daemon.poll", 0))
    decides = max(1, calls.get("serve.engine.decide", 0))
    appends = max(1, calls.get("store.append", 0))
    cache = episodes[-1]["cache"]
    traced = episodes[1::2]
    # the fsyncs inside the adoption lag (the seal's and the daemon's
    # state save), apart from the interval flushes under the decides
    info["fsync_ms_per_round"] = sec("store.fsync") / max(1, roots) * 1e3
    info["fsync_in_lag_ms_per_round"] = sum(
        span[2] - span[1] for span in recorder.spans
        if span[0] == "store.fsync" and _under(recorder.spans, span, LAG_SPANS)
    ) / max(1, roots) * 1e3
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache.evictions": cache["evictions"],
        "serve.cache.invalidations": cache["invalidations"],
        "serve.cache.lookup_us": sec(
            "serve.cache.get", "serve.cache.put", "serve.cache.invalidate"
        ) / decides * 1e6,
        "serve.engine.decide_self_us": per_call("serve.engine.decide") * 1e6,
        "serve.engine.snapshot_swaps": calls.get("serve.engine.swap", 0) / max(1, roots),
        "hdb.enforcement.permits_us": per_call("hdb.enforcement.permits") * 1e6,
        "hdb.auditing.record_us": per_call("hdb.auditing.record") * 1e6,
        "hdb.auditing.entries_per_decide": calls.get("store.append", 0) / decides,
        "store.append_us": per_call("store.append") * 1e6,
        "store.fsyncs_per_1k_entries": calls.get("store.fsync", 0) / appends * 1e3,
        "store.fsync_us": per_call("store.fsync") * 1e6,
        "store.seal_ms": per_call("store.seal") * 1e3,
        "refinement.prune_s": sec("refinement.prune") / polls,
        "refinement.patterns_mined": episodes[-1]["patterns_mined"],
        "coverage.set_s": sec("coverage.set") / polls,
        "parallel.map_s": sec("parallel.map_shard", "parallel.shard") / polls,
        "parallel.shards": calls.get("parallel.map_shard", 0) / polls,
        "refine_daemon.consume_ms": sec("refine_daemon.consume") / polls * 1e3,
        "refine_daemon.mine_ms": sec("refine_daemon.mine") / polls * 1e3,
        "refine_daemon.gate_ms": sec("refine_daemon.gate") / polls * 1e3,
        "refine_daemon.state_save_ms": sec("refine_daemon.state_save") / polls * 1e3,
        "refine_daemon.adopt_ms": sec("refine_daemon.adopt") / polls * 1e3,
        "refine_daemon.poll_self_ms": sec("refine_daemon.poll", "refine_daemon.state_load")
        / polls * 1e3,
        "refine_daemon.rules_adopted": sum(e["adopted"] for e in traced) / len(traced),
        "host.steal_share": steal,
        "obs.trace_overhead_pct": (
            harness.median(traced_per_1k_ms) / harness.median(per_1k_ms) - 1
        ) * 100.0,
        "obs.attributed_pct": (1 - seconds.get("op.round", 0.0) / root_seconds) * 100.0,
    }


def _under(all_spans, span, names) -> bool:
    """Whether ``span`` has an ancestor named in ``names``."""
    parent = span[3]
    while parent >= 0:
        if all_spans[parent][0] in names:
            return True
        parent = all_spans[parent][3]
    return False
