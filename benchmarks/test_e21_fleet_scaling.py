"""E21 — the decision-service fleet: scale-out, identity, federation.

DESIGN.md §14 commits the multi-process fleet to three promises:

1. **Scale-out that scales** — N workers behind one shared port serve
   real multiples of one worker's throughput (asserted ≥3× at 4 workers,
   but only on a host with ≥4 CPUs — a 1-core container runs the probe
   and records the ratio without enforcing it).
2. **Federated trails lose nothing** — each worker audits into its own
   durable segment directory; consolidating them through the PR 3/4
   federation layer yields exactly the entry set a single-process server
   produces for the same traffic (times excluded: each worker runs its
   own logical clock).
3. **One refinement input** — ``refine()`` over the consolidated fleet
   trail is byte-identical to ``refine()`` over the single-process
   trail, so the closed loop neither multiplies nor drops evidence when
   the deployment scales out.

Plus the control-channel check: an admin broadcast issued *while decide
traffic is in flight* converges every worker to the same versions.

Knobs: ``E21_REQUESTS`` (default 1200), ``E21_WORKERS`` (default
min(4, cpus), floor 2).  A JSON record lands in
``benchmarks/out/e21_fleet_scaling.json``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from benchmarks.conftest import emit
from repro.experiments.reporting import format_table
from repro.fleet import FleetConfig, FleetSupervisor, consolidated_trail
from repro.policy.parser import format_rule, parse_policy
from repro.refinement.engine import refine
from repro.experiments.harness import DEMO_RULES
from repro.serve import (
    PdpClient,
    ServerConfig,
    ServerThread,
    build_demo_engine,
    run_load,
)
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.vocab.builtin import healthcare_vocabulary
from repro.workload.traces import demo_decision_payloads

_REQUESTS = int(os.environ.get("E21_REQUESTS", "1200"))
_WORKERS = int(os.environ.get(
    "E21_WORKERS", str(max(2, min(4, os.cpu_count() or 1)))
))
_ROWS = 120
_SEED = 7
_SEGMENT_ENTRIES = 64
_SWEEP_RATES = (500.0, 1000.0, 2000.0, 4000.0)

_OUT_PATH = Path(__file__).parent / "out" / "e21_fleet_scaling.json"


def _entry_key(entry):
    """Identity key with time excluded: worker clocks tick independently."""
    return (entry.op, entry.user, entry.data, entry.purpose,
            entry.authorized, entry.status, entry.truth)


def _refine_bytes(trail) -> bytes:
    """Canonical serialization of one ``refine()`` run over ``trail``."""
    store = parse_policy("\n".join(DEMO_RULES))
    result = refine(store, trail, healthcare_vocabulary())
    document = {
        "set_coverage": round(result.coverage.ratio, 12),
        "entry_coverage": round(result.entry_coverage.ratio, 12),
        "patterns": [
            {"rule": format_rule(pattern.rule), "support": pattern.support,
             "users": pattern.distinct_users}
            for pattern in result.patterns
        ],
        "useful": [
            {"rule": format_rule(pattern.rule), "support": pattern.support,
             "users": pattern.distinct_users}
            for pattern in result.useful_patterns
        ],
    }
    return json.dumps(document, sort_keys=True).encode()


def _single_process_phase(root: Path, payloads) -> dict:
    """The baseline: one server, one durable trail, closed-loop load."""
    directory = root / "single"
    audit_log = DurableAuditLog(
        directory, config=StoreConfig(max_segment_entries=_SEGMENT_ENTRIES),
        name="served",
    )
    engine = build_demo_engine(rows=_ROWS, seed=_SEED, audit_log=audit_log)
    with ServerThread(engine, ServerConfig(port=0)) as srv:
        report = run_load(srv.host, srv.port, payloads, clients=4)
    audit_log.close()
    trail = DurableAuditLog(directory, name="served", create=False)
    summary = report.summary()
    summary["audit_entries"] = len(trail)
    return {
        "summary": summary,
        "keys": sorted(_entry_key(entry) for entry in trail),
        "refine": _refine_bytes(trail),
    }


def _fleet_phase(root: Path, payloads) -> dict:
    """The fleet run: same traffic, plus a mid-load admin broadcast."""
    store_dir = root / "fleet"
    config = FleetConfig(
        store_dir=str(store_dir), workers=_WORKERS, rows=_ROWS, seed=_SEED,
        segment_entries=_SEGMENT_ENTRIES,
    )
    broadcast: dict = {}
    with FleetSupervisor(config) as supervisor:

        def converge_mid_load():
            # fire while the closed-loop replay below is in flight, so the
            # broadcast interleaves with live decide traffic on every
            # worker.  Consent does not alter demo decide outcomes (the
            # decide path is policy-only), so the trails stay comparable.
            with PdpClient(supervisor.host, supervisor.port) as admin:
                broadcast["response"] = admin.record_consent(
                    "p000001", "research", True
                )

        timer = threading.Timer(0.1, converge_mid_load)
        timer.start()
        report = run_load(
            supervisor.host, supervisor.port, payloads,
            clients=max(4, 2 * _WORKERS),
        )
        timer.join()
        status = supervisor.status()
        supervisor.sync()
    trail = consolidated_trail(store_dir)
    summary = report.summary()
    summary["audit_entries"] = len(trail)
    per_worker = {
        worker["site"]: worker["audit_entries"]
        for worker in status["workers"]
    }
    return {
        "summary": summary,
        "keys": sorted(_entry_key(entry) for entry in trail),
        "refine": _refine_bytes(trail),
        "status": status,
        "broadcast": broadcast.get("response"),
        "per_worker_entries": per_worker,
    }


def _capacity_probe(root: Path, workers: int, payloads) -> dict:
    """Open-loop saturation sweep against a fresh ``workers``-sized fleet."""
    config = FleetConfig(
        store_dir=str(root / f"capacity-{workers}"), workers=workers,
        rows=_ROWS, seed=_SEED,
    )
    processes = 2 if (os.cpu_count() or 1) >= 4 else 1
    sweep = []
    with FleetSupervisor(config) as supervisor:
        for rate in _SWEEP_RATES:
            report = run_load(
                supervisor.host, supervisor.port, payloads,
                target_rps=rate, clients=4, processes=processes,
            )
            sweep.append(report.summary())
    return {
        "workers": workers,
        "driver_processes": processes,
        "sweep": sweep,
        "capacity_rps": max(point["throughput_rps"] for point in sweep),
    }


def test_e21_fleet_scaling(tmp_path):
    payloads = demo_decision_payloads(_REQUESTS)

    single = _single_process_phase(tmp_path, payloads)
    fleet = _fleet_phase(tmp_path, payloads)
    probe_payloads = demo_decision_payloads(min(_REQUESTS, 800))
    baseline = _capacity_probe(tmp_path, 1, probe_payloads)
    scaled = _capacity_probe(tmp_path, _WORKERS, probe_payloads)
    speedup = scaled["capacity_rps"] / max(baseline["capacity_rps"], 1e-9)

    cpus = os.cpu_count() or 1
    speedup_enforced = cpus >= 4 and _WORKERS >= 4
    refine_identical = single["refine"] == fleet["refine"]
    trails_identical = single["keys"] == fleet["keys"]

    record = {
        "experiment": "E21",
        "requests": _REQUESTS,
        "workers": _WORKERS,
        "rows": _ROWS,
        "cpus": cpus,
        "single": single["summary"],
        "fleet": fleet["summary"],
        "per_worker_entries": fleet["per_worker_entries"],
        "trails_identical": trails_identical,
        "refine_identical": refine_identical,
        "converged_under_load": fleet["status"]["converged"],
        "capacity": {"single": baseline, "fleet": scaled},
        "speedup": round(speedup, 3),
        "speedup_enforced": speedup_enforced,
    }
    _OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    _OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        format_table(
            ["measure", "single", f"fleet ({_WORKERS}w)"],
            [
                ["closed-loop rps", single["summary"]["throughput_rps"],
                 fleet["summary"]["throughput_rps"]],
                ["audit entries", single["summary"]["audit_entries"],
                 fleet["summary"]["audit_entries"]],
                ["open-loop capacity (rps)", baseline["capacity_rps"],
                 scaled["capacity_rps"]],
                ["trail entry sets", "-",
                 "identical" if trails_identical else "DIVERGED"],
                ["refine() output", "-",
                 "byte-identical" if refine_identical else "DIVERGED"],
                ["converged under load", "-",
                 fleet["status"]["converged"]],
            ],
            title=(
                f"E21 — fleet scale-out, {_REQUESTS} requests, "
                f"{cpus} cpus, speedup {speedup:.2f}x"
                f"{'' if speedup_enforced else ' (not enforced)'}"
            ),
        )
        + f"\nJSON record: {_OUT_PATH}"
    )

    # closed-loop phases must audit every request exactly once: no
    # shedding, no errors, or the identity comparison is meaningless
    assert single["summary"]["errors"] == 0
    assert fleet["summary"]["errors"] == 0
    assert single["summary"]["shed"] == 0
    assert fleet["summary"]["shed"] == 0
    assert single["summary"]["audit_entries"] == _REQUESTS

    # (b) federated per-worker trails consolidate to the single-process
    # entry set — nothing lost, nothing duplicated
    assert fleet["summary"]["audit_entries"] == _REQUESTS
    assert trails_identical, "consolidated fleet trail diverged from baseline"
    assert sum(fleet["per_worker_entries"].values()) == _REQUESTS

    # (c) one refinement input: byte-identical refine() either way
    assert refine_identical, "refine() over the federated trail diverged"

    # admin broadcast under concurrent decide traffic converged the fleet
    assert fleet["broadcast"]["ok"] is True
    assert fleet["broadcast"]["fleet"]["acks"] == _WORKERS
    assert fleet["status"]["converged"] is True
    consent_versions = [worker["versions"]["consent"]
                        for worker in fleet["status"]["workers"]]
    assert consent_versions == [1] * _WORKERS

    # (a) ≥3× capacity at 4 workers — enforced only where the host can
    assert speedup > 0
    if speedup_enforced:
        assert speedup >= 3.0, (
            f"fleet of {_WORKERS} reached only {speedup:.2f}x of one worker"
        )
