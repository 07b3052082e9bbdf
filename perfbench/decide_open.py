"""Workload ``decide_open``: served decides on a fixed open-loop schedule.

A ``repro serve`` process (shipped defaults: cache on, tracing sampled
1/64, durable trail with ``fsync="interval"``) runs in its own process
via :mod:`launcher`.  This process is the load generator: two
connections, one thread each, sending seeded ``decide`` frames on a
fixed schedule of :data:`RATE` requests per second.  Each request is
timed from its *intended* send time, so a stall that delays later sends
is charged to them.  A connection sends its next frame when it is due
and its previous answer is in; a late answer therefore makes the next
send late, and :data:`LATE_MS` counts how often.

Checks: every response equals the response an in-process engine built
the same way gives for the same request (``id`` aside), and the durable
trail holds exactly the entries those responses imply.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import traffic

#: open-loop request rate, requests per second over both connections
RATE = 400.0
#: connections (one sender/receiver thread each)
CONNECTIONS = 2
#: seconds of traffic before the measured window (cache fill, JIT-free warm)
WARMUP_S = 2.0
#: quiet gap between the untraced and traced halves of a traced run
GAP_S = 0.5
#: a send this late (ms) counts toward ``loadgen.late_share``
LATE_MS = 1.0
#: the latency medians are medians over windows of this many seconds of
#: intended send time, each window taking its own median
WINDOW_S = 2.0
#: the traffic whose digest is pinned (checked every run)
PIN_SEED, PIN_COUNT = 0, 512

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def _expected(requests) -> tuple[dict, dict]:
    """Responses and audit-entry counts per request key, in process."""
    from repro.serve import build_demo_engine
    from repro.serve.protocol import ServeRequest

    engine = build_demo_engine()
    responses: dict = {}
    entries: dict = {}
    for request in requests:
        key = traffic.request_key(request)
        if key in responses:
            continue
        before = len(engine.audit_log)
        responses[key] = engine.decide(
            ServeRequest(
                op="decide",
                user=request["user"],
                role=request["role"],
                purpose=request["purpose"],
                categories=tuple(request["categories"]),
                exception=request["exception"],
            )
        )
        entries[key] = len(engine.audit_log) - before
    policy = engine.manager.current.policy_store.policy()
    return {k: json.loads(json.dumps(v)) for k, v in responses.items()}, {
        "entries": entries,
        "policy": policy,
    }


def _start_server(store_dir: Path, result: Path, trace: int):
    process = subprocess.Popen(
        [
            sys.executable, str(LAUNCHER),
            "--store-dir", str(store_dir),
            "--result", str(result),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        cwd=str(harness.ROOT),
        env=harness.child_env(),
        text=True,
    )
    deadline = time.monotonic() + 120
    for line in process.stdout:
        if line.startswith("pdp server listening on "):
            host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
            # keep draining stdout so the server never blocks on a full pipe
            threading.Thread(
                target=lambda: [None for _ in process.stdout], daemon=True
            ).start()
            return process, host, int(port)
        if time.monotonic() > deadline:
            break
    process.kill()
    process.wait(timeout=30)
    raise harness.BenchError("the server did not come up")


def _connection(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _drive(sock, frames, due, indices, sent, done, replies) -> None:
    reader = sock.makefile("rb")
    for index in indices:
        delay = due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[index] = time.perf_counter()
        sock.sendall(frames[index])
        replies[index] = reader.readline()
        done[index] = time.perf_counter()


def _round_trip(host: str, port: int, payload: dict) -> dict:
    with _connection(host, port) as sock:
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        return json.loads(sock.makefile("rb").readline())


def run(seed: int, seconds: float, trace: int) -> tuple:
    """One run; returns ``(correct, attempted, failed, values, info, layers)``."""
    from repro.coverage.engine import compute_entry_coverage
    from repro.store.durable import DurableAuditLog
    from repro.vocab.builtin import healthcare_vocabulary

    harness.check_pin(
        "decide_traffic", harness.digest(traffic.decide_requests(PIN_SEED, PIN_COUNT))
    )
    warm = int(RATE * WARMUP_S)
    measured = int(RATE * seconds)
    half = measured // 2
    requests = traffic.decide_requests(seed, warm + measured)
    frames = traffic.encode(requests)
    expected, context = _expected(requests)

    work = harness.WORK / "decide_open"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store_dir = work / "store"
    result_path = work / "server.json"
    process, host, port = _start_server(store_dir, result_path, trace)
    try:
        count = len(frames)
        offsets = [index / RATE for index in range(count)]
        if trace:
            gap_from = warm + half
            offsets = [
                offset + (GAP_S if index >= gap_from else 0.0)
                for index, offset in enumerate(offsets)
            ]
        sent = [0.0] * count
        done = [0.0] * count
        replies: list = [b""] * count
        sockets = [_connection(host, port) for _ in range(CONNECTIONS)]
        steal_before = harness.cpu_times()
        start = time.perf_counter() + 0.05
        due = [start + offset for offset in offsets]
        threads = [
            threading.Thread(
                target=_drive,
                args=(sock, frames, due, range(c, count, CONNECTIONS), sent, done, replies),
            )
            for c, sock in enumerate(sockets)
        ]
        for thread in threads:
            thread.start()
        # host health per window, sampled while the senders run
        window_steal = []
        if not trace:
            probe_at = due[warm]
            last = harness.cpu_times()
            while any(thread.is_alive() for thread in threads):
                probe_at += WINDOW_S
                time.sleep(max(0.0, probe_at - time.perf_counter()))
                now = harness.cpu_times()
                window_steal.append(harness.steal_share(last, now))
                last = now
        if trace:
            # flip server-side recording on in the quiet gap, once every
            # untraced answer is in
            boundary = warm + half
            while time.perf_counter() < due[boundary - 1] + 0.25 and not all(
                done[boundary - 2 : boundary]
            ):
                time.sleep(0.01)
            os.kill(process.pid, signal.SIGUSR1)
        for thread in threads:
            thread.join()
        steal = harness.steal_share(steal_before, harness.cpu_times())
        if trace:
            os.kill(process.pid, signal.SIGUSR2)
        for sock in sockets:
            sock.close()
        stats = _round_trip(host, port, {"op": "stats"})
        _round_trip(host, port, {"op": "admin.shutdown"})
        process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    server = json.loads(result_path.read_text(encoding="utf-8"))
    if server["code"] != 0:
        raise harness.BenchError(f"server exited with code {server['code']}")

    # --- correctness: every response, then the trail
    failed = 0
    entries_expected = 0
    for index, raw in enumerate(replies):
        request = requests[index]
        key = traffic.request_key(request)
        entries_expected += context["entries"][key]
        try:
            response = json.loads(raw)
        except ValueError:
            failed += 1
            continue
        if response.pop("id", None) != index or response != expected[key]:
            failed += 1
    trail = DurableAuditLog(store_dir, name="served")
    try:
        trail_entries = len(trail)
        audit_policy = trail.to_policy()
        coverage = compute_entry_coverage(
            context["policy"], iter(audit_policy), healthcare_vocabulary()
        ).ratio
    finally:
        trail.close()
    trail_ok = trail_entries == entries_expected
    bytes_per_entry = harness.store_bytes(store_dir) / max(1, trail_entries)

    # --- latency from intended send, over the measured window
    window = range(warm, count)
    latency_ms = [(done[i] - due[i]) * 1e3 for i in window]
    exception_ms = [(done[i] - due[i]) * 1e3 for i in window if requests[i]["exception"]]
    windows: dict = {}
    for i in window:
        slot = windows.setdefault(int((due[i] - due[warm]) / WINDOW_S), ([], []))
        slot[0].append((done[i] - due[i]) * 1e3)
        if requests[i]["exception"]:
            slot[1].append((done[i] - due[i]) * 1e3)
    window_p50 = [harness.median(all_ms) for all_ms, _ in windows.values()]
    window_exception_p50 = [harness.median(exc) for _, exc in windows.values() if exc]
    late = sum(1 for i in window if (sent[i] - due[i]) * 1e3 > LATE_MS)
    span_s = done[count - 1] - due[warm] - (GAP_S if trace else 0.0)
    values = {
        "setup_s": harness.median(server["setup_s"]),
        "peak_rss_mb": server["peak_rss_mib"],
        "op_p50_ms": harness.median(window_p50),
        "op2_p50_ms": harness.median(window_exception_p50),
        "bytes_per_entry": bytes_per_entry,
        "coverage_pct": coverage * 100.0,
    }
    info = {
        "workload": "decide_open",
        "seed": seed,
        "requests": count,
        "measured": len(latency_ms),
        "exceptions": len(exception_ms),
        "p50_ms": harness.median(latency_ms),
        "send_lag_p50_ms": harness.median([(sent[i] - due[i]) * 1e3 for i in window]),
        "rtt_p50_ms": harness.median([(done[i] - sent[i]) * 1e3 for i in window]),
        "exception_p50_ms": harness.median(exception_ms),
        "window_p50_ms": window_p50,
        "window_steal": window_steal,
        "p90_ms": harness.quantile(latency_ms, 0.90),
        "p99_ms": harness.quantile(latency_ms, 0.99),
        "late_share": late / len(latency_ms),
        "achieved_rps": len(latency_ms) / span_s,
        "host_steal_share": steal,
        "trail_entries": trail_entries,
        "traffic_digest": harness.digest(requests),
        "setup_samples": len(server["setup_s"]),
        "host_probe_p50_ms": server["host_probe_p50_ms"],
        "cache": stats.get("decision_cache"),
    }
    layers = {}
    if trace:
        layers = _layers(server, stats, requests, due, sent, done, warm, half, info)
    correct = failed == 0 and trail_ok
    return correct, count, failed + (0 if trail_ok else 1), values, info, layers


def _layers(server, stats, requests, due, sent, done, warm, half, info) -> dict:
    """Per-layer metrics from the traced (second) half of the run."""
    seconds = server["layers"]["seconds"]
    calls = server["layers"]["calls"]

    def total(*names):
        return sum(seconds.get(name, 0.0) for name in names)

    def per(value, name):
        n = calls.get(name, 0)
        return value / n if n else 0.0

    frames = calls.get("serve.protocol.decode", 0)
    decides = calls.get("serve.engine.decide", 0)
    appends = calls.get("store.append", 0)
    count = len(requests)
    untraced = [(done[i] - due[i]) * 1e3 for i in range(warm, warm + half)]
    traced_window = range(warm + half, count)
    traced = [(done[i] - due[i]) * 1e3 for i in traced_window]
    rtt_us = sum(done[i] - sent[i] for i in traced_window) / len(traced_window) * 1e6
    handle_us = sum(seconds.values()) / max(1, frames) * 1e6
    transport_us = rtt_us - handle_us
    cache = stats.get("decision_cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    named = {
        "serve.protocol.decode_us": total("serve.protocol.decode", "serve.protocol.parse")
        / max(1, frames) * 1e6,
        "serve.protocol.encode_us": per(total("serve.protocol.encode"), "serve.protocol.encode")
        * 1e6,
        "serve.server.transport_us": transport_us,
        "serve.cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serve.cache.evictions": cache.get("evictions", 0),
        "serve.cache.invalidations": cache.get("invalidations", 0),
        "serve.cache.lookup_us": total(
            "serve.cache.get", "serve.cache.put", "serve.cache.invalidate"
        ) / max(1, decides) * 1e6,
        "serve.engine.decide_self_us": per(total("serve.engine.decide"), "serve.engine.decide")
        * 1e6,
        "serve.engine.snapshot_swaps": calls.get("serve.engine.swap", 0),
        "hdb.enforcement.permits_us": per(
            total("hdb.enforcement.permits"), "hdb.enforcement.permits"
        ) * 1e6,
        "hdb.auditing.record_us": per(total("hdb.auditing.record"), "hdb.auditing.record")
        * 1e6,
        "hdb.auditing.entries_per_decide": appends / max(1, decides),
        "store.append_us": per(total("store.append"), "store.append") * 1e6,
        "store.fsyncs_per_1k_entries": calls.get("store.fsync", 0) / max(1, appends) * 1e3,
        "store.fsync_us": per(total("store.fsync"), "store.fsync") * 1e6,
        "loadgen.late_share": info["late_share"],
        "loadgen.achieved_rps": info["achieved_rps"],
        "loadgen.p99_ms": harness.quantile(untraced, 0.99),
        "host.steal_share": info["host_steal_share"],
        "obs.trace_overhead_pct": (harness.median(traced) / harness.median(untraced) - 1)
        * 100.0,
    }
    # the server-side layers plus the transport residual, against the
    # client's round trip (the residual makes this 100 % by definition)
    named["obs.attributed_pct"] = (handle_us + transport_us) / rtt_us * 100.0
    info["traced_frames"] = frames
    info["rtt_us"] = rtt_us
    info["server_handle_us"] = handle_us
    return named
