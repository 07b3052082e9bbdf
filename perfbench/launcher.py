"""Server-side launcher for the ``decide_open`` workload.

Runs in its own process, so no server thread shares an interpreter lock
with the load generator.  It

1. imports the system (outside every timer);
2. rehearses the serving set-up :data:`SETUP_REPS` times — open a durable
   trail, build the demo engine, attach the provenance spool, bind the
   listener — exactly the steps ``repro serve --store-dir`` takes, each
   on a fresh directory, then tears it down (and as many times again
   once serving is over, so the samples do not share one stretch of
   host speed), each scaled to the reference host speed
   (:class:`harness.HostScale`);
3. with ``--trace 1``, installs the span wrappers (recording off;
   ``SIGUSR1`` turns recording on, ``SIGUSR2`` off);
4. hands over to ``repro.cli.main(["serve", ...])`` with shipped
   defaults;
5. after the server drains (``admin.shutdown``), writes its set-up
   samples, peak memory and, when traced, the per-layer span totals to
   ``--result``.

Usage: ``python3 perfbench/launcher.py --store-dir DIR --result FILE
[--trace 0|1]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import sys
import time
from pathlib import Path

import harness
import spans

#: serving set-ups rehearsed before serving, and as many again after,
#: for ``setup_s``
SETUP_REPS = 30


async def _rehearse(directory: Path) -> float:
    """One timed serving set-up (store, engine, spool, listener)."""
    from repro.obs.provenance import PROVENANCE_NAME, ProvenanceLedger
    from repro.serve import PdpServer, ServerConfig, build_demo_engine
    from repro.store.durable import DurableAuditLog

    started = time.perf_counter()
    audit_log = DurableAuditLog(directory, name="served")
    engine = build_demo_engine(audit_log=audit_log)
    engine.provenance = ProvenanceLedger(directory / PROVENANCE_NAME)
    server = PdpServer(engine, ServerConfig(port=0))
    await server.start()
    elapsed = time.perf_counter() - started
    await server.shutdown()
    engine.provenance.close()
    audit_log.close()
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    harness.require_source()

    import repro.cli

    store_dir = Path(arguments.store_dir)
    setup: list = []

    host = harness.HostScale()

    def rehearse(count: int) -> None:
        for _ in range(count):
            directory = store_dir.parent / f"rehearsal-{len(setup)}"
            shutil.rmtree(directory, ignore_errors=True)
            setup.append(asyncio.run(_rehearse(directory)) * host.factor())
            shutil.rmtree(directory, ignore_errors=True)

    rehearse(SETUP_REPS)

    recorder = spans.Recorder()
    if arguments.trace:
        import plans

        spans.install(recorder, plans.serve_plan())

        def _toggle(signum, frame):
            recorder.on = signum == signal.SIGUSR1

        signal.signal(signal.SIGUSR1, _toggle)
        signal.signal(signal.SIGUSR2, _toggle)

    code = repro.cli.main(
        ["serve", "--port", "0", "--store-dir", str(store_dir)]
    )
    peak = harness.peak_rss_mib()
    rehearse(SETUP_REPS)
    result = {
        "code": code,
        "setup_s": setup,
        "peak_rss_mib": peak,
        "host_probe_p50_ms": harness.median(host.probes) * 1e3,
    }
    if arguments.trace:
        seconds, calls, _, _ = spans.layer_totals(recorder.spans)
        result["layers"] = {"seconds": seconds, "calls": calls}
    Path(arguments.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
