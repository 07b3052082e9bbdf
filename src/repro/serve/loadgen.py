"""The load driver replaying workload traffic against a live PDP server.

:func:`run_load` sends payloads from ``clients`` threads per driver
process, in one of two shapes:

* **open loop** (a positive ``target_rps``): request *i* is intended at
  ``t0 + i/target_rps`` and its latency runs from that **intended** send
  time, not from whenever a client got around to sending it.  A server
  stall therefore penalises every request scheduled during the stall,
  which is what a real arrival process would experience (no coordinated
  omission), and ``late_sends`` counts the sends that started behind
  schedule.
* **closed loop** (``target_rps=None``): each client sends its next
  request the moment its previous answer lands, and latency runs from
  the actual send.  A single-client closed run sends in payload order.

Latencies land in one :class:`repro.obs.metrics.Histogram` over
geometric buckets (growth 1.25), so p50/p90/p99 read through
:func:`~repro.obs.metrics.estimate_quantile` are within about ±12.5 %,
and driver processes' histograms merge exactly.

Feed the driver decision payloads — typically
:func:`repro.workload.traces.decision_payloads` over a synthetic audit
log.  Shed (``OVERLOADED``) responses are outcomes, not errors.  The
E18, E19 and E21 benchmarks sit on it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram, estimate_quantile, log_buckets
from repro.serve.client import PdpClient, RetryPolicy

#: latency bucket bounds in ms: 1 µs up to ~17 minutes, far past any
#: deadline, at growth 1.25 (±12.5 % quantile error)
LATENCY_BUCKETS_MS = log_buckets(0.001, 1_000_000.0, base=1.25)


def latency_histogram() -> Histogram:
    """An empty histogram over the driver's latency buckets."""
    return Histogram("repro_serve_load_latency_ms", {}, LATENCY_BUCKETS_MS)


@dataclass
class LoadReport:
    """One load run: outcomes, latency and schedule adherence."""

    #: the open loop's offered rate; None for a closed-loop run
    target_rps: float | None = None
    scheduled: int = 0
    errors: int = 0
    seconds: float = 0.0
    codes: dict = field(default_factory=dict)
    histogram: Histogram = field(default_factory=latency_histogram)
    #: open-loop sends that started behind schedule; high values mean
    #: the measured latencies include client-side queueing — exactly what
    #: coordinated omission would hide
    late_sends: int = 0

    @property
    def requests(self) -> int:
        """Requests that got an answer (any code)."""
        return self.histogram.count

    @property
    def throughput_rps(self) -> float:
        """Answered requests per second of wall-clock run time."""
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def ok(self) -> int:
        return self.codes.get("OK", 0)

    @property
    def denied(self) -> int:
        return self.codes.get("DENIED", 0)

    @property
    def shed(self) -> int:
        return self.codes.get("OVERLOADED", 0)

    @property
    def max_ms(self) -> float:
        """The largest latency in ms (0 when empty)."""
        peak = self.histogram.max
        return 0.0 if peak is None else peak

    @property
    def mean_ms(self) -> float:
        """Arithmetic mean latency in ms (0 when empty)."""
        hist = self.histogram
        return hist.sum / hist.count if hist.count else 0.0

    def quantile_ms(self, fraction: float) -> float:
        """The ``fraction`` latency quantile in ms, a bucket estimate
        capped at the largest sample (0 when empty)."""
        hist = self.histogram
        estimate = estimate_quantile(hist.cumulative_buckets(), fraction, hist.max)
        return 0.0 if estimate is None else estimate

    def summary(self) -> dict:
        """JSON-ready flattening of the report."""
        return {
            "target_rps": (
                None if self.target_rps is None else round(self.target_rps, 2)
            ),
            "scheduled": self.scheduled,
            "requests": self.requests,
            "ok": self.ok,
            "denied": self.denied,
            "shed": self.shed,
            "errors": self.errors,
            "late_sends": self.late_sends,
            "seconds": round(self.seconds, 6),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.quantile_ms(0.50), 3),
            "p90_ms": round(self.quantile_ms(0.90), 3),
            "p99_ms": round(self.quantile_ms(0.99), 3),
            "max_ms": round(self.max_ms, 3),
            "mean_ms": round(self.mean_ms, 4),
            "codes": dict(sorted(self.codes.items())),
        }


def _load_shard(task: tuple) -> dict:
    """One driver process's share (module-level so 'spawn' can pickle it).

    ``task`` is ``(host, port, payloads, target_rps, clients, timeout)``;
    returns a picklable dict merged by :func:`run_load`.
    """
    host, port, payloads, target_rps, clients, timeout = task
    total = len(payloads)
    interval = None if target_rps is None else 1.0 / target_rps
    clients = max(1, min(clients, total or 1))
    counter = itertools.count()
    lock = threading.Lock()
    hist = latency_histogram()
    codes: dict[str, int] = {}
    errors = late = 0
    # small lead so request 0 is not already behind schedule by the time
    # the worker threads have spun up
    start = time.perf_counter() + 0.05

    def worker() -> None:
        nonlocal errors, late
        local_hist = latency_histogram()
        local_codes: dict[str, int] = {}
        local_errors = local_late = 0
        client = PdpClient(host, port, timeout=timeout, retry=RetryPolicy())
        try:
            client.connect()
            while True:
                with lock:
                    index = next(counter)
                if index >= total:
                    break
                if interval is None:
                    sent = time.perf_counter()
                else:
                    # the coordinated-omission fix: latency runs from the
                    # *intended* send time, so client-side schedule slip
                    # is charged to the server that caused it
                    sent = start + index * interval
                    lag = sent - time.perf_counter()
                    if lag > 0:
                        time.sleep(lag)
                    else:
                        local_late += 1
                try:
                    response = client.request(payloads[index])
                    code = response.get("code", "INTERNAL")
                except Exception:
                    local_errors += 1
                    continue
                ms = (time.perf_counter() - sent) * 1000.0
                local_hist.observe(ms)
                local_codes[code] = local_codes.get(code, 0) + 1
        finally:
            client.close()
        with lock:
            hist.merge(local_hist)
            errors += local_errors
            late += local_late
            for code, count in local_codes.items():
                codes[code] = codes.get(code, 0) + count

    threads = [
        threading.Thread(target=worker, name=f"pdp-load-{i}", daemon=True)
        for i in range(clients)
    ]
    begun = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "scheduled": total,
        "seconds": time.perf_counter() - begun,
        "errors": errors,
        "late_sends": late,
        "codes": codes,
        "histogram": hist,
    }


def run_load(
    host: str,
    port: int,
    payloads: list[dict],
    target_rps: float | None = None,
    clients: int = 4,
    timeout: float = 30.0,
    processes: int = 1,
) -> LoadReport:
    """Replay ``payloads`` against ``host:port``; returns one report.

    A positive ``target_rps`` drives an open-loop schedule: request *i*
    is intended at ``t0 + i/target_rps``, and when the driver falls
    behind it sends at once but still measures latency from the intended
    time.  A very large rate degenerates into a max-rate capacity probe.
    ``None`` drives a closed loop.  ``clients`` bounds the in-flight
    requests per driver process; ``processes > 1`` fans the payloads out
    over that many *driver processes* (spawn context, each taking an
    interleaved shard at ``target_rps/processes``) so one GIL cannot cap
    the offered load when benchmarking a multi-worker fleet.
    """
    if target_rps is not None and target_rps <= 0:
        raise ValueError(f"target_rps must be positive, got {target_rps!r}")
    processes = max(1, min(processes, len(payloads) or 1))
    if processes == 1:
        raws = [_load_shard((host, port, payloads, target_rps, clients, timeout))]
    else:
        rate = None if target_rps is None else target_rps / processes
        tasks = [
            (host, port, payloads[i::processes], rate, clients, timeout)
            for i in range(processes)
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
            raws = list(pool.map(_load_shard, tasks))
    report = LoadReport(target_rps=target_rps)
    for raw in raws:
        report.scheduled += raw["scheduled"]
        report.errors += raw["errors"]
        report.late_sends += raw["late_sends"]
        report.seconds = max(report.seconds, raw["seconds"])
        for code, count in raw["codes"].items():
            report.codes[code] = report.codes.get(code, 0) + count
        report.histogram.merge(raw["histogram"])
    return report
