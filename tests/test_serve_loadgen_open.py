"""The load driver: its latency histogram, the open loop's schedule
(coordinated omission) and the cross-process merge."""

from __future__ import annotations

import pickle
from bisect import bisect_left

import pytest

from repro.obs import MetricsRegistry
from repro.obs.exposition import render_summary
from repro.obs.metrics import estimate_quantile
from repro.serve import (
    LoadReport,
    ServerConfig,
    ServerThread,
    build_demo_engine,
    run_load,
)
from repro.serve.loadgen import LATENCY_BUCKETS_MS, latency_histogram
from repro.workload.traces import demo_decision_payloads


def _quantile(hist, fraction):
    return estimate_quantile(hist.cumulative_buckets(), fraction)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = latency_histogram()
        assert hist.count == 0
        assert _quantile(hist, 0.5) is None
        report = LoadReport()
        assert report.quantile_ms(0.5) == 0.0
        assert report.mean_ms == 0.0
        assert report.summary()["p99_ms"] == 0.0

    def test_records_land_in_geometric_buckets(self):
        hist = latency_histogram()
        for value in (0.5, 1.0, 2.0, 4.0, 8.0):
            hist.observe(value)
            # each sample's bucket bound is within one growth step of it
            bound = LATENCY_BUCKETS_MS[bisect_left(LATENCY_BUCKETS_MS, value)]
            assert value <= bound < value * 1.25
        assert hist.count == 5
        assert 0.4 <= _quantile(hist, 0.0) <= 0.6
        assert 8.0 <= _quantile(hist, 1.0) < 8.0 * 1.25

    def test_quantile_error_is_bounded_by_bucket_width(self):
        values = [0.1 + 0.01 * i for i in range(1000)]
        report = LoadReport()
        for value in values:
            report.histogram.observe(value)
        ordered = sorted(values)
        for fraction in (0.5, 0.9, 0.99):
            exact = ordered[int(fraction * (len(values) - 1))]
            # geometric growth 1.25 bounds relative error to ~±12.5%;
            # the top bucket holds samples only up to the largest one,
            # which is why the report caps its estimates there
            assert abs(report.quantile_ms(fraction) - exact) / exact < 0.13
            if fraction < 0.99:
                estimate = _quantile(report.histogram, fraction)
                assert abs(estimate - exact) / exact < 0.13

    def test_merge_equals_single_histogram(self):
        left, right, both = (
            latency_histogram(), latency_histogram(), latency_histogram()
        )
        for index in range(200):
            value = 0.05 * (index + 1)
            (left if index % 2 else right).observe(value)
            both.observe(value)
        left.merge(right)
        assert left.count == both.count
        assert left.sum == pytest.approx(both.sum)
        assert left.cumulative_buckets() == both.cumulative_buckets()
        for quantile in (0.5, 0.9, 0.99):
            assert _quantile(left, quantile) == pytest.approx(
                _quantile(both, quantile)
            )

    def test_pickle_round_trip(self):
        # driver processes ship their histograms back pickled
        hist = latency_histogram()
        for value in (0.2, 3.5, 700.0):
            hist.observe(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.count == hist.count
        assert clone.sum == pytest.approx(hist.sum)
        assert clone.cumulative_buckets() == hist.cumulative_buckets()

    def test_negative_and_zero_latencies_clamp_to_first_bucket(self):
        hist = latency_histogram()
        hist.observe(0.0)
        hist.observe(-1.0)  # a behind-schedule send measured generously
        assert hist.count == 2
        assert hist.cumulative_buckets()[0] == (LATENCY_BUCKETS_MS[0], 2)

    def test_quantiles_never_exceed_the_largest_sample(self):
        report = LoadReport()
        for value in (0.5, 1.0, 8.0):
            report.histogram.observe(value)
        assert report.max_ms == 8.0
        assert report.quantile_ms(1.0) == 8.0
        assert report.quantile_ms(0.5) <= report.quantile_ms(0.99) <= 8.0
        # the summary exposition caps at the snapshot's max the same way:
        # a uniform 0.1-10 ms sample over the driver's growth-1.25 buckets
        # reads p99 ~11.4 ms uncapped
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_test_latency_seconds", buckets=tuple(
                bound / 1000.0 for bound in LATENCY_BUCKETS_MS
            ),
        )
        values = [0.1 + 0.0099 * i for i in range(1001)]
        for value in values:
            hist.observe(value / 1000.0)
        snapshot = registry.snapshot()
        (sample,) = snapshot["histograms"]
        assert sample["max"] == pytest.approx(max(values) / 1000.0)
        uncapped = estimate_quantile(sample["buckets"], 0.99)
        assert uncapped * 1000.0 > max(values)
        line = render_summary(snapshot).splitlines()[-1]
        quantiles = dict(
            field.split("=") for field in line.split() if field[:2] in ("p5", "p9")
        )
        for tag in ("p50", "p90", "p99"):
            assert float(quantiles[tag].removesuffix("ms")) <= max(values)
        assert float(quantiles["p99"].removesuffix("ms")) == pytest.approx(
            max(values), rel=1e-3
        )


@pytest.fixture(scope="module")
def served():
    engine = build_demo_engine(rows=30, seed=7)
    srv = ServerThread(engine, ServerConfig(port=0)).start()
    try:
        yield srv
    finally:
        srv.stop()


class TestOpenLoop:
    def test_rejects_nonpositive_rate(self, served):
        for rate in (0, -5.0):
            with pytest.raises(ValueError):
                run_load(served.host, served.port, [{"op": "ping"}],
                         target_rps=rate)

    def test_open_load_reports_schedule_and_latencies(self, served):
        payloads = demo_decision_payloads(80)
        report = run_load(
            served.host, served.port, payloads, target_rps=400.0, clients=4
        )
        assert isinstance(report, LoadReport)
        assert report.scheduled == 80
        assert report.requests == 80
        assert report.errors == 0
        assert report.target_rps == 400.0
        assert report.seconds > 0
        assert sum(report.codes.values()) == 80
        assert report.histogram.count == 80
        assert report.quantile_ms(0.99) >= report.quantile_ms(0.5)
        summary = report.summary()
        assert summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]

    def test_latency_measured_from_intended_send_time(self, served):
        # an absurd target rate forces every send behind schedule: with
        # coordinated omission fixed, measured latency must include the
        # queueing delay (p99 >> a single request's service time) and the
        # driver must admit how often it fell behind
        payloads = demo_decision_payloads(120)
        report = run_load(
            served.host, served.port, payloads, target_rps=1_000_000.0,
            clients=2,
        )
        assert report.requests == 120
        assert report.late_sends > 0
        solo = run_load(
            served.host, served.port, demo_decision_payloads(10),
            target_rps=5.0, clients=1,
        )
        # the backlogged run's p99 carries wait time the solo run lacks
        assert report.quantile_ms(0.99) > solo.quantile_ms(0.05)


class TestDriverProcesses:
    @pytest.mark.parametrize("target_rps", [None, 400.0])
    def test_processes_merge_into_one_report(self, served, target_rps):
        payloads = demo_decision_payloads(60)
        solo = run_load(
            served.host, served.port, payloads, target_rps=target_rps,
            clients=2,
        )
        fanned = run_load(
            served.host, served.port, payloads, target_rps=target_rps,
            clients=2, processes=2,
        )
        assert fanned.scheduled == fanned.requests == 60
        assert fanned.histogram.count == 60
        assert fanned.errors == 0
        assert fanned.target_rps == target_rps
        # the same traffic gets the same verdicts however it is driven
        assert fanned.codes == solo.codes
        assert 0 < fanned.quantile_ms(0.5) <= fanned.max_ms
