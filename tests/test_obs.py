"""Unit tests for the telemetry layer (:mod:`repro.obs`).

Covers the metric primitives (histogram bucketing edge cases especially),
registry behaviour (get-or-create, kind conflicts, collectors, snapshots),
the span timer in both forms, the snapshot → exposition round trip, the
null registry's no-op guarantees, and the logging setup.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.metrics import CARDINALITY_BUCKETS, DEFAULT_BUCKETS, Histogram


class TestHistogramBuckets:
    def test_zero_lands_in_first_bucket(self):
        h = Histogram("h", {}, (1.0, 2.0, 4.0))
        h.observe(0.0)
        assert h.cumulative_buckets()[0] == (1.0, 1)

    def test_negative_lands_in_first_bucket(self):
        h = Histogram("h", {}, (1.0, 2.0))
        h.observe(-3.5)
        assert h.cumulative_buckets()[0] == (1.0, 1)
        assert h.sum == -3.5

    def test_huge_value_lands_in_inf_bucket(self):
        h = Histogram("h", {}, (1.0, 2.0))
        h.observe(10.0**12)
        le, count = h.cumulative_buckets()[-1]
        assert le == "+Inf"
        assert count == 1
        assert h.cumulative_buckets()[-2] == (2.0, 0)

    def test_value_on_bound_counts_into_that_bucket(self):
        h = Histogram("h", {}, (1.0, 2.0, 4.0))
        h.observe(2.0)
        assert h.cumulative_buckets()[1] == (2.0, 1)

    def test_cumulative_counts_are_monotone_and_end_at_total(self):
        h = Histogram("h", {}, (1.0, 4.0, 16.0))
        for v in (0.5, 0.5, 3.0, 10.0, 100.0):
            h.observe(v)
        counts = [count for _, count in h.cumulative_buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count == 5

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] < 1e-6
        assert DEFAULT_BUCKETS[-1] == 32.0
        assert CARDINALITY_BUCKETS[0] == 1.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", {}, (2.0, 1.0))

    def test_log_buckets_powers_of_two(self):
        assert obs.log_buckets(1, 8) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ObservabilityError):
            obs.log_buckets(0, 8)


class TestHistogramMerge:
    BOUNDS = (1.0, 2.0, 4.0, 8.0)

    def test_merge_equals_single_recording(self):
        left, right, both = (Histogram("h", {}, self.BOUNDS) for _ in range(3))
        for index, value in enumerate((0.0, 0.5, 1.5, 3.0, 3.0, 7.9, 9.0, 50.0)):
            (left if index % 3 else right).observe(value)
            both.observe(value)
        assert left.merge(right) is left
        assert left.count == both.count == 8
        assert left.sum == pytest.approx(both.sum)
        assert left.cumulative_buckets() == both.cumulative_buckets()
        assert left.max == both.max == 50.0

    def test_merge_into_empty_and_of_empty(self):
        full = Histogram("h", {}, self.BOUNDS)
        full.observe(3.0)
        empty = Histogram("h", {}, self.BOUNDS)
        assert empty.max is None
        assert empty.merge(full).cumulative_buckets() == full.cumulative_buckets()
        assert empty.max == 3.0
        before = full.cumulative_buckets()
        full.merge(Histogram("h", {}, self.BOUNDS))
        assert full.cumulative_buckets() == before
        assert full.max == 3.0

    def test_merge_carries_exemplars(self):
        left, right = Histogram("h", {}, self.BOUNDS), Histogram("h", {}, self.BOUNDS)
        right.observe(3.0, exemplar="trace-a")
        left.merge(right)
        assert left.exemplars() == [{"le": 4.0, "trace_id": "trace-a", "value": 3.0}]

    def test_mismatched_bounds_raise(self):
        left = Histogram("h", {}, self.BOUNDS)
        right = Histogram("h", {}, (1.0, 2.0, 4.0, 16.0))
        right.observe(3.0)
        with pytest.raises(ObservabilityError):
            left.merge(right)
        assert left.count == 0


class TestCounterAndGauge:
    def test_counter_is_monotone(self):
        reg = obs.MetricsRegistry()
        counter = reg.counter("repro_test_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = obs.MetricsRegistry().gauge("repro_test_size")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = obs.MetricsRegistry()
        assert reg.counter("repro_x_total", k="a") is reg.counter(
            "repro_x_total", k="a"
        )
        assert reg.counter("repro_x_total", k="a") is not reg.counter(
            "repro_x_total", k="b"
        )

    def test_kind_conflict_raises(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ObservabilityError):
            reg.gauge("repro_x_total")

    def test_invalid_names_and_labels_raise(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("bad name")
        with pytest.raises(ObservabilityError):
            reg.counter("repro_ok_total", **{"bad-label": 1})

    def test_collector_flushes_at_snapshot_time(self):
        reg = obs.MetricsRegistry()
        state = {"hits": 0, "reported": 0}

        def flush():
            reg.counter("repro_test_hits_total").inc(
                state["hits"] - state["reported"]
            )
            state["reported"] = state["hits"]

        reg.register_collector(flush)
        state["hits"] = 7
        snap = reg.snapshot()
        assert snap["counters"][0]["value"] == 7.0
        state["hits"] = 9
        assert reg.snapshot()["counters"][0]["value"] == 9.0

    def test_bound_method_collector_is_weakly_held(self):
        reg = obs.MetricsRegistry()

        class Component:
            """A throwaway instrumented component."""

            def flush(self):
                """Flush into the registry."""
                reg.counter("repro_test_dead_total").inc()

        component = Component()
        reg.register_collector(component.flush)
        reg.collect()
        del component
        reg.collect()  # prunes the dead weakref instead of raising
        assert reg.counter("repro_test_dead_total").value == 1.0

    def test_sample_values_and_delta(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_a_total", k="x").inc(2)
        before = reg.sample_values()
        reg.counter("repro_a_total", k="x").inc(3)
        reg.histogram("repro_b_seconds").observe(0.5)
        delta = obs.sample_delta(before, reg.sample_values())
        assert delta['repro_a_total{k="x"}'] == 3.0
        assert delta["repro_b_seconds#count"] == 1.0
        assert delta["repro_b_seconds#sum"] == 0.5

    def test_format_sample_stable_label_order(self):
        assert obs.format_sample("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'


class TestSpan:
    def test_context_manager_records_histogram(self):
        reg = obs.MetricsRegistry()
        with reg.span("repro_test_op", stage="x"):
            pass
        h = reg.histogram("repro_test_op_seconds", stage="x")
        assert h.count == 1
        assert h.sum >= 0.0

    def test_decorator_form_times_each_call(self):
        reg = obs.MetricsRegistry()

        @reg.span("repro_test_fn")
        def work(value):
            return value * 2

        assert work(3) == 6
        assert work(4) == 8
        assert reg.histogram("repro_test_fn_seconds").count == 2

    def test_exception_still_recorded_and_propagates(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            with reg.span("repro_test_boom"):
                raise ValueError("boom")
        assert reg.histogram("repro_test_boom_seconds").count == 1

    def test_span_emits_event_when_sink_attached(self):
        reg = obs.MetricsRegistry()
        sink, buffer = obs.memory_sink()
        reg.attach_sink(sink)
        with reg.span("repro_test_op", stage="x"):
            pass
        record = json.loads(buffer.getvalue())
        assert record["event"] == "span"
        assert record["name"] == "repro_test_op"
        assert record["stage"] == "x"
        assert record["error"] is None

    def test_module_level_span_is_late_bound(self):
        reg = obs.MetricsRegistry()

        @obs.span("repro_test_late")
        def work():
            return 1

        with obs.use_registry(reg):
            work()
        work()  # outside the scope: lands on the (different) active registry
        assert reg.histogram("repro_test_late_seconds").count == 1


class TestEventSink:
    def test_jsonl_file_sink_appends_and_counts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlEventSink(path) as sink:
            sink.emit("one", a=1)
            sink.emit("two", b="x")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["one", "two"]
        assert sink.events_written == 2

    def test_concurrent_emits_never_interleave_lines(self, tmp_path):
        """The serve loop and the refine daemon share one sink; ``emit``
        holds a lock so concurrent writers cannot tear each other's
        lines (a regression test for the unlocked original)."""
        import threading

        path = tmp_path / "events.jsonl"
        writers, per_writer = 8, 200
        with obs.JsonlEventSink(path) as sink:
            def hammer(worker: int) -> None:
                for index in range(per_writer):
                    sink.emit("span", worker=worker, index=index,
                              padding="x" * 64)

            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == writers * per_writer
        records = [json.loads(line) for line in lines]  # every line parses
        assert sink.events_written == writers * per_writer
        seen = {(r["worker"], r["index"]) for r in records}
        assert len(seen) == writers * per_writer


class TestExpositionRoundTrip:
    def _populated_registry(self) -> obs.MetricsRegistry:
        reg = obs.MetricsRegistry()
        reg.counter("repro_test_total", kind="a").inc(3)
        reg.gauge("repro_test_size").set(11)
        reg.histogram("repro_test_seconds").observe(0.004)
        return reg

    def test_snapshot_save_load_round_trip(self, tmp_path):
        snap = self._populated_registry().snapshot()
        path = obs.save_snapshot(snap, tmp_path / "m.json")
        assert obs.load_snapshot(path) == snap

    def test_load_rejects_non_snapshot(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not json", encoding="utf-8")
        with pytest.raises(ObservabilityError):
            obs.load_snapshot(bogus)
        bogus.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ObservabilityError):
            obs.load_snapshot(bogus)

    def test_prometheus_text_has_types_buckets_and_labels(self):
        text = obs.render_prometheus(self._populated_registry().snapshot())
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{kind="a"} 3' in text
        assert "# TYPE repro_test_size gauge" in text
        assert "# TYPE repro_test_seconds histogram" in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_test_seconds_count 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert obs.render_prometheus(obs.MetricsRegistry().snapshot()) == ""


class TestNullRegistry:
    def test_disabled_flag_and_shared_instruments(self):
        null = obs.NULL_REGISTRY
        assert null.enabled is False
        assert null.counter("repro_a_total") is null.counter("repro_b_total")
        null.counter("repro_a_total").inc(5)
        null.gauge("repro_g").set(9)
        null.histogram("repro_h").observe(1.0)
        assert null.snapshot() == {"counters": [], "gauges": [], "histograms": []}

    def test_null_span_is_reusable_and_decorator_is_identity(self):
        null = obs.NullRegistry()
        span = null.span("repro_x")
        with span:
            pass

        def fn():
            return 42

        assert span(fn) is fn
        assert null.span("repro_y") is span

    def test_collectors_are_dropped(self):
        null = obs.NullRegistry()
        calls = []
        null.register_collector(lambda: calls.append(1))
        null.collect()
        null.snapshot()
        assert calls == []

    def test_events_discarded(self):
        null = obs.NullRegistry()
        sink, buffer = obs.memory_sink()
        null.attach_sink(sink)
        null.event("anything", a=1)
        assert buffer.getvalue() == ""


class TestRuntimeSwitch:
    def test_use_registry_restores_previous(self):
        original = obs.get_registry()
        mine = obs.MetricsRegistry()
        with obs.use_registry(mine) as active:
            assert active is mine
            assert obs.get_registry() is mine
        assert obs.get_registry() is original

    def test_set_registry_returns_previous(self):
        original = obs.get_registry()
        mine = obs.MetricsRegistry()
        assert obs.set_registry(mine) is original
        assert obs.set_registry(original) is mine

    def test_default_registry_is_live(self):
        assert obs.get_registry().enabled is True


class TestLogSetup:
    def test_configure_logging_verbose_sets_debug(self):
        logger = obs.configure_logging(verbose=True)
        try:
            assert logger.level == logging.DEBUG
            assert logging.getLogger("repro").isEnabledFor(logging.DEBUG)
        finally:
            obs.configure_logging(verbose=False)

    def test_configure_logging_is_idempotent(self):
        first = obs.configure_logging(verbose=False)
        second = obs.configure_logging(verbose=False)
        assert first is second
        assert len([h for h in first.handlers
                    if getattr(h, "_repro_obs_handler", False)]) == 1

    def test_kv_renders_sorted_pairs(self):
        assert obs.kv(b=2, a="x") == "a=x b=2"
