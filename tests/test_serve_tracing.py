"""End-to-end tracing through the PDP server (ISSUE 7).

Covers the frame-level echo contract (the response ``trace`` field comes
from the *request*, so bodies are byte-identical with tracing on or
off), the decision-provenance side records and their audit entry-id
links, the ``stats`` / ``healthz`` trace + admission surfaces, the
``GET /traces`` HTTP routes with their error paths, shed/timeout
provenance (requests the engine never saw), and the HTTP shim's
traceparent header handling.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import trace as obstrace
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.obs.trace import NULL_TRACER, Tracer, format_traceparent, use_tracer
from repro.serve import PdpClient, ServerConfig, ServerThread, build_demo_engine
from repro.serve import protocol


def fresh_traceparent() -> str:
    return format_traceparent(obstrace.new_trace_id(), obstrace.new_span_id())


@pytest.fixture()
def traced():
    """A server built under an always-sample tracer; yields (engine, srv, tracer)."""
    tracer = Tracer(sample_every=1)
    with use_registry(MetricsRegistry()), use_tracer(tracer):
        engine = build_demo_engine(rows=30, seed=7)
        srv = ServerThread(engine, ServerConfig(port=0)).start()
    try:
        yield engine, srv, tracer
    finally:
        srv.stop()


def http_get(srv, path):
    with urllib.request.urlopen(
        f"http://{srv.host}:{srv.port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def http_post(srv, path, body: bytes, headers=None):
    request = urllib.request.Request(
        f"http://{srv.host}:{srv.port}{path}", data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), json.loads(response.read())


class TestEchoSemantics:
    def test_response_echoes_client_trace_id(self, traced):
        _, srv, tracer = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "physician", "treatment",
                                     ["prescription"], trace=traceparent)
        assert response["trace"] == traceparent.split("-")[1]
        # the stamped request links the server trace to the client's id
        assert tracer.store.get(response["trace"]) is not None

    def test_untraced_request_gets_no_trace_field(self, traced):
        _, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "physician", "treatment",
                                     ["prescription"])
        assert "trace" not in response

    def test_echo_is_identical_with_tracing_disabled(self):
        """The body contract of E20: same request → same ``trace`` field,
        tracer on or off (the echo never comes from the tracer)."""
        traceparent = fresh_traceparent()
        bodies = []
        for tracer in (Tracer(sample_every=1), NULL_TRACER):
            with use_registry(MetricsRegistry()), use_tracer(tracer):
                engine = build_demo_engine(rows=30, seed=7)
                srv = ServerThread(engine, ServerConfig(port=0)).start()
            try:
                with PdpClient(srv.host, srv.port) as client:
                    response = client.decide(
                        "u", "physician", "treatment", ["prescription"],
                        trace=traceparent,
                    )
                bodies.append(json.dumps(response, sort_keys=True))
            finally:
                srv.stop()
        assert bodies[0] == bodies[1]

    def test_malformed_trace_field_rejected(self, traced):
        _, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            response = client.request({
                "op": "decide", "user": "u", "role": "physician",
                "purpose": "treatment", "categories": ["prescription"],
                "trace": "not-a-traceparent",
            })
        assert response["code"] == protocol.BAD_REQUEST
        assert "traceparent" in response["error"]


class TestDecisionProvenance:
    def test_decide_records_linked_provenance(self, traced):
        engine, srv, tracer = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "physician", "treatment",
                                     ["prescription"], trace=traceparent)
        assert response["code"] == protocol.OK
        trace_id = response["trace"]
        [record] = engine.provenance.for_trace(trace_id)
        assert record["op"] == "decide"
        assert record["decision"] == protocol.OK
        assert record["categories"] == ["prescription"]
        assert record["cache"] in ("hit", "miss")
        assert record["matched_rules"].get("prescription") is not None
        assert record["versions"] == engine.versions()
        # entry ids point at the audit entries this decision wrote
        entry_ids = record["entry_ids"]
        assert len(entry_ids) == 1
        entry = engine.audit_log.entries[entry_ids[0]]
        assert entry.user == "u"
        assert entry.data == "prescription"
        # ...and resolve back to the trace, the refine daemon's link
        assert engine.provenance.trace_for_entries(entry_ids) == {
            entry_ids[0]: trace_id
        }
        # the retained trace carries the same entry ids as an annotation
        trace = tracer.store.get(trace_id)
        assert trace["annotations"]["entry_ids"] == entry_ids

    def test_denied_decide_links_the_deny_entries(self, traced):
        engine, srv, _ = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "nurse", "marketing",
                                     ["insurance"], trace=traceparent)
        assert response["code"] == protocol.DENIED
        [record] = engine.provenance.for_trace(response["trace"])
        assert record["decision"] == protocol.DENIED
        # denies are audited too; the provenance links those entries
        [entry_id] = record["entry_ids"]
        assert not engine.audit_log.entries[entry_id].is_allowed

    def test_query_provenance_includes_masked_categories(self, traced):
        engine, srv, _ = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.query(
                "alice", "physician", "treatment",
                "SELECT prescription, insurance FROM patients LIMIT 2",
                trace=traceparent,
            )
        assert response["code"] == protocol.OK
        [record] = engine.provenance.for_trace(response["trace"])
        assert record["op"] == "query"
        assert set(record["categories"]) == set(
            response["returned"] + response["masked"]
        )

    def test_denied_query_provenance_records_its_categories(self, traced):
        engine, srv, _ = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.query(
                "u", " Clerk", "Billing",
                "SELECT psychiatry, prescription FROM patients",
                trace=traceparent,
            )
        assert response["code"] == protocol.DENIED
        [record] = engine.provenance.for_trace(response["trace"])
        assert record["op"] == "query"
        assert record["decision"] == protocol.DENIED
        assert (record["role"], record["purpose"]) == ("clerk", "billing")
        # the same record a denied decide writes: every category, none
        # matched by a rule
        assert record["categories"] == ["prescription", "psychiatry"]
        assert record["matched_rules"] == {
            "prescription": None, "psychiatry": None,
        }
        assert len(record["entry_ids"]) == 2
        assert not any(
            engine.audit_log.entries[i].is_allowed for i in record["entry_ids"]
        )

    def test_server_trace_covers_unstamped_requests_too(self, traced):
        """Server-side roots give even unstamped requests provenance —
        only their trace id stays out of the response body."""
        engine, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            client.decide("u", "physician", "treatment", ["prescription"])
        [record] = engine.provenance.recent()
        assert record["op"] == "decide"

    def test_null_tracer_records_no_provenance(self):
        with use_registry(MetricsRegistry()), use_tracer(NULL_TRACER):
            engine = build_demo_engine(rows=30, seed=7)
            srv = ServerThread(engine, ServerConfig(port=0)).start()
        try:
            with PdpClient(srv.host, srv.port) as client:
                client.decide("u", "physician", "treatment", ["prescription"],
                              trace=fresh_traceparent())
        finally:
            srv.stop()
        assert len(engine.provenance) == 0

    def test_trace_contains_enforce_and_audit_spans(self, traced):
        engine, srv, tracer = traced
        traceparent = fresh_traceparent()
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "physician", "treatment",
                                     ["prescription"], trace=traceparent)
        trace = tracer.store.get(response["trace"])
        names = {span["name"] for span in trace["spans"]}
        assert "repro_serve_decide" in names
        assert "repro_hdb_record_access" in names


class TestStatsAndHealthSurfaces:
    def test_stats_reports_tracer_and_admission(self, traced):
        _, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            client.decide("u", "physician", "treatment", ["prescription"],
                          trace=fresh_traceparent())
            stats = client.stats()
        trace = stats["trace"]
        assert trace["enabled"] is True
        assert trace["started"] >= 1
        assert trace["kept"] >= 1
        assert trace["sample_every"] == 1
        assert isinstance(trace["recent"], list) and trace["recent"]
        admission = stats["admission"]
        assert admission["max_inflight"] == ServerConfig().max_inflight
        assert admission["default_deadline_ms"] > 0

    def test_healthz_reports_admission(self, traced):
        _, srv, _ = traced
        status, health = http_get(srv, "/healthz")
        assert status == 200
        assert health["admission"]["max_queue"] == ServerConfig().max_queue
        assert health["admission"]["retry_after_ms"] > 0


class TestHttpTraceRoutes:
    def test_empty_store_lists_no_traces(self, traced):
        _, srv, _ = traced
        status, payload = http_get(srv, "/traces")
        assert status == 200
        assert payload["traces"] == []
        assert payload["tracer"]["enabled"] is True

    def test_list_and_show_round_trip(self, traced):
        engine, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            response = client.decide("u", "physician", "treatment",
                                     ["prescription"],
                                     trace=fresh_traceparent())
        trace_id = response["trace"]
        _, payload = http_get(srv, "/traces?limit=5")
        assert trace_id in [t["trace_id"] for t in payload["traces"]]
        status, full = http_get(srv, f"/traces/{trace_id}")
        assert status == 200
        assert full["trace_id"] == trace_id
        assert isinstance(full["spans"], list) and full["spans"]
        # the full view inlines the decision's provenance records
        assert [r["trace_id"] for r in full["provenance"]] == [trace_id]

    def test_slow_filter_orders_by_duration(self, traced):
        _, srv, _ = traced
        with PdpClient(srv.host, srv.port) as client:
            for _ in range(3):
                client.decide("u", "physician", "treatment",
                              ["prescription"], trace=fresh_traceparent())
        _, payload = http_get(srv, "/traces?slow=1&limit=10")
        durations = [t["duration_ms"] for t in payload["traces"]]
        assert durations == sorted(durations, reverse=True)

    def test_unknown_trace_id_is_404(self, traced):
        _, srv, _ = traced
        with pytest.raises(urllib.error.HTTPError) as info:
            http_get(srv, "/traces/" + "0" * 32)
        assert info.value.code == 404

    def test_bad_limit_is_400(self, traced):
        _, srv, _ = traced
        with pytest.raises(urllib.error.HTTPError) as info:
            http_get(srv, "/traces?limit=abc")
        assert info.value.code == 400


class TestHttpShimErrorPaths:
    def test_traceparent_header_links_trace(self, traced):
        _, srv, tracer = traced
        traceparent = fresh_traceparent()
        body = json.dumps({"user": "u", "role": "physician",
                           "purpose": "treatment",
                           "categories": ["prescription"]}).encode()
        status, headers, payload = http_post(
            srv, "/decide", body, {"traceparent": traceparent}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == traceparent.split("-")[1]
        assert tracer.store.get(headers["X-Trace-Id"]) is not None
        # headers only: the body never gains a trace field the client
        # didn't send (byte-identity contract)
        assert "trace" not in payload

    def test_malformed_traceparent_header_ignored(self, traced):
        """Per the W3C spec a bad header means a *fresh* trace, not 400."""
        _, srv, _ = traced
        body = json.dumps({"user": "u", "role": "physician",
                           "purpose": "treatment",
                           "categories": ["prescription"]}).encode()
        status, headers, payload = http_post(
            srv, "/decide", body, {"traceparent": "hello-world"}
        )
        assert status == 200
        assert payload["code"] == protocol.OK
        fresh = headers["X-Trace-Id"]
        assert len(fresh) == 32 and fresh != "hello"

    def test_unknown_path_is_404(self, traced):
        _, srv, _ = traced
        with pytest.raises(urllib.error.HTTPError) as info:
            http_get(srv, "/nope")
        assert info.value.code == 404

    def test_oversized_body_is_400(self, traced):
        _, srv, _ = traced
        huge = b"x" * (protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(urllib.error.HTTPError) as info:
            http_post(srv, "/decide", huge)
        assert info.value.code == 400


class TestAdmissionProvenance:
    def _saturated_server(self, tracer):
        with use_registry(MetricsRegistry()), use_tracer(tracer):
            engine = build_demo_engine(rows=30, seed=7)
            config = ServerConfig(port=0, max_inflight=1, max_queue=0,
                                  handling_delay=0.5)
            srv = ServerThread(engine, config).start()
        return engine, srv

    def test_shed_response_reports_remaining_deadline(self):
        tracer = Tracer(sample_every=10_000)
        engine, srv = self._saturated_server(tracer)
        traceparent = fresh_traceparent()
        try:
            def occupy():
                with PdpClient(srv.host, srv.port) as client:
                    client.decide("u", "physician", "treatment",
                                  ["prescription"])

            holder = threading.Thread(target=occupy)
            holder.start()
            time.sleep(0.15)
            with PdpClient(srv.host, srv.port) as client:
                shed = client.decide("v", "nurse", "billing", ["insurance"],
                                     deadline_ms=2000, trace=traceparent)
            holder.join(10)
        finally:
            srv.stop()
        assert shed["code"] == protocol.OVERLOADED
        assert 0 < shed["deadline_remaining_ms"] <= 2000
        # shed wrote no audit entries, so provenance is the only record
        assert [e.user for e in engine.audit_log.entries] == ["u"]
        trace_id = shed["trace"]
        [record] = engine.provenance.for_trace(trace_id)
        assert record["decision"] == protocol.OVERLOADED
        assert record["entry_ids"] == []
        assert record["deadline_remaining_ms"] == shed["deadline_remaining_ms"]
        # despite the huge sampling interval, the shed trace is retained
        trace = tracer.store.get(trace_id)
        assert "shed" in trace["keep"]
