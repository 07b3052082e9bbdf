"""End-to-end tests for the PDP server: admission, reload, drain, HTTP."""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro.hdb.enforcement import AccessRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.serve import (
    AsyncPdpClient,
    PdpClient,
    ServerConfig,
    ServerThread,
    build_demo_engine,
    protocol,
    run_load,
)
from repro.store.durable import DurableAuditLog


@pytest.fixture()
def served():
    # a fresh registry per test keeps /metrics assertions deterministic
    with use_registry(MetricsRegistry()):
        engine = build_demo_engine(rows=30, seed=7)
        srv = ServerThread(engine, ServerConfig(port=0)).start()
    try:
        yield engine, srv
    finally:
        srv.stop()


def http_get(srv, path):
    with urllib.request.urlopen(
        f"http://{srv.host}:{srv.port}{path}", timeout=10
    ) as response:
        return response.status, response.read()


class TestFrameProtocolServing:
    def test_ping_and_version_stamp(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            response = client.ping()
        assert response["ok"] is True
        assert response["op"] == "pong"
        assert set(response["versions"]) == {"snapshot", "policy", "consent", "vocab"}

    def test_request_ids_echoed_in_order(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            for _ in range(5):
                sent = client._ids._next + 1
                response = client.decide("u", "physician", "treatment",
                                         ["prescription"])
                assert response["id"] == sent

    def test_pipelined_frames_answered_in_order(self, served):
        _, srv = served
        import socket

        with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
            frames = b"".join(
                protocol.encode_frame(
                    {"op": "ping", "id": index} if index % 2 == 0 else
                    {"op": "decide", "id": index, "user": "u",
                     "role": "physician", "purpose": "treatment",
                     "categories": ["prescription"]}
                )
                for index in range(6)
            )
            sock.sendall(frames)
            reader = sock.makefile("rb")
            ids = [protocol.decode_frame(reader.readline())["id"]
                   for _ in range(6)]
        assert ids == list(range(6))

    def test_decide_and_query_agree_with_engine(self, served):
        engine, srv = served
        reference = build_demo_engine(rows=30, seed=7)
        with PdpClient(srv.host, srv.port) as client:
            served_response = client.query(
                "alice", "physician", "treatment",
                "SELECT prescription, insurance FROM patients LIMIT 3",
            )
        local = reference.manager.current.enforcer.execute(
            AccessRequest(user="alice", role="physician", purpose="treatment",
                          sql="SELECT prescription, insurance FROM patients LIMIT 3")
        )
        assert served_response["rows"] == [list(r) for r in local.result.rows]
        assert tuple(served_response["returned"]) == local.categories_returned

    def test_stats_op_reports_server_state(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            client.decide("u", "physician", "treatment", ["prescription"])
            stats = client.stats()
        assert stats["decisions_served"] == 1
        assert stats["server"]["draining"] is False
        assert stats["server"]["connections"] >= 1


class TestHotReload:
    def test_add_rule_changes_decisions_and_stamps(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            before = client.decide("u", "physician", "treatment",
                                   ["insurance"])
            assert before["code"] == protocol.DENIED
            reload = client.add_rule(
                "ALLOW physician TO USE insurance FOR treatment"
            )
            assert reload["ok"] is True
            after = client.decide("u", "physician", "treatment", ["insurance"])
        assert after["code"] == protocol.OK
        assert after["versions"]["snapshot"] > before["versions"]["snapshot"]
        assert after["versions"]["policy"] > before["versions"]["policy"]

    def test_consent_reload_affects_query_masking(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            baseline = client.query("u", "physician", "treatment",
                                    "SELECT pid, prescription FROM patients "
                                    "WHERE pid = 'p000001'")
            assert baseline["rows"][0][1] is not None
            client.record_consent("p000001", "treatment", allowed=False,
                                  data="prescription")
            masked = client.query("u", "physician", "treatment",
                                  "SELECT pid, prescription FROM patients "
                                  "WHERE pid = 'p000001'")
        assert masked["rows"][0][1] is None
        assert masked["versions"]["consent"] > baseline["versions"]["consent"]

    def test_hot_reload_under_concurrent_decision_traffic(self, served):
        """The COW regression: swaps mid-traffic never corrupt a decision."""
        _, srv = served
        errors: list[str] = []
        stop = threading.Event()

        def pound():
            with PdpClient(srv.host, srv.port) as client:
                while not stop.is_set():
                    response = client.decide("u", "physician", "treatment",
                                             ["prescription", "insurance"])
                    if response["code"] not in (protocol.OK, protocol.DENIED):
                        errors.append(response["code"])
                    returned = set(response.get("returned", ()))
                    # whichever snapshot served it, prescription is allowed
                    if response["code"] == protocol.OK and "prescription" not in returned:
                        errors.append(f"lost prescription: {response}")

        workers = [threading.Thread(target=pound) for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            with PdpClient(srv.host, srv.port) as admin:
                for index in range(10):
                    if index % 2 == 0:
                        admin.add_rule(
                            "ALLOW physician TO USE insurance FOR treatment"
                        )
                    else:
                        admin.retire_rule(
                            "ALLOW physician TO USE insurance FOR treatment"
                        )
                    time.sleep(0.01)
        finally:
            stop.set()
            for worker in workers:
                worker.join(10)
        assert errors == []

    def test_consent_update_races_decision_traffic_on_the_loop(self, served):
        """Satellite regression: ConsentStore swaps must never trip a
        reader mid-iteration (the in-place-mutation failure mode)."""
        _, srv = served

        async def drive():
            deciders = [AsyncPdpClient(srv.host, srv.port) for _ in range(4)]
            admin = AsyncPdpClient(srv.host, srv.port)
            for client in (*deciders, admin):
                await client.connect()

            async def decide_loop(client, count):
                outcomes = []
                for _ in range(count):
                    response = await client.query(
                        "u", "physician", "treatment",
                        "SELECT pid, prescription FROM patients LIMIT 5",
                    )
                    outcomes.append(response["code"])
                return outcomes

            async def consent_loop(count):
                for index in range(count):
                    await admin.record_consent(
                        f"p{index % 7:06d}", "treatment", allowed=bool(index % 2),
                        data="prescription",
                    )
                return []

            results = await asyncio.gather(
                *(decide_loop(client, 25) for client in deciders),
                consent_loop(25),
            )
            for client in (*deciders, admin):
                await client.close()
            return [code for outcome in results for code in outcome]

        codes = asyncio.run(drive())
        assert codes and set(codes) == {protocol.OK}


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after(self):
        engine = build_demo_engine(rows=30, seed=7)
        config = ServerConfig(port=0, max_inflight=1, max_queue=0,
                              handling_delay=0.5)
        with ServerThread(engine, config) as srv:
            first_response = {}

            def occupy():
                with PdpClient(srv.host, srv.port) as client:
                    first_response.update(
                        client.decide("u", "physician", "treatment",
                                      ["prescription"])
                    )

            holder = threading.Thread(target=occupy)
            holder.start()
            time.sleep(0.15)  # let the first request take the only slot
            with PdpClient(srv.host, srv.port) as client:
                shed = client.decide("u", "physician", "treatment",
                                     ["prescription"])
            holder.join(10)
        assert shed["code"] == protocol.OVERLOADED
        assert shed["retry_after_ms"] > 0
        assert first_response["code"] == protocol.OK

    def test_shed_requests_are_not_audited(self):
        engine = build_demo_engine(rows=30, seed=7)
        config = ServerConfig(port=0, max_inflight=1, max_queue=0,
                              handling_delay=0.5)
        with ServerThread(engine, config) as srv:
            def occupy():
                with PdpClient(srv.host, srv.port) as client:
                    client.decide("u", "physician", "treatment",
                                  ["prescription"])

            holder = threading.Thread(target=occupy)
            holder.start()
            time.sleep(0.15)
            with PdpClient(srv.host, srv.port) as client:
                shed = client.decide("u", "nurse", "billing", ["insurance"])
            holder.join(10)
        assert shed["code"] == protocol.OVERLOADED
        # only the admitted request reached the trail: one ALLOW entry
        assert [e.user for e in engine.audit_log.entries] == ["u"]
        assert len(engine.audit_log) == 1

    def test_queued_request_times_out_against_deadline(self):
        engine = build_demo_engine(rows=30, seed=7)
        config = ServerConfig(port=0, max_inflight=1, max_queue=8,
                              handling_delay=0.5)
        with ServerThread(engine, config) as srv:
            def occupy():
                with PdpClient(srv.host, srv.port) as client:
                    client.decide("u", "physician", "treatment",
                                  ["prescription"])

            holder = threading.Thread(target=occupy)
            holder.start()
            time.sleep(0.15)
            with PdpClient(srv.host, srv.port) as client:
                timed_out = client.decide("u2", "physician", "treatment",
                                          ["prescription"], deadline_ms=50)
            holder.join(10)
        assert timed_out["code"] == protocol.TIMEOUT
        # the timed-out request never reached the engine: no u2 entries
        assert all(e.user != "u2" for e in engine.audit_log.entries)


class TestShutdown:
    def test_drain_completes_inflight_and_flushes_durable_trail(self, tmp_path):
        durable = DurableAuditLog(tmp_path / "trail", name="served")
        engine = build_demo_engine(rows=30, seed=7, audit_log=durable)
        config = ServerConfig(port=0, handling_delay=0.3)
        srv = ServerThread(engine, config).start()
        inflight_response = {}

        def slow_request():
            with PdpClient(srv.host, srv.port) as client:
                inflight_response.update(
                    client.decide("u", "physician", "treatment",
                                  ["prescription"])
                )

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.1)  # request is admitted and in flight
        srv.stop()  # graceful drain
        worker.join(10)
        assert inflight_response["code"] == protocol.OK
        # zero lost audit entries: the durable trail holds the decision
        reopened = DurableAuditLog(tmp_path / "trail", create=False)
        assert len(reopened) == 1
        assert reopened.entries[0].user == "u"
        reopened.close()

    def test_new_decisions_rejected_while_draining(self):
        engine = build_demo_engine(rows=30, seed=7)
        config = ServerConfig(port=0, handling_delay=0.5)
        srv = ServerThread(engine, config).start()
        try:
            # an in-flight request keeps the drain window open
            def slow():
                with PdpClient(srv.host, srv.port) as client:
                    client.decide("u", "physician", "treatment",
                                  ["prescription"])

            preopened = PdpClient(srv.host, srv.port).connect()
            worker = threading.Thread(target=slow)
            worker.start()
            time.sleep(0.15)
            with PdpClient(srv.host, srv.port) as admin:
                ack = admin.shutdown_server()
            assert ack["draining"] is True
            follow_up = preopened.request(
                {"op": "decide", "user": "u2", "role": "physician",
                 "purpose": "treatment", "categories": ["prescription"]},
                idempotent=False,
            )
            preopened.close()
            worker.join(10)
            assert follow_up["code"] == protocol.SHUTTING_DOWN
        finally:
            srv.stop()

    def test_listener_closed_after_shutdown(self):
        engine = build_demo_engine(rows=30, seed=7)
        srv = ServerThread(engine, ServerConfig(port=0)).start()
        port = srv.port
        srv.stop()
        import socket

        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()


class TestHttpShim:
    def test_healthz(self, served):
        engine, srv = served
        status, body = http_get(srv, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["versions"] == engine.versions()

    def test_metrics_exposition(self, served):
        _, srv = served
        with PdpClient(srv.host, srv.port) as client:
            client.decide("u", "physician", "treatment", ["prescription"])
        status, body = http_get(srv, "/metrics")
        text = body.decode()
        assert status == 200
        assert 'repro_serve_requests_total{code="OK",op="decide"} 1' in text
        assert "repro_serve_decision_cache_misses_total" in text

    def test_post_decide_allows(self, served):
        _, srv = served
        request = urllib.request.Request(
            f"http://{srv.host}:{srv.port}/decide",
            data=json.dumps({"user": "u", "role": "physician",
                             "purpose": "treatment",
                             "categories": ["prescription"]}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["code"] == protocol.OK

    def test_post_decide_maps_denial_to_403(self, served):
        _, srv = served
        request = urllib.request.Request(
            f"http://{srv.host}:{srv.port}/decide",
            data=json.dumps({"user": "u", "role": "nurse",
                             "purpose": "billing",
                             "categories": ["insurance"]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 403
        assert json.loads(info.value.read())["code"] == protocol.DENIED

    def test_unknown_route_is_404(self, served):
        _, srv = served
        with pytest.raises(urllib.error.HTTPError) as info:
            http_get(srv, "/nope")
        assert info.value.code == 404


class TestLoadDriver:
    def test_run_load_counts_every_outcome(self, served):
        _, srv = served
        payloads = [
            {"op": "decide", "user": f"u{i}", "role": "physician",
             "purpose": "treatment", "categories": ["prescription"]}
            for i in range(20)
        ] + [
            {"op": "decide", "user": "x", "role": "nurse",
             "purpose": "billing", "categories": ["insurance"]}
            for _ in range(5)
        ]
        # no target rate: the closed loop, each client paced by its answers
        report = run_load(srv.host, srv.port, payloads, clients=3)
        assert report.target_rps is None
        assert report.requests == report.scheduled == 25
        # nothing is scheduled, so nothing can run late
        assert report.late_sends == 0
        assert report.ok == 20
        assert report.denied == 5
        assert report.errors == 0
        assert report.throughput_rps > 0
        summary = report.summary()
        assert summary["target_rps"] is None
        assert summary["codes"] == {"DENIED": 5, "OK": 20}
        assert summary["p50_ms"] <= summary["p99_ms"]


class TestRefineDaemonServing:
    """The embedded refinement daemon against live decision traffic."""

    def _served_with_daemon(self, tmp_path):
        from repro.mining.patterns import MiningConfig
        from repro.refine_daemon import (
            AutoAcceptGate,
            DaemonConfig,
            EnginePolicyTarget,
            RefineDaemon,
        )
        from repro.vocab.builtin import healthcare_vocabulary

        audit = DurableAuditLog(tmp_path / "served")
        engine = build_demo_engine(rows=20, seed=7, audit_log=audit)
        daemon = RefineDaemon(
            audit,
            EnginePolicyTarget(engine),
            healthcare_vocabulary(),
            AutoAcceptGate(min_support=5, min_distinct_users=2),
            DaemonConfig(mining=MiningConfig(min_support=5, min_distinct_users=2)),
        )
        srv = ServerThread(engine, ServerConfig(port=0), daemon=daemon).start()
        return audit, engine, daemon, srv

    def test_daemon_adoption_racing_decide_traffic_is_serializable(
        self, tmp_path
    ):
        """Every response must be byte-identical to what *some* serial
        ordering of the two snapshots produces: its stamped policy
        revision decides its verdict exactly — deny strictly before the
        daemon's rule landed, allow from that revision on."""
        from repro.refine_daemon import EnginePolicyTarget
        from repro.policy.parser import parse_rule

        audit = DurableAuditLog(tmp_path / "served")
        engine = build_demo_engine(rows=20, seed=7, audit_log=audit)
        target = EnginePolicyTarget(engine)
        rule = parse_rule("ALLOW physician TO USE insurance FOR treatment")
        srv = ServerThread(engine, ServerConfig(port=0)).start()
        observations: list[tuple[int, str, tuple[str, ...]]] = []
        stop = threading.Event()
        errors: list[str] = []

        def pound():
            with PdpClient(srv.host, srv.port) as client:
                while not stop.is_set():
                    response = client.decide(
                        "u", "physician", "treatment", ["insurance"]
                    )
                    if response["code"] not in (protocol.OK, protocol.DENIED):
                        errors.append(response["code"])
                        continue
                    observations.append(
                        (
                            response["versions"]["policy"],
                            response["decision"],
                            tuple(response.get("returned", ())),
                        )
                    )

        workers = [threading.Thread(target=pound) for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            time.sleep(0.15)  # a batch of pre-swap traffic
            snapshot, added = target.engine.adopt_rules([rule])
            assert added == 1
            adopted_revision = snapshot.policy_store.revision
            time.sleep(0.15)  # a batch of post-swap traffic
        finally:
            stop.set()
            for worker in workers:
                worker.join(10)
            srv.stop()
        audit.close()
        assert errors == []
        before = [o for o in observations if o[0] < adopted_revision]
        after = [o for o in observations if o[0] >= adopted_revision]
        assert before and after  # the race actually happened on both sides
        assert all(decision == "deny" and returned == ()
                   for _, decision, returned in before)
        assert all(decision == "allow" and returned == ("insurance",)
                   for _, decision, returned in after)

    def test_stats_op_surfaces_daemon_state(self, tmp_path):
        audit, engine, daemon, srv = self._served_with_daemon(tmp_path)
        try:
            daemon.poll()
            with PdpClient(srv.host, srv.port) as client:
                stats = client.request({"op": "stats"})
            assert stats["ok"] is True
            state = stats["refine_daemon"]
            assert state["polls"] == 1
            assert state["lag_entries"] == state["trail_entries"] - state[
                "watermark_entries"
            ]
            assert set(state["coverage"]) == {"set", "entry"}
        finally:
            srv.stop()
            audit.close()

    def test_healthz_surfaces_daemon_state(self, tmp_path):
        audit, engine, daemon, srv = self._served_with_daemon(tmp_path)
        try:
            daemon.poll()
            status, body = http_get(srv, "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["refine_daemon"]["polls"] == 1
            assert payload["refine_daemon"]["watermark_entries"] == 0
        finally:
            srv.stop()
            audit.close()

    def test_healthz_without_daemon_omits_the_key(self, served):
        _, srv = served
        status, body = http_get(srv, "/healthz")
        assert status == 200
        assert "refine_daemon" not in json.loads(body)
