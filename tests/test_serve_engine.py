"""Unit tests for the PDP engine: snapshots, decisions, hot reload."""

from __future__ import annotations

import pytest

from repro.audit.schema import AccessOp, AccessStatus
from repro.serve import protocol
from repro.serve.engine import build_demo_engine


@pytest.fixture()
def engine():
    return build_demo_engine(rows=30, seed=7)


def decide(engine, categories, role="physician", purpose="treatment",
           user="alice", exception=False):
    request = protocol.parse_request(
        {"op": "decide", "user": user, "role": role, "purpose": purpose,
         "categories": list(categories), "exception": exception}
    )
    return engine.decide(request)


def query(engine, sql, role="physician", purpose="treatment", user="alice",
          exception=False):
    request = protocol.parse_request(
        {"op": "query", "user": user, "role": role, "purpose": purpose,
         "sql": sql, "exception": exception}
    )
    return engine.query(request)


class TestVersionStamps:
    def test_every_response_carries_versions(self, engine):
        response = decide(engine, ["prescription"])
        versions = response["versions"]
        assert set(versions) == {"snapshot", "policy", "consent", "vocab"}
        assert versions["snapshot"] == 1

    def test_admin_mutation_bumps_snapshot_and_policy(self, engine):
        before = engine.versions()
        request = protocol.parse_request(
            {"op": "admin.add_rule",
             "rule": "ALLOW physician TO USE insurance FOR treatment"}
        )
        response = engine.admin(request)
        assert response["ok"] is True
        assert response["changed"] is True
        after = response["versions"]
        assert after["snapshot"] == before["snapshot"] + 1
        assert after["policy"] > before["policy"]
        assert after["consent"] == before["consent"]

    def test_consent_mutation_bumps_consent_version(self, engine):
        before = engine.versions()
        request = protocol.parse_request(
            {"op": "admin.consent", "patient": "p000001",
             "purpose": "treatment", "allowed": False, "data": "psychiatry"}
        )
        after = engine.admin(request)["versions"]
        assert after["consent"] == before["consent"] + 1
        assert after["snapshot"] == before["snapshot"] + 1


class TestCopyOnWrite:
    def test_old_snapshot_is_untouched_by_mutation(self, engine):
        old = engine.manager.current
        old_rules = len(old.policy_store)
        engine.admin(protocol.parse_request(
            {"op": "admin.add_rule",
             "rule": "ALLOW physician TO USE insurance FOR treatment"}
        ))
        new = engine.manager.current
        assert new is not old
        assert len(old.policy_store) == old_rules
        assert len(new.policy_store) == old_rules + 1
        # decisions through the retained old snapshot still work
        assert not old.enforcer.policy_permits("insurance", "treatment", "physician")
        assert new.enforcer.policy_permits("insurance", "treatment", "physician")

    def test_snapshots_share_database_and_auditor(self, engine):
        old = engine.manager.current
        engine.admin(protocol.parse_request(
            {"op": "admin.add_rule",
             "rule": "ALLOW physician TO USE insurance FOR treatment"}
        ))
        new = engine.manager.current
        assert new.enforcer.database is old.enforcer.database
        assert new.enforcer.auditor is old.enforcer.auditor

    def test_bindings_are_rebound_on_the_new_snapshot(self, engine):
        engine.admin(protocol.parse_request(
            {"op": "admin.add_rule",
             "rule": "ALLOW physician TO USE insurance FOR treatment"}
        ))
        response = query(engine, "SELECT insurance FROM patients LIMIT 1")
        assert response["code"] == protocol.OK
        assert response["returned"] == ["insurance"]

    def test_retire_rule_takes_effect(self, engine):
        assert decide(engine, ["prescription"])["code"] == protocol.OK
        response = engine.admin(protocol.parse_request(
            {"op": "admin.retire_rule",
             "rule": "ALLOW physician TO USE clinical FOR treatment"}
        ))
        assert response["changed"] is True
        assert decide(engine, ["prescription"])["code"] == protocol.DENIED

    def test_unparseable_admin_rule_is_bad_request(self, engine):
        response = engine.admin(protocol.parse_request(
            {"op": "admin.add_rule", "rule": "GRANT everything TO everyone"}
        ))
        assert response["code"] == protocol.BAD_REQUEST
        assert engine.versions()["snapshot"] == 1  # nothing swapped


class TestDecide:
    def test_allow_and_mask_split(self, engine):
        response = decide(engine, ["prescription", "insurance"])
        assert response["code"] == protocol.OK
        assert response["returned"] == ["prescription"]
        assert response["masked"] == ["insurance"]

    def test_full_denial(self, engine):
        response = decide(engine, ["insurance"], role="nurse", purpose="billing")
        assert response["code"] == protocol.DENIED
        assert response["returned"] == []

    def test_exception_bypasses_policy(self, engine):
        response = decide(engine, ["insurance"], role="nurse",
                          purpose="billing", exception=True)
        assert response["code"] == protocol.OK
        assert response["status"] == "exception"
        assert response["returned"] == ["insurance"]

    def test_audit_semantics_match_enforcer(self, engine):
        log = engine.audit_log
        base = len(log)
        decide(engine, ["prescription", "insurance"])  # allow + mask
        entries = log.entries[base:]
        assert [e.op for e in entries] == [AccessOp.ALLOW, AccessOp.DENY]
        assert entries[0].data == "prescription"
        assert entries[1].data == "insurance"
        assert all(e.status is AccessStatus.REGULAR for e in entries)

    def test_denied_decide_is_audited_as_deny(self, engine):
        log = engine.audit_log
        base = len(log)
        decide(engine, ["insurance"], role="nurse", purpose="billing")
        entries = log.entries[base:]
        assert [e.op for e in entries] == [AccessOp.DENY]

    def test_cache_on_and_off_answer_identically(self):
        cached = build_demo_engine(rows=30, seed=7, cache=True)
        plain = build_demo_engine(rows=30, seed=7, cache=False)
        cases = [
            (["prescription"], "physician", "treatment"),
            (["prescription", "insurance"], "physician", "treatment"),
            (["name", "address"], "clerk", "billing"),
            (["psychiatry"], "nurse", "treatment"),
        ]
        for categories, role, purpose in cases * 3:  # repeats hit the cache
            a = decide(cached, categories, role=role, purpose=purpose)
            b = decide(plain, categories, role=role, purpose=purpose)
            assert a == b
        assert cached.cache.hits > 0
        assert plain.cache is None

    def test_vocabulary_change_reaches_cached_verdict(self):
        cached = build_demo_engine(rows=30, seed=7, cache=True)
        plain = build_demo_engine(rows=30, seed=7, cache=False)

        def answers():
            a = decide(cached, ["genomics"], role="nurse")
            b = decide(plain, ["genomics"], role="nurse")
            assert a == b
            permits = cached.manager.current.enforcer.policy_permits
            assert a["ok"] == permits("genomics", "treatment", "nurse")
            return a["code"]

        assert answers() == protocol.DENIED
        assert answers() == protocol.DENIED  # a cache hit on the cached engine
        for engine in (cached, plain):
            engine.manager.current.vocabulary.tree_for("data").add(
                "genomics", parent="medical_records"
            )
        assert answers() == protocol.OK

    def test_admin_mutation_invalidates_decision_cache(self, engine):
        decide(engine, ["prescription"])
        assert len(engine.cache) == 1
        engine.admin(protocol.parse_request(
            {"op": "admin.add_rule",
             "rule": "ALLOW physician TO USE insurance FOR treatment"}
        ))
        assert len(engine.cache) == 0
        assert engine.cache.invalidations == 1
        # and the fresh verdict reflects the new policy
        response = decide(engine, ["prescription", "insurance"])
        assert response["masked"] == []


class TestQuery:
    def test_enforced_query_masks_columns(self, engine):
        response = query(engine, "SELECT prescription, insurance FROM patients LIMIT 2")
        assert response["code"] == protocol.OK
        assert response["returned"] == ["prescription"]
        assert response["masked"] == ["insurance"]
        assert len(response["rows"]) == 2
        assert all(row[1] is None for row in response["rows"])

    def test_denied_query(self, engine):
        response = query(engine, "SELECT prescription FROM patients",
                         role="clerk", purpose="billing")
        assert response["code"] == protocol.DENIED
        assert "error" in response

    @pytest.mark.parametrize(
        "sql",
        [
            "SELEC nope",
            # these three pass the category decision and fail while
            # executing: the audit comes after execution, so none is written
            "SELECT prescription FROM patients WHERE nosuchcol = 1",
            "SELECT prescription, nosuchcol FROM patients",
            "SELECT prescription FROM patients ORDER BY nosuchcol",
        ],
        ids=["parse", "where", "select_list", "order_by"],
    )
    def test_malformed_sql_is_bad_request_and_unaudited(self, engine, sql):
        base = len(engine.audit_log)
        response = query(engine, sql)
        assert response["code"] == protocol.BAD_REQUEST
        assert len(engine.audit_log) == base

    def test_aggregate_sql_is_bad_request(self, engine):
        response = query(engine, "SELECT COUNT(prescription) FROM patients")
        assert response["code"] == protocol.BAD_REQUEST

    def test_stats_surface(self, engine):
        decide(engine, ["prescription"])
        query(engine, "SELECT prescription FROM patients LIMIT 1")
        stats = engine.stats()
        assert stats["decisions_served"] == 1
        assert stats["queries_served"] == 1
        assert stats["audit_entries"] == len(engine.audit_log)
        assert stats["decision_cache"]["entries"] == 1
        assert stats["active_rules"] == 7
