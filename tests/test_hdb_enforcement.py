"""Unit tests for HDB Active Enforcement."""

from __future__ import annotations

import pytest

from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import AccessDeniedError, EnforcementError
from repro.hdb.control_center import HdbControlCenter
from repro.hdb.enforcement import TableBinding


@pytest.fixture()
def center(vocabulary) -> HdbControlCenter:
    cc = HdbControlCenter(vocabulary)
    cc.database.execute(
        "CREATE TABLE patients (pid TEXT NOT NULL, name TEXT, address TEXT, "
        "prescription TEXT, referral TEXT, psychiatry TEXT)"
    )
    cc.database.execute(
        "INSERT INTO patients VALUES "
        "('p1', 'Alice', '12 Elm', 'amoxicillin', 'cardio', 'notes-a'), "
        "('p2', 'Bob', '9 Oak', 'ibuprofen', 'ortho', 'notes-b')"
    )
    cc.bind_table(
        TableBinding(
            "patients",
            "pid",
            {
                "name": "name",
                "address": "address",
                "prescription": "prescription",
                "referral": "referral",
                "psychiatry": "psychiatry",
            },
        )
    )
    cc.define_rules(
        [
            "ALLOW nurse TO USE medical_records FOR treatment",
            "ALLOW physician TO USE psychiatry FOR treatment",
            "ALLOW clerk TO USE demographic FOR billing",
        ]
    )
    return cc


class TestPolicyDecisions:
    def test_composite_rule_covers_leaf_category(self, center):
        assert center.enforcer.policy_permits("prescription", "treatment", "nurse")

    def test_denied_outside_grant(self, center):
        assert not center.enforcer.policy_permits("psychiatry", "treatment", "nurse")
        assert not center.enforcer.policy_permits("prescription", "billing", "clerk")


class TestQueryPath:
    def test_permitted_columns_returned(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription FROM patients")
        assert result.result.rows == (("amoxicillin",), ("ibuprofen",))
        assert result.categories_returned == ("prescription",)
        assert result.status is AccessStatus.REGULAR

    def test_denied_column_masked_to_null(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription, psychiatry FROM patients")
        assert result.categories_masked == ("psychiatry",)
        assert all(row[1] is None for row in result.result.rows)

    def test_masking_happens_in_the_rewritten_query(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription, psychiatry FROM patients")
        assert "NULL AS psychiatry" in result.rewritten_sql

    def test_patient_rider_stripped_from_output(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription FROM patients")
        assert result.result.columns == ("prescription",)

    def test_full_denial_raises_and_audits_deny(self, center):
        with pytest.raises(AccessDeniedError):
            center.run("jason", "clerk", "billing",
                       "SELECT prescription FROM patients")
        entry = center.audit_log[-1]
        assert entry.op is AccessOp.DENY
        assert entry.data == "prescription"

    def test_star_expands_against_binding(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT * FROM patients")
        # pid is unbound and passes; demographic/psychiatry columns masked
        assert set(result.categories_masked) == {"name", "address", "psychiatry"}
        assert set(result.categories_returned) == {"prescription", "referral"}

    def test_where_clause_respected(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription FROM patients WHERE pid = 'p2'")
        assert result.result.rows == (("ibuprofen",),)

    def test_unbound_column_flows_through(self, center):
        result = center.run("john", "nurse", "treatment",
                            "SELECT pid, prescription FROM patients")
        assert result.result.rows[0][0] == "p1"


class TestBreakTheGlass:
    def test_exception_bypasses_policy_with_exception_status(self, center):
        result = center.run("jason", "clerk", "billing",
                            "SELECT prescription FROM patients", exception=True)
        assert result.status is AccessStatus.EXCEPTION
        assert result.categories_returned == ("prescription",)
        assert result.categories_masked == ()

    def test_exception_access_audited_as_exception(self, center):
        center.run("jason", "clerk", "billing",
                   "SELECT prescription FROM patients", exception=True)
        entry = center.audit_log[-1]
        assert entry.status is AccessStatus.EXCEPTION
        assert entry.op is AccessOp.ALLOW

    def test_truth_label_flows_to_audit(self, center):
        center.run("jason", "clerk", "billing",
                   "SELECT prescription FROM patients",
                   exception=True, truth="practice")
        assert center.audit_log[-1].truth == "practice"


class TestConsent:
    def test_cell_masking(self, center):
        center.record_consent("p2", "billing", allowed=False, data="demographic")
        result = center.run("bill", "clerk", "billing",
                            "SELECT name, address FROM patients")
        assert result.result.rows[0] == ("Alice", "12 Elm")
        assert result.result.rows[1] == (None, None)
        assert result.cells_masked_by_consent == 2

    def test_row_drop_on_whole_purpose_opt_out(self, center):
        center.define_rule("ALLOW physician TO USE medical_records FOR research")
        center.record_consent("p1", "research", allowed=False)
        result = center.run("dr", "physician", "research",
                            "SELECT prescription FROM patients")
        assert result.result.rows == (("ibuprofen",),)
        assert result.rows_dropped_by_consent == 1

    def test_break_the_glass_overrides_consent(self, center):
        center.record_consent("p1", "treatment", allowed=False)
        result = center.run("john", "nurse", "treatment",
                            "SELECT prescription FROM patients", exception=True)
        assert len(result.result.rows) == 2
        assert result.cells_masked_by_consent == 0


class TestGuardRails:
    def test_unbound_table_refused(self, center):
        center.database.execute("CREATE TABLE loose (a TEXT)")
        with pytest.raises(EnforcementError):
            center.run("u", "nurse", "treatment", "SELECT a FROM loose")

    def test_joins_refused(self, center):
        with pytest.raises(EnforcementError):
            center.run("u", "nurse", "treatment",
                       "SELECT p.name FROM patients p JOIN patients q ON TRUE")

    def test_aggregation_refused(self, center):
        with pytest.raises(EnforcementError):
            center.run("u", "nurse", "treatment",
                       "SELECT COUNT(*) FROM patients")

    def test_expressions_over_protected_columns_refused(self, center):
        with pytest.raises(EnforcementError):
            center.run("u", "nurse", "treatment",
                       "SELECT LOWER(psychiatry) FROM patients")

    def test_non_select_refused(self, center):
        with pytest.raises(EnforcementError):
            center.run("u", "nurse", "treatment",
                       "DELETE FROM patients")

    def test_binding_validates_columns(self, center):
        with pytest.raises(EnforcementError):
            center.bind_table(TableBinding("patients", "bogus", {}))
        center.database.execute("CREATE TABLE other (pid TEXT)")
        with pytest.raises(EnforcementError):
            center.bind_table(TableBinding("other", "pid", {"missing": "name"}))

    def test_stats_counters(self, center):
        center.run("john", "nurse", "treatment",
                   "SELECT prescription, psychiatry FROM patients")
        try:
            center.run("jason", "clerk", "billing",
                       "SELECT prescription FROM patients")
        except AccessDeniedError:
            pass
        stats = center.enforcer.stats
        assert stats.requests == 2
        assert stats.denials == 1
        assert stats.policy_masked_columns == 1


class TestPermitMemoization:
    """The serve hot path memoises policy_permits per (category, purpose,
    role), stamped with (store revision, vocabulary version)."""

    def test_repeat_lookup_hits_the_cache(self, center):
        enforcer = center.enforcer
        assert enforcer.policy_permits("prescription", "treatment", "nurse")
        misses = enforcer.permit_memo.misses
        hits = enforcer.permit_memo.hits
        assert enforcer.policy_permits("prescription", "treatment", "nurse")
        assert enforcer.permit_memo.hits == hits + 1
        assert enforcer.permit_memo.misses == misses

    def test_distinct_triples_are_distinct_entries(self, center):
        enforcer = center.enforcer
        enforcer.policy_permits("prescription", "treatment", "nurse")
        enforcer.policy_permits("prescription", "treatment", "physician")
        assert enforcer.permit_memo.misses == 2
        assert enforcer.permit_memo.hits == 0

    def test_policy_revision_invalidates(self, center):
        enforcer = center.enforcer
        assert not enforcer.policy_permits("psychiatry", "treatment", "nurse")
        center.define_rule("ALLOW nurse TO USE psychiatry FOR treatment")
        # the revision bump must flush the memo before the next lookup
        assert enforcer.policy_permits("psychiatry", "treatment", "nurse")
        assert enforcer.permit_memo.invalidations == 1

    def test_retiring_a_rule_invalidates(self, center):
        from repro.policy.parser import parse_rule

        enforcer = center.enforcer
        assert enforcer.policy_permits("prescription", "treatment", "nurse")
        assert center.policy_store.retire(
            parse_rule("ALLOW nurse TO USE medical_records FOR treatment")
        )
        assert not enforcer.policy_permits("prescription", "treatment", "nurse")
        assert enforcer.permit_memo.invalidations == 1

    def test_vocabulary_growth_invalidates(self, center, vocabulary):
        enforcer = center.enforcer
        assert not enforcer.policy_permits("genomics", "treatment", "nurse")
        # grafting the new category under medical_records changes the
        # vocabulary version, so the cached denial must not survive
        vocabulary.tree_for("data").add("genomics", parent="medical_records")
        assert enforcer.policy_permits("genomics", "treatment", "nurse")
        assert enforcer.permit_memo.invalidations == 1

    def test_rebinding_a_table_clears_the_plan_cache(self, center):
        enforcer = center.enforcer
        center.run("john", "nurse", "treatment",
                   "SELECT prescription FROM patients")
        assert enforcer._plan_cache
        center.bind_table(enforcer.binding_for("patients"))
        assert not enforcer._plan_cache

    def test_memoised_answers_match_fresh_enforcer(self, center, vocabulary):
        from repro.hdb.consent import ConsentStore
        from repro.hdb.enforcement import ActiveEnforcer

        triples = [
            ("prescription", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("psychiatry", "treatment", "physician"),
            ("name", "billing", "clerk"),
            ("prescription", "billing", "clerk"),
        ]
        warm = [center.enforcer.policy_permits(*t) for t in triples * 2]
        fresh = ActiveEnforcer(
            database=center.database,
            policy_store=center.policy_store,
            consent=ConsentStore(vocabulary),
            auditor=center.enforcer.auditor,
            vocabulary=vocabulary,
        )
        cold = [fresh.policy_permits(*t) for t in triples * 2]
        assert warm == cold
