"""Unit tests for audit entries."""

from __future__ import annotations

import pytest

from repro.audit.entry import AuditEntry
from repro.audit.schema import AccessOp, AccessStatus, audit_table_schema
from repro.errors import AuditError
from repro.policy.rule import Rule


def _entry(**overrides) -> AuditEntry:
    base = dict(
        time=1,
        op=AccessOp.ALLOW,
        user="Mark",
        data="Referral",
        purpose="Registration",
        authorized="Nurse",
        status=AccessStatus.EXCEPTION,
    )
    base.update(overrides)
    return AuditEntry(**base)


class TestConstruction:
    def test_canonicalises_text_fields(self):
        entry = _entry(user=" Mark ", data="Birth Date")
        assert entry.user == "mark"
        assert entry.data == "birth_date"

    def test_int_flags_coerced_to_enums(self):
        entry = _entry(op=1, status=0)
        assert entry.op is AccessOp.ALLOW
        assert entry.status is AccessStatus.EXCEPTION

    def test_invalid_flag_rejected(self):
        with pytest.raises(ValueError):
            _entry(op=7)

    def test_negative_time_rejected(self):
        with pytest.raises(AuditError):
            _entry(time=-1)

    @pytest.mark.parametrize("time", (1.5, 2.0, "3", None, True))
    def test_non_integer_time_rejected(self, time):
        with pytest.raises(AuditError, match="must be an integer"):
            _entry(time=time)

    @pytest.mark.parametrize("time", (1.5, "3", None))
    def test_non_integer_time_rejected_per_request(self, time):
        with pytest.raises(AuditError, match="must be an integer"):
            AuditEntry.for_categories(
                time, AccessOp.ALLOW, "mark", ("referral", "name"),
                "registration", "nurse", AccessStatus.EXCEPTION,
            )

    def test_time_past_the_codec_range_rejected(self):
        assert _entry(time=2**64 - 1).time == 2**64 - 1
        with pytest.raises(AuditError, match="below 2\\*\\*64"):
            _entry(time=2**64)

    def test_time_past_the_codec_range_rejected_per_request(self):
        with pytest.raises(AuditError, match="below 2\\*\\*64"):
            AuditEntry.for_categories(
                2**64, AccessOp.ALLOW, "mark", ("referral", "name"),
                "registration", "nurse", AccessStatus.EXCEPTION,
            )

    def test_largest_time_round_trips_a_durable_store(self, tmp_path):
        from repro.store.durable import DurableAuditLog

        log = DurableAuditLog(tmp_path / "trail")
        try:
            with pytest.raises(AuditError):
                log.append(_entry(time=2**64))
            log.append(_entry(time=2**64 - 1))
            assert [entry.time for entry in log] == [2**64 - 1]
        finally:
            log.close()

    def test_non_integer_time_never_reaches_a_durable_store(self, tmp_path):
        from repro.store.durable import DurableAuditLog

        log = DurableAuditLog(tmp_path / "trail")
        try:
            with pytest.raises(AuditError):
                log.append(_entry(time=1.5))
            log.append(_entry(time=2))
            assert [entry.time for entry in log] == [2]
        finally:
            log.close()

    def test_empty_field_rejected(self):
        with pytest.raises(AuditError):
            _entry(user="  ")

    def test_predicates(self):
        assert _entry().is_exception
        assert _entry().is_allowed
        assert not _entry(status=AccessStatus.REGULAR).is_exception
        assert not _entry(op=AccessOp.DENY).is_allowed

    def test_truth_excluded_from_equality(self):
        assert _entry(truth="practice") == _entry(truth="")


class TestConversions:
    def test_to_rule_default_attributes(self):
        rule = _entry().to_rule()
        assert rule == Rule.of(
            data="referral", purpose="registration", authorized="nurse"
        )

    def test_to_rule_custom_attributes(self):
        rule = _entry().to_rule(("data", "purpose"))
        assert rule.cardinality == 2

    def test_to_rule_rejects_unknown_attribute(self):
        with pytest.raises(AuditError):
            _entry().to_rule(("data", "bogus"))

    def test_row_round_trip(self):
        entry = _entry()
        assert AuditEntry.from_row(entry.as_row()) == entry

    def test_row_matches_table_schema(self):
        schema = audit_table_schema()
        assert schema.validate_row(_entry().as_row())

    def test_from_row_arity_checked(self):
        with pytest.raises(AuditError):
            AuditEntry.from_row((1, 2, 3))

    def test_dict_round_trip_keeps_truth(self):
        entry = _entry(truth="violation")
        payload = entry.to_dict()
        payload["truth"] = entry.truth
        rebuilt = AuditEntry.from_dict(payload)
        assert rebuilt == entry
        assert rebuilt.truth == "violation"

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(AuditError):
            AuditEntry.from_dict({"time": 1})

    def test_with_truth(self):
        labelled = _entry().with_truth("practice")
        assert labelled.truth == "practice"
        assert labelled == _entry()
