"""``AuditEntry.for_categories`` and ``record_access`` against the
one-entry-at-a-time oracle.

The batch constructor checks a request's shared fields once and each
category once; the oracle (:func:`tests.reference.reference_audit_entries`)
runs the validating constructor per category.  Both must build the same
entries, field for field, and raise the same exception with the same
message on bad input.  Through an auditor, an in-memory log must hold
the same entries and a durable log the same bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.audit.schema import AccessOp, AccessStatus
from repro.hdb.auditing import ComplianceAuditor, LogicalClock
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from tests.reference import reference_audit_entries

#: spellings a field may arrive in: canonical, non-canonical, blank,
#: not a string at all
_STRINGS = st.one_of(
    st.sampled_from(["nurse", "mark", "referral", "treatment", "birth_date"]),
    st.sampled_from(["  Nurse ", "Birth Date", "REFERRAL", "x\ty\nz", "a b"]),
    st.sampled_from(["", " ", "\t\n", "　"]),
    st.sampled_from([None, 7, b"nurse", 1.5]),
    st.text(min_size=0, max_size=6),
)
_CODES = st.one_of(
    st.sampled_from(list(AccessOp)),
    st.sampled_from([0, 1, 2, -1, "1"]),
)
_STATUS_CODES = st.one_of(
    st.sampled_from(list(AccessStatus)),
    st.sampled_from([0, 1, 2, -1, "0"]),
)
_TIMES = st.one_of(st.integers(min_value=-3, max_value=10**6), st.just("7"))


def _fields(entry: AuditEntry) -> tuple:
    """Every field, with the enum types (``==`` on entries skips truth)."""
    return (
        entry.time, type(entry.op), entry.op, entry.user, entry.data,
        entry.purpose, entry.authorized, type(entry.status), entry.status,
        entry.truth,
    )


def _outcome(build, *args):
    try:
        return "ok", [_fields(entry) for entry in build(*args)]
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return "raised", type(exc), str(exc)


@st.composite
def _requests(draw):
    return (
        draw(_TIMES),
        draw(_CODES),
        draw(_STRINGS),
        tuple(draw(st.lists(_STRINGS, max_size=4))),
        draw(_STRINGS),
        draw(_STRINGS),
        draw(_STATUS_CODES),
        draw(st.sampled_from(["", "practice", "violation"])),
    )


class TestForCategories:
    @settings(max_examples=400, deadline=None)
    @given(request=_requests())
    def test_equals_oracle(self, request):
        assert _outcome(AuditEntry.for_categories, *request) == _outcome(
            reference_audit_entries, *request
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"user": 42},
            {"purpose": None},
            {"authorized": b"nurse"},
            {"user": ""},
            {"purpose": "   "},
            {"authorized": "\t\n"},
            {"op": 1, "status": 0},
            {"op": 2},
            {"status": 5},
            {"op": "1"},
            {"time": -1},
            {"categories": ("name", "referral", "  ")},
            {"categories": ("name", 3)},
            {"categories": ("", "name"), "purpose": ""},
            {"categories": ("name", ""), "purpose": ""},
        ],
    )
    def test_named_cases_equal_oracle(self, overrides):
        request = dict(
            time=3, op=AccessOp.ALLOW, user="mark",
            categories=("name", "referral"), purpose="treatment",
            authorized="nurse", status=AccessStatus.REGULAR, truth="",
        )
        request.update(overrides)
        args = tuple(request.values())
        assert _outcome(AuditEntry.for_categories, *args) == _outcome(
            reference_audit_entries, *args
        )

    def test_non_canonical_spellings_are_canonicalised(self):
        entries = AuditEntry.for_categories(
            1, 1, "  Mark ", ("Birth Date", "REFERRAL"), "Treatment ",
            "  Nurse ", 1,
        )
        assert _fields(entries[0]) == (
            1, AccessOp, AccessOp.ALLOW, "mark", "birth_date", "treatment",
            "nurse", AccessStatus, AccessStatus.REGULAR, "",
        )
        assert entries[1].data == "referral"

    def test_no_categories_checks_nothing(self):
        assert AuditEntry.for_categories(-1, 9, None, (), None, None, 9) == ()


def _replay(auditor: ComplianceAuditor, oracle_log, requests) -> list:
    """Audit each request through ``auditor`` and append the oracle's
    entries for the same tick to ``oracle_log``; return both outcomes."""
    outcomes = []
    for user, role, purpose, categories, op, status, truth in requests:
        tick = auditor.clock.peek()
        got = _outcome(
            auditor.record_access, user, role, purpose, categories, op, status, truth
        )
        want = _outcome(
            reference_audit_entries, tick, op, user, categories, purpose, role,
            status, truth,
        )
        if want[0] == "ok":
            oracle_log.extend(reference_audit_entries(
                tick, op, user, categories, purpose, role, status, truth
            ))
        outcomes.append((got, want))
    return outcomes


@st.composite
def _auditor_requests(draw):
    valid = st.sampled_from(["mark", "nurse", "treatment", "  Nurse ", "Referral"])
    field = st.one_of(valid, valid, valid, _STRINGS)
    return [
        (
            draw(field), draw(field), draw(field),
            tuple(draw(st.lists(field, max_size=3))),
            draw(_CODES), draw(_STATUS_CODES),
            draw(st.sampled_from(["", "practice"])),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]


class TestRecordAccess:
    @settings(max_examples=200, deadline=None)
    @given(requests=_auditor_requests())
    def test_in_memory_log_equals_oracle(self, requests):
        auditor = ComplianceAuditor(log=AuditLog(), clock=LogicalClock())
        oracle = AuditLog()
        for got, want in _replay(auditor, oracle, requests):
            assert got == want
        assert [_fields(e) for e in auditor.log] == [_fields(e) for e in oracle]

    @settings(max_examples=60, deadline=None)
    @given(requests=_auditor_requests())
    def test_durable_log_bytes_equal_oracle(self, requests):
        config = StoreConfig(max_segment_entries=5, fsync="off")
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            auditor = ComplianceAuditor(
                log=DurableAuditLog(root / "auditor", config), clock=LogicalClock()
            )
            oracle = DurableAuditLog(root / "oracle", config)
            for got, want in _replay(auditor, oracle, requests):
                assert got == want
            auditor.log.close()
            oracle.close()
            assert [_fields(e) for e in DurableAuditLog(root / "auditor")] == [
                _fields(e) for e in DurableAuditLog(root / "oracle")
            ]
            names = sorted(p.name for p in (root / "oracle").iterdir())
            assert sorted(p.name for p in (root / "auditor").iterdir()) == names
            for name in names:
                assert (root / "auditor" / name).read_bytes() == (
                    root / "oracle" / name
                ).read_bytes(), name
