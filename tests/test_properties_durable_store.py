"""Property tests: DurableAuditLog round-trips arbitrary audit logs.

The store persists whatever an in-memory :class:`AuditLog` can hold —
including empty logs, unicode attribute values (post-canonicalisation)
and degenerate single-entry segments — and every read-protocol method
must agree with the in-memory answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog, AuditReadOps
from repro.audit.schema import AccessOp, AccessStatus
from repro.store.durable import copy_to_durable
from repro.store.store import StoreConfig

users = st.sampled_from(["ann", "bob", "médecin_α", "看护_nurse"])
data_values = st.sampled_from(["referral", "prescription", "überweisung"])
purposes = st.sampled_from(["treatment", "registration", "billing"])
roles = st.sampled_from(["nurse", "clerk", "arzt_ä"])
ops = st.sampled_from([AccessOp.ALLOW, AccessOp.DENY])
statuses = st.sampled_from([AccessStatus.REGULAR, AccessStatus.EXCEPTION])
truths = st.sampled_from(["", "practice", "violation"])


@st.composite
def audit_logs(draw, max_size: int = 25) -> AuditLog:
    count = draw(st.integers(min_value=0, max_value=max_size))
    log = AuditLog()
    tick = 0
    for _ in range(count):
        tick += draw(st.integers(min_value=0, max_value=3))  # allow equal times
        log.append(
            AuditEntry(
                time=max(tick, 1),
                op=draw(ops),
                user=draw(users),
                data=draw(data_values),
                purpose=draw(purposes),
                authorized=draw(roles),
                status=draw(statuses),
                truth=draw(truths),
            )
        )
    return log


segment_limits = st.sampled_from([1, 2, 7, 100_000])


class TestRoundTripEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(log=audit_logs(), limit=segment_limits)
    def test_iteration_matches(self, tmp_path_factory, log, limit):
        directory = tmp_path_factory.mktemp("store") / "s"
        durable = copy_to_durable(
            log, directory, StoreConfig(max_segment_entries=limit, fsync="off")
        )
        assert len(durable) == len(log)
        assert list(durable) == list(log)
        assert durable.verify().ok
        durable.close()

    @settings(max_examples=40, deadline=None)
    @given(log=audit_logs(), limit=segment_limits,
           bounds=st.tuples(st.integers(0, 30), st.integers(0, 30)))
    def test_window_matches(self, tmp_path_factory, log, limit, bounds):
        directory = tmp_path_factory.mktemp("store") / "s"
        durable = copy_to_durable(
            log, directory, StoreConfig(max_segment_entries=limit, fsync="off")
        )
        start, end = min(bounds), max(bounds)
        assert list(durable.window(start, end)) == list(log.window(start, end))
        durable.close()

    @settings(max_examples=40, deadline=None)
    @given(log=audit_logs(), limit=segment_limits)
    def test_filters_match(self, tmp_path_factory, log, limit):
        directory = tmp_path_factory.mktemp("store") / "s"
        durable = copy_to_durable(
            log, directory, StoreConfig(max_segment_entries=limit, fsync="off")
        )
        assert list(durable.exceptions()) == list(log.exceptions())
        assert list(durable.regular()) == list(log.regular())
        assert list(durable.denials()) == list(log.denials())
        assert durable.distinct_users() == log.distinct_users()
        if len(log):
            # AuditLog keeps its own O(1) time_range; it must agree with
            # the shared streaming one and with the store's manifest
            expected = AuditReadOps.time_range(log)
            assert log.time_range() == durable.time_range() == expected
        durable.close()

    @settings(max_examples=40, deadline=None)
    @given(log=audit_logs(), limit=segment_limits)
    def test_reopen_preserves_content(self, tmp_path_factory, log, limit):
        from repro.store.durable import DurableAuditLog

        directory = tmp_path_factory.mktemp("store") / "s"
        durable = copy_to_durable(
            log, directory, StoreConfig(max_segment_entries=limit, fsync="off")
        )
        durable.close()
        reopened = DurableAuditLog(directory, create=False)
        assert list(reopened) == list(log)
        reopened.close()

    @settings(max_examples=30, deadline=None)
    @given(log=audit_logs(), limit=st.sampled_from([1, 3, 7]))
    def test_compaction_preserves_content(self, tmp_path_factory, log, limit):
        directory = tmp_path_factory.mktemp("store") / "s"
        durable = copy_to_durable(
            log, directory, StoreConfig(max_segment_entries=limit, fsync="off")
        )
        durable.store.compact()
        assert list(durable) == list(log)
        assert durable.verify().ok
        durable.close()
