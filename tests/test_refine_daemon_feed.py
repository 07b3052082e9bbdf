"""The embedded daemon's append feed: fed partials on the seal → live path.

A :class:`RefineDaemon` whose store is the live writer folds every
appended entry into the active segment's partial as it is written
(:class:`~repro.refine_daemon.daemon.AppendFeed`), so a poll merges the
sealed segment's partial instead of decoding the file.  These tests pin:

- **no decode**: a poll decodes no entry of a segment this process wrote
  and sealed after the daemon attached — a count, not a time;
- **equality**: a fed partial equals :func:`map_shard` of the same
  segment file, for any mix of exception, denied and multi-user entries;
- **threads**: appends and seals on one thread, polls on a
  :class:`DaemonThread`, still equal the offline ``refine()``;
- **garbage collection**: the store holds the feed weakly, so a dropped
  daemon is collected and the store calls nothing of it afterwards;
- **failed polls**: a poll that raises after merging a fed partial
  leaves nothing behind — the next poll resumes from the state file, so
  no entry is counted twice.
"""

from __future__ import annotations

import gc
import json
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import RULE_ATTRIBUTES, AccessOp, AccessStatus
from repro.errors import DaemonError
from repro.mining.patterns import MiningConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.parallel.partials import MapTask, map_shard
from repro.parallel.shards import Shard
from repro.policy.parser import format_rule, parse_rule
from repro.policy.store import PolicyStore
from repro.refine_daemon import (
    DaemonConfig,
    DaemonThread,
    QueueForReviewGate,
    RefineDaemon,
    StorePolicyTarget,
)
from repro.refine_daemon.daemon import AppendFeed, tail_task
from repro.refine_daemon.state import DaemonState, read_state_bytes
from repro.refinement.engine import RefinementConfig, refine
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.vocab.builtin import healthcare_vocabulary
from tests.test_properties_watermark import assert_offline_equal

VOCABULARY = healthcare_vocabulary()
MINING = MiningConfig(min_support=3, min_distinct_users=2)
POLICY = ("ALLOW nurse TO USE prescription FOR treatment",)

DATA = ("referral", "prescription", "lab_results")
PURPOSES = ("treatment", "registration", "billing")
ROLES = ("nurse", "clerk", "physician")

entries_strategy = st.lists(
    st.tuples(
        st.sampled_from(DATA),
        st.sampled_from(PURPOSES),
        st.sampled_from(ROLES),
        st.integers(0, 4),  # user
        st.sampled_from(tuple(AccessStatus)),
        st.sampled_from(tuple(AccessOp)),
    ),
    min_size=1,
    max_size=40,
)


def build_entries(rows, start=0) -> list:
    return [
        make_entry(start + tick, f"u{user}", data, purpose, role,
                   status=status, op=op)
        for tick, (data, purpose, role, user, status, op) in enumerate(rows)
    ]


def policy_store() -> PolicyStore:
    store = PolicyStore()
    for dsl in POLICY:
        store.add(parse_rule(dsl))
    return store


def build_daemon(log, config=None) -> RefineDaemon:
    return RefineDaemon(
        log,
        StorePolicyTarget(policy_store()),
        VOCABULARY,
        QueueForReviewGate(),
        config or DaemonConfig(mining=MINING),
    )


def without_timing(partial) -> dict:
    fields = dict(vars(partial))
    del fields["seconds"], fields["index"]
    return fields


def counting_decode(monkeypatch) -> list:
    """Count every record read from a segment file (the one reader,
    ``segment.iter_segment_payloads``, serves the map and iteration)."""
    from repro.store import segment

    decoded: list = []
    read = segment.iter_segment_payloads

    def counted(*args):
        for payload in read(*args):
            decoded.append(1)
            yield payload

    monkeypatch.setattr(segment, "iter_segment_payloads", counted)
    return decoded


class TestNoDecode:
    def test_a_poll_decodes_nothing_this_process_wrote(self, tmp_path, monkeypatch):
        log = DurableAuditLog(tmp_path / "trail")
        registry = MetricsRegistry()
        with use_registry(registry):
            daemon = build_daemon(log)
        decoded = counting_decode(monkeypatch)
        rows = [("referral", "registration", "nurse", u % 3, AccessStatus.EXCEPTION,
                 AccessOp.ALLOW) for u in range(30)]
        try:
            for round_index in range(3):
                log.extend(build_entries(rows, start=round_index * 100))
                log.seal_active()
                report = daemon.poll()
                assert report.consumed == len(rows)
                assert decoded == []  # per poll: zero entries decoded
        finally:
            log.close()
        segments = registry.counter(
            "repro_refine_daemon_segments_total", source="fed"
        ).value
        assert segments == 3
        assert registry.counter(
            "repro_refine_daemon_segments_total", source="file"
        ).value == 0

    def test_a_segment_joined_part_way_is_read_from_its_file(
        self, tmp_path, monkeypatch
    ):
        log = DurableAuditLog(tmp_path / "trail")
        rows = [("referral", "registration", "nurse", u % 3, AccessStatus.EXCEPTION,
                 AccessOp.ALLOW) for u in range(10)]
        log.extend(build_entries(rows))
        daemon = build_daemon(log)  # the active segment already holds 10
        log.extend(build_entries(rows, start=100))
        log.seal_active()
        decoded = counting_decode(monkeypatch)
        try:
            assert daemon.poll().consumed == 20
            assert len(decoded) == 20  # counts differ: the file is the truth
            log.extend(build_entries(rows, start=200))
            log.seal_active()
            assert daemon.poll().consumed == 10
            assert len(decoded) == 20  # the next segment is fed again
        finally:
            log.close()


class TestFedEqualsMapped:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=entries_strategy,
        task=st.sampled_from(
            (
                tail_task(RULE_ATTRIBUTES),
                MapTask(RULE_ATTRIBUTES, True, True, True, True),
                MapTask(("data", "authorized"), False, True, False),
            )
        ),
    )
    def test_fed_partial_equals_map_shard_of_the_segment(
        self, tmp_path_factory, rows, task
    ):
        log = DurableAuditLog(tmp_path_factory.mktemp("feed") / "trail")
        feed = AppendFeed(log.store, task)
        log.store.add_append_listener(feed)
        try:
            log.extend(build_entries(rows))
            meta = log.seal_active()
            fed = feed.take(log.sealed_segments())[meta.name]
            mapped = map_shard(
                Shard(0, "segments", "seg",
                      segments=(str(log.store.directory / meta.name),)),
                task,
            )
        finally:
            log.close()
        assert without_timing(fed) == without_timing(mapped)
        # insertion order matters too: it is first-occurrence order
        assert list(fed.rule_entries) == list(mapped.rule_entries)
        assert list(fed.groups) == list(mapped.groups)


class TestThreads:
    def test_polls_on_a_daemon_thread_equal_offline_refine(self, tmp_path):
        log = DurableAuditLog(
            tmp_path / "trail",
            config=StoreConfig(max_segment_entries=37, fsync="off"),
        )
        daemon = build_daemon(log)
        runner = DaemonThread(daemon, interval=0.001)
        trail: list = []
        combos = [(d, p, r) for d in DATA for p in PURPOSES for r in ROLES]

        def writer() -> None:
            for tick in range(600):
                data, purpose, role = combos[tick * 7 % 9]
                entry = make_entry(
                    tick, f"u{tick % 5}", data, purpose, role,
                    status=AccessStatus.EXCEPTION if tick % 3 else AccessStatus.REGULAR,
                    op=AccessOp.DENY if tick % 11 == 0 else AccessOp.ALLOW,
                )
                trail.append(entry)
                log.append(entry)
                if tick % 50 == 49:
                    log.seal_active()

        try:
            with runner:
                thread = threading.Thread(target=writer)
                thread.start()
                thread.join()
            log.seal_active()
            daemon.poll(force_mine=True)
        finally:
            log.close()
        assert runner.errors == 0
        assert daemon.state.watermark == len(trail)
        offline = refine(
            policy_store().policy(),
            AuditLog(trail),
            VOCABULARY,
            RefinementConfig(mining=MINING),
        )
        assert offline.useful_patterns
        pending = sorted(
            (c.rule, c.support, c.distinct_users) for c in daemon.state.pending
        )
        assert pending == sorted(
            (format_rule(p.rule), p.support, p.distinct_users)
            for p in offline.useful_patterns
        )
        assert daemon.state.last_set_coverage == offline.coverage.ratio
        assert daemon.state.last_entry_coverage == offline.entry_coverage.ratio


class TestWeakRegistration:
    def test_a_dropped_daemon_is_collected_and_never_called(self, tmp_path):
        log = DurableAuditLog(tmp_path / "trail")
        daemon = build_daemon(log)
        collected = weakref.ref(daemon)
        feed = weakref.ref(daemon._feed)
        del daemon
        gc.collect()
        try:
            assert collected() is None
            assert feed() is None
            assert log.store._append_listeners == ()  # nothing left to call
            log.append(make_entry(1, "u1", "referral", "registration", "nurse"))
            log.seal_active()
        finally:
            log.close()

    def test_a_stopped_daemon_thread_does_not_pin_its_daemon(self, tmp_path):
        log = DurableAuditLog(tmp_path / "trail")
        daemon = build_daemon(log)
        runner = DaemonThread(daemon, interval=0.01).start()
        log.append(make_entry(1, "u1", "referral", "registration", "nurse"))
        log.seal_active()  # the seal listener wakes the runner
        runner.stop()
        collected = weakref.ref(daemon)
        del daemon, runner
        gc.collect()
        try:
            assert collected() is None
            assert log.store._append_listeners == ()
            log.append(make_entry(2, "u1", "referral", "registration", "nurse"))
            log.seal_active()
        finally:
            log.close()


def fail_on_merge(daemon, call: int) -> None:
    """Make the daemon's ``call``-th merge of its next poll raise, as a
    segment that fails to decode part-way through a tail pass would."""
    merge = daemon._merge_partial
    calls: list = []

    def failing(partial, base) -> None:
        calls.append(base)
        if len(calls) == call:
            raise DaemonError("segment failed to decode")
        merge(partial, base)

    daemon._merge_partial = failing


class TestFailedPoll:
    def test_a_poll_that_fails_after_a_fed_merge_counts_nothing_twice(
        self, tmp_path, monkeypatch
    ):
        log = DurableAuditLog(tmp_path / "trail")
        consumed: list = []
        daemon = build_daemon(
            log,
            DaemonConfig(
                mining=MINING, mine_every_polls=0, entry_observer=consumed.append
            ),
        )
        rows = [(DATA[u % 3], "registration", ROLES[u % 2], u % 4,
                 AccessStatus.EXCEPTION, AccessOp.ALLOW) for u in range(12)]
        trail: list = []
        try:
            for round_index in range(2):
                batch = build_entries(rows, start=round_index * 100)
                trail += batch
                log.extend(batch)
                log.seal_active()
            fail_on_merge(daemon, call=2)  # the first segment merges, fed
            with pytest.raises(DaemonError):
                daemon.poll()
            del daemon._merge_partial
            assert read_state_bytes(log.store.directory) is None  # nothing saved
            # the failed poll's observations roll back with its state
            assert len(consumed) == len(rows)
            del consumed[:]
            decoded = counting_decode(monkeypatch)
            assert daemon.poll().consumed == 2 * len(rows)
            assert len(decoded) == 2 * len(rows)  # its fed partials are gone
            batch = build_entries(rows, start=200)
            trail += batch
            log.extend(batch)
            log.seal_active()
            assert daemon.poll().consumed == len(rows)
            assert len(decoded) == 2 * len(rows)  # fed again
            saved = read_state_bytes(log.store.directory)
        finally:
            log.close()
        keys = [(e.data, e.purpose, e.authorized) for e in trail]
        assert consumed == keys  # exactly once, in append order
        assert_offline_equal(daemon.state, trail)
        assert DaemonState.from_dict(json.loads(saved)) == daemon.state
        # the coverage-drop trigger reads that state: every entry once
        assert sum(daemon.state.rules.values()) == len(trail)
