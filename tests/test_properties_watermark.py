"""Property tests: the daemon's watermark under arbitrary interleavings.

Hypothesis drives random schedules of *append / seal / poll / compact*
against a durable store with a tailing :class:`RefineDaemon` and checks
the two safety invariants of incremental consumption:

- **exactly-once**: the concatenation of everything the daemon ever
  consumed equals the sealed region's entries in global append order —
  no entry is mined twice, none is skipped, across polls, restarts and
  compactions;
- **watermark bounds**: the watermark never runs ahead of the sealed
  entry count (unsealed entries are invisible) and never moves backwards;
- **offline equality**: the daemon's cumulative aggregates (lifted rules
  with counts, practice groups, evidence) equal one offline pass over the
  sealed trail.

The daemon folds the segments its store seals while it watches from
their fed partials and reads every other segment from its file; the
schedules mix both: a restart attaches a new daemon, possibly while the
active segment already holds entries, compaction renames segments and
makes straddles, a poisoned feed raises on its next entry, and a failing
poll raises right after its first merge — what it merged must not count.

Mining is disarmed (all triggers off) so the schedules explore the
tailing machinery, not pattern quality — the mining semantics have their
own deterministic suite in ``tests/test_refine_daemon_sim.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.log import make_entry
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import DaemonError
from repro.mining.patterns import MiningConfig
from repro.policy.store import PolicyStore
from repro.refine_daemon import AutoAcceptGate, DaemonConfig, RefineDaemon, StorePolicyTarget
from repro.refine_daemon.state import EVIDENCE_LIMIT
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.vocab.builtin import healthcare_vocabulary

VOCABULARY = healthcare_vocabulary()

#: values the shared vocabulary resolves, so grounding always succeeds
DATA = ("referral", "prescription", "lab_results")
PURPOSES = ("treatment", "registration", "billing")
ROLES = ("nurse", "clerk", "physician")

#: one schedule step: append a batch, seal, poll, restart the daemon
#: (fresh instance over the same state file), compact the store, poison
#: the daemon's feed so it raises on the next appended entry, or poll
#: with the poll failing once its first merge is done
ops = st.one_of(
    st.tuples(st.just("append"), st.integers(min_value=1, max_value=7)),
    st.tuples(st.just("seal"), st.just(0)),
    st.tuples(st.just("poll"), st.just(0)),
    st.tuples(st.just("restart"), st.just(0)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("poison"), st.just(0)),
    st.tuples(st.just("fail"), st.just(0)),
)


def failing_poll(daemon, consumed: list) -> None:
    """Poll with the tail pass raising right after its first merge, as a
    later segment that fails to decode would.  A poll that merges
    nothing succeeds; a failed one's observations are rolled back, like
    the state it had merged into."""
    merge = daemon._merge_partial

    def failing(partial, base) -> None:
        merge(partial, base)
        raise DaemonError("segment failed to decode")

    mark = len(consumed)
    daemon._merge_partial = failing
    try:
        daemon.poll()
    except DaemonError:
        del consumed[mark:]
    finally:
        del daemon._merge_partial


class _Poison:
    """A stand-in builder that raises, as a failing fold would."""

    def extend(self, entries) -> None:
        raise RuntimeError("poisoned feed")


def offline_aggregates(entries) -> tuple[dict, dict, dict]:
    """One plain pass over ``entries``: rules with counts, practice
    groups ``[support, users]`` and bounded evidence positions."""
    rules: dict = {}
    groups: dict = {}
    evidence: dict = {}
    for position, entry in enumerate(entries):
        key = (entry.data, entry.purpose, entry.authorized)
        rules[key] = rules.get(key, 0) + 1
        if entry.is_exception and entry.is_allowed:
            slot = groups.setdefault(key, [0, set()])
            slot[0] += 1
            slot[1].add(entry.user)
            held = evidence.setdefault(key, [])
            if len(held) < EVIDENCE_LIMIT:
                held.append(position)
    return rules, groups, evidence


def assert_offline_equal(state, entries) -> None:
    rules, groups, evidence = offline_aggregates(entries)
    assert list(state.rules.items()) == list(rules.items())
    assert state.groups == groups
    assert state.evidence == evidence


def build_daemon(log, consumed: list) -> RefineDaemon:
    """A mining-disarmed daemon that records every consumed entry key."""
    return RefineDaemon(
        log,
        StorePolicyTarget(PolicyStore()),
        VOCABULARY,
        AutoAcceptGate(),
        DaemonConfig(
            mining=MiningConfig(min_support=5, min_distinct_users=2),
            mine_every_polls=0,
            entry_observer=consumed.append,
        ),
    )


class TestWatermarkInterleavings:
    @settings(max_examples=40, deadline=None)
    @given(schedule=st.lists(ops, min_size=1, max_size=24), data=st.data())
    def test_exactly_once_consumption(self, tmp_path_factory, schedule, data):
        directory = tmp_path_factory.mktemp("wm") / "trail"
        log = DurableAuditLog(
            directory,
            config=StoreConfig(max_segment_entries=100_000, fsync="off"),
        )
        consumed: list = []
        daemon = build_daemon(log, consumed)
        appended: list = []  # every entry key ever appended, in order
        entries: list = []  # the entries behind those keys
        sealed_count = 0  # entries inside sealed segments right now
        tick = 0
        watermarks = [0]
        try:
            for op, arg in schedule:
                if op == "append":
                    for _ in range(arg):
                        tick += 1
                        key = (
                            DATA[data.draw(st.integers(0, len(DATA) - 1))],
                            PURPOSES[data.draw(st.integers(0, len(PURPOSES) - 1))],
                            ROLES[data.draw(st.integers(0, len(ROLES) - 1))],
                        )
                        appended.append(key)
                        entries.append(
                            make_entry(
                                tick, f"u{tick % 4}", *key,
                                status=data.draw(st.sampled_from(
                                    (AccessStatus.EXCEPTION,) * 3
                                    + (AccessStatus.REGULAR,)
                                )),
                                op=data.draw(st.sampled_from(
                                    (AccessOp.ALLOW,) * 3 + (AccessOp.DENY,)
                                )),
                            )
                        )
                        log.append(entries[-1])
                elif op == "seal":
                    if log.seal_active() is not None:
                        sealed_count = len(appended)
                elif op == "poll":
                    report = daemon.poll()
                    watermarks.append(report.watermark)
                elif op == "restart":
                    daemon = build_daemon(log, consumed)
                elif op == "poison":
                    daemon._feed._builder = _Poison()
                elif op == "fail":
                    failing_poll(daemon, consumed)
                    watermarks.append(daemon.state.watermark)
                else:  # compact: merge sealed history under new names
                    log.store.compact()
            daemon.poll()  # final drain of whatever is sealed
            watermarks.append(daemon.state.watermark)
        finally:
            log.close()
        # exactly-once: consumed == the sealed prefix, in append order
        assert consumed == appended[:sealed_count]
        assert_offline_equal(daemon.state, entries[:sealed_count])
        # bounds: never past the sealed region, never backwards
        assert all(w <= sealed_count for w in watermarks)
        assert watermarks == sorted(watermarks)

    @settings(max_examples=25, deadline=None)
    @given(
        batches=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
        compact_after=st.integers(min_value=0, max_value=7),
    )
    def test_compaction_never_disturbs_the_tail(
        self, tmp_path_factory, batches, compact_after
    ):
        """Seal → poll → compact cycles: the post-compaction straddling
        segment (consumed head + unconsumed tail in one file) still
        yields exactly the unconsumed suffix."""
        directory = tmp_path_factory.mktemp("wmc") / "trail"
        log = DurableAuditLog(
            directory, config=StoreConfig(max_segment_entries=4, fsync="off")
        )
        consumed: list = []
        daemon = build_daemon(log, consumed)
        appended: list = []
        entries: list = []
        tick = 0
        try:
            for index, batch in enumerate(batches):
                for _ in range(batch):
                    tick += 1
                    key = (DATA[tick % 3], PURPOSES[tick % 3], ROLES[tick % 3])
                    appended.append(key)
                    entries.append(
                        make_entry(
                            tick, f"u{tick % 3}", *key,
                            status=AccessStatus.EXCEPTION,
                        )
                    )
                    log.append(entries[-1])
                log.seal_active()
                daemon.poll()
                if index == compact_after:
                    log.store.compact()
                    daemon = build_daemon(log, consumed)  # restart post-compact
            daemon.poll()
        finally:
            log.close()
        assert consumed == appended
        assert daemon.state.watermark == len(appended)
        assert_offline_equal(daemon.state, entries)
