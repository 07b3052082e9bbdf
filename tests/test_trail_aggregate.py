"""Property tests: one trail aggregate, however the trail is split.

:class:`~repro.parallel.refine.TrailAggregate` is the state that
``refine()``, the refinement daemon and the fleet daemon all fold their
partials into and finish a round from.  Hypothesis draws random trails
(regular and exception entries, allowed and denied) and random cuts,
and checks that

- folding one partial of the whole trail, one partial per segment, or
  one partial per entry gives an equal aggregate and an equal finish;
- ``fold`` is associative;
- ``finish`` equals the literal pipeline (``tests/reference.py``) for
  the SQL and Apriori miners, with and without violation screening;
- a daemon that resumes from its saved state finishes a round equal to
  ``parallel_refine`` over the same trail.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.classify import ClassifierConfig
from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessOp, AccessStatus
from repro.mining.patterns import MiningConfig
from repro.parallel.partials import MapTask, PartialBuilder
from repro.parallel.refine import TrailAggregate, parallel_refine
from repro.policy.grounding import Grounder
from repro.policy.parser import format_rule, parse_rule
from repro.policy.store import PolicyStore
from repro.refine_daemon import DaemonConfig, RefineDaemon, StorePolicyTarget
from repro.refine_daemon.gate import QueueForReviewGate
from repro.refine_daemon.state import load_state
from repro.refinement.engine import RefinementConfig
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.vocab.builtin import healthcare_vocabulary
from tests.reference import assert_round_identical, reference_refine

VOCABULARY = healthcare_vocabulary()
MINING = MiningConfig(min_support=3, min_distinct_users=2)
#: stricter than the mining thresholds, so screening drops groups
CLASSIFIER = ClassifierConfig(min_support=5, min_distinct_users=3)
ATTRIBUTES = MINING.attributes

#: values the shared vocabulary resolves, so grounding always succeeds
DATA = ("referral", "prescription", "lab_results")
PURPOSES = ("treatment", "registration", "billing")
ROLES = ("nurse", "clerk", "physician")

#: the policy every round is finished against: one rule, so coverage
#: and Prune both have something to do
POLICY = PolicyStore()
POLICY.add(parse_rule("ALLOW nurse TO USE prescription FOR treatment"))

#: (miner, screened, classify scope, include denied) per config case
CASES = {
    "sql": ("sql", False, "log", False),
    "sql-denied": ("sql", False, "log", True),
    "sql-screened": ("sql", True, "log", False),
    "sql-screened-practice-scope": ("sql", True, "practice", False),
    "apriori": ("apriori", False, "log", False),
}

#: rule keys drawn hot (over the evidence bound), warm (around the
#: mining and classifier thresholds) or from the whole vocabulary
keys = st.one_of(
    st.just(("referral", "registration", "nurse")),
    st.one_of(
        st.sampled_from([
            ("prescription", "treatment", "nurse"),
            ("lab_results", "billing", "clerk"),
            ("referral", "treatment", "physician"),
            ("prescription", "registration", "clerk"),
        ]),
        st.tuples(
            st.sampled_from(DATA), st.sampled_from(PURPOSES), st.sampled_from(ROLES)
        ),
    ),
)
entry_rows = st.tuples(
    keys,
    st.integers(min_value=0, max_value=4),  # user
    st.sampled_from((AccessStatus.EXCEPTION,) * 3 + (AccessStatus.REGULAR,)),
    st.sampled_from((AccessOp.ALLOW,) * 3 + (AccessOp.DENY,)),
)
trails = st.lists(entry_rows, min_size=1, max_size=80)

#: one key past the evidence bound, echoed through the regular path
HOT_TRAIL = [
    (("referral", "registration", "nurse"), user % 4, AccessStatus.EXCEPTION,
     AccessOp.ALLOW)
    for user in range(20)
] + [
    (("lab_results", "billing", "clerk"), 0, AccessStatus.REGULAR, AccessOp.ALLOW),
    (("lab_results", "billing", "clerk"), 1, AccessStatus.EXCEPTION, AccessOp.ALLOW),
]


def build_entries(rows) -> list:
    return [
        make_entry(tick, f"u{user}", *key, status=status, op=op)
        for tick, (key, user, status, op) in enumerate(rows)
    ]


def task_for(case: str) -> MapTask:
    """The kernel's map task for ``case``, with the exception evidence."""
    _, screened, scope, denied = CASES[case]
    return MapTask(
        attributes=ATTRIBUTES,
        include_denied=denied,
        exclude_suspected=screened,
        collect_regular=screened and scope == "log",
        collect_exceptions=True,
    )


def partial_of(entries, task: MapTask):
    builder = PartialBuilder(task)
    builder.extend(entries)
    return builder.finish(0)


def segments(entries, cuts) -> list[tuple[int, list]]:
    """``(start, entries)`` per segment of ``entries`` split at ``cuts``."""
    bounds = [0, *sorted(set(cut % (len(entries) + 1) for cut in cuts)), len(entries)]
    return [
        (start, entries[start:stop])
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]


def fold_segments(entries, cuts, task: MapTask) -> TrailAggregate:
    aggregate = TrailAggregate()
    for start, segment in segments(entries, cuts):
        aggregate.fold(partial_of(segment, task), start)
    return aggregate


def finish(aggregate: TrailAggregate, case: str):
    miner, screened, _, _ = CASES[case]
    return aggregate.finish(
        POLICY.policy(),
        VOCABULARY,
        Grounder(VOCABULARY),
        MINING,
        miner,
        CLASSIFIER if screened else None,
    )


def config_for(case: str) -> RefinementConfig:
    miner, screened, scope, denied = CASES[case]
    return RefinementConfig(
        mining=MINING,
        miner=miner,
        include_denied=denied,
        exclude_suspected_violations=screened,
        classifier=CLASSIFIER,
        classify_scope=scope,
    )


class TestFold:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=trails,
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
        case=st.sampled_from(sorted(CASES)),
    )
    @example(rows=HOT_TRAIL, cuts=[7, 15], case="sql-screened")
    def test_any_split_folds_to_one_aggregate(self, rows, cuts, case):
        entries = build_entries(rows)
        task = task_for(case)
        whole = TrailAggregate().fold(partial_of(entries, task))
        per_segment = fold_segments(entries, cuts, task)
        per_entry = TrailAggregate()
        for index, entry in enumerate(entries):
            per_entry.fold(partial_of((entry,), task), index)
        assert per_segment == whole
        assert per_entry == whole
        assert list(per_segment.rules) == list(whole.rules)  # first-occurrence order
        assert finish(per_segment, case) == finish(whole, case)
        assert finish(per_entry, case) == finish(whole, case)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=trails,
        cuts=st.lists(st.integers(min_value=0, max_value=80), min_size=2, max_size=2),
        case=st.sampled_from(sorted(CASES)),
    )
    def test_fold_is_associative(self, rows, cuts, case):
        entries = build_entries(rows)
        task = task_for(case)
        first, second = sorted(cut % (len(entries) + 1) for cut in cuts)
        parts = (entries[:first], entries[first:second], entries[second:])

        def aggregate(index: int) -> TrailAggregate:
            return TrailAggregate().fold(partial_of(parts[index], task))

        left = aggregate(0).fold(aggregate(1), first).fold(aggregate(2), second)
        right = aggregate(0).fold(
            aggregate(1).fold(aggregate(2), second - first), first
        )
        assert left == right
        assert list(left.rules) == list(right.rules)
        assert left == fold_segments(entries, cuts, task)


class TestFinish:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=trails,
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
        case=st.sampled_from(sorted(CASES)),
    )
    def test_finish_equals_the_literal_pipeline(self, rows, cuts, case):
        entries = build_entries(rows)
        log = AuditLog(entries, name="trail")
        literal = reference_refine(
            POLICY.policy(), log, VOCABULARY, config_for(case), Grounder(VOCABULARY)
        )
        trail = finish(fold_segments(entries, cuts, task_for(case)), case)
        assert_round_identical(literal, trail, entries, ATTRIBUTES)


class TestResumedDaemon:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=trails,
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
        restart_after=st.integers(min_value=0, max_value=4),
    )
    def test_resumed_daemon_finishes_like_parallel_refine(
        self, tmp_path_factory, rows, cuts, restart_after
    ):
        entries = build_entries(rows)
        log = DurableAuditLog(
            tmp_path_factory.mktemp("agg") / "trail",
            config=StoreConfig(max_segment_entries=100_000, fsync="off"),
        )
        policy = PolicyStore()
        policy.add(parse_rule("ALLOW nurse TO USE prescription FOR treatment"))

        def build_daemon() -> RefineDaemon:
            return RefineDaemon(
                log,
                StorePolicyTarget(policy),
                VOCABULARY,
                QueueForReviewGate(),
                DaemonConfig(mining=MINING, mine_every_polls=0),
            )

        daemon = build_daemon()
        try:
            for index, (_, segment) in enumerate(segments(entries, cuts)):
                log.extend(segment)
                log.seal_active()
                daemon.poll()
                if index == restart_after:
                    daemon = build_daemon()  # resumes from the state file
            report = build_daemon().poll(force_mine=True)
            expected = parallel_refine(
                policy.policy(),
                log,
                VOCABULARY,
                RefinementConfig(mining=MINING),
                Grounder(VOCABULARY),
            )
            state = load_state(log.store.directory)
        finally:
            log.close()
        assert report.patterns_mined == len(expected.patterns)
        assert report.set_coverage == expected.coverage.ratio
        assert report.entry_coverage == expected.entry_coverage.ratio
        assert [
            (candidate.rule, candidate.support, candidate.distinct_users)
            for candidate in state.pending
        ] == [
            (format_rule(pattern.rule), pattern.support, pattern.distinct_users)
            for pattern in expected.useful_patterns
        ]
