"""The refinement kernel: shard → map → fold → finish.

:func:`parallel_refine` runs Algorithm 2 for both miners (``"sql"`` and
``"apriori"``) at every worker count: one worker maps the trail
in-process as one shard, more map one shard each on a process pool.
Either way the trail is read once.  The partials fold into one
:class:`TrailAggregate`, whose :meth:`~TrailAggregate.finish` runs the
rest of the round.  The refinement daemon keeps the same aggregate
across polls and finishes it at each mining round; the offline loop
extends one per window through :func:`fold_and_finish`.

The result equals the paper's literal pipeline (the test oracle) because
partials are exact (counts add, user sets union), the global thresholds
and orderings apply only at the finish, and one grounder grounds
everything — by default the vocabulary's shared one, whose memos carry
over from call to call.  The miners differ only in that order: a
full-width Apriori itemset over one-item-per-attribute transactions is
exactly a ``GROUP BY`` group, so both fold the same groups.

A finish emits the ``repro_refinement_stage`` spans ``coverage``,
``extract`` and ``prune``; the kernel adds ``filter`` around the map.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate

from repro.audit.classify import ClassifierConfig
from repro.audit.log import StreamedAuditView
from repro.audit.schema import RULE_ATTRIBUTES
from repro.coverage.engine import (
    CoverageReport,
    compute_coverage,
    grouped_entry_coverage,
)
from repro.errors import RefinementError
from repro.mining.patterns import MiningConfig, Pattern, apriori_pattern_order
from repro.mining.sql_patterns import finalize_patterns, fold_groups
from repro.obs.metrics import CARDINALITY_BUCKETS
from repro.obs.runtime import get_registry
from repro.parallel.partials import GroupKey, MapTask, ShardPartial, key_of, map_shard
from repro.parallel.pool import map_in_process, run_sharded
from repro.parallel.shards import iter_shard, shards_of
from repro.policy.grounding import Grounder, grounder_for
from repro.policy.policy import Policy, PolicySource
from repro.policy.rule import Rule
from repro.refinement.engine import RefinementConfig, RefinementResult
from repro.refinement.prune import PruneResult, prune_patterns
from repro.vocab.vocabulary import Vocabulary

#: Evidence entry ids kept per practice rule (the first ones folded).
EVIDENCE_LIMIT: int = 16


@dataclass(frozen=True)
class TrailCoverage:
    """What :meth:`TrailAggregate.cover` yields for one policy."""

    #: every rule key -> its lifted rule and ground mask
    lifted: dict[GroupKey, tuple[Rule, int]]
    coverage: CoverageReport
    entries: int
    #: the rule keys the policy does not cover -> their entry counts
    uncovered: dict[GroupKey, int]

    @property
    def entry_ratio(self) -> float:
        """The share of folded entries whose rule the policy covers."""
        return (self.entries - sum(self.uncovered.values())) / self.entries


@dataclass(frozen=True)
class TrailRound(TrailCoverage):
    """What :meth:`TrailAggregate.finish` yields for one round."""

    suspected: frozenset
    patterns: tuple[Pattern, ...]
    prune: PruneResult


@dataclass
class TrailAggregate:
    """All Algorithm 2 needs of a trail after the map.  Folding the
    partials of any contiguous split, in trail order, gives the aggregate
    of one pass; folding is associative, so aggregates fold together too.
    """

    #: every distinct rule key, in first-occurrence order -> entry count
    rules: dict[GroupKey, int] = field(default_factory=dict)
    #: the practice groups ``key -> [support, user-set]``; keys are
    #: ``(values, classifier values)`` when the map screened
    groups: dict = field(default_factory=dict)
    #: practice rule key -> its first :data:`EVIDENCE_LIMIT` exception
    #: entry ids (only when the map collected exceptions)
    evidence: dict[GroupKey, list[int]] = field(default_factory=dict)
    #: the violation classifier's exception support and users per rule
    #: (only when the map screened suspected violations)
    cls_stats: dict = field(default_factory=dict)
    #: rules echoed by an allowed regular entry (only when collected)
    regular_rules: set = field(default_factory=set)

    def fold(
        self, part: "ShardPartial | TrailAggregate", base: int = 0
    ) -> "TrailAggregate":
        """Fold ``part`` in after everything folded so far; returns self.
        ``base``, the trail index of ``part``'s first entry, turns its
        evidence positions into trail indices."""
        if isinstance(part, TrailAggregate):
            counts = part.rules.items()
            evidence = part.evidence
        else:
            counts = (
                (values, len(positions))
                for values, positions in part.rule_entries.items()
            )
            evidence = part.exception_entries or {}
        rules = self.rules
        for values, count in counts:
            rules[values] = rules.get(values, 0) + count
        fold_groups(self.groups, part.groups)
        for values, positions in evidence.items():
            held = self.evidence.setdefault(values, [])
            room = EVIDENCE_LIMIT - len(held)
            if room > 0:
                held.extend(base + position for position in positions[:room])
        if part.cls_stats:
            fold_groups(self.cls_stats, part.cls_stats)
        if part.regular_rules:
            self.regular_rules |= part.regular_rules
        return self

    def suspected(self, config: ClassifierConfig) -> frozenset:
        """Reproduce ``classify_exceptions`` verdicts from folded signals:
        a rule is suspected iff its exception support or user count fails
        its threshold and no regular entry echoed it (no echo is collected
        under ``classify_scope="practice"``)."""
        echoed = self.regular_rules
        return frozenset(
            key
            for key, (count, users) in self.cls_stats.items()
            if not (
                count >= config.min_support
                and len(users) >= config.min_distinct_users
            )
            and not (config.trust_regular_echo and key in echoed)
        )

    def cover(
        self,
        policy: Policy,
        vocabulary: Vocabulary,
        grounder: Grounder,
        attributes: tuple[str, ...],
        name: str = "audit_log",
    ) -> TrailCoverage:
        """The head of :meth:`finish`: lift the folded rule keys, take
        ``policy``'s set coverage of ``P_AL(name)``, keep the keys it
        leaves uncovered."""
        lifted = grounder.lift(attributes, self.rules)
        audit_policy = Policy(
            (rule for rule, _ in lifted.values()),
            source=PolicySource.AUDIT_LOG,
            name=f"P_AL({name})",
        )
        coverage = compute_coverage(policy, audit_policy, vocabulary, grounder)
        covering = coverage.covering.mask
        uncovered = {
            values: count
            for values, count in self.rules.items()
            if lifted[values][1] & ~covering
        }
        return TrailCoverage(lifted, coverage, sum(self.rules.values()), uncovered)

    def finish(
        self,
        policy: Policy,
        vocabulary: Vocabulary,
        grounder: Grounder,
        mining: MiningConfig,
        miner: str = "sql",
        classifier: ClassifierConfig | None = None,
        name: str = "audit_log",
    ) -> TrailRound:
        """Everything after the fold: :meth:`cover`, the suspected set
        (when ``classifier`` screens), the patterns under the global
        thresholds in ``miner``'s order (``"sql"`` or ``"apriori"``),
        then Prune against ``policy``."""
        attributes = mining.attributes
        reg = get_registry()
        with reg.span("repro_refinement_stage", stage="coverage"):
            head = self.cover(policy, vocabulary, grounder, attributes, name)

        with reg.span("repro_refinement_stage", stage="extract"):
            suspected: frozenset = frozenset()
            groups = self.groups
            if classifier is not None:
                suspected = self.suspected(classifier)
                groups = {}  # compound keys: drop the suspected
                for (values, cls_values), slot in self.groups.items():
                    if cls_values not in suspected:
                        fold_groups(groups, {values: slot})
            patterns = finalize_patterns(
                attributes,
                groups,
                mining,
                apriori_pattern_order if miner == "apriori" else None,
                rule_of=lambda values: head.lifted[values][0],
            )

        with reg.span("repro_refinement_stage", stage="prune"):
            prune = prune_patterns(patterns, policy, vocabulary, grounder)
        return TrailRound(
            **vars(head), suspected=suspected, patterns=patterns, prune=prune
        )


def map_plan(cfg: RefinementConfig) -> tuple[MapTask, ClassifierConfig | None]:
    """The map task Algorithm 2 folds a trail with under ``cfg``, and the
    classifier its finish screens with (None: no screening)."""
    screened = cfg.exclude_suspected_violations
    collect_regular = screened and cfg.classify_scope == "log"
    task = MapTask(cfg.mining.attributes, cfg.include_denied, screened, collect_regular)
    return task, (cfg.classifier or ClassifierConfig()) if screened else None


def fold_and_finish(
    aggregate: TrailAggregate,
    entries,
    policy: Policy,
    vocabulary: Vocabulary,
    config: RefinementConfig,
    grounder: Grounder | None = None,
) -> TrailRound:
    """Map the in-memory ``entries`` as one shard, fold them into
    ``aggregate`` after everything folded so far, and finish it against
    ``policy``: Algorithm 2 over the aggregate's whole trail."""
    task, classifier = map_plan(config)
    with get_registry().span("repro_refinement_stage", stage="filter"):
        (shard,) = shards_of(entries, 1)
        aggregate.fold(map_shard(shard, task), base=sum(aggregate.rules.values()))
    grounder = grounder_for(vocabulary, grounder)
    return aggregate.finish(
        policy, vocabulary, grounder, config.mining, config.miner, classifier
    )


def _global_positions(
    partials: list[ShardPartial], offsets: list[int], values: GroupKey
) -> Iterator[int]:
    """The ascending global positions of one lifted rule's entries."""
    for offset, partial in zip(offsets, partials):
        for position in partial.rule_entries.get(values, ()):
            yield offset + position


def parallel_refine(
    policy_store: Policy,
    audit_log,
    vocabulary: Vocabulary,
    config: RefinementConfig | None = None,
    grounder: Grounder | None = None,
) -> RefinementResult:
    """Algorithm 2 as shard → map → fold → finish.

    Accepts exactly what :func:`repro.refinement.engine.refine` accepts;
    ``config.execution`` sets the worker count (default one).  Returns
    the literal pipeline's :class:`~repro.refinement.engine.RefinementResult`.
    """
    cfg = config or RefinementConfig()
    workers = cfg.execution.workers if cfg.execution is not None else 1
    miner = cfg.miner
    grounder = grounder_for(vocabulary, grounder)
    name = getattr(audit_log, "name", "audit_source")

    reg = get_registry()
    with reg.span("repro_refinement_stage", stage="filter"):
        shards = shards_of(audit_log, workers)
        task, classifier = map_plan(cfg)
        if workers == 1:
            partials, mode = map_in_process(map_shard, shards, task)
        else:
            partials, mode = run_sharded(map_shard, shards, task, workers)
    offsets = list(accumulate((partial.entries for partial in partials), initial=0))
    total = offsets.pop()
    if total == 0:
        raise RefinementError("cannot refine against an empty audit log")
    if reg.enabled:
        reg.counter("repro_parallel_runs_total", mode=mode, miner=miner).inc()
        reg.counter("repro_parallel_shards_total").inc(len(shards))
        sizes = reg.histogram(
            "repro_parallel_shard_entries", buckets=CARDINALITY_BUCKETS
        )
        worker_seconds = reg.histogram("repro_parallel_worker_seconds")
        for partial in partials:
            sizes.observe(partial.entries)
            worker_seconds.observe(partial.seconds)
        reg.counter("repro_parallel_merged_groups_total").inc(
            sum(len(partial.groups) for partial in partials)
        )

    # shard order plus each partial's insertion order restores the order
    # a single scan discovers the rule keys in
    aggregate = TrailAggregate()
    for partial in partials:
        aggregate.fold(partial)
    trail = aggregate.finish(
        policy_store, vocabulary, grounder, cfg.mining, miner, classifier, name
    )
    del aggregate  # free the folded groups before the positions merge peaks
    # the aggregate keeps counts; the uncovered entries' indices come
    # from the partials' positions, shifted by the shard offsets
    entry_coverage = grouped_entry_coverage(
        trail.coverage.covering,
        (
            _global_positions(partials, offsets, values)
            for values in trail.uncovered
        ),
        total,
    )

    practice_source = audit_log
    if not hasattr(audit_log, "where"):
        # Sources without the AuditLog read protocol (an AuditFederation)
        # are exposed through a lazy view over the shard plan, so the
        # returned practice subset streams in the same site-major order
        # the fold used.
        practice_source = StreamedAuditView(
            lambda: (entry for shard in shards for entry in iter_shard(shard)),
            name=name,
        )
    # filter_practice's subset, screened by the folded verdicts (keyed by
    # the entries' own values) instead of a re-classification pass
    include_denied = cfg.include_denied
    suspected = trail.suspected
    suspected_key = key_of(RULE_ATTRIBUTES)

    def _is_practice(entry) -> bool:
        if not entry.is_exception:
            return False
        if not include_denied and not entry.is_allowed:
            return False
        return not suspected or suspected_key(entry) not in suspected

    practice = practice_source.where(_is_practice)
    practice.name = f"{name}.practice"
    if reg.enabled:
        reg.counter("repro_refinement_runs_total").inc()
        reg.counter("repro_refinement_patterns_mined_total").inc(
            len(trail.patterns)
        )
        reg.counter("repro_refinement_patterns_useful_total").inc(
            len(trail.prune.useful)
        )
        reg.counter("repro_refinement_patterns_pruned_total").inc(
            len(trail.prune.pruned)
        )
    return RefinementResult(
        practice=practice,
        patterns=trail.patterns,
        useful_patterns=trail.prune.useful,
        pruned_patterns=trail.prune.pruned,
        coverage=trail.coverage,
        entry_coverage=entry_coverage,
    )
