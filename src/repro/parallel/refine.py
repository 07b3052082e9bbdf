"""The refinement kernel: shard → map → deterministic merge.

:func:`parallel_refine` runs Algorithm 2 for the built-in miners, and
:func:`repro.refinement.engine.refine` delegates to it at every worker
count.  One worker maps in-process, by default a single shard — serial
``refine()`` is the one-shard case, reading the trail exactly once.
More workers map their shards on a process pool.  Both feed the same
merge: lift → coverage → entry coverage from the mapped positions →
suspected set → patterns → prune → lazy practice view.

Determinism and equality with the paper's literal pipeline (Filter →
the Algorithm 5 SQL statement → Prune, kept as the test oracle) come
from four commitments:

1. **Exact partials.**  Supports add, user sets union, entry positions
   offset — nothing sampled, nothing approximated — so merged counts
   equal a single global pass.
2. **Global thresholds re-applied at the merge.**  The ``HAVING`` bounds
   (and the classifier's verdict thresholds under violation screening)
   are evaluated only against merged totals; workers never discard a
   group the globals might keep (the SQL path ships every group, the
   Apriori path over-collects candidates via the SON pigeonhole bound
   and recounts them exactly — unless one unscreened shard's counts
   already are exact).
3. **Global ordering re-applied at the merge.**  Results are sorted with
   the miners' own keys (:func:`~repro.mining.patterns.sql_pattern_order`,
   :func:`~repro.mining.patterns.apriori_pattern_order`), so worker
   completion order never shows through.
4. **One shared grounder.**  Coverage and pruning masks are produced by
   the coordinator's single interned grounder; worker processes never
   ground anything, so every mask is comparable.  Unless the caller
   passes one, that is the vocabulary's shared grounder, whose memos
   (expansions, and each trail key's lifted rule and mask) carry over
   from one call to the next.

Every call emits the ``repro_refinement_stage`` spans: ``filter`` times
the streaming map, ``coverage`` the merge's coverage, ``extract`` the
pattern reduce and ``prune`` Prune.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate

from repro.audit.classify import ClassifierConfig
from repro.audit.schema import RULE_ATTRIBUTES
from repro.coverage.engine import compute_coverage, grouped_entry_coverage
from repro.errors import RefinementError
from repro.mining.apriori import AprioriPatternMiner
from repro.mining.patterns import apriori_pattern_order
from repro.mining.sql_patterns import (
    SqlPatternMiner,
    finalize_patterns,
    fold_groups,
)
from repro.obs.metrics import CARDINALITY_BUCKETS
from repro.obs.runtime import get_registry
from repro.parallel.partials import (
    CountTask,
    GroupKey,
    MapTask,
    ShardPartial,
    count_shard,
    key_of,
    map_shard,
)
from repro.parallel.pool import map_in_process, run_sharded
from repro.parallel.shards import shards_of
from repro.policy.grounding import Grounder, grounder_for
from repro.policy.policy import Policy, PolicySource
from repro.refinement.engine import (
    RefinementConfig,
    RefinementResult,
    finish_refinement,
)
from repro.refinement.prune import prune_patterns
from repro.vocab.vocabulary import Vocabulary


def supports_parallel_miner(miner) -> bool:
    """Can the map phase partially aggregate for this miner?

    ``None`` (the engine default) and the two built-in miners are
    supported; an arbitrary ``PatternMiner`` implementation has no
    partial-aggregate form, so the engine runs the literal pipeline.
    """
    return miner is None or isinstance(miner, (SqlPatternMiner, AprioriPatternMiner))


def _miner_kind(miner) -> str:
    if miner is None or isinstance(miner, SqlPatternMiner):
        return "sql"
    if isinstance(miner, AprioriPatternMiner):
        return "apriori"
    raise RefinementError(
        f"parallel refinement supports the built-in miners, not "
        f"{type(miner).__name__}; run serially for custom miners"
    )


def _map(worker, shards, task, workers: int) -> tuple[list, str]:
    """One worker maps in-process; more fan out over :func:`run_sharded`."""
    if workers == 1:
        return map_in_process(worker, shards, task)
    return run_sharded(worker, shards, task, workers)


def _merge_suspected(
    partials: list[ShardPartial], config: ClassifierConfig
) -> frozenset:
    """Reproduce ``classify_exceptions`` verdicts from merged signals.

    A rule is suspected iff its merged exception support/user counts fail
    both thresholds *and* no shard saw it echoed through the regular
    path (the echo sets are empty under ``classify_scope="practice"``,
    which is exactly the serial semantics: the practice subset holds no
    regular entries, so the echo rescue never fires there).
    """
    stats = fold_groups({}, *(partial.cls_stats or {} for partial in partials))
    echoed: set = set()
    for partial in partials:
        echoed |= partial.regular_rules or set()
    return frozenset(
        key
        for key, (count, users) in stats.items()
        if not (
            count >= config.min_support and len(users) >= config.min_distinct_users
        )
        and not (config.trust_regular_echo and key in echoed)
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
    """Algorithm 2 as shard → partial aggregate → deterministic merge.

    Accepts exactly what :func:`repro.refinement.engine.refine` accepts
    for a built-in miner; ``config.execution`` sets the worker count
    (default one).  Returns the literal pipeline's
    :class:`~repro.refinement.engine.RefinementResult` — same patterns in
    the same order, same prune partition, same coverage ratios and
    uncovered-entry indices.
    """
    from repro.parallel.execution import ExecutionPolicy

    cfg = config or RefinementConfig()
    execution = cfg.execution or ExecutionPolicy()
    kind = _miner_kind(cfg.miner)
    grounder = grounder_for(vocabulary, grounder)
    attributes = cfg.mining.attributes
    screened = cfg.exclude_suspected_violations

    reg = get_registry()
    with reg.span("repro_refinement_stage", stage="filter"):
        shards = shards_of(audit_log, execution.shard_limit)
        task = MapTask(
            attributes=attributes,
            include_denied=cfg.include_denied,
            exclude_suspected=screened,
            collect_regular=screened and cfg.classify_scope == "log",
            miner=kind,
            local_min_support=max(
                1, -(-cfg.mining.min_support // max(1, len(shards)))
            ),
        )
        partials, mode = _map(map_shard, shards, task, execution.workers)
    offsets = list(accumulate((partial.entries for partial in partials), initial=0))
    total = offsets.pop()
    if total == 0:
        raise RefinementError("cannot refine against an empty audit log")
    if reg.enabled:
        reg.counter("repro_parallel_runs_total", mode=mode, miner=kind).inc()
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

    with reg.span("repro_refinement_stage", stage="coverage"):
        # Distinct lifted rules in first-global-occurrence order: shard
        # order plus each partial's insertion order restores the order a
        # single scan discovers them in.  The grounder's lift memo keeps
        # each rule and its mask from one call to the next.
        keys = dict.fromkeys(
            values for partial in partials for values in partial.rule_entries
        )
        lifted = grounder.lift(attributes, keys)
        audit_policy = Policy(
            (rule for rule, _ in lifted.values()),
            source=PolicySource.AUDIT_LOG,
            name=f"P_AL({getattr(audit_log, 'name', 'audit_log')})",
        )
        coverage = compute_coverage(policy_store, audit_policy, vocabulary, grounder)
        entry_coverage = grouped_entry_coverage(
            coverage.covering,
            (
                (mask, _global_positions(partials, offsets, values))
                for values, (_, mask) in lifted.items()
            ),
            total,
        )

    with reg.span("repro_refinement_stage", stage="extract"):
        suspected: frozenset = frozenset()
        if screened:
            suspected = _merge_suspected(partials, cfg.classifier or ClassifierConfig())
        groups = fold_groups({}, *(partial.groups for partial in partials))
        if kind == "sql" and screened:
            # compound (values, classifier values) keys: drop the suspected
            compound, groups = groups, {}
            for (values, cls_values), slot in compound.items():
                if cls_values not in suspected:
                    fold_groups(groups, {values: slot})
        elif kind == "apriori" and groups and (len(shards) > 1 or suspected):
            # SON phase 2: exactly recount the locally frequent candidates
            count_task = CountTask(
                attributes=attributes,
                include_denied=cfg.include_denied,
                candidates=frozenset(groups),
                suspected=suspected,
            )
            counts, _ = _map(count_shard, shards, count_task, execution.workers)
            groups = fold_groups({}, *(partial.counts for partial in counts))
        patterns = finalize_patterns(
            attributes,
            groups,
            cfg.mining,
            apriori_pattern_order if kind == "apriori" else None,
            rule_of=lambda values: lifted[values][0],
        )

    with reg.span("repro_refinement_stage", stage="prune"):
        prune_result = prune_patterns(patterns, policy_store, vocabulary, grounder)

    practice_source = audit_log
    if not hasattr(audit_log, "where"):
        # Sources without the AuditLog read protocol (an AuditFederation)
        # are exposed through a lazy view over the shard plan, so the
        # returned practice subset streams in the same site-major order
        # the merge used.
        from repro.parallel.shards import iter_shard
        from repro.store.durable import StreamedAuditView

        practice_source = StreamedAuditView(
            lambda: (entry for shard in shards for entry in iter_shard(shard)),
            name=getattr(audit_log, "name", "audit_source"),
        )
    # Same subset filter_practice would produce, but the suspected-rule
    # verdicts come from the merged shard signals instead of an eager
    # re-classification pass over the whole trail; they are the entries'
    # own value tuples, so screening needs no lifted rule.
    include_denied = cfg.include_denied
    suspected_key = key_of(RULE_ATTRIBUTES)

    def _is_practice(entry) -> bool:
        if not entry.is_exception:
            return False
        if not include_denied and not entry.is_allowed:
            return False
        return not suspected or suspected_key(entry) not in suspected

    practice = practice_source.where(_is_practice)
    practice.name = f"{getattr(audit_log, 'name', 'audit_source')}.practice"
    return finish_refinement(practice, patterns, prune_result, coverage, entry_coverage)
