"""The map side: one streaming pass per shard, mergeable results out.

:func:`map_shard` is what a worker process runs.  It streams its shard
exactly once through a :class:`PartialBuilder` — the one map body — and
computes every per-shard quantity the coordinator needs, keyed so that
merging across shards is exact:

- ``rule_entries`` — for every distinct lifted rule (the mining
  attributes, stringified exactly as :meth:`AuditEntry.to_rule` does),
  the *local* positions of its entries.  Contiguous sharding turns these
  into global entry-coverage indices by adding per-shard offsets.
- ``groups`` — the practice-mining partial aggregate
  ``key -> [support, user-set]``.  Counts add and user sets union, which
  is why the user *sets* travel: ``COUNT(DISTINCT user)`` is not
  mergeable but its underlying set is.  For the SQL miner under
  violation screening the key is compounded with the entry's classifier
  rule so suspected groups can be dropped at merge time; for the Apriori
  miner the SON phase-1 reduction keeps only locally frequent keys.
- ``cls_stats`` / ``regular_rules`` — the violation classifier's
  signals (exception support, exception users, regular echo), collected
  per shard so the coordinator can reproduce
  :func:`repro.audit.classify.classify_exceptions` verdicts globally.

:func:`count_shard` is the SON phase 2: an exact recount of the globally
unioned candidate set, run only for the Apriori miner.

Both functions are module-level and operate on picklable dataclasses so
they cross the process boundary under any multiprocessing start method.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from repro.audit.entry import AuditEntry
from repro.audit.schema import RULE_ATTRIBUTES, STRING_ATTRIBUTES
from repro.parallel.shards import Shard, iter_shard

#: A lifted-rule key: the entry's stringified values over some attributes.
GroupKey = tuple[str, ...]

#: Miner kinds the map phase knows how to partially aggregate.
PARALLEL_MINERS: tuple[str, ...] = ("sql", "apriori")


@lru_cache(maxsize=None)
def key_of(attributes: tuple[str, ...]) -> Callable[[AuditEntry], GroupKey]:
    """The entry → rule-key function over ``attributes`` (cached; few
    distinct tuples): each value stringified exactly as ``to_rule`` does,
    skipping the ``str()`` pass when every attribute is a string one."""
    getter = attrgetter(*attributes)
    strings = set(attributes) <= set(STRING_ATTRIBUTES)
    if len(attributes) == 1:
        if strings:
            return lambda entry: (getter(entry),)
        return lambda entry: (str(getter(entry)),)
    if strings:
        return getter
    return lambda entry: tuple(map(str, getter(entry)))


@dataclass(frozen=True)
class MapTask:
    """Everything a worker needs to map one shard (picklable)."""

    attributes: tuple[str, ...]
    include_denied: bool
    exclude_suspected: bool
    collect_regular: bool
    miner: str
    local_min_support: int
    #: also collect the *local positions* of the exception entries behind
    #: every practice group (evidence for decision provenance); additive
    #: so existing pickled tasks and call sites are untouched
    collect_exceptions: bool = False


@dataclass
class ShardPartial:
    """One shard's mergeable contribution (see module docstring)."""

    index: int
    entries: int
    practice_entries: int
    rule_entries: dict[GroupKey, list[int]]
    groups: dict
    cls_stats: dict | None
    regular_rules: set | None
    seconds: float
    #: plain-values key -> local exception-entry positions (only when the
    #: task asked via ``collect_exceptions``; None otherwise)
    exception_entries: dict[GroupKey, list[int]] | None = None


class PartialBuilder:
    """The one map body: fold entries into a shard's partial aggregates.

    :meth:`extend` folds a run of entries, continuing the local positions
    where the previous call stopped; :meth:`finish` closes the partial.
    :func:`map_shard` is one ``extend`` over a whole shard, and the
    refinement daemon's append feed is one ``extend`` per appended entry
    over the store's active segment, so both produce the same partial
    for the same entries.
    """

    def __init__(self, task: MapTask) -> None:
        self.task = task
        self.entries = 0
        self.practice_entries = 0
        self.rule_entries: dict[GroupKey, list[int]] = {}
        self.groups: dict = {}
        self.exception_entries: dict[GroupKey, list[int]] | None = (
            {} if task.collect_exceptions else None
        )
        self.cls_stats: dict | None = {} if task.exclude_suspected else None
        self.regular_rules: set | None = set() if task.collect_regular else None
        self._started = time.perf_counter()

    def extend(self, entries: Iterable[AuditEntry]) -> None:
        """Fold ``entries`` in order, after everything folded so far."""
        task = self.task
        rule_key = key_of(task.attributes)
        cls_rule_key = key_of(RULE_ATTRIBUTES)
        include_denied = task.include_denied
        rule_entries = self.rule_entries
        groups = self.groups
        exception_entries = self.exception_entries
        cls_stats = self.cls_stats
        regular_rules = self.regular_rules
        needs_cls = task.exclude_suspected or task.collect_regular
        compound_keys = task.exclude_suspected and task.miner == "sql"
        index = self.entries
        practice_entries = self.practice_entries
        for entry in entries:
            values = rule_key(entry)
            positions = rule_entries.get(values)
            if positions is None:
                rule_entries[values] = [index]
            else:
                positions.append(index)
            is_exception = entry.is_exception
            is_allowed = entry.is_allowed
            cls_values: GroupKey | None = None
            if needs_cls:
                cls_values = cls_rule_key(entry)
                if cls_stats is not None and is_exception and is_allowed:
                    slot = cls_stats.get(cls_values)
                    if slot is None:
                        cls_stats[cls_values] = [1, {entry.user}]
                    else:
                        slot[0] += 1
                        slot[1].add(entry.user)
                if regular_rules is not None and not is_exception and is_allowed:
                    regular_rules.add(cls_values)
            if is_exception and (include_denied or is_allowed):
                practice_entries += 1
                key = (values, cls_values) if compound_keys else values
                slot = groups.get(key)
                if slot is None:
                    groups[key] = [1, {entry.user}]
                else:
                    slot[0] += 1
                    slot[1].add(entry.user)
                if exception_entries is not None:
                    evidence = exception_entries.get(values)
                    if evidence is None:
                        exception_entries[values] = [index]
                    else:
                        evidence.append(index)
            index += 1
        self.entries = index
        self.practice_entries = practice_entries

    def finish(self, index: int) -> ShardPartial:
        """The partial of everything folded, as shard ``index``."""
        task = self.task
        groups = self.groups
        if task.miner == "apriori":
            # SON phase 1: only locally frequent keys become candidates.  The
            # pigeonhole bound ceil(min_support / shard_count) guarantees no
            # globally frequent key is dropped by every shard.
            groups = {
                key: slot
                for key, slot in groups.items()
                if slot[0] >= task.local_min_support
            }
        return ShardPartial(
            index=index,
            entries=self.entries,
            practice_entries=self.practice_entries,
            rule_entries=self.rule_entries,
            groups=groups,
            cls_stats=self.cls_stats,
            regular_rules=self.regular_rules,
            seconds=time.perf_counter() - self._started,
            exception_entries=self.exception_entries,
        )


def map_shard(shard: Shard, task: MapTask) -> ShardPartial:
    """Stream ``shard`` once; return its partial aggregates."""
    builder = PartialBuilder(task)
    builder.extend(iter_shard(shard))
    return builder.finish(shard.index)


@dataclass(frozen=True)
class CountTask:
    """SON phase 2 instructions: exact-count the candidate union."""

    attributes: tuple[str, ...]
    include_denied: bool
    candidates: frozenset
    suspected: frozenset = field(default_factory=frozenset)


@dataclass
class CountPartial:
    """One shard's exact candidate counts (SON phase 2)."""

    index: int
    counts: dict[GroupKey, list]
    seconds: float


def count_shard(shard: Shard, task: CountTask) -> CountPartial:
    """Exactly count ``task.candidates`` over the shard's practice set."""
    started = time.perf_counter()
    rule_key = key_of(task.attributes)
    cls_rule_key = key_of(RULE_ATTRIBUTES)
    counts: dict[GroupKey, list] = {}
    for entry in iter_shard(shard):
        if not entry.is_exception:
            continue
        if not task.include_denied and not entry.is_allowed:
            continue
        if task.suspected and cls_rule_key(entry) in task.suspected:
            continue
        values = rule_key(entry)
        if values not in task.candidates:
            continue
        slot = counts.get(values)
        if slot is None:
            counts[values] = [1, {entry.user}]
        else:
            slot[0] += 1
            slot[1].add(entry.user)
    return CountPartial(
        index=shard.index, counts=counts, seconds=time.perf_counter() - started
    )
