"""The map side: one streaming pass per shard, mergeable results out.

:func:`map_shard` is what a worker process runs.  It streams its shard
exactly once through a :class:`PartialBuilder` — the one map body — and
computes every per-shard quantity the coordinator needs, keyed so that
merging across shards is exact.  A segments shard is folded from its
record bytes: each distinct record body is validated and resolved to
its aggregate slots once, and no :class:`AuditEntry` is built.  The
partial holds:

- ``rule_entries`` — for every distinct lifted rule (the mining
  attributes, stringified exactly as :meth:`AuditEntry.to_rule` does),
  the *local* positions of its entries.  Contiguous sharding turns these
  into global entry-coverage indices by adding per-shard offsets.
- ``groups`` — the practice-mining partial aggregate
  ``key -> [support, user-set]``, the same for both miners.  Counts add
  and user sets union, which is why the user *sets* travel:
  ``COUNT(DISTINCT user)`` is not mergeable but its underlying set is.
  Under violation screening the key is compounded with the entry's
  classifier rule so suspected groups can be dropped at merge time.
- ``cls_stats`` / ``regular_rules`` — the violation classifier's
  signals (exception support, exception users, regular echo), collected
  per shard so the coordinator can reproduce
  :func:`repro.audit.classify.classify_exceptions` verdicts globally.

:func:`map_shard` is module-level and operates on picklable dataclasses
so it crosses the process boundary under any multiprocessing start
method.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter

from repro.audit.entry import AuditEntry
from repro.audit.schema import (
    RULE_ATTRIBUTES,
    STRING_ATTRIBUTES,
    AccessOp,
    AccessStatus,
)
from repro.parallel.shards import Shard, iter_shard
from repro.store.codec import PAYLOAD_TIME, RECORD_MEMO_LIMIT, decode_body

#: A lifted-rule key: the entry's stringified values over some attributes.
GroupKey = tuple[str, ...]


def _stringified(getter: Callable, attributes: tuple[str, ...]) -> Callable:
    """A rule-key function from ``getter`` (which fetches the values of
    ``attributes``): each value stringified exactly as ``to_rule`` does,
    skipping the ``str()`` pass when every attribute is a string one."""
    strings = set(attributes) <= set(STRING_ATTRIBUTES)
    if len(attributes) == 1:
        if strings:
            return lambda item: (getter(item),)
        return lambda item: (str(getter(item)),)
    if strings:
        return getter
    return lambda item: tuple(map(str, getter(item)))


@lru_cache(maxsize=None)
def key_of(attributes: tuple[str, ...]) -> Callable[[AuditEntry], GroupKey]:
    """The entry → rule-key function over ``attributes`` (cached; few
    distinct tuples)."""
    return _stringified(attrgetter(*attributes), attributes)


_ALLOW = AccessOp.ALLOW
_EXCEPTION = AccessStatus.EXCEPTION

#: The fields that decide how a record folds, in the store codec's field
#: order (``truth`` never does); ``time`` joins last, and only when a
#: mining attribute needs it.
RECORD_FIELDS: tuple[str, ...] = (
    "op", "user", "data", "purpose", "authorized", "status", "time",
)


@lru_cache(maxsize=None)
def record_key_of(attributes: tuple[str, ...]) -> Callable[[tuple], GroupKey]:
    """:func:`key_of` over a record tuple in :data:`RECORD_FIELDS` order."""
    indices = (RECORD_FIELDS.index(attribute) for attribute in attributes)
    return _stringified(itemgetter(*indices), attributes)


#: Misses a record memo keeps whatever the hit share; past them it keeps
#: every miss while more than one folded record in ``REPEAT_SHARE`` was a
#: hit, and one miss in ``REPEAT_SHARE`` otherwise.  A run of records
#: that do not repeat (a served trail where most users act once per
#: segment) then fills the memo an eighth as fast, and frees as little
#: when its builder goes; once kept records repeat, it fills again.
MEMO_TRIAL = 256
REPEAT_SHARE = 8


def _key_is_record(entry: AuditEntry, key: tuple) -> tuple:
    """An entry's memo key is already its record tuple."""
    return key


@dataclass(frozen=True)
class MapTask:
    """Everything a worker needs to map one shard (picklable)."""

    attributes: tuple[str, ...]
    include_denied: bool
    exclude_suspected: bool
    collect_regular: bool
    #: also collect the *local positions* of the exception entries behind
    #: every practice group (evidence for decision provenance)
    collect_exceptions: bool = False


@dataclass
class ShardPartial:
    """One shard's mergeable contribution (see module docstring)."""

    index: int
    entries: int
    rule_entries: dict[GroupKey, list[int]]
    groups: dict
    cls_stats: dict | None
    regular_rules: set | None
    seconds: float
    #: plain-values key -> local exception-entry positions (only when the
    #: task asked via ``collect_exceptions``; None otherwise)
    exception_entries: dict[GroupKey, list[int]] | None = None


class PartialBuilder:
    """The one map body: fold records into a shard's partial aggregates.

    :meth:`extend` folds a run of entries and :meth:`extend_payloads` a
    run of segment record payloads, each continuing the local positions
    where the previous call stopped; :meth:`finish` closes the partial.
    :func:`map_shard` is one call per segment file (or one ``extend``
    over a shard of entries), and the refinement daemon's append feed is
    one ``extend`` per appended entry over the store's active segment, so
    both produce the same partial for the same entries.

    A record's *slots* are its ``rule_entries`` positions list, its
    practice-group slot, its ``cls_stats`` slot and its evidence list
    (``None`` where the record has none).  A regular record has none of
    the last three, so its slots are its positions list alone, some 90
    bytes fewer per memoised record than the 4-tuple.  :meth:`_slots`
    is the only copy of the per-record semantics; its result is
    memoised by the record's key — an entry's field tuple, or a
    payload's bytes after the time — for at most
    :data:`~repro.store.codec.RECORD_MEMO_LIMIT` records, so a repeated
    record costs a probe, an append and a count.  The key holds the
    user, so the user sets never need a second ``add``.
    """

    def __init__(self, task: MapTask) -> None:
        self.task = task
        self.entries = 0
        self.rule_entries: dict[GroupKey, list[int]] = {}
        self.groups: dict = {}
        self.exception_entries: dict[GroupKey, list[int]] | None = (
            {} if task.collect_exceptions else None
        )
        self.cls_stats: dict | None = {} if task.exclude_suspected else None
        self.regular_rules: set | None = set() if task.collect_regular else None
        self._started = time.perf_counter()
        #: record key -> slots (see the class docstring)
        self._memo: dict = {}
        self._misses = 0
        self._timed = "time" in task.attributes
        self._entry_key = attrgetter(*RECORD_FIELDS[: 7 if self._timed else 6])
        self._payload_key = itemgetter(
            slice(0 if self._timed else PAYLOAD_TIME.size, None)
        )
        self._rule_key = record_key_of(task.attributes)
        self._cls_key = record_key_of(RULE_ATTRIBUTES)

    def extend(self, entries: Iterable[AuditEntry]) -> None:
        """Fold ``entries`` in order, after everything folded so far."""
        self._fold(entries, self._entry_key, _key_is_record)

    def extend_payloads(self, payloads: Iterable[bytes]) -> None:
        """Fold the record payloads of one segment in order, after
        everything folded so far, building no entry.

        Each payload's CRC was checked by the reader; each distinct
        record is validated once through
        :func:`~repro.store.codec.decode_body` (one field memo per call),
        and a record that fails raises :class:`~repro.errors.StoreError`
        and leaves no slot behind.
        """
        strings: dict[bytes, str] = {}
        timed = self._timed

        def record_of(payload: bytes, key: bytes) -> tuple:
            if not timed:  # the key is the payload's body
                return decode_body(key, strings)[:-1]
            fields = decode_body(payload[PAYLOAD_TIME.size:], strings)[:-1]
            return (*fields, PAYLOAD_TIME.unpack_from(payload)[0])

        self._fold(payloads, self._payload_key, record_of)

    def _fold(self, items: Iterable, key_of_item: Callable, record_of: Callable) -> None:
        """Fold ``items``: each one's slots come from the memo by
        ``key_of_item(item)``, or on a miss from
        ``_slots(record_of(item, key))``."""
        memo = self._memo
        probe = memo.get
        slots_of = self._slots
        index = self.entries
        misses = self._misses
        for item in items:
            key = key_of_item(item)
            slots = probe(key)
            if slots is None:
                slots = slots_of(record_of(item, key))
                misses += 1
                # past the trial a memo that seldom hits costs more to
                # fill and free than it saves (see MEMO_TRIAL)
                if len(memo) < RECORD_MEMO_LIMIT and (
                    misses <= MEMO_TRIAL
                    or misses % REPEAT_SHARE == 0
                    or (index - misses) * REPEAT_SHARE > index
                ):
                    memo[key] = slots
            if slots.__class__ is list:  # no support slot: the positions
                slots.append(index)
            else:
                positions, group, cls_slot, evidence = slots
                positions.append(index)
                if group is not None:
                    group[0] += 1
                    if evidence is not None:
                        evidence.append(index)
                if cls_slot is not None:
                    cls_slot[0] += 1
            index += 1
        self.entries = index
        self._misses = misses

    def _slots(self, record: tuple) -> list | tuple:
        """The slots of ``record`` (fields in :data:`RECORD_FIELDS`
        order), inserting each missing one at support 0 in
        first-occurrence order, with the record's user added to its user
        sets and its regular-rule echo recorded: the positions list
        alone for a regular record, else the 4-tuple."""
        op, user, status = record[0], record[1], record[5]
        values = self._rule_key(record)
        positions = self.rule_entries.get(values)
        if positions is None:
            positions = self.rule_entries[values] = []
        is_allowed = op is _ALLOW
        if status is not _EXCEPTION:
            if is_allowed and self.regular_rules is not None:
                self.regular_rules.add(self._cls_key(record))
            return positions
        cls_values = self._cls_key(record)
        cls_slot = None
        if is_allowed and self.cls_stats is not None:
            cls_slot = self.cls_stats.get(cls_values)
            if cls_slot is None:
                cls_slot = self.cls_stats[cls_values] = [0, set()]
            cls_slot[1].add(user)
        group = evidence = None
        task = self.task
        if is_allowed or task.include_denied:
            key = (values, cls_values) if task.exclude_suspected else values
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = [0, set()]
            group[1].add(user)
            if self.exception_entries is not None:
                evidence = self.exception_entries.get(values)
                if evidence is None:
                    evidence = self.exception_entries[values] = []
        return positions, group, cls_slot, evidence

    def finish(self, index: int) -> ShardPartial:
        """The partial of everything folded, as shard ``index``."""
        return ShardPartial(
            index=index,
            entries=self.entries,
            rule_entries=self.rule_entries,
            groups=self.groups,
            cls_stats=self.cls_stats,
            regular_rules=self.regular_rules,
            seconds=time.perf_counter() - self._started,
            exception_entries=self.exception_entries,
        )


def map_shard(shard: Shard, task: MapTask) -> ShardPartial:
    """Stream ``shard`` once; return its partial aggregates.  A segments
    shard is folded from its record payloads, building no entry."""
    builder = PartialBuilder(task)
    if shard.kind == "segments":
        from repro.store.segment import iter_segment_payloads

        for path in shard.segments:
            builder.extend_payloads(iter_segment_payloads(path))
    else:
        builder.extend(iter_shard(shard))
    return builder.finish(shard.index)
