"""Ranges and memoised grounding — Definition 8 of the paper.

The *range* of a policy is the set of all ground rules derivable from it
(the paper's ``Range_P = set(P')``).  Both coverage (Algorithm 1) and prune
(Algorithm 6) reduce to set algebra on ranges, so :class:`Range` supports
intersection, union, difference and membership directly.

Since the bitset backend landed, a range is stored as a Python ``int``
bitmask over dense ground-rule IDs handed out by a
:class:`~repro.policy.interning.RuleInterner`: two ranges built against
the same interner intersect with a single bitwise ``&`` instead of
re-hashing every composite :class:`~repro.policy.rule.Rule`.  Ranges from
*different* interners (different vocabularies, or a bare ``Range(...)``
literal combined with a grounder-produced one) transparently fall back to
rule-level comparison, so the public set protocol is backend-agnostic.

Grounding the same composite rules over and over dominates the cost of a
refinement loop, so :class:`Grounder` memoises per-rule expansions (both
the rule tuples and their ID bitmasks) for a fixed vocabulary, and
:meth:`Grounder.for_vocabulary` shares one grounder among every call that
passes none.  The vocabulary is version-stamped: after a mutation a
private grounder raises :class:`~repro.errors.CoverageError` instead of
silently serving stale expansions, and the shared one starts afresh.  The
ablation benchmark E8 measures memoised vs. naive grounding (and the
shared grounder's warm path against a cold one); E14 measures the bitset
backend against the frozenset baseline.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator

from repro.errors import CoverageError, PolicyError
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import get_registry
from repro.policy.interning import RuleInterner
from repro.policy.policy import Policy
from repro.policy.rule import Rule
from repro.vocab.vocabulary import Vocabulary

#: Interner behind bare ``Range(rules)`` literals that are not tied to any
#: vocabulary.  Sharing one process-wide table keeps literal ranges on the
#: bitwise fast path with each other.
_LITERAL_INTERNER = RuleInterner()


def _rule_sort_key(rule: Rule) -> tuple:
    """The deterministic ordering :meth:`Range.rules` has always promised."""
    return tuple((t.attr, t.value) for t in rule.terms)


class Range:
    """An immutable set of ground rules (Definition 8).

    Equality and hashing follow the underlying *set of ground rules*, so
    two ranges are equal exactly when they derive the same ground rules —
    the equivalence relation Definition 6 induces — regardless of which
    interner encodes them.
    """

    __slots__ = ("_interner", "_mask", "_hash")

    def __init__(
        self, rules: Iterable[Rule] = (), *, interner: RuleInterner | None = None
    ) -> None:
        if interner is None:
            interner = _LITERAL_INTERNER
        self._interner = interner
        self._mask = interner.mask_of(rules)
        self._hash: int | None = None

    @classmethod
    def from_mask(cls, mask: int, interner: RuleInterner) -> "Range":
        """Wrap an already-encoded ID bitmask (the zero-copy constructor).

        ``mask`` must only use IDs the interner has assigned; a stray high
        bit would decode to a nonexistent rule, so it is rejected eagerly.
        """
        if mask < 0 or mask.bit_length() > len(interner):
            raise PolicyError(
                f"mask uses rule IDs up to {mask.bit_length() - 1}, but the "
                f"interner has only assigned {len(interner)}"
            )
        rng = cls.__new__(cls)
        rng._interner = interner
        rng._mask = mask
        rng._hash = None
        return rng

    # ------------------------------------------------------------------
    # backend accessors (for mask-level consumers: coverage, prune)
    # ------------------------------------------------------------------
    @property
    def mask(self) -> int:
        """The ID bitmask encoding this range under :attr:`interner`."""
        return self._mask

    @property
    def interner(self) -> RuleInterner:
        """The interner whose IDs :attr:`mask` is encoded against."""
        return self._interner

    def _mask_under(self, interner: RuleInterner, *, grow: bool) -> int:
        """Re-encode this range's mask against ``interner``.

        With ``grow=False`` unseen rules are dropped — correct for
        intersection/difference/subset probes, where a rule the other
        interner never met cannot be in the other range anyway.
        """
        if interner is self._interner:
            return self._mask
        if grow:
            return interner.mask_of(self._interner.rules_of(self._mask))
        mask = 0
        for rule in self._interner.rules_of(self._mask):
            rule_id = interner.id_of(rule)
            if rule_id is not None:
                mask |= 1 << rule_id
        return mask

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[Rule]:
        return self._interner.rules_of(self._mask)

    def __contains__(self, rule: Rule) -> bool:
        rule_id = self._interner.id_of(rule)
        return rule_id is not None and (self._mask >> rule_id) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Range):
            return NotImplemented
        if other._interner is self._interner:
            return self._mask == other._mask
        return frozenset(self) == frozenset(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self))
        return self._hash

    @property
    def cardinality(self) -> int:
        """The paper's ``#Range_P``."""
        return self._mask.bit_count()

    def intersection(self, other: "Range") -> "Range":
        """Ground-rule intersection (the overlap of Algorithm 1, line 5)."""
        return Range.from_mask(
            self._mask & other._mask_under(self._interner, grow=False),
            self._interner,
        )

    def union(self, other: "Range") -> "Range":
        """Ground-rule union of the two ranges."""
        return Range.from_mask(
            self._mask | other._mask_under(self._interner, grow=True),
            self._interner,
        )

    def difference(self, other: "Range") -> "Range":
        """Rules in this range but not in ``other`` (Algorithm 6's
        'set complement')."""
        return Range.from_mask(
            self._mask & ~other._mask_under(self._interner, grow=False),
            self._interner,
        )

    def issubset(self, other: "Range") -> bool:
        """True iff every ground rule here is also in ``other``."""
        return self._mask & ~other._mask_under(self._interner, grow=False) == 0

    __and__ = intersection
    __or__ = union
    __sub__ = difference
    __le__ = issubset

    def rules(self) -> tuple[Rule, ...]:
        """Return the ground rules in a deterministic (sorted) order."""
        return tuple(sorted(self, key=_rule_sort_key))

    def __repr__(self) -> str:
        return f"Range({self._mask.bit_count()} ground rules)"


class Grounder:
    """Memoised rule grounding against one vocabulary.

    The cache key is the rule itself (rules are immutable and hashable), so
    repeated range computations over evolving policies only pay for rules
    they have not seen before.  Expansions are cached twice: as ground-rule
    tuples (:meth:`ground_rules`) and as ID bitmasks (:meth:`ground_mask`)
    against the vocabulary's shared :class:`RuleInterner`.  A third memo,
    keyed by ``(attributes, values)``, holds each audit key's lifted rule
    and its mask (:meth:`lift`), so a trail's distinct keys are lifted
    once per vocabulary rather than once per call.

    :meth:`for_vocabulary` hands out the one grounder that every
    ``grounder=None`` call over a vocabulary shares; ``Grounder(vocabulary)``
    builds a private one.  Both stamp the vocabulary's version and check
    it once per call, not once per rule.  When the stamp has moved, a
    private grounder raises :class:`~repro.errors.CoverageError` until
    :meth:`clear` re-stamps it, so stale memo entries can never silently
    corrupt a coverage number; the shared one clears itself instead.
    """

    def __init__(self, vocabulary: Vocabulary) -> None:
        # A private grounder pins its vocabulary; for_vocabulary drops the
        # pin, so the shared one never keeps its own map key alive.
        self._pin: Vocabulary | None = vocabulary
        self._vocabulary = weakref.ref(vocabulary)
        self.interner = RuleInterner.for_vocabulary(vocabulary)
        self._version = vocabulary.version
        self._cache: dict[Rule, tuple[Rule, ...]] = {}
        self._mask_cache: dict[Rule, int] = {}
        #: attributes -> values -> (lifted rule, its mask)
        self._lifted: dict[tuple, dict[tuple, tuple[Rule, int]]] = {}
        self.hits = 0
        self.misses = 0
        # Telemetry rides the plain counters above: the memo probe itself
        # stays metric-free and a weakly-held collector flushes deltas to
        # the registry at snapshot time (see DESIGN.md §8).  Every call
        # re-binds to the registry active at that call.
        self._obs = get_registry()
        self._collected_by: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()
        self._reported_hits = 0
        self._reported_misses = 0
        self._collect_for(self._obs)

    @classmethod
    def for_vocabulary(cls, vocabulary: Vocabulary) -> "Grounder":
        """Return the shared grounder for ``vocabulary`` (created on first use).

        It lives as long as the vocabulary does and re-stamps itself with
        :meth:`clear` when the vocabulary has been mutated.  It takes no
        lock, like the interner it wraps: share it within one thread.
        """
        grounder = _SHARED.get(vocabulary)
        if grounder is None:
            grounder = cls(vocabulary)
            grounder._pin = None
            _SHARED[vocabulary] = grounder
        return grounder

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary this grounder expands rules against."""
        vocabulary = self._vocabulary()
        if vocabulary is None:
            raise CoverageError("the vocabulary behind this grounder was collected")
        return vocabulary

    def _collect_for(self, reg: MetricsRegistry) -> None:
        if reg.enabled and reg not in self._collected_by:
            self._collected_by.add(reg)
            reg.register_collector(self._flush_metrics)

    def _flush_metrics(self) -> None:
        reg = self._obs
        hits, misses = self.hits, self.misses
        reg.counter("repro_policy_grounder_cache_hits_total").inc(
            hits - self._reported_hits
        )
        reg.counter("repro_policy_grounder_cache_misses_total").inc(
            misses - self._reported_misses
        )
        reg.counter("repro_policy_ground_expansions_total").inc(
            misses - self._reported_misses
        )
        self._reported_hits, self._reported_misses = hits, misses
        reg.gauge("repro_policy_interner_rules").set(len(self.interner))
        reg.gauge("repro_policy_grounder_cached_rules").set(len(self._cache))

    def _enter(self) -> None:
        """Once per call: check the version stamp, bind to the active registry."""
        vocabulary = self.vocabulary
        if vocabulary.version != self._version:
            if self._pin is not None:
                raise CoverageError(
                    f"vocabulary {vocabulary.name!r} was mutated after this "
                    "grounder cached expansions against it (version "
                    f"{self._version} -> {vocabulary.version}); call "
                    "Grounder.clear() to drop the stale cache and re-stamp"
                )
            self.clear()
        reg = get_registry()
        if reg is not self._obs:
            # what was counted so far belongs to the registry it was counted under
            self._flush_metrics()
            self._obs = reg
            self._collect_for(reg)

    def _ground(self, rule: Rule) -> tuple[Rule, ...]:
        cached = self._cache.get(rule)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        expansion = rule.ground_rules(self.vocabulary)
        self._cache[rule] = expansion
        return expansion

    def _mask(self, rule: Rule) -> int:
        mask = self._mask_cache.get(rule)
        if mask is not None:
            self.hits += 1
            return mask
        mask = self.interner.mask_of(self._ground(rule))
        self._mask_cache[rule] = mask
        return mask

    def ground_rules(self, rule: Rule) -> tuple[Rule, ...]:
        """Return (and cache) the ground expansion of ``rule``."""
        self._enter()
        return self._ground(rule)

    def ground_mask(self, rule: Rule) -> int:
        """Return (and cache) the ID bitmask of ``rule``'s ground expansion."""
        self._enter()
        return self._mask(rule)

    def masks(self, rules: Iterable[Rule]) -> Iterator[int]:
        """Yield :meth:`ground_mask` of each rule, checking the stamp once."""
        self._enter()
        mask = self._mask
        for rule in rules:
            yield mask(rule)

    def range_of(self, policy: Policy | Iterable[Rule]) -> Range:
        """Compute ``Range_P`` for a policy or bare rule iterable."""
        self._enter()
        mask = 0
        for rule in policy:
            mask |= self._mask(rule)
        return Range.from_mask(mask, self.interner)

    def lift(
        self, attributes: tuple[str, ...], keys: Iterable[tuple[str, ...]]
    ) -> dict[tuple[str, ...], tuple[Rule, int]]:
        """Lift audit keys to rules, each paired with its ground mask.

        A key is an entry's values over ``attributes``, the rule
        :meth:`~repro.audit.entry.AuditEntry.to_rule` would build.
        Returns ``{key: (rule, mask)}`` in ``keys`` order; a key lifted
        before costs one dict probe instead of ``Rule.from_pairs`` and a
        grounding.
        """
        self._enter()
        memo = self._lifted.setdefault(attributes, {})
        lifted: dict[tuple[str, ...], tuple[Rule, int]] = {}
        for values in keys:
            pair = memo.get(values)
            if pair is None:
                rule = Rule.from_pairs(list(zip(attributes, values)))
                pair = memo[values] = (rule, self._mask(rule))
            lifted[values] = pair
        return lifted

    def clear(self) -> None:
        """Drop the memo tables and re-stamp the vocabulary version.

        This is the recovery path after an intentional vocabulary
        mutation: stale expansions are discarded and grounding resumes
        against the current hierarchy.  Counts not yet reported are
        flushed first, then the counters restart from zero.
        """
        self._flush_metrics()
        self._cache.clear()
        self._mask_cache.clear()
        self._lifted.clear()
        self._version = self.vocabulary.version
        self.hits = 0
        self.misses = 0
        # re-baseline the flushed-delta bookkeeping with the counters
        self._reported_hits = 0
        self._reported_misses = 0


#: One shared grounder per vocabulary, weakly keyed like the interners;
#: the grounder holds its vocabulary weakly too, so the entry dies with it.
_SHARED: "weakref.WeakKeyDictionary[Vocabulary, Grounder]" = (
    weakref.WeakKeyDictionary()
)


def grounder_for(vocabulary: Vocabulary, grounder: Grounder | None = None) -> Grounder:
    """``grounder``, or the vocabulary's shared one when it is ``None``.

    Every ``grounder=None`` default resolves here.  A grounder built for
    another vocabulary is refused with :class:`~repro.errors.CoverageError`.
    """
    if grounder is None:
        return Grounder.for_vocabulary(vocabulary)
    if grounder.vocabulary is not vocabulary:
        raise CoverageError("grounder and call use different vocabularies")
    return grounder


def policy_range(policy: Policy | Iterable[Rule], vocabulary: Vocabulary) -> Range:
    """One-shot ``getRange(P, V)`` from Algorithms 1 and 6.

    Grounds through the vocabulary's shared :class:`Grounder`, so repeated
    calls over one vocabulary reuse its memo.
    """
    return Grounder.for_vocabulary(vocabulary).range_of(policy)
