"""Ground-rule interning — dense integer IDs behind the bitset Range backend.

Every stage of the refinement loop (Algorithm 1 coverage, Algorithm 6
prune, gap analysis, the daemon's coverage-drop trigger) reduces to set
algebra over ground rules.  Hashing composite :class:`~repro.policy.rule.Rule`
dataclasses on every probe is what made that algebra expensive, so this
module assigns each distinct ground rule a **dense integer ID**: a set of
ground rules then becomes a Python ``int`` bitmask, and intersection /
union / difference / subset collapse to single C-speed bitwise operations
(``& | ~``) with ``int.bit_count()`` for cardinality.

IDs are dense and stable for the lifetime of an interner: the first rule
interned gets ID 0, the next distinct rule ID 1, and so on.  Interners
only ever grow, so a bitmask built against an interner never needs
re-encoding.  :meth:`RuleInterner.for_vocabulary` hands out one shared
interner per :class:`~repro.vocab.vocabulary.Vocabulary` (weakly keyed, so
vocabularies stay collectable), which is what lets every
:class:`~repro.policy.grounding.Grounder` and
:class:`~repro.policy.grounding.Range` over the same vocabulary combine on
the fast bitwise path.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator

from repro.policy.rule import Rule
from repro.vocab.vocabulary import Vocabulary

#: One shared interner per vocabulary, weakly keyed so a dropped
#: vocabulary does not pin its intern table in memory forever.
_BY_VOCABULARY: "weakref.WeakKeyDictionary[Vocabulary, RuleInterner]" = (
    weakref.WeakKeyDictionary()
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    This is the decode loop for ID bitmasks: each yielded position is a
    ground-rule ID that can be resolved with
    :meth:`RuleInterner.rule_for`.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RuleInterner:
    """A grow-only bijection between ground rules and dense integer IDs.

    The table never forgets: once a rule has an ID the ID is stable, so
    any bitmask encoded against this interner stays valid as the table
    grows.  Two masks are comparable bitwise exactly when they were built
    against the *same* interner instance — the :class:`Range` algebra
    checks identity and falls back to rule-level comparison otherwise.
    """

    __slots__ = ("_ids", "_rules", "__weakref__")

    def __init__(self) -> None:
        self._ids: dict[Rule, int] = {}
        self._rules: list[Rule] = []

    @classmethod
    def for_vocabulary(cls, vocabulary: Vocabulary) -> "RuleInterner":
        """Return the shared interner for ``vocabulary`` (created on first use).

        Grounders over the same vocabulary produce ground rules from the
        same universe, so sharing one table keeps all their ranges on the
        fast bitwise path.
        """
        interner = _BY_VOCABULARY.get(vocabulary)
        if interner is None:
            interner = cls()
            _BY_VOCABULARY[vocabulary] = interner
        return interner

    def __len__(self) -> int:
        return len(self._rules)

    def intern(self, rule: Rule) -> int:
        """Return the ID of ``rule``, assigning the next dense ID if new."""
        rule_id = self._ids.get(rule)
        if rule_id is None:
            rule_id = len(self._rules)
            self._ids[rule] = rule_id
            self._rules.append(rule)
        return rule_id

    def id_of(self, rule: Rule) -> int | None:
        """Return the ID of ``rule`` without interning, or ``None`` if unseen."""
        return self._ids.get(rule)

    def rule_for(self, rule_id: int) -> Rule:
        """Return the rule with ID ``rule_id`` (raises ``IndexError`` if unassigned)."""
        return self._rules[rule_id]

    def mask_of(self, rules: Iterable[Rule]) -> int:
        """Intern every rule in ``rules`` and return their combined bitmask."""
        mask = 0
        for rule in rules:
            mask |= 1 << self.intern(rule)
        return mask

    def rules_of(self, mask: int) -> Iterator[Rule]:
        """Decode ``mask`` back into its ground rules, in ID order."""
        rules = self._rules
        for rule_id in iter_bits(mask):
            yield rules[rule_id]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RuleInterner({len(self._rules)} ground rules)"
