"""Algorithm 6: ``Prune`` — drop patterns the policy already covers.

The paper computes the ranges of the policy store and of the mined
patterns, then takes the "set complement": the ground rules derivable
from the patterns that are *not* derivable from the store.  A pattern
survives pruning iff it contributes at least one such novel ground rule.

Pruning is equivalence-based, not syntactic: a ground pattern
``prescription:treatment:nurse`` is pruned by a composite store rule
``medical_records:treatment:nurse`` because the store rule's range
contains it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mining.patterns import Pattern
from repro.policy.grounding import Grounder, Range, grounder_for
from repro.policy.policy import Policy
from repro.vocab.vocabulary import Vocabulary


@dataclass(frozen=True, slots=True)
class PruneResult:
    """Patterns split into novel (useful) and already-covered."""

    useful: tuple[Pattern, ...]
    pruned: tuple[Pattern, ...]
    #: the Algorithm 6 set itself: novel ground rules across all patterns
    novel_range: Range


def prune_patterns(
    patterns: tuple[Pattern, ...] | list[Pattern],
    policy_store: Policy,
    vocabulary: Vocabulary,
    grounder: Grounder | None = None,
) -> PruneResult:
    """Algorithm 6 over mined ``patterns`` and the current ``policy_store``."""
    grounder = grounder_for(vocabulary, grounder)
    store_mask = grounder.range_of(policy_store).mask
    useful: list[Pattern] = []
    pruned: list[Pattern] = []
    novel_mask = 0
    # Masks from one grounder share one interner, so Algorithm 6's
    # per-pattern "set complement" is a single bitwise and-not.
    masks = grounder.masks(pattern.rule for pattern in patterns)
    for pattern, mask in zip(patterns, masks):
        contribution = mask & ~store_mask
        if contribution:
            useful.append(pattern)
            novel_mask |= contribution
        else:
            pruned.append(pattern)
    return PruneResult(
        useful=tuple(useful),
        pruned=tuple(pruned),
        novel_range=Range.from_mask(novel_mask, grounder.interner),
    )
