"""Policy coverage — Definitions 9 and 10, Algorithm 1.

Two coverage semantics are provided, because the paper itself uses two:

``compute_coverage``
    Definition 9 exactly: set semantics over ranges,
    ``#(Range_Px ∩ Range_Py) / #Range_Py``.  This is what Figure 3's
    3/6 = 50 % uses.

``compute_entry_coverage``
    Trace (multiset) semantics: the fraction of *audit entries* whose
    ground rule is covered by the policy range.  Section 5 computes
    3/10 = 30 % on Table 1 this way — the five ``Referral:Registration:
    Nurse`` entries are one ground rule but five entries.  Set semantics
    on the same data would give 3/6 again; see EXPERIMENTS.md for the
    discrepancy note.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from heapq import merge as heap_merge

from repro.errors import CoverageError
from repro.obs.metrics import CARDINALITY_BUCKETS
from repro.obs.runtime import get_registry
from repro.policy.grounding import Grounder, Range, grounder_for
from repro.policy.policy import Policy
from repro.policy.rule import Rule
from repro.vocab.vocabulary import Vocabulary


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """The result of one coverage computation.

    ``ratio`` is the paper's coverage number.  ``overlap``, ``covering``
    and ``reference`` keep the ranges around so callers (gap analysis,
    pruning, reports) need not recompute them.
    """

    ratio: float
    overlap: Range
    covering: Range
    reference: Range

    @property
    def complete(self) -> bool:
        """Definition 10: the reference range is fully covered."""
        return self.overlap == self.reference

    @property
    def uncovered(self) -> Range:
        """Reference ground rules the covering policy misses."""
        return self.reference - self.overlap

    def __str__(self) -> str:
        return (
            f"coverage {self.ratio:.1%} "
            f"({self.overlap.cardinality}/{self.reference.cardinality} ground rules)"
        )


def compute_coverage(
    policy_x: Policy,
    policy_y: Policy,
    vocabulary: Vocabulary,
    grounder: Grounder | None = None,
) -> CoverageReport:
    """Algorithm 1: coverage of ``policy_x`` in relation to ``policy_y``.

    Following Definition 9 the result is the fraction of ``policy_y``'s
    range that ``policy_x``'s range intersects.  Raises
    :class:`~repro.errors.CoverageError` when ``policy_y`` has an empty
    range (the ratio would be 0/0).

    Without a ``grounder`` the vocabulary's shared
    :class:`~repro.policy.grounding.Grounder` is used, so repeated
    coverages over one vocabulary reuse its memo.
    """
    grounder = grounder_for(vocabulary, grounder)
    reg = get_registry()
    with reg.span("repro_coverage_compute", kind="set"):
        range_x = grounder.range_of(policy_x)
        range_y = grounder.range_of(policy_y)
        if range_y.cardinality == 0:
            raise CoverageError(
                f"reference policy {policy_y.name!r} has an empty range; "
                "coverage is undefined"
            )
        overlap = range_x & range_y
        ratio = overlap.cardinality / range_y.cardinality
    if reg.enabled:
        reg.counter("repro_coverage_computations_total", kind="set").inc()
        reg.counter("repro_coverage_recompute_total").inc()
        cardinality = reg.histogram(
            "repro_coverage_range_cardinality", buckets=CARDINALITY_BUCKETS
        )
        cardinality.observe(range_x.cardinality)
        cardinality.observe(range_y.cardinality)
    return CoverageReport(ratio=ratio, overlap=overlap, covering=range_x, reference=range_y)


@dataclass(frozen=True, slots=True)
class EntryCoverageReport:
    """Entry-weighted coverage over an ordered trace of ground rules."""

    ratio: float
    matched: int
    total: int
    covering: Range
    uncovered_entries: tuple[int, ...]

    def __str__(self) -> str:
        return f"entry coverage {self.ratio:.1%} ({self.matched}/{self.total} entries)"


def compute_entry_coverage(
    policy_x: Policy,
    entries: Iterable[Rule],
    vocabulary: Vocabulary,
    grounder: Grounder | None = None,
) -> EntryCoverageReport:
    """Entry-weighted coverage: fraction of ``entries`` inside ``Range_Px``.

    ``entries`` is an ordered trace of (usually ground) rules — one per
    audit entry.  Composite entries count as matched only when their whole
    ground expansion is covered.  Raises :class:`CoverageError` on an empty
    trace.
    """
    grounder = grounder_for(vocabulary, grounder)
    reg = get_registry()
    with reg.span("repro_coverage_compute", kind="entry"):
        range_x = grounder.range_of(policy_x)
        covering_mask = range_x.mask
        total = 0
        misses: list[int] = []
        for index, mask in enumerate(grounder.masks(entries)):
            total += 1
            # range_x came from this grounder, so both masks share one interner
            # and "whole expansion covered" is a single bitwise expression.
            if mask & ~covering_mask != 0:
                misses.append(index)
    return _entry_report(reg, range_x, total, misses)


def grouped_entry_coverage(
    covering: Range, missed: Iterable[Iterable[int]], total: int
) -> EntryCoverageReport:
    """Entry coverage of a ``total``-entry trace given as its distinct rules.

    ``missed`` holds, for each distinct rule ``covering`` does not
    cover, the ascending positions of its entries; they are merged into
    trace order.  Equal to :func:`compute_entry_coverage` over the
    ungrouped trace.
    """
    reg = get_registry()
    with reg.span("repro_coverage_compute", kind="entry"):
        misses = list(heap_merge(*missed))
    return _entry_report(reg, covering, total, misses)


def _entry_report(
    reg, covering: Range, total: int, misses: list[int]
) -> EntryCoverageReport:
    """Record one entry-coverage computation and build its report."""
    if total == 0:
        raise CoverageError("entry coverage over an empty trace is undefined")
    if reg.enabled:
        reg.counter("repro_coverage_computations_total", kind="entry").inc()
        reg.counter("repro_coverage_recompute_total").inc()
        reg.histogram(
            "repro_coverage_range_cardinality", buckets=CARDINALITY_BUCKETS
        ).observe(covering.cardinality)
    matched = total - len(misses)
    return EntryCoverageReport(
        ratio=matched / total,
        matched=matched,
        total=total,
        covering=covering,
        uncovered_entries=tuple(misses),
    )


def completely_covers(
    policy_x: Policy, policy_y: Policy, vocabulary: Vocabulary
) -> bool:
    """Definition 10: does ``policy_x`` completely cover ``policy_y``?"""
    return compute_coverage(policy_x, policy_y, vocabulary).complete
