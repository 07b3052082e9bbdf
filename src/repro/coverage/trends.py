"""Coverage trend analytics over audit history.

The PRIMA loop needs more than a single coverage number: stakeholders ask
*is coverage improving over time* (Figure 2's arrow) and *where is the
policy weakest* (Section 2's role-delineation discussion).  This module
answers both:

- :func:`coverage_series` — coverage per fixed-size time window of the
  log, the data behind a coverage-over-time chart;
- :func:`coverage_by_attribute` — entry coverage broken down by one
  audit attribute (per role, per data category, per purpose), pointing
  the privacy officer at the most under-documented corner of the
  workflow.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.audit.log import AuditLog
from repro.audit.schema import AUDIT_ATTRIBUTES, RULE_ATTRIBUTES
from repro.errors import AuditError, CoverageError
from repro.policy.grounding import Grounder
from repro.policy.policy import Policy
from repro.vocab.vocabulary import Vocabulary


@dataclass(frozen=True, slots=True)
class WindowPoint:
    """Coverage numbers for one time window of the log."""

    start: int
    end: int
    entries: int
    entry_coverage: float
    set_coverage: float
    exception_rate: float


def coverage_series(
    policy: Policy,
    log: AuditLog,
    vocabulary: Vocabulary,
    window_size: int,
    attributes: tuple[str, ...] = RULE_ATTRIBUTES,
) -> tuple[WindowPoint, ...]:
    """Coverage of ``policy`` per ``window_size``-tick window of ``log``.

    Windows are aligned to the log's first timestamp; empty windows are
    skipped (they carry no coverage information).
    """
    if window_size < 1:
        raise CoverageError(f"window_size must be >= 1, got {window_size}")
    if len(log) == 0:
        raise AuditError("cannot compute a coverage series over an empty log")
    grounder = Grounder.for_vocabulary(vocabulary)
    covered_mask = grounder.range_of(policy).mask
    first, last = log.time_range()
    points: list[WindowPoint] = []
    start = first
    while start <= last:
        end = start + window_size
        window = log.window(start, end)
        if len(window):
            matched = 0
            distinct: set = set()
            distinct_covered: set = set()
            exceptions = 0
            for entry in window:
                rule = entry.to_rule(attributes)
                distinct.add(rule)
                hit = grounder.ground_mask(rule) & ~covered_mask == 0
                if hit:
                    matched += 1
                    distinct_covered.add(rule)
                if entry.is_exception and entry.is_allowed:
                    exceptions += 1
            allowed = sum(1 for entry in window if entry.is_allowed)
            points.append(
                WindowPoint(
                    start=start,
                    end=end,
                    entries=len(window),
                    entry_coverage=matched / len(window),
                    set_coverage=len(distinct_covered) / len(distinct),
                    exception_rate=exceptions / allowed if allowed else 0.0,
                )
            )
        start = end
    return tuple(points)


@dataclass(frozen=True, slots=True)
class AttributeCoverage:
    """Entry coverage of the slice of the log with one attribute value."""

    value: str
    entries: int
    matched: int

    @property
    def entry_coverage(self) -> float:
        return self.matched / self.entries


def coverage_by_attribute(
    policy: Policy,
    log: AuditLog,
    vocabulary: Vocabulary,
    attribute: str = "authorized",
    rule_attributes: tuple[str, ...] = RULE_ATTRIBUTES,
) -> tuple[AttributeCoverage, ...]:
    """Entry coverage of ``policy`` per distinct value of ``attribute``.

    Sorted worst-covered first, so the head of the result is where the
    policy most needs refinement.
    """
    if attribute not in AUDIT_ATTRIBUTES:
        raise AuditError(f"unknown audit attribute {attribute!r}")
    if len(log) == 0:
        raise AuditError("cannot break down coverage of an empty log")
    grounder = Grounder.for_vocabulary(vocabulary)
    covered_mask = grounder.range_of(policy).mask
    totals: dict[str, int] = defaultdict(int)
    matches: dict[str, int] = defaultdict(int)
    for entry in log:
        key = str(getattr(entry, attribute))
        totals[key] += 1
        rule = entry.to_rule(rule_attributes)
        if grounder.ground_mask(rule) & ~covered_mask == 0:
            matches[key] += 1
    slices = [
        AttributeCoverage(value=value, entries=count, matched=matches[value])
        for value, count in totals.items()
    ]
    slices.sort(key=lambda s: (s.entry_coverage, s.value))
    return tuple(slices)
