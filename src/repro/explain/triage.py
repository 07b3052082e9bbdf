"""Explanation-ranked triage of refinement candidates.

The paper hands every mined candidate to a privacy officer; this module
orders that queue.  :func:`triage_patterns` ranks mined
:class:`~repro.mining.patterns.Pattern` candidates by aggregate
explanation strength (from an
:class:`~repro.explain.scoring.ExplanationIndex`) and assigns each a
verdict: ``adopt`` above the auto-accept threshold, ``review`` in the
middle band, ``investigate`` below — so the human starts with the
candidates most likely to be real violations, or skips the top of the
queue entirely.

The evaluation half grades a ranking against the corpus's injected
ground truth.  A candidate's truth is the **majority truth label of its
supporting exception entries** (``practice`` = legitimate workflow that
should be adopted, ``violation`` = injected misuse that must not be).
Rankings are compared with standard information-retrieval machinery —
precision/recall sweeps, interpolated precision on a recall grid,
average precision — treating ``practice`` candidates as the positive
class.  Ground truth flows only into grading, never into ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ExplainError
from repro.explain.scoring import ExplanationIndex
from repro.mining.patterns import Pattern

#: Triage verdicts, strongest first.
TRIAGE_VERDICTS: tuple[str, ...] = ("adopt", "review", "investigate")


@dataclass(frozen=True, slots=True)
class TriageThresholds:
    """Strength cut-offs for the three triage verdicts."""

    auto_accept: float = 0.75
    review: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.review <= self.auto_accept <= 1.0:
            raise ExplainError(
                "thresholds must satisfy 0 <= review <= auto_accept <= 1, "
                f"got review={self.review}, auto_accept={self.auto_accept}"
            )

    def verdict(self, strength: float) -> str:
        """Map a strength to its triage verdict."""
        if strength >= self.auto_accept:
            return "adopt"
        if strength >= self.review:
            return "review"
        return "investigate"


@dataclass(frozen=True, slots=True)
class TriageCandidate:
    """One mined candidate with its triage outcome.

    ``truth`` is evaluation-only metadata (majority ground-truth label of
    the supporting entries, ``unknown`` when unlabelled); it never
    influences ``strength`` or ``verdict``.
    """

    pattern: Pattern
    strength: float
    verdict: str
    truth: str = "unknown"

    def to_dict(self) -> dict:
        """JSON-ready encoding (rule as the policy DSL)."""
        from repro.policy.parser import format_rule

        return {
            "rule": format_rule(self.pattern.rule),
            "support": self.pattern.support,
            "distinct_users": self.pattern.distinct_users,
            "strength": self.strength,
            "verdict": self.verdict,
            "truth": self.truth,
        }


def candidate_truth(index: ExplanationIndex, pattern: Pattern) -> str:
    """Majority ground-truth label of the entries supporting ``pattern``."""
    votes = {"practice": 0, "violation": 0}
    for explanation in index.explanations_for(pattern.rule):
        if explanation.entry.truth in votes:
            votes[explanation.entry.truth] += 1
    if votes["practice"] == votes["violation"] == 0:
        return "unknown"
    return "violation" if votes["violation"] > votes["practice"] else "practice"


def explanation_ranking(
    patterns: tuple[Pattern, ...], index: ExplanationIndex
) -> tuple[Pattern, ...]:
    """Patterns ordered by descending explanation strength.

    The sort is stable: equal-strength candidates keep their incoming
    (miner) order, so triage output is deterministic.
    """
    return tuple(
        sorted(patterns, key=lambda pattern: -index.strength(pattern.rule))
    )


def support_ranking(patterns: tuple[Pattern, ...]) -> tuple[Pattern, ...]:
    """The paper's baseline: patterns by descending support (stable)."""
    return tuple(sorted(patterns, key=lambda pattern: -pattern.support))


def ranking_flags(
    ranked: tuple[Pattern, ...], index: ExplanationIndex
) -> tuple[bool, ...]:
    """Per-position positives (``truth == "practice"``) for a ranking."""
    return tuple(
        candidate_truth(index, pattern) == "practice" for pattern in ranked
    )


def precision_recall_points(
    flags: tuple[bool, ...],
) -> tuple[tuple[float, float], ...]:
    """(recall, precision) after each ranking prefix.

    Raises :class:`ExplainError` when the ranking holds no positives —
    precision/recall is undefined there.
    """
    positives = sum(flags)
    if positives == 0:
        raise ExplainError("ranking holds no positive candidates to score")
    points: list[tuple[float, float]] = []
    hits = 0
    for position, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
        points.append((hits / positives, hits / position))
    return tuple(points)


def interpolated_precision(
    points: tuple[tuple[float, float], ...], grid: tuple[float, ...]
) -> tuple[float, ...]:
    """Interpolated precision at each grid recall level.

    Uses the standard IR interpolation: the maximum precision achieved at
    any recall >= the grid level (0.0 when the ranking never reaches it).
    """
    values: list[float] = []
    for level in grid:
        reachable = [
            precision for recall, precision in points if recall >= level
        ]
        values.append(max(reachable) if reachable else 0.0)
    return tuple(values)


def average_precision(flags: tuple[bool, ...]) -> float:
    """Mean precision at the rank of each positive candidate."""
    positives = sum(flags)
    if positives == 0:
        raise ExplainError("ranking holds no positive candidates to score")
    total = 0.0
    hits = 0
    for position, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / position
    return total / positives


@dataclass
class TriageReport:
    """The full triage outcome for one mined candidate set."""

    candidates: tuple[TriageCandidate, ...]
    thresholds: TriageThresholds

    def by_verdict(self, verdict: str) -> tuple[TriageCandidate, ...]:
        """Candidates carrying ``verdict`` (ranked order preserved)."""
        if verdict not in TRIAGE_VERDICTS:
            raise ExplainError(
                f"verdict must be one of {TRIAGE_VERDICTS}, got {verdict!r}"
            )
        return tuple(
            candidate
            for candidate in self.candidates
            if candidate.verdict == verdict
        )

    def counts(self) -> dict[str, int]:
        """Candidate counts per verdict."""
        return {
            verdict: len(self.by_verdict(verdict)) for verdict in TRIAGE_VERDICTS
        }

    def to_dict(self) -> dict:
        """JSON-ready encoding of the ranked queue."""
        return {
            "format": 1,
            "thresholds": {
                "auto_accept": self.thresholds.auto_accept,
                "review": self.thresholds.review,
            },
            "counts": self.counts(),
            "candidates": [candidate.to_dict() for candidate in self.candidates],
        }


def triage_patterns(
    patterns: tuple[Pattern, ...],
    index: ExplanationIndex,
    thresholds: TriageThresholds | None = None,
) -> TriageReport:
    """Rank ``patterns`` by explanation strength and assign verdicts."""
    chosen = thresholds or TriageThresholds()
    reg = obs.get_registry()
    with reg.span("repro_explain_triage"):
        ranked = explanation_ranking(patterns, index)
        candidates = tuple(
            TriageCandidate(
                pattern=pattern,
                strength=index.strength(pattern.rule),
                verdict=chosen.verdict(index.strength(pattern.rule)),
                truth=candidate_truth(index, pattern),
            )
            for pattern in ranked
        )
    reg.counter("repro_explain_candidates_triaged_total").inc(len(candidates))
    return TriageReport(candidates=candidates, thresholds=chosen)
