"""The daemon's review gate: where automation stops (or pauses).

The paper keeps a human in the refinement loop — "human input is prudent
at this stage" — so the daemon never adopts a mined rule without passing
it through a :class:`ReviewGate`.  Two built-ins:

- :class:`AutoAcceptGate` — the automated stand-in: a
  :class:`repro.refinement.review.ThresholdReview` whose threshold test
  accepts with enough support and distinct users, otherwise *rejects
  for now*.
  Rejections are **not sticky**: a pattern rejected in round ``r`` is
  re-judged in round ``r+1`` when its evidence has grown, precisely as
  the offline loop re-runs its review policy every round — the byte-
  identity proof in ``tests/test_refine_daemon_sim.py`` depends on this.
- :class:`QueueForReviewGate` — the human mode: every novel candidate
  parks in the persisted pending queue, where the
  ``repro refine-daemon pending|accept|reject`` CLI decides its fate;
  the daemon adopts CLI-accepted rules at its next poll.
- :class:`ExplanationGate` — explanation-based triage
  (:mod:`repro.explain`): candidates whose aggregate explanation
  strength clears ``auto_accept`` adopt immediately, candidates at or
  below ``auto_reject`` (when set) are rejected-for-now, and the middle
  band falls through to an ``inner`` gate — by default the human queue,
  which the daemon keeps **pre-sorted by descending strength** whenever
  its gate exposes :meth:`~ExplanationGate.strength_of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import DaemonError
from repro.mining.patterns import Pattern
from repro.policy.rule import Rule
from repro.refinement.review import ThresholdReview

#: A gate verdict: adopt now, re-judge later, or park for a human.
VERDICTS: tuple[str, ...] = ("accept", "reject", "pend")


class ReviewGate(Protocol):
    """Decides what happens to one useful (post-prune) pattern."""

    def decide(self, pattern: Pattern) -> str:
        """Return one of :data:`VERDICTS`."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class AutoAcceptGate(ThresholdReview):
    """Threshold-gated auto-accept: ``ThresholdReview``'s test as a gate."""

    def decide(self, pattern: Pattern) -> str:
        """Accept with enough independent evidence, else reject-for-now."""
        return "accept" if self.accept(pattern) else "reject"


class QueueForReviewGate:
    """Park every novel candidate for a human decision via the CLI."""

    def decide(self, pattern: Pattern) -> str:
        """Always pend."""
        return "pend"


class StrengthIndex(Protocol):
    """Anything that scores a candidate rule's explanation strength.

    :class:`repro.explain.scoring.ExplanationIndex` is the canonical
    implementation; the protocol keeps this module free of a hard
    dependency on the explain package.
    """

    def strength(self, rule: Rule, default: float = 0.0) -> float:
        """Aggregate explanation strength of ``rule`` in (0, 1)."""
        ...  # pragma: no cover - protocol


@dataclass
class ExplanationGate:
    """Explanation-triaged review: auto-resolve the clear cases.

    ``auto_accept`` adopts candidates whose supporting exceptions are
    well explained (strength at or above the threshold); ``auto_reject``
    (when not ``None``) rejects-for-now candidates at or below it —
    non-sticky, like :class:`AutoAcceptGate`, so a candidate whose
    explanations improve is re-judged.  Everything in between falls
    through to ``inner`` (the human queue by default), which the daemon
    pre-sorts by descending strength via :meth:`strength_of`.

    A rule the index never saw scores ``unscored_strength`` (default
    0.0: no supporting exception was ever scored, so there is no
    evidence of legitimacy).
    """

    index: StrengthIndex
    auto_accept: float = 0.9
    auto_reject: float | None = None
    unscored_strength: float = 0.0
    inner: ReviewGate = field(default_factory=QueueForReviewGate)

    def __post_init__(self) -> None:
        if not 0.0 <= self.auto_accept <= 1.0:
            raise DaemonError(
                f"auto_accept must be in [0, 1], got {self.auto_accept}"
            )
        if self.auto_reject is not None and not (
            0.0 <= self.auto_reject <= self.auto_accept
        ):
            raise DaemonError(
                "auto_reject must satisfy 0 <= auto_reject <= auto_accept, "
                f"got auto_reject={self.auto_reject}, "
                f"auto_accept={self.auto_accept}"
            )

    def strength_of(self, pattern: Pattern) -> float:
        """The candidate's aggregate explanation strength."""
        return self.index.strength(pattern.rule, self.unscored_strength)

    def decide(self, pattern: Pattern) -> str:
        """Auto-resolve clear candidates; defer the middle band."""
        strength = self.strength_of(pattern)
        if strength >= self.auto_accept:
            return "accept"
        if self.auto_reject is not None and strength <= self.auto_reject:
            return "reject"
        return self.inner.decide(pattern)
