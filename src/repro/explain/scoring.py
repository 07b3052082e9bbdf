"""Attaching scored explanations to exception accesses.

:func:`score_exceptions` walks the break-the-glass subset of a trail and
attaches a :class:`ScoredExplanation` to every entry: which templates
fired, the Naive-Bayes score, and the logistic ``strength`` in (0, 1).
:class:`ExplanationIndex` then aggregates those per lifted candidate rule
— mean strength over the entries supporting the rule — which is the
quantity triage and the :class:`~repro.refine_daemon.gate.ExplanationGate`
rank by.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.audit.schema import RULE_ATTRIBUTES
from repro.errors import ExplainError
from repro.explain.miner import TemplateWeights
from repro.explain.templates import ExplanationContext
from repro.policy.rule import Rule


@dataclass(frozen=True, slots=True)
class ScoredExplanation:
    """One exception access with its mined explanation."""

    entry: AuditEntry
    fired: tuple[str, ...]
    score: float
    strength: float

    def summary(self) -> str:
        """One human-readable line: who, what, and why (or why not)."""
        explanation = ", ".join(self.fired) if self.fired else "no explanation"
        return (
            f"{self.entry.user} -> {self.entry.data}/{self.entry.purpose}"
            f" [{explanation}] strength={self.strength:.3f}"
        )


def score_exceptions(
    log: AuditLog,
    context: ExplanationContext,
    weights: TemplateWeights,
) -> tuple[ScoredExplanation, ...]:
    """Score every allowed exception access in ``log``."""
    reg = obs.get_registry()
    with reg.span("repro_explain_score"):
        scored = tuple(
            ScoredExplanation(
                entry=entry,
                fired=weights.fired_names(entry, context),
                score=weights.score(entry, context),
                strength=weights.strength(entry, context),
            )
            for entry in log.exceptions()
        )
    reg.counter("repro_explain_entries_scored_total").inc(len(scored))
    return scored


class ExplanationIndex:
    """Aggregate explanation strength per candidate rule.

    A candidate's strength is the *mean* entry strength over its
    supporting exceptions — means (not sums) so heavily-supported misuse
    cannot out-score lightly-supported legitimate practice, which is the
    exact failure mode of support-only ranking.
    """

    def __init__(
        self,
        scored: tuple[ScoredExplanation, ...],
        attributes: tuple[str, ...] = RULE_ATTRIBUTES,
    ) -> None:
        self.attributes = attributes
        self._by_rule: dict[Rule, list[ScoredExplanation]] = {}
        for explanation in scored:
            rule = explanation.entry.to_rule(attributes)
            self._by_rule.setdefault(rule, []).append(explanation)

    def __len__(self) -> int:
        return len(self._by_rule)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._by_rule

    def rules(self) -> tuple[Rule, ...]:
        """The candidate rules with at least one scored exception."""
        return tuple(self._by_rule)

    def explanations_for(self, rule: Rule) -> tuple[ScoredExplanation, ...]:
        """The scored exceptions supporting ``rule`` (trail order)."""
        return tuple(self._by_rule.get(rule, ()))

    def strength(self, rule: Rule, default: float = 0.0) -> float:
        """Mean explanation strength of ``rule``'s supporting entries.

        ``default`` is returned for rules with no scored exceptions (a
        candidate the index never saw carries no evidence either way).
        """
        explanations = self._by_rule.get(rule)
        if not explanations:
            return default
        return sum(item.strength for item in explanations) / len(explanations)

    def support(self, rule: Rule) -> int:
        """How many scored exceptions support ``rule``."""
        return len(self._by_rule.get(rule, ()))


def build_index(
    log: AuditLog,
    context: ExplanationContext,
    weights: TemplateWeights,
    attributes: tuple[str, ...] = RULE_ATTRIBUTES,
) -> ExplanationIndex:
    """Score ``log``'s exceptions and index them by candidate rule."""
    if not isinstance(attributes, tuple) or not attributes:
        raise ExplainError("attributes must be a non-empty tuple")
    return ExplanationIndex(
        score_exceptions(log, context, weights), attributes=attributes
    )
