"""Pattern types shared by the mining back-ends.

A :class:`Pattern` is a candidate policy rule discovered in the practice
log, annotated with the evidence the paper's Algorithm 4 collects: how
often it occurred (support, the ``f`` threshold's subject) and how many
distinct users produced it (the ``c`` condition's subject).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

from repro.audit.log import AuditLog
from repro.audit.schema import RULE_ATTRIBUTES
from repro.errors import MiningError
from repro.policy.rule import Rule


@dataclass(frozen=True, slots=True)
class MiningConfig:
    """Knobs of Algorithm 4.

    ``attributes``
        The audit-schema subset ``A`` to analyse (default: the rule
        attributes ``(data, purpose, authorized)`` of Section 5).
    ``min_support``
        The paper's threshold frequency ``f`` (default 5).  **Inclusive**:
        a pattern occurring exactly ``f`` times passes.  Algorithm 5 as
        printed says ``COUNT(*) > f``, but the worked example accepts the
        ``Referral:Registration:Nurse`` pattern on exactly 5 occurrences,
        so the narrative semantics ("occurred at least f times") win here.
    ``min_distinct_users``
        The paper's condition ``c`` generalised to a count: the default 2
        encodes ``COUNT(DISTINCT user) > 1``.
    """

    attributes: tuple[str, ...] = RULE_ATTRIBUTES
    min_support: int = 5
    min_distinct_users: int = 2

    def __post_init__(self) -> None:
        if not self.attributes:
            raise MiningError("mining needs at least one attribute")
        if self.min_support < 1:
            raise MiningError(f"min_support must be >= 1, got {self.min_support}")
        if self.min_distinct_users < 1:
            raise MiningError(
                f"min_distinct_users must be >= 1, got {self.min_distinct_users}"
            )


@dataclass(frozen=True, slots=True)
class Pattern:
    """One mined candidate rule with its evidence."""

    rule: Rule
    support: int
    distinct_users: int

    def __str__(self) -> str:
        values = ":".join(term.value for term in self.rule.terms)
        return f"{values} (support={self.support}, users={self.distinct_users})"


def sql_pattern_order(attributes: tuple[str, ...]) -> Callable[[Pattern], tuple]:
    """Sort key of Algorithm 5's ``ORDER BY support DESC, A_1, .., A_n``:
    support descending, then the values of ``attributes`` in that order."""

    def key(pattern: Pattern) -> tuple:
        return (
            -pattern.support,
            tuple(pattern.rule.value_of(attribute) for attribute in attributes),
        )

    return key


def apriori_pattern_order(pattern: Pattern) -> tuple:
    """Sort key of the Apriori miner: support descending, then the rule text."""
    return (-pattern.support, str(pattern.rule))


class PatternMiner(Protocol):
    """The pluggable back-end interface of ``extractPatterns``.

    The paper notes the data-analysis routine "has a well-defined
    interface that allows the extractPatterns algorithm to evolve"; this
    protocol is that interface.  Implementations: the SQL GROUP BY miner
    (Algorithm 5) and the Apriori miner (the Section 5 future-work
    proposal).
    """

    def mine(self, log: AuditLog, config: MiningConfig) -> tuple[Pattern, ...]:
        """Return candidate patterns found in the practice log."""
        ...  # pragma: no cover - protocol
