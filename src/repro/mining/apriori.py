"""Apriori frequent-itemset mining [Agrawal & Srikant, VLDB 1994].

Section 5 of the paper proposes "to leverage the frequent pattern mining
algorithm [18] ... to detect correlations between attribute pairs that are
not discovered by simple SQL queries".  This module implements classic
levelwise Apriori from scratch over audit entries.

Transactions and items
----------------------
Each practice-log entry becomes one transaction; its items are the
``(attribute, value)`` pairs over the configured attribute subset, e.g.
``{("data", "referral"), ("purpose", "registration"), ("authorized",
"nurse")}``.  Because a transaction carries exactly one item per
attribute, candidate itemsets mixing two values of one attribute can never
be frequent and are pruned during generation.

Why this beats plain GROUP BY
-----------------------------
Algorithm 5 groups on the *full* attribute set, so a practice that is
spread across many roles — say ``(referral, registration)`` performed by
nurses, clerks and registrars, each below the threshold individually —
never surfaces.  Apriori's size-2 itemsets catch exactly that correlation
(experiment E5 quantifies it).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.audit.log import AuditLog
from repro.errors import MiningError
from repro.mining.patterns import MiningConfig, Pattern, apriori_pattern_order
from repro.policy.rule import Rule

#: An item is an (attribute, value) pair; itemsets are frozensets of items.
Item = tuple[str, str]
ItemSet = frozenset


@dataclass(frozen=True, slots=True)
class FrequentItemset:
    """One frequent itemset with its absolute support."""

    items: ItemSet
    support: int

    @property
    def size(self) -> int:
        return len(self.items)

    def to_rule(self) -> Rule:
        """Lift into a policy rule (terms = items)."""
        return Rule.from_pairs(sorted(self.items))

    def __str__(self) -> str:
        inner = ", ".join(f"{attr}={value}" for attr, value in sorted(self.items))
        return f"{{{inner}}} (support={self.support})"


def transactions_from_log(
    log: AuditLog, attributes: tuple[str, ...]
) -> list[ItemSet]:
    """One transaction per entry over the chosen attributes."""
    return [
        frozenset(
            (attribute, str(getattr(entry, attribute))) for attribute in attributes
        )
        for entry in log
    ]


def apriori(
    transactions: list[ItemSet], min_support: int, max_size: int | None = None
) -> tuple[FrequentItemset, ...]:
    """Levelwise Apriori; returns all frequent itemsets, smallest first.

    ``min_support`` is an absolute count (inclusive).  ``max_size`` caps
    the itemset size (defaults to unbounded, which in this domain means
    the number of attributes).
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    if not transactions:
        return ()
    singles: Counter = Counter(
        item for transaction in transactions for item in transaction
    )
    current: dict[ItemSet, int] = {
        frozenset([item]): count
        for item, count in singles.items()
        if count >= min_support
    }
    found: list[FrequentItemset] = [
        FrequentItemset(items, support) for items, support in sorted(
            current.items(), key=lambda pair: (sorted(pair[0]),)
        )
    ]
    size = 2
    while current and (max_size is None or size <= max_size):
        candidates = _generate_candidates(list(current), size)
        if not candidates:
            break
        counts: Counter = Counter()
        for transaction in transactions:
            for candidate in candidates:
                if candidate <= transaction:
                    counts[candidate] += 1
        current = {
            candidate: count
            for candidate, count in counts.items()
            if count >= min_support
        }
        found.extend(
            FrequentItemset(items, support)
            for items, support in sorted(
                current.items(), key=lambda pair: (sorted(pair[0]),)
            )
        )
        size += 1
    return tuple(found)


def _generate_candidates(frequent: list[ItemSet], size: int) -> set[ItemSet]:
    """Join step + prune step of candidate generation.

    Joins (k-1)-itemsets sharing k-2 items; prunes candidates with any
    infrequent (k-1)-subset (support anti-monotonicity) and candidates
    carrying two values of one attribute (impossible in this domain).
    """
    frequent_set = set(frequent)
    candidates: set[ItemSet] = set()
    for first, second in itertools.combinations(frequent, 2):
        union = first | second
        if len(union) != size:
            continue
        attributes = [attr for attr, _ in union]
        if len(set(attributes)) != len(attributes):
            continue  # two values of the same attribute
        if any(
            union - frozenset([item]) not in frequent_set for item in union
        ):
            continue  # an immediate subset is infrequent
        candidates.add(union)
    return candidates


class AprioriPatternMiner:
    """Frequent-pattern miner implementing the ``PatternMiner`` protocol.

    :meth:`mine` returns full-width patterns (itemsets covering every
    configured attribute) so it is a drop-in replacement for the SQL
    miner inside ``extractPatterns``.  :meth:`correlations` additionally
    surfaces the sub-width itemsets — the attribute-pair correlations the
    paper says plain SQL misses — as advisories for the human review step.
    """

    def mine(self, log: AuditLog, config: MiningConfig) -> tuple[Pattern, ...]:
        """Mine full-width patterns (drop-in for the SQL miner)."""
        if len(log) == 0:
            return ()
        transactions = transactions_from_log(log, config.attributes)
        width = len(config.attributes)
        itemsets = apriori(transactions, config.min_support, max_size=width)
        users = self._users_per_itemset(log, config.attributes, itemsets)
        patterns = []
        for itemset in itemsets:
            if itemset.size != width:
                continue
            distinct_users = len(users[itemset.items])
            if distinct_users < config.min_distinct_users:
                continue
            patterns.append(
                Pattern(
                    rule=itemset.to_rule(),
                    support=itemset.support,
                    distinct_users=distinct_users,
                )
            )
        patterns.sort(key=apriori_pattern_order)
        return tuple(patterns)

    def correlations(
        self, log: AuditLog, config: MiningConfig
    ) -> tuple[FrequentItemset, ...]:
        """Frequent itemsets *below* full width — the SQL-invisible ones."""
        if len(log) == 0:
            return ()
        transactions = transactions_from_log(log, config.attributes)
        width = len(config.attributes)
        itemsets = apriori(transactions, config.min_support, max_size=width)
        return tuple(itemset for itemset in itemsets if 1 < itemset.size < width)

    @staticmethod
    def _users_per_itemset(
        log: AuditLog,
        attributes: tuple[str, ...],
        itemsets: tuple[FrequentItemset, ...],
    ) -> dict[ItemSet, set[str]]:
        users: dict[ItemSet, set[str]] = defaultdict(set)
        wanted = {itemset.items for itemset in itemsets}
        for entry in log:
            transaction = frozenset(
                (attribute, str(getattr(entry, attribute))) for attribute in attributes
            )
            for items in wanted:
                if items <= transaction:
                    users[items].add(entry.user)
        return users
