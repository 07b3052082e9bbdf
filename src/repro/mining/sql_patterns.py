"""Algorithm 5: ``dataAnalysis`` as a literal SQL statement.

The paper's routine "takes a set of attributes A, a minimum frequency f
and a simple condition c, translates it into a SQL statement and executes
it" — and gives the statement shape::

    SELECT Attr_1, .., Attr_n FROM P's table
    GROUP BY Attr_1, .., Attr_n
    HAVING COUNT(*) > f AND c

This module builds exactly that statement (with the inclusive-``f`` fix
documented in :class:`~repro.mining.patterns.MiningConfig`), materialises
the practice log into a fresh sqlmini database, executes, and lifts the
result rows into :class:`~repro.mining.patterns.Pattern` objects.

Partial aggregates
------------------
``GROUP BY`` / ``HAVING`` is an algebraic aggregation, so it decomposes
over any partition of its input: each shard contributes a *partial
aggregate* mapping every group key to ``(support, user-set)`` — raw
counts and raw user sets, because ``COUNT(DISTINCT user)`` is not
mergeable but user sets are — and the coordinator merges partials by
summing supports and unioning user sets, then applies the global
``HAVING`` thresholds and the statement's ``ORDER BY``.  That is exactly
how distributed engines execute this statement, and it is what the
parallel refinement layer (:mod:`repro.parallel`) runs per shard.
:class:`SqlPartialAggregate` is the mergeable piece;
:func:`finalize_patterns` is the global reduce.  ``finalize_patterns
(merge of shard partials)`` equals :meth:`SqlPatternMiner.mine` on the
concatenated input, group for group and in the same order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.audit.schema import AUDIT_ATTRIBUTES
from repro.errors import MiningError
from repro.mining.patterns import MiningConfig, Pattern, sql_pattern_order
from repro.policy.rule import Rule
from repro.sqlmini.database import Database

#: One GROUP BY key: the entry's values over the configured attributes.
GroupKey = tuple[str, ...]


def fold_groups(into: dict, *group_maps: dict) -> dict:
    """Fold ``key -> [support, user-set]`` maps into ``into`` and return
    it: supports add, user sets union (``into`` never shares a set)."""
    for groups in group_maps:
        for key, (count, users) in groups.items():
            slot = into.get(key)
            if slot is None:
                into[key] = [count, set(users)]
            else:
                slot[0] += count
                slot[1] |= users
    return into


@dataclass
class SqlPartialAggregate:
    """The mergeable shard-local state of the Algorithm 5 GROUP BY.

    ``groups`` maps each attribute-value tuple to ``[support, users]``;
    supports add and user sets union under :meth:`merge`, so partials
    built over disjoint shards reduce to exactly the whole-log aggregate.
    """

    attributes: tuple[str, ...]
    groups: dict[GroupKey, list] = field(default_factory=dict)

    def add(self, values: GroupKey, user: str, count: int = 1) -> None:
        """Fold one (or ``count`` identical) practice entries in."""
        slot = self.groups.get(values)
        if slot is None:
            self.groups[values] = [count, {user}]
        else:
            slot[0] += count
            slot[1].add(user)

    def add_entry(self, entry: AuditEntry) -> None:
        """Fold one audit entry in (key = its configured attributes)."""
        self.add(
            tuple(str(getattr(entry, a)) for a in self.attributes), entry.user
        )

    def merge(self, other: "SqlPartialAggregate") -> None:
        """Fold another shard's partial into this one (associative)."""
        if other.attributes != self.attributes:
            raise MiningError(
                f"cannot merge partial aggregates over {other.attributes} "
                f"into one over {self.attributes}"
            )
        fold_groups(self.groups, other.groups)

    @classmethod
    def from_entries(
        cls, entries: Iterable[AuditEntry], config: MiningConfig
    ) -> "SqlPartialAggregate":
        """Aggregate one shard (already filtered to practice entries)."""
        partial = cls(attributes=config.attributes)
        for entry in entries:
            partial.add_entry(entry)
        return partial


def finalize_patterns(
    partial: SqlPartialAggregate,
    config: MiningConfig,
    order: Callable[[Pattern], tuple] | None = None,
) -> tuple[Pattern, ...]:
    """Apply the global ``HAVING`` thresholds and ``ORDER BY`` to a
    (merged) partial aggregate — the reduce step of Algorithm 5.

    The default ``order`` matches the rendered statement
    (:func:`~repro.mining.patterns.sql_pattern_order`), so the result is
    deterministic and equal to :meth:`SqlPatternMiner.mine` over the
    concatenated shards; the Apriori miner's full-width patterns are the
    same groups under :func:`~repro.mining.patterns.apriori_pattern_order`.
    """
    patterns = [
        Pattern(
            rule=Rule.from_pairs(list(zip(partial.attributes, values))),
            support=count,
            distinct_users=len(users),
        )
        for values, (count, users) in partial.groups.items()
        if count >= config.min_support and len(users) >= config.min_distinct_users
    ]
    patterns.sort(key=order or sql_pattern_order(partial.attributes))
    return tuple(patterns)


def build_analysis_sql(table: str, config: MiningConfig) -> str:
    """Render the Algorithm 5 statement for ``table`` and ``config``."""
    for attribute in config.attributes:
        if attribute not in AUDIT_ATTRIBUTES:
            raise MiningError(f"unknown audit attribute {attribute!r}")
    columns = ", ".join(config.attributes)
    having = (
        f"COUNT(*) >= {config.min_support} "
        f"AND COUNT(DISTINCT user) >= {config.min_distinct_users}"
    )
    return (
        f"SELECT {columns}, COUNT(*) AS support, "
        f"COUNT(DISTINCT user) AS distinct_users "
        f"FROM {table} "
        f"GROUP BY {columns} "
        f"HAVING {having} "
        f"ORDER BY support DESC, {columns}"
    )


class SqlPatternMiner:
    """The GROUP BY / HAVING pattern miner (the paper's default)."""

    #: table name used for the throwaway materialisation
    TABLE = "practice"

    def mine(self, log: AuditLog, config: MiningConfig) -> tuple[Pattern, ...]:
        """Run Algorithm 5 over ``log`` and lift the rows into patterns.

        ``log`` is expected to be the *practice* subset (Algorithm 3's
        output); the miner itself applies no status filtering, mirroring
        the paper's separation of Filter and extractPatterns.
        """
        if len(log) == 0:
            return ()
        database = Database("analysis")
        log.to_table(database, self.TABLE, index=config.index_practice)
        sql = build_analysis_sql(self.TABLE, config)
        result = database.query(sql)
        patterns: list[Pattern] = []
        width = len(config.attributes)
        for row in result:
            values, support, distinct_users = row[:width], row[width], row[width + 1]
            rule = Rule.from_pairs(
                [(attribute, str(value)) for attribute, value in zip(config.attributes, values)]
            )
            patterns.append(
                Pattern(rule=rule, support=support, distinct_users=distinct_users)
            )
        return tuple(patterns)
