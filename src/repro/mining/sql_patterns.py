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
:func:`fold_groups` is the merge and :func:`finalize_patterns` the
global reduce.  ``finalize_patterns`` over the folded shard partials
equals :meth:`SqlPatternMiner.mine` on the concatenated input, group
for group and in the same order.
"""

from __future__ import annotations

from collections.abc import Callable

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


def finalize_patterns(
    attributes: tuple[str, ...],
    groups: dict[GroupKey, list],
    config: MiningConfig,
    order: Callable[[Pattern], tuple] | None = None,
    rule_of: Callable[[GroupKey], Rule] | None = None,
) -> tuple[Pattern, ...]:
    """Apply the global ``HAVING`` thresholds and ``ORDER BY`` to a
    (merged) partial aggregate — the reduce step of Algorithm 5.

    ``groups`` maps each value tuple over ``attributes`` to
    ``[support, user-set]`` (as :func:`fold_groups` builds it); it is
    only read.  ``rule_of`` returns a kept key's lifted rule (a caller
    holding :meth:`~repro.policy.grounding.Grounder.lift` output passes
    it); by default each is built with :meth:`Rule.from_pairs`.

    The default ``order`` matches the rendered statement
    (:func:`~repro.mining.patterns.sql_pattern_order`), so the result is
    deterministic and equal to :meth:`SqlPatternMiner.mine` over the
    concatenated shards; the Apriori miner's full-width patterns are the
    same groups under :func:`~repro.mining.patterns.apriori_pattern_order`.
    """
    if rule_of is None:

        def rule_of(values: GroupKey) -> Rule:
            return Rule.from_pairs(list(zip(attributes, values)))

    patterns = [
        Pattern(
            rule=rule_of(values),
            support=count,
            distinct_users=len(users),
        )
        for values, (count, users) in groups.items()
        if count >= config.min_support and len(users) >= config.min_distinct_users
    ]
    patterns.sort(key=order or sql_pattern_order(attributes))
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
        log.to_table(database, self.TABLE)
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
