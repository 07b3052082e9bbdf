"""The SQL oracle: reference (unoptimized) query execution for sqlmini.

This is the pre-planner execution strategy preserved verbatim: nested-loop
joins over dict environments, WHERE evaluated against every surviving row
combination, no indexes, no pushdown, no compilation.  It defines the
*semantics* the planned executor must match — the differential test suite
(``tests/test_properties_sql_planner.py``) asserts that :class:`~repro.sqlmini.executor.Executor` and
:class:`ReferenceExecutor` return byte-identical results for any query
with an ORDER BY (and multiset-identical results otherwise, where SQL
leaves row order unspecified and the optimizer may reorder joins), and
the E22 benchmark uses it as the full-scan baseline.

Both executors bind through :func:`repro.sqlmini.planner.bind_select`, so
they share name resolution and validation; only execution differs.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.sqlmini import ast
from repro.sqlmini.aggregates import Accumulator, make_accumulator
from repro.sqlmini.executor import ResultSet, _invert_sort_key
from repro.sqlmini.expressions import evaluate, to_bool
from repro.sqlmini.planner import BoundSelect, CatalogLike, bind_select
from repro.sqlmini.types import Value, sort_key


class ReferenceExecutor:
    """Executes SELECT/UNION ALL the slow, obviously-correct way."""

    def __init__(self, catalog: CatalogLike) -> None:
        self._catalog = catalog

    def execute(self, statement: ast.Statement) -> ResultSet:
        """Run one query statement (SELECT or UNION ALL)."""
        if isinstance(statement, ast.Select):
            return self.execute_select(statement)
        if isinstance(statement, ast.UnionAll):
            partials = [self.execute_select(select) for select in statement.selects]
            rows = tuple(row for partial in partials for row in partial.rows)
            return ResultSet(columns=partials[0].columns, rows=rows)
        raise TypeError(f"reference executor only runs queries, got {statement!r}")

    def execute_select(self, select: ast.Select) -> ResultSet:
        """Bind and run one SELECT by brute-force enumeration."""
        bound = bind_select(select, self._catalog)
        if bound.aggregate_mode:
            output_rows = self._grouped_rows(bound)
        else:
            output_rows = self._plain_rows(bound)
        if select.distinct:
            seen: dict[tuple[Value, ...], None] = {}
            deduped: list[tuple[tuple[Value, ...], tuple]] = []
            for row, key in output_rows:
                if row not in seen:
                    seen[row] = None
                    deduped.append((row, key))
            output_rows = deduped
        if select.order_by:
            output_rows.sort(key=lambda pair: pair[1])
        rows = [row for row, _ in output_rows]
        if select.limit is not None:
            rows = rows[: select.limit]
        return ResultSet(columns=bound.output_names, rows=tuple(rows))

    # ------------------------------------------------------------------
    # nested-loop input
    # ------------------------------------------------------------------
    def _input_envs(self, bound: BoundSelect) -> Iterator[dict[str, Value]]:
        """Yield joined-row environments passing all join conditions.

        Each join condition is checked as soon as its table's row is
        fixed; later tables are padded with NULLs for the check (the
        binder guarantees conditions never reference them).
        """

        def matches(bound_table, chosen: list[tuple[Value, ...]], depth: int) -> bool:
            partial = bound.env_for(
                tuple(chosen)
                + tuple(
                    (None,) * len(later.table.schema.columns)
                    for later in bound.tables[depth + 1 :]
                )
            )
            return to_bool(evaluate(bound_table.condition, partial)) is True

        def combos(depth: int, chosen: list[tuple[Value, ...]]) -> Iterator[dict[str, Value]]:
            if depth == len(bound.tables):
                yield bound.env_for(tuple(chosen))
                return
            bound_table = bound.tables[depth]
            matched_any = False
            for row in bound_table.table.scan():
                chosen.append(row)
                if bound_table.condition is not None and not matches(
                    bound_table, chosen, depth
                ):
                    chosen.pop()
                    continue
                matched_any = True
                yield from combos(depth + 1, chosen)
                chosen.pop()
            if bound_table.outer and not matched_any:
                # LEFT JOIN null extension: keep the left rows alive
                chosen.append((None,) * len(bound_table.table.schema.columns))
                yield from combos(depth + 1, chosen)
                chosen.pop()

        return combos(0, [])

    def _filtered_envs(self, bound: BoundSelect) -> Iterator[dict[str, Value]]:
        where = bound.where
        for env in self._input_envs(bound):
            if where is None or to_bool(evaluate(where, env)) is True:
                yield env

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def _plain_rows(
        self, bound: BoundSelect
    ) -> list[tuple[tuple[Value, ...], tuple]]:
        results: list[tuple[tuple[Value, ...], tuple]] = []
        aliases = {
            item.alias: item.expr
            for item in bound.items
            if item.alias and not isinstance(item.expr, ast.Star)
        }
        for env in self._filtered_envs(bound):
            values: list[Value] = []
            for item in bound.items:
                if isinstance(item.expr, ast.Star):
                    values.extend(env[f"{alias}.{name}"] for alias, name in bound.visible)
                else:
                    values.append(evaluate(item.expr, env))
            order_env = dict(env)
            for alias, expr in aliases.items():
                order_env[alias] = evaluate(expr, env)
            key = self._order_key(bound, order_env, None)
            results.append((tuple(values), key))
        return results

    def _grouped_rows(
        self, bound: BoundSelect
    ) -> list[tuple[tuple[Value, ...], tuple]]:
        group_exprs = bound.group_by
        groups: dict[tuple[Value, ...], list[Accumulator]] = {}
        for env in self._filtered_envs(bound):
            key = tuple(evaluate(expr, env) for expr in group_exprs)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [make_accumulator(call) for call in bound.aggregates]
                groups[key] = accumulators
            for call, accumulator in zip(bound.aggregates, accumulators):
                accumulator.add(self._aggregate_input(call, env))
        if not group_exprs and not groups:
            # global aggregate over zero rows still yields one output row
            groups[()] = [make_accumulator(call) for call in bound.aggregates]
        results: list[tuple[tuple[Value, ...], tuple]] = []
        for key, accumulators in groups.items():
            replacements: dict[ast.Expression, Value] = {}
            for expr, value in zip(group_exprs, key):
                replacements[expr] = value
            for call, accumulator in zip(bound.aggregates, accumulators):
                replacements[call] = accumulator.result()
            if bound.having is not None:
                if to_bool(evaluate(bound.having, {}, replacements)) is not True:
                    continue
            values = tuple(
                evaluate(item.expr, {}, replacements) for item in bound.items
            )
            alias_env = {
                item.alias: value
                for item, value in zip(bound.items, values)
                if item.alias
            }
            order_key = self._order_key(bound, alias_env, replacements)
            results.append((values, order_key))
        return results

    @staticmethod
    def _aggregate_input(call: ast.FuncCall, env: dict[str, Value]) -> Value:
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            return 1  # COUNT(*): any non-informative marker
        return evaluate(call.args[0], env)

    @staticmethod
    def _order_key(
        bound: BoundSelect,
        env: dict[str, Value],
        replacements: dict[ast.Expression, Value] | None,
    ) -> tuple:
        key: list[tuple] = []
        for order in bound.order_by:
            value = evaluate(order.expr, env, replacements)
            base = sort_key(value)
            if not order.ascending:
                base = _invert_sort_key(base)
            key.append(base)
        return tuple(key)
