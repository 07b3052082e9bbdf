"""Differential property tests: planned executor vs the reference.

Hypothesis generates random tables, index configurations and queries;
every query runs through both the optimizing plan-DAG executor
(:class:`~repro.sqlmini.executor.Executor`, via ``Database.query``) and
the brute-force ``ReferenceExecutor`` in ``tests/reference_sql.py``.

The contract being checked is the one the optimizer promises:

- results are always **multiset-identical** (same rows, same counts);
- with an ORDER BY the results are **byte-identical**, order included —
  the join-reorder rewrite is gated off for every query whose output
  order carries a contract (ORDER BY, LIMIT, DISTINCT, grouping), so
  only plain un-ordered inner joins may legally differ in row order.

Index creation is part of the generated input: the same query must
return the same rows whether it seeks or scans.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlmini.database import Database
from repro.sqlmini.parser import parse
from tests.reference_sql import ReferenceExecutor

names = st.sampled_from(["ann", "bob", "cid", "dee"])
groups = st.one_of(st.none(), st.sampled_from(["er", "icu", "lab"]))
amounts = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
scores = st.integers(min_value=0, max_value=3)

t_rows = st.lists(st.tuples(names, groups, amounts), min_size=0, max_size=12)
u_rows = st.lists(st.tuples(st.sampled_from(["er", "icu", "web"]), scores),
                  min_size=0, max_size=6)

#: which of t's indexable columns get which index kind
index_flags = st.tuples(st.booleans(), st.booleans(), st.booleans())

WHERE_CLAUSES = [
    "",
    "WHERE name = 'ann'",
    "WHERE name IN ('ann', 'bob', 'zed')",
    "WHERE amount BETWEEN -2 AND 3",
    "WHERE amount > 0",
    "WHERE amount <= 1 AND name = 'ann'",
    "WHERE grp IS NULL",
    "WHERE grp = 'er' AND amount > -3",
    "WHERE name = 'ann' OR amount = 2",
]

SINGLE_TABLE_QUERIES = [
    "SELECT name, grp, amount FROM t {where} ORDER BY name, grp, amount",
    "SELECT name, amount FROM t {where} ORDER BY amount DESC, name LIMIT 3",
    "SELECT DISTINCT name FROM t {where} ORDER BY name",
    "SELECT grp, COUNT(*) AS n, SUM(amount) AS s FROM t {where} "
    "GROUP BY grp HAVING COUNT(*) >= 1 ORDER BY n DESC, grp",
    "SELECT name, COUNT(DISTINCT grp) AS g FROM t {where} "
    "GROUP BY name ORDER BY t.name",
    "SELECT COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi FROM t {where}",
]

JOIN_QUERIES = [
    "SELECT t.name, u.score FROM t JOIN u ON u.grp = t.grp {where} "
    "ORDER BY t.name, u.score",
    "SELECT t.name, u.score FROM t LEFT JOIN u ON u.grp = t.grp {where} "
    "ORDER BY t.name, u.score",
    "SELECT t.name FROM t LEFT JOIN u ON u.grp = t.grp AND u.score > 1 "
    "WHERE u.grp IS NULL ORDER BY t.name, t.amount",
    "SELECT t.grp, COUNT(*) AS n FROM t JOIN u ON u.grp = t.grp {where} "
    "GROUP BY t.grp ORDER BY t.grp",
    "SELECT t.name, u.score FROM t JOIN u ON u.grp = t.grp AND u.score >= 1 "
    "{where}",
]


def _database(t_data, u_data, flags) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (name TEXT, grp TEXT, amount INTEGER)")
    db.execute("CREATE TABLE u (grp TEXT, score INTEGER)")
    t = db.table("t")
    for row in t_data:
        t.insert(row)
    u = db.table("u")
    for row in u_data:
        u.insert(row)
    hash_name, hash_grp, ordered_amount = flags
    if hash_name:
        t.create_index("name", kind="hash")
    if hash_grp:
        t.create_index("grp", kind="hash")
        u.create_index("grp", kind="hash")
    if ordered_amount:
        t.create_index("amount", kind="ordered")
    return db


def _check(db: Database, sql: str) -> None:
    planned = db.query(sql)
    reference = ReferenceExecutor(db).execute(parse(sql))
    assert planned.columns == reference.columns
    if " ORDER BY " in sql:
        assert planned.rows == reference.rows
    else:
        assert Counter(planned.rows) == Counter(reference.rows)


class TestSingleTableDifferential:
    @settings(max_examples=40, deadline=None)
    @given(t_rows, index_flags,
           st.sampled_from(SINGLE_TABLE_QUERIES), st.sampled_from(WHERE_CLAUSES))
    def test_planned_matches_reference(self, t_data, flags, template, where):
        db = _database(t_data, [], flags)
        _check(db, template.format(where=where).strip())


class TestJoinDifferential:
    @settings(max_examples=40, deadline=None)
    @given(t_rows, u_rows, index_flags,
           st.sampled_from(JOIN_QUERIES),
           st.sampled_from(["", "WHERE t.amount > 0", "WHERE t.name = 'ann'"]))
    def test_planned_matches_reference(self, t_data, u_data, flags, template,
                                       where):
        db = _database(t_data, u_data, flags)
        _check(db, template.format(where=where).strip())


class TestIndexTransparency:
    @settings(max_examples=30, deadline=None)
    @given(t_rows, st.sampled_from(WHERE_CLAUSES[1:]))
    def test_same_rows_with_and_without_indexes(self, t_data, where):
        sql = f"SELECT name, grp, amount FROM t {where} ORDER BY name, grp, amount"
        bare = _database(t_data, [], (False, False, False))
        indexed = _database(t_data, [], (True, True, True))
        assert bare.query(sql).rows == indexed.query(sql).rows
