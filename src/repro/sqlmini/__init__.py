"""sqlmini — the in-memory relational substrate.

The paper's PRIMA instantiation sits on DB2 plus the Hippocratic Database
middleware; this package is the offline stand-in.  It provides typed
in-memory tables, a SQL subset (SELECT with WHERE / INNER JOIN / GROUP BY /
HAVING / ORDER BY / LIMIT / DISTINCT / UNION ALL, plus CREATE TABLE,
INSERT, UPDATE, DELETE), aggregates including ``COUNT(DISTINCT …)``, and
read-only views — everything Algorithm 5's ``dataAnalysis`` query shape and
the HDB middleware need.

Queries run through a plan-DAG pipeline — parse, bind (canonicalizing
names), lower to a logical plan, optimize (predicate pushdown, secondary
index routing, join reordering) and execute compiled plans.  ``CREATE
[HASH|ORDERED] INDEX`` declares secondary indexes; ``Database.explain``
renders the optimized plan.

Public surface: :class:`Database`, :class:`ResultSet`, the schema types,
:func:`parse` for tooling that wants raw ASTs, and the plan/:mod:`index
<repro.sqlmini.indexes>` helpers.
"""

from repro.sqlmini.database import Database
from repro.sqlmini.errors import (
    SqlCatalogError,
    SqlError,
    SqlExecutionError,
    SqlLexError,
    SqlParseError,
    SqlPlanError,
    SqlTypeError,
)
from repro.sqlmini.executor import ResultSet
from repro.sqlmini.indexes import HashIndex, OrderedIndex
from repro.sqlmini.optimizer import build_plan
from repro.sqlmini.parser import parse, parse_expression
from repro.sqlmini.plan import render_plan, walk_plan
from repro.sqlmini.planner import bind_select
from repro.sqlmini.schema import Column, TableSchema
from repro.sqlmini.table import Table, ViewTable
from repro.sqlmini.types import SqlType

__all__ = [
    "Column",
    "Database",
    "HashIndex",
    "OrderedIndex",
    "ResultSet",
    "SqlCatalogError",
    "SqlError",
    "SqlExecutionError",
    "SqlLexError",
    "SqlParseError",
    "SqlPlanError",
    "SqlType",
    "SqlTypeError",
    "Table",
    "TableSchema",
    "ViewTable",
    "bind_select",
    "build_plan",
    "parse",
    "parse_expression",
    "render_plan",
    "walk_plan",
]
