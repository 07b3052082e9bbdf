"""The audit-trail schema of Section 4.2.

The paper fixes an audit entry as the 7-tuple ``{(time, t), (op, X),
(user, u), (data, d), (purpose, p), (authorized, a), (status, s)}`` where
``op`` is 0 (disallow) / 1 (allow) and ``status`` is 0 (exception-based
access) / 1 (regular access).  This module centralises those constants and
the sqlmini column layout every other audit component shares; the SQL
engine itself is imported only when that layout is built.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sqlmini.schema import TableSchema


class AccessOp(IntEnum):
    """The ``op`` attribute: was the request allowed?"""

    DENY = 0
    ALLOW = 1


class AccessStatus(IntEnum):
    """The ``status`` attribute: how was the purpose recorded?

    ``REGULAR`` means the user chose a purpose from the sanctioned list;
    ``EXCEPTION`` means the purpose was manually entered — the
    break-the-glass path.
    """

    EXCEPTION = 0
    REGULAR = 1


#: Attribute names of the audit schema, in the paper's order.
AUDIT_ATTRIBUTES: tuple[str, ...] = (
    "time",
    "op",
    "user",
    "data",
    "purpose",
    "authorized",
    "status",
)

#: The attributes that form a policy rule when an entry is lifted into
#: ``P_AL`` (Section 5 analyses over exactly this subset).
RULE_ATTRIBUTES: tuple[str, ...] = ("data", "purpose", "authorized")

#: The attributes an entry holds as canonical plain strings (the rest are
#: an integer tick and enum codes), so ``str()`` of one is its value.
STRING_ATTRIBUTES: tuple[str, ...] = ("user", "data", "purpose", "authorized")


#: Secondary indexes for the hot audit columns: equality-heavy attributes
#: get hash indexes (miner practice lookups, HDB consent checks), ``time``
#: gets an ordered index for retention windows and range scans.
AUDIT_INDEX_SPECS: tuple[tuple[str, str], ...] = (
    ("user", "hash"),
    ("data", "hash"),
    ("purpose", "hash"),
    ("time", "ordered"),
)


def create_audit_indexes(table) -> None:
    """Create the standard audit-column indexes on ``table`` (idempotent)."""
    for column, kind in AUDIT_INDEX_SPECS:
        table.create_index(column, kind=kind)


def audit_table_schema(name: str = "audit_log") -> TableSchema:
    """Build the sqlmini schema for an audit-trail table."""
    from repro.sqlmini.schema import Column, TableSchema
    from repro.sqlmini.types import SqlType

    return TableSchema(
        name,
        (
            Column("time", SqlType.INTEGER, nullable=False),
            Column("op", SqlType.INTEGER, nullable=False),
            Column("user", SqlType.TEXT, nullable=False),
            Column("data", SqlType.TEXT, nullable=False),
            Column("purpose", SqlType.TEXT, nullable=False),
            Column("authorized", SqlType.TEXT, nullable=False),
            Column("status", SqlType.INTEGER, nullable=False),
        ),
    )
