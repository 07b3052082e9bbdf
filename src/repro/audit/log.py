"""Audit logs: ordered collections of audit entries, and their one read
surface.

An :class:`AuditLog` is the concrete ``P_AL`` source.  Every audit-log
shape — this in-memory log, the disk-backed
:class:`~repro.store.durable.DurableAuditLog` and the lazy
:class:`StreamedAuditView` — inherits its derived reads from
:class:`AuditReadOps`: lifting into a
:class:`~repro.policy.policy.Policy` (Section 3's ``P_AL``), materialising
as a sqlmini table (Algorithm 5 runs SQL over it), and slicing by time,
status or predicate (training windows, Filter, retention).  The SQL
engine is imported only when a table is built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from repro.audit.entry import AuditEntry
from repro.audit.schema import (
    RULE_ATTRIBUTES,
    AccessOp,
    AccessStatus,
    audit_table_schema,
    create_audit_indexes,
)
from repro.errors import AuditError
from repro.policy.policy import Policy, PolicySource

if TYPE_CHECKING:
    from repro.sqlmini.database import Database
    from repro.sqlmini.table import Table


class AuditReadOps:
    """The derived read operations every audit-log shape shares.

    Subclasses provide ``__iter__`` (re-iterable), ``name`` and may
    override ``where``; everything else — the slicing, statistics and
    conversion surface — is implemented here over streaming iteration.
    """

    name: str

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream the entries (subclass responsibility)."""
        raise NotImplementedError

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        """All entries as a tuple — materialises; prefer iteration."""
        return tuple(self)

    def where(self, predicate: Callable[[AuditEntry], bool]) -> "AuditReadOps":
        """Entries satisfying ``predicate``, as a lazy streaming view."""
        return StreamedAuditView(
            lambda: (entry for entry in self if predicate(entry)), name=self.name
        )

    def window(self, start: int, end: int) -> "AuditReadOps":
        """Entries with ``start <= time < end`` (a training window)."""
        view = self.where(lambda entry: start <= entry.time < end)
        view.name = f"{self.name}[{start}:{end}]"
        return view

    def exceptions(self) -> "AuditReadOps":
        """The break-the-glass subset (allowed, status = exception)."""
        return self.where(lambda e: e.is_exception and e.is_allowed)

    def regular(self) -> "AuditReadOps":
        """The sanctioned subset (allowed, status = regular)."""
        return self.where(lambda e: not e.is_exception and e.is_allowed)

    def denials(self) -> "AuditReadOps":
        """Requests the enforcement layer refused (op = deny)."""
        return self.where(lambda e: not e.is_allowed)

    def distinct_users(self) -> tuple[str, ...]:
        """Sorted distinct user ids appearing in the log."""
        return tuple(sorted({entry.user for entry in self}))

    def time_range(self) -> tuple[int, int]:
        """(first, last) entry times; raises on an empty log."""
        first = last = None
        for entry in self:
            if first is None:
                first = entry.time
            last = entry.time
        if first is None or last is None:
            raise AuditError(f"audit log {self.name!r} is empty")
        return first, last

    def exception_rate(self) -> float:
        """Fraction of allowed accesses that went through the exception
        path — the paper's headline symptom."""
        allowed = exceptional = 0
        for entry in self:
            if entry.is_allowed:
                allowed += 1
                if entry.is_exception:
                    exceptional += 1
        if not allowed:
            raise AuditError(f"audit log {self.name!r} has no allowed accesses")
        return exceptional / allowed

    def rule_histogram(
        self, attributes: tuple[str, ...] = RULE_ATTRIBUTES
    ) -> Counter:
        """Count entries per lifted ground rule."""
        return Counter(entry.to_rule(attributes) for entry in self)

    def to_policy(self, attributes: tuple[str, ...] = RULE_ATTRIBUTES) -> Policy:
        """Lift the log into the paper's ``P_AL`` (duplicates preserved)."""
        return Policy(
            (entry.to_rule(attributes) for entry in self),
            source=PolicySource.AUDIT_LOG,
            name=f"P_AL({self.name})",
        )

    def to_table(
        self,
        database: Database,
        table_name: str | None = None,
        index: bool = False,
    ) -> Table:
        """Materialise the log as a sqlmini table and return it.

        ``index=True`` additionally creates the standard audit-column
        indexes (see :data:`repro.audit.schema.AUDIT_INDEX_SPECS`),
        bulk-built after the insert, so repeated point/range queries
        against the table use seeks instead of scans.
        """
        table = database.create_table(audit_table_schema(table_name or self.name))
        for entry in self:
            table.insert(entry.as_row())
        if index:
            create_audit_indexes(table)
        return table


class StreamedAuditView(AuditReadOps):
    """A lazy, re-iterable view over a stream of audit entries.

    Holds a factory rather than entries, so iterating twice re-reads the
    source (cheap for disk segments, exact for immutable sealed data) and
    chained ``where``/``window`` calls compose filters without copying.
    ``len()`` counts by iteration — O(n), but allocation-free.
    """

    def __init__(
        self, factory: Callable[[], Iterator[AuditEntry]], name: str = "audit_view"
    ) -> None:
        self._factory = factory
        self.name = name

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream the view's entries from its source."""
        return self._factory()

    def __len__(self) -> int:
        """Number of entries in the view (counted by iteration)."""
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return f"StreamedAuditView(name={self.name!r})"


class AuditLog(AuditReadOps):
    """An append-only, time-ordered audit trail held in memory.

    Slices (``where``, ``window``, ``exceptions`` …) come back as
    materialised :class:`AuditLog` objects.
    """

    def __init__(self, entries: Iterable[AuditEntry] = (), name: str = "audit_log") -> None:
        self.name = name
        self._entries: list[AuditEntry] = []
        self._last_time = -1
        for entry in entries:
            self.append(entry)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> AuditEntry:
        return self._entries[index]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, entry: AuditEntry) -> None:
        """Append one entry; times must be non-decreasing."""
        if not isinstance(entry, AuditEntry):
            raise AuditError(f"audit logs hold AuditEntry objects, got {entry!r}")
        if entry.time < self._last_time:
            raise AuditError(
                f"audit entries must be time-ordered: {entry.time} after {self._last_time}"
            )
        self._last_time = entry.time
        self._entries.append(entry)

    def extend(self, entries: Iterable[AuditEntry]) -> None:
        """Append every entry in order (same time rules as append).

        The batch is validated *before* any entry lands, so ``extend`` is
        all-or-nothing: a mid-iterable entry that is not an
        :class:`AuditEntry` or violates time ordering raises
        :class:`~repro.errors.AuditError` and leaves the log unchanged.
        """
        batch = list(entries)
        last_time = self._last_time
        for entry in batch:
            if not isinstance(entry, AuditEntry):
                raise AuditError(
                    f"audit logs hold AuditEntry objects, got {entry!r}"
                )
            if entry.time < last_time:
                raise AuditError(
                    f"audit entries must be time-ordered: {entry.time} after "
                    f"{last_time}"
                )
            last_time = entry.time
        self._entries.extend(batch)
        self._last_time = last_time

    def sync(self) -> None:
        """Flush to stable storage — a no-op for the in-memory log.

        Present so sinks are interchangeable: the decision service calls
        ``log.sync()`` on drain regardless of whether the trail is this
        in-memory log or a :class:`~repro.store.durable.DurableAuditLog`.
        """

    # ------------------------------------------------------------------
    # in-memory overrides
    # ------------------------------------------------------------------
    def where(self, predicate: Callable[[AuditEntry], bool]) -> "AuditLog":
        """Entries satisfying ``predicate`` (order preserved), copied into
        a new in-memory log."""
        return AuditLog(
            (e for e in self._entries if predicate(e)), name=self.name
        )

    def time_range(self) -> tuple[int, int]:
        """(first, last) entry times in O(1); raises on an empty log."""
        if not self._entries:
            raise AuditError(f"audit log {self.name!r} is empty")
        return self._entries[0].time, self._entries[-1].time

    def __repr__(self) -> str:
        return f"AuditLog(name={self.name!r}, entries={len(self._entries)})"


def make_entry(
    time: int,
    user: str,
    data: str,
    purpose: str,
    authorized: str,
    status: AccessStatus | int = AccessStatus.REGULAR,
    op: AccessOp | int = AccessOp.ALLOW,
    truth: str = "",
) -> AuditEntry:
    """Keyword-friendly :class:`AuditEntry` constructor used all over the
    tests and examples."""
    return AuditEntry(
        time=time,
        op=AccessOp(op),
        user=user,
        data=data,
        purpose=purpose,
        authorized=authorized,
        status=AccessStatus(status),
        truth=truth,
    )
