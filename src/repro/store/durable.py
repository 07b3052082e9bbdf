"""A disk-backed audit log satisfying the ``AuditLog`` read protocol.

:class:`DurableAuditLog` looks like :class:`~repro.audit.log.AuditLog` to
every consumer — the refinement engine and loop, the coverage trends,
the federation, the enforcement replay — but is backed by an
:class:`~repro.store.store.AuditStore`, so appends are crash-safe and
reads *stream* off disk instead of materialising the log.  Derived
subsets (``window``, ``where``, ``exceptions`` …) come back as
:class:`StreamedAuditView` objects: re-iterable, lazily filtered views
that themselves satisfy the read protocol, so chained slicing never
copies entries into memory.

The shared method implementations live in :class:`AuditReadOps`; both the
durable log and its views inherit them, guaranteeing the two agree on the
semantics of every derived readout (the round-trip property suite pins
this against the in-memory implementation).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.audit.schema import (
    RULE_ATTRIBUTES,
    audit_table_schema,
    create_audit_indexes,
)
from repro.errors import AuditError
from repro.policy.policy import Policy, PolicySource
from repro.sqlmini.database import Database
from repro.sqlmini.table import Table
from repro.store.store import AuditStore, StoreConfig, StoreStats, VerifyReport


class AuditReadOps:
    """The derived read operations every audit-log shape shares.

    Subclasses provide ``__iter__`` (re-iterable), ``name`` and
    ``where``; everything else — the slicing, statistics and conversion
    surface of :class:`~repro.audit.log.AuditLog` — is implemented here
    over streaming iteration.
    """

    name: str

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream the entries (subclass responsibility)."""
        raise NotImplementedError

    def where(self, predicate: Callable[[AuditEntry], bool]) -> "StreamedAuditView":
        """Entries satisfying ``predicate``, as a lazy streaming view."""
        return StreamedAuditView(
            lambda: (entry for entry in self if predicate(entry)), name=self.name
        )

    def window(self, start: int, end: int) -> "StreamedAuditView":
        """Entries with ``start <= time < end`` (a training window)."""
        view = self.where(lambda entry: start <= entry.time < end)
        view.name = f"{self.name}[{start}:{end}]"
        return view

    def exceptions(self) -> "StreamedAuditView":
        """The break-the-glass subset (allowed, status = exception)."""
        return self.where(lambda e: e.is_exception and e.is_allowed)

    def regular(self) -> "StreamedAuditView":
        """The sanctioned subset (allowed, status = regular)."""
        return self.where(lambda e: not e.is_exception and e.is_allowed)

    def denials(self) -> "StreamedAuditView":
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
        indexes (see :data:`repro.audit.schema.AUDIT_INDEX_SPECS`).
        """
        schema = audit_table_schema(table_name or self.name)
        table = database.create_table(schema)
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


class DurableAuditLog(AuditReadOps):
    """An append-only audit log persisted in a segmented disk store.

    Satisfies the full :class:`~repro.audit.log.AuditLog` protocol:
    writes go straight through to the crash-safe store, reads stream off
    disk.  ``window`` uses the store's sparse time index instead of a
    full scan, and ``len``/``time_range`` come from the manifest in O(1).
    """

    def __init__(
        self,
        directory: str | Path,
        config: StoreConfig | None = None,
        name: str | None = None,
        create: bool = True,
    ) -> None:
        self.store = AuditStore(directory, config=config, create=create)
        self.name = name or Path(directory).name

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Committed entries, from segment metadata (no scan)."""
        return len(self.store)

    def __iter__(self) -> Iterator[AuditEntry]:
        """Stream every committed entry in append order."""
        return self.store.iter_entries()

    def __getitem__(self, index: int) -> AuditEntry:
        """Positional access by streaming (O(n) — prefer iteration)."""
        if index < 0:
            index += len(self)
        if index < 0:
            raise IndexError(index)
        for position, entry in enumerate(self):
            if position == index:
                return entry
        raise IndexError(index)

    @property
    def entries(self) -> tuple[AuditEntry, ...]:
        """All entries as a tuple — materialises; prefer iteration."""
        return tuple(self)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, entry: AuditEntry) -> None:
        """Append one entry durably; times must be non-decreasing."""
        self.store.append(entry)

    def extend(self, entries) -> None:
        """Append every entry in order (same time rules as append)."""
        self.store.extend(entries)

    # ------------------------------------------------------------------
    # indexed overrides
    # ------------------------------------------------------------------
    def window(self, start: int, end: int) -> StreamedAuditView:
        """Entries with ``start <= time < end`` via the sparse time index."""
        return StreamedAuditView(
            lambda: self.store.scan_window(start, end),
            name=f"{self.name}[{start}:{end}]",
        )

    def lookup(
        self,
        user: str | None = None,
        data: str | None = None,
        purpose: str | None = None,
    ) -> StreamedAuditView:
        """Entries matching the given attributes via the hash indexes."""
        return StreamedAuditView(
            lambda: self.store.lookup(user=user, data=data, purpose=purpose),
            name=f"{self.name}.lookup",
        )

    def time_range(self) -> tuple[int, int]:
        """(first, last) entry times from segment metadata (no scan)."""
        return self.store.time_range()

    def tail(self, count: int) -> tuple[AuditEntry, ...]:
        """The newest ``count`` entries (the serve health surface uses
        this to report the live trail's head without a full scan)."""
        return self.store.tail(count)

    # ------------------------------------------------------------------
    # store lifecycle and maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force-flush pending appends to stable storage."""
        self.store.sync()

    def close(self) -> None:
        """Flush and close the underlying store."""
        self.store.close()

    def __enter__(self) -> "DurableAuditLog":
        """Context-manager entry: the log itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the store."""
        self.close()

    def seal_active(self):
        """Seal the active segment now (see
        :meth:`~repro.store.store.AuditStore.seal_active`)."""
        return self.store.seal_active()

    def add_seal_listener(self, listener) -> None:
        """Register a post-seal callback (see
        :meth:`~repro.store.store.AuditStore.add_seal_listener`)."""
        self.store.add_seal_listener(listener)

    def sealed_segments(self):
        """Sealed segment metadata, oldest first (see
        :meth:`~repro.store.store.AuditStore.sealed_segments`)."""
        return self.store.sealed_segments()

    def stats(self) -> StoreStats:
        """The underlying store's :class:`~repro.store.store.StoreStats`."""
        return self.store.stats()

    def verify(self) -> VerifyReport:
        """Run a full checksum pass over the underlying store."""
        return self.store.verify()

    def __repr__(self) -> str:
        return (
            f"DurableAuditLog(name={self.name!r}, entries={len(self)}, "
            f"directory={str(self.store.directory)!r})"
        )


def copy_to_durable(
    log: AuditLog, directory: str | Path, config: StoreConfig | None = None
) -> DurableAuditLog:
    """Persist an in-memory log into a fresh durable store at ``directory``."""
    durable = DurableAuditLog(directory, config=config, name=log.name)
    durable.extend(log)
    durable.sync()
    return durable
