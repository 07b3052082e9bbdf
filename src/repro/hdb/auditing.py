"""HDB Compliance Auditing — the middleware that writes the audit trail.

Every enforced request produces audit entries in the Section 4.2 schema,
one per data category touched, tagged with the access decision (``op``)
and the regular/exception flag (``status``).  The auditor owns the logical
clock so entry times are monotone even when many components log.

The paper's first concern about retroactive controls is overhead; the
auditor therefore does nothing but append to its log (cheap by
construction) and exposes counters so benchmark E6 can quantify the cost.
A request's entries share every field but ``data``, so
:meth:`~repro.audit.entry.AuditEntry.for_categories` checks the shared
fields once and each category once.  Every front end's category decision
(:mod:`repro.hdb.decision`) is audited by
:meth:`ComplianceAuditor.record_decision`.
The log defaults to in-memory; hand the constructor a
:class:`~repro.store.durable.DurableAuditLog` to write the trail through
to the crash-safe segmented store instead (E16 measures that path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import AuditError
from repro.obs import trace as obstrace
from repro.obs.runtime import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.durable import DurableAuditLog
    from repro.vocab.vocabulary import Vocabulary


class LogicalClock:
    """A monotonically increasing integer clock.

    Injectable so tests and the workload generator can control time; the
    default starts at 1 to match the paper's ``t1 … t10`` example.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def tick(self) -> int:
        """Return the current tick and advance."""
        value = self._next
        self._next += 1
        return value

    def peek(self) -> int:
        """The tick the next event will get."""
        return self._next

    def advance_to(self, tick: int) -> None:
        """Jump forward so the next event gets ``tick``.

        Clocks only move forward; workload generators use this to model
        wall-clock gaps (nights, weekends) between bursts of activity.
        """
        if tick < self._next:
            raise ValueError(
                f"logical clocks cannot rewind ({tick} < {self._next})"
            )
        self._next = tick


@dataclass
class AuditorStats:
    """Counters for overhead accounting."""

    entries_written: int = 0
    requests_audited: int = 0


class ComplianceAuditor:
    """Writes audit entries for enforced accesses.

    ``log`` is any AuditLog-protocol sink: the default in-memory
    :class:`~repro.audit.log.AuditLog`, or a
    :class:`~repro.store.durable.DurableAuditLog` to write the trail
    through to crash-safe disk segments.  An optional ``vocabulary``
    turns on write-time validation: accesses carrying a role or purpose
    outside the vocabulary raise :class:`~repro.errors.AuditError`
    naming the offending request instead of polluting the trail.
    """

    def __init__(
        self,
        log: "AuditLog | DurableAuditLog | None" = None,
        clock: LogicalClock | None = None,
        vocabulary: "Vocabulary | None" = None,
    ) -> None:
        self.log = log if log is not None else AuditLog()
        self.clock = clock if clock is not None else LogicalClock()
        self.vocabulary = vocabulary
        self.stats = AuditorStats()
        # The append path stays counter-free; a weakly-held collector
        # flushes AuditorStats deltas into the registry at snapshot time.
        self._obs = get_registry()
        self._reported = (0, 0)  # entries written, requests audited
        if self._obs.enabled:
            self._obs.register_collector(self._flush_metrics)

    def _flush_metrics(self) -> None:
        reg = self._obs
        current = (self.stats.entries_written, self.stats.requests_audited)
        seen = self._reported
        reg.counter("repro_hdb_audit_entries_total").inc(current[0] - seen[0])
        reg.counter("repro_hdb_audit_requests_total").inc(current[1] - seen[1])
        self._reported = current
        reg.gauge("repro_hdb_audit_log_size").set(len(self.log))

    def record_access(
        self,
        user: str,
        role: str,
        purpose: str,
        categories: tuple[str, ...],
        op: AccessOp,
        status: AccessStatus,
        truth: str = "",
    ) -> tuple[AuditEntry, ...]:
        """Write one entry per data category at a single tick.

        All categories of one request share a timestamp — they are one
        clinical action — which also matches how Table 1 numbers entries.

        When the auditor holds a vocabulary, a role or purpose the
        vocabulary never defined raises :class:`~repro.errors.AuditError`
        *before* anything is written — the trail never gains entries the
        refinement loop cannot ground.
        """
        if not categories:
            return ()
        started = time.perf_counter()
        if self.vocabulary is not None:
            next_tick = self.clock.peek()
            for attribute, value in (("authorized", role), ("purpose", purpose)):
                tree = self.vocabulary.tree_for(attribute)
                if tree is not None and value not in tree:
                    raise AuditError(
                        f"refusing to audit access by {user!r} at tick "
                        f"{next_tick}: unknown {attribute} value {value!r} "
                        f"is not a node of the {attribute!r} vocabulary tree"
                    )
        entries = AuditEntry.for_categories(
            self.clock.tick(), op, user, categories, purpose, role, status, truth
        )
        for entry in entries:
            self.log.append(entry)
        self.stats.entries_written += len(entries)
        self.stats.requests_audited += 1
        # One ContextVar read when the request is untraced.
        obstrace.record_span(
            "repro_hdb_record_access",
            started,
            time.perf_counter() - started,
            labels={"entries": str(len(entries))},
        )
        return entries

    def record_decision(
        self,
        user: str,
        role: str,
        purpose: str,
        returned: tuple[str, ...],
        masked: tuple[str, ...],
        status: AccessStatus,
        truth: str = "",
    ) -> tuple[AuditEntry, ...]:
        """Audit one enforced decision; return its ALLOW entries.

        A request with nothing permitted writes DENY entries for
        ``masked`` at one tick.  Otherwise the ``returned`` categories get
        ALLOW entries at one tick and any ``masked`` ones DENY entries at
        the next.  :meth:`~repro.hdb.decision.CategoryDecision.audit`,
        which every front end calls, is the one caller, so the served,
        relational and tree trails agree entry for entry.
        """
        allowed = self.record_access(
            user, role, purpose, returned, AccessOp.ALLOW, status, truth
        )
        self.record_access(user, role, purpose, masked, AccessOp.DENY, status, truth)
        return allowed
