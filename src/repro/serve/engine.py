"""The decision engine: versioned snapshots over Active Enforcement.

The server owns exactly one :class:`PdpEngine`.  The engine owns a
:class:`SnapshotManager` whose *current* :class:`EngineSnapshot` bundles
one :class:`~repro.hdb.enforcement.ActiveEnforcer` with the policy store
and consent store it reads.  Snapshots are **copy-on-write**: an admin
mutation clones both stores, applies the change, builds a fresh enforcer
over the same database/auditor, and swaps the bundle in with a single
reference assignment — in-flight decisions keep the snapshot they
resolved at admission, so a hot reload can never produce a half-updated
decision.  Every response is stamped with the snapshot's versions
``{snapshot, policy, consent, vocab}`` (``vocab`` being the interner's
vocabulary version from PR 1).

Two decision shapes:

``decide``
    The pure PDP path — ``(user, role, purpose, data categories)`` in,
    permitted/masked categories out, decided and audited in
    :mod:`repro.hdb.decision` like every in-process decision, behind the
    interned :class:`~repro.serve.cache.DecisionCache` (auditing runs on
    every request, cache hits included).
``query``
    Full Active Enforcement — the SQL is rewritten, executed, and
    consent-masked by the snapshot's enforcer, byte-identical to calling
    :meth:`ActiveEnforcer.execute` in process (E18 asserts this).

Auditing is write-through: hand :func:`build_demo_engine` a
:class:`~repro.store.durable.DurableAuditLog` and every served decision
lands in the crash-safe segmented store, ready for
``repro refine --store-dir`` against the live service.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.audit.schema import AccessStatus
from repro.errors import AccessDeniedError, EnforcementError, PrimaError
from repro.hdb.consent import ConsentStore
from repro.hdb.decision import CategoryDecision, decide_categories
from repro.hdb.enforcement import AccessRequest, ActiveEnforcer
from repro.obs import trace as obstrace
from repro.obs.provenance import DecisionProvenance, ProvenanceLedger
from repro.obs.runtime import get_registry
from repro.policy.parser import parse_rule
from repro.policy.store import PolicyStore
from repro.serve import protocol
from repro.serve.cache import DecisionCache
from repro.serve.protocol import ServeRequest
from repro.sqlmini.errors import SqlError
from repro.vocab.tree import canonical
from repro.vocab.vocabulary import Vocabulary


@dataclass(frozen=True)
class EngineSnapshot:
    """One immutable generation of the service's decision state."""

    snapshot_id: int
    enforcer: ActiveEnforcer
    policy_store: PolicyStore
    consent: ConsentStore
    vocabulary: Vocabulary

    def versions(self) -> dict:
        """The version stamp carried by every response."""
        return {
            "snapshot": self.snapshot_id,
            "policy": self.policy_store.revision,
            "consent": self.consent.version,
            "vocab": self.vocabulary.version,
        }


class SnapshotManager:
    """Copy-on-write swaps of the engine's decision state."""

    def __init__(self, enforcer: ActiveEnforcer) -> None:
        self._obs = get_registry()
        # Serialises writers: admin ops arrive on the server's event loop,
        # but an embedded refinement daemon mutates from its own thread.
        # Readers stay lock-free — they grab ``current`` once per request.
        self._mutate_lock = threading.Lock()
        self._snapshot_id = 1
        self._current = EngineSnapshot(
            snapshot_id=1,
            enforcer=enforcer,
            policy_store=enforcer.policy_store,
            consent=enforcer.consent,
            vocabulary=enforcer.vocabulary,
        )

    @property
    def current(self) -> EngineSnapshot:
        """The live snapshot (grab once per request)."""
        return self._current

    @property
    def auditor(self):
        """The compliance auditor — shared across snapshots so the
        logical clock and trail are continuous over reloads."""
        return self._current.enforcer.auditor

    def mutate(self, fn) -> tuple[EngineSnapshot, object]:
        """Apply ``fn(policy_store, consent)`` on clones; swap; return.

        ``fn`` runs against private clones, so concurrent readers of the
        old snapshot are never exposed to a partial update; the swap is
        one reference assignment.  Concurrent writers (admin ops on the
        event loop, an embedded refinement daemon on its own thread) are
        serialised under a lock so no mutation is lost to a racing clone.
        Returns ``(new snapshot, fn result)``.
        """
        with self._mutate_lock:
            base = self._current
            store = base.policy_store.clone()
            consent = base.consent.clone()
            changed = fn(store, consent)
            enforcer = ActiveEnforcer(
                database=base.enforcer.database,
                policy_store=store,
                consent=consent,
                auditor=base.enforcer.auditor,
                vocabulary=base.vocabulary,
                ledger=base.enforcer.ledger,
            )
            for binding in base.enforcer.bindings:
                enforcer.bind_table(binding)
            self._snapshot_id += 1
            snapshot = EngineSnapshot(
                snapshot_id=self._snapshot_id,
                enforcer=enforcer,
                policy_store=store,
                consent=consent,
                vocabulary=base.vocabulary,
            )
            self._current = snapshot  # the atomic swap
        if self._obs.enabled:
            self._obs.counter("repro_serve_snapshot_swaps_total").inc()
            self._obs.gauge("repro_serve_snapshot_version").set(snapshot.snapshot_id)
        return snapshot, changed


class PdpEngine:
    """Decision + admin surface the server exposes over the wire."""

    def __init__(
        self,
        manager: SnapshotManager,
        cache: DecisionCache | None = None,
        provenance: ProvenanceLedger | None = None,
    ) -> None:
        self.manager = manager
        self.cache = cache
        #: decision provenance side-records (7-attribute audit schema
        #: stays untouched); only populated for traced requests
        self.provenance = provenance if provenance is not None else ProvenanceLedger()
        self._obs = get_registry()
        self.decisions_served = 0
        self.queries_served = 0

    # ------------------------------------------------------------------
    # read surface
    # ------------------------------------------------------------------
    @property
    def audit_log(self):
        """The write-through audit trail (in-memory or durable)."""
        return self.manager.auditor.log

    def versions(self) -> dict:
        """The current snapshot's version stamp."""
        return self.manager.current.versions()

    def stats(self) -> dict:
        """JSON-ready engine statistics for the ``stats`` op."""
        snapshot = self.manager.current
        return {
            "versions": snapshot.versions(),
            "decisions_served": self.decisions_served,
            "queries_served": self.queries_served,
            "audit_entries": len(self.audit_log),
            "active_rules": len(snapshot.policy_store),
            "decision_cache": self.cache.stats() if self.cache else None,
            "permit_cache": snapshot.enforcer.permit_memo.stats(),
        }

    # ------------------------------------------------------------------
    # the decision paths
    # ------------------------------------------------------------------
    def decide(self, request: ServeRequest) -> dict:
        """The category-level PDP decision, audited write-through: a
        fully denied request answers ``DENIED``."""
        snapshot = self.manager.current
        trace_id = obstrace.recording_trace_id()
        started = time.perf_counter()
        entries_before = len(self.audit_log) if trace_id else 0
        cache, cache_state = self.cache, "bypass"

        # the verdict via the decision cache; a miss asks the snapshot
        # enforcer's policy_permits.  cache_state is provenance's ``cache``
        def permitted(categories, purpose, role):
            nonlocal cache_state
            if cache is not None:
                key = cache.key(
                    snapshot.policy_store.revision, snapshot.consent.version,
                    role, purpose, categories,
                )
                allowed = cache.get(key)
                if allowed is not None:
                    cache_state = "hit"
                    return allowed
            permits = snapshot.enforcer.policy_permits
            allowed = frozenset(c for c in categories if permits(c, purpose, role))
            if cache is None:
                cache_state = "off"
            else:
                cache.put(key, allowed)
                cache_state = "miss"
            return allowed

        decision = decide_categories(
            permitted, request.role, request.purpose, request.categories,
            request.exception,
        )
        role, purpose, _, returned, masked, deny = decision
        self.decisions_served += 1
        versions = snapshot.versions()
        decision.audit(self.manager.auditor, request.user, request.truth)
        if deny:
            response = protocol.error_response(
                code=protocol.DENIED,
                error=f"policy permits none of {list(masked)} for role "
                      f"{role!r} and purpose {purpose!r}",
                decision="deny", returned=[], masked=list(masked),
                versions=versions,
            )
        else:
            response = protocol.ok_response(
                decision="allow",
                status="exception" if request.exception else "regular",
                returned=list(returned), masked=list(masked),
                versions=versions,
            )
        if trace_id is not None:
            self._record_provenance(
                trace_id, request, snapshot, decision, response, cache_state,
                entries_before, started, versions,
            )
        return response

    def _record_provenance(
        self,
        trace_id: str,
        request: ServeRequest,
        snapshot: EngineSnapshot,
        decision: CategoryDecision,
        response: dict,
        cache_state: str,
        entries_before: int,
        started: float,
        versions: dict,
    ) -> None:
        """Record the why-record for one traced decision (side channel).

        Never touches ``response`` — provenance must not perturb the E20
        byte-identity of the wire protocol.  A regular decision records
        each category's covering rule revision (the enforcer memoises the
        lookup, so this is cheap after the first traced request per key);
        a break-the-glass one records none.
        """
        role, purpose, status = decision.role, decision.purpose, decision.status
        categories = tuple(sorted(decision.returned + decision.masked))
        lookup = snapshot.enforcer.policy_decision
        matched = {
            category: lookup(category, purpose, role)[1] for category in categories
        } if status is AccessStatus.REGULAR else {}
        entry_ids = tuple(range(entries_before, len(self.audit_log)))
        builder = obstrace.current()
        annotations = builder.annotations if builder is not None else {}
        self.provenance.record(DecisionProvenance(
            trace_id=trace_id, op=request.op, user=request.user,
            role=role, purpose=purpose, decision=response["code"],
            status=status.name.lower(), categories=categories,
            matched_rules=matched, versions=versions, cache=cache_state,
            queue_ms=annotations.get("queue_ms"),
            handle_ms=round((time.perf_counter() - started) * 1000.0, 4),
            entry_ids=entry_ids,
            deadline_remaining_ms=annotations.get("deadline_remaining_ms"),
        ))
        if entry_ids:
            obstrace.annotate(entry_ids=list(entry_ids))

    def query(self, request: ServeRequest) -> dict:
        """Full Active Enforcement over one SQL request."""
        snapshot = self.manager.current
        trace_id = obstrace.recording_trace_id()
        started = time.perf_counter()
        entries_before = len(self.audit_log) if trace_id else 0
        access = AccessRequest(
            user=request.user, role=request.role, purpose=request.purpose,
            sql=request.sql, exception=request.exception, truth=request.truth,
        )
        self.queries_served += 1
        versions = snapshot.versions()
        try:
            result = snapshot.enforcer.execute(access)
        except AccessDeniedError as exc:
            response = protocol.error_response(
                code=protocol.DENIED, error=exc.reason, decision="deny",
                versions=versions,
            )
            if trace_id is not None:
                self._record_provenance(
                    trace_id, request, snapshot, exc.decision, response, "off",
                    entries_before, started, versions,
                )
            return response
        except (EnforcementError, SqlError) as exc:
            # raised before the decision was audited (parsing, or while
            # executing): the query never entered the trail, exactly like
            # a malformed frame
            return protocol.error_response(
                code=protocol.BAD_REQUEST, error=str(exc), versions=versions
            )
        response = protocol.ok_response(
            decision="allow",
            status=result.status.name.lower(),
            returned=list(result.categories_returned),
            masked=list(result.categories_masked),
            cells_masked=result.cells_masked_by_consent,
            rows_dropped=result.rows_dropped_by_consent,
            columns=list(result.result.columns),
            rows=[list(row) for row in result.result.rows],
            versions=versions,
        )
        if trace_id is not None:
            decision = CategoryDecision(
                canonical(request.role), canonical(request.purpose),
                result.status, result.categories_returned,
                result.categories_masked, False,
            )
            self._record_provenance(
                trace_id, request, snapshot, decision, response, "off",
                entries_before, started, versions,
            )
        return response

    # ------------------------------------------------------------------
    # admin surface (each call = one copy-on-write snapshot swap)
    # ------------------------------------------------------------------
    def admin(self, request: ServeRequest) -> dict:
        """Apply one admin op; answers with the new version stamp."""
        try:
            if request.op == "admin.add_rule":
                rule = parse_rule(request.rule)
                snapshot, changed = self.manager.mutate(
                    lambda store, consent: store.add(
                        rule, added_by="serve-admin", origin="serve",
                        note=request.note,
                    )
                )
            elif request.op == "admin.retire_rule":
                rule = parse_rule(request.rule)
                snapshot, changed = self.manager.mutate(
                    lambda store, consent: store.retire(
                        rule, added_by="serve-admin", note=request.note
                    )
                )
            else:  # admin.consent
                snapshot, changed = self.manager.mutate(
                    lambda store, consent: consent.record(
                        request.patient, request.purpose, request.allowed,
                        data=request.data,
                    )
                )
                changed = True
        except PrimaError as exc:
            return protocol.error_response(code=protocol.BAD_REQUEST, error=str(exc))
        if self.cache is not None:
            self.cache.invalidate()
        return protocol.ok_response(
            changed=bool(changed), versions=snapshot.versions()
        )

    def adopt_rules(
        self,
        rules,
        added_by: str = "refine-daemon",
        note: str = "",
    ) -> tuple[EngineSnapshot, int]:
        """Adopt a batch of mined rules in ONE snapshot swap.

        The in-process admin path for the refinement daemon: all rules of
        a mining round land atomically (readers see none or all), and the
        decision cache is invalidated iff anything changed.  Idempotent —
        re-adopting present rules is a no-op that swaps nothing.
        """
        batch = tuple(rules)
        current = self.manager.current.policy_store
        if all(rule in current for rule in batch):
            return self.manager.current, 0
        snapshot, added = self.manager.mutate(
            lambda store, consent: store.add_all(
                batch, added_by=added_by, origin="refinement", note=note
            )
        )
        if self.cache is not None and added:
            self.cache.invalidate()
        return snapshot, int(added)


def build_demo_engine(
    rows: int = 200,
    seed: int = 7,
    rules=None,
    audit_log=None,
    cache: bool = True,
    cache_size: int = 4096,
) -> PdpEngine:
    """The standard served deployment: the E6 clinical database.

    Built from :func:`repro.experiments.harness.clinical_db_setup` with
    the same ``rows``/``seed``, so an in-process control center built the
    same way is *the same system* — the E18 identity assertion depends on
    this.  ``audit_log`` accepts a durable log for write-through
    persistence; ``rules`` replaces the demo policy.
    """
    from repro.experiments.harness import clinical_db_setup

    setup = clinical_db_setup(
        rows=rows, seed=seed, audit_log=audit_log, rules=rules
    )
    manager = SnapshotManager(setup.control_center.enforcer)
    if audit_log is not None and len(audit_log) > 0:
        # restarting over an existing durable trail (server restart, or a
        # fleet worker respawn into its old segment directory): the fresh
        # logical clock would start below the trail's last tick and the
        # store's non-decreasing-time invariant would reject the first
        # append.  Jump the clock past what is already durable.
        time_range = getattr(audit_log, "time_range", None)
        if callable(time_range):
            manager.auditor.clock.advance_to(time_range()[1] + 1)
    return PdpEngine(manager, DecisionCache(cache_size) if cache else None)
