"""HDB Active Enforcement — policy- and consent-aware query rewriting.

This is the middleware of the paper's Figure 5: it sits between the end
user's query and the clinical database.  For every SELECT it

1. maps the selected columns to privacy-vocabulary data categories via the
   table's :class:`TableBinding`;
2. checks each category against the policy store (does any active rule
   cover ``(data, category) ^ (purpose, p) ^ (authorized, role)``?);
3. **rewrites the query AST** so that policy-denied columns return NULL
   (cell-level masking, the HDB approach) and the patient-id column rides
   along hidden for consent resolution;
4. executes the rewritten query, then applies patient consent: cells whose
   category the patient opted out of (for this purpose) become NULL, and
   rows belonging to patients with a whole-purpose opt-out are dropped;
5. hands the access to Compliance Auditing.

Break-the-glass: a request with ``exception=True`` bypasses the policy
check (and consent — emergencies override preferences) but is audited with
``status = EXCEPTION``, which is precisely the raw material the refinement
pipeline mines.  A request that the policy fully denies (no permitted
column) raises :class:`~repro.errors.AccessDeniedError` and is audited
with ``op = DENY``, unless it came in as an exception.

Known limitation, shared with the original HDB prototype: predicates in
WHERE are not masked, so a crafted WHERE can leak one bit per query about
a protected column.  The paper's threat model (honest-but-sloppy clinical
workflow, not adversarial SQL) accepts this.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import AccessDeniedError, EnforcementError
from repro.hdb.auditing import ComplianceAuditor
from repro.obs.runtime import get_registry
from repro.hdb.consent import ConsentStore
from repro.policy.store import PolicyStore
from repro.sqlmini import ast
from repro.sqlmini.database import Database
from repro.sqlmini.executor import ResultSet
from repro.sqlmini.parser import parse
from repro.sqlmini.table import Table
from repro.vocab.tree import canonical
from repro.vocab.vocabulary import Vocabulary

_LOGGER = logging.getLogger("repro.hdb.enforcement")


@dataclass(frozen=True)
class TableBinding:
    """How one clinical table maps onto the privacy vocabulary.

    ``categories`` maps column names to data-category values; columns that
    are not mapped (e.g. surrogate keys) are uncontrolled and always pass.
    ``patient_column`` names the column carrying the data subject's id.
    """

    table: str
    patient_column: str
    categories: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", self.table.strip().lower())
        object.__setattr__(self, "patient_column", self.patient_column.strip().lower())
        object.__setattr__(
            self,
            "categories",
            {key.strip().lower(): canonical(value) for key, value in self.categories.items()},
        )

    def category_of(self, column: str) -> str | None:
        """The data category bound to ``column``, or None if unbound."""
        return self.categories.get(column.strip().lower())


@dataclass(frozen=True, slots=True)
class AccessRequest:
    """One user query plus the context enforcement needs."""

    user: str
    role: str
    purpose: str
    sql: str
    exception: bool = False
    truth: str = ""  # evaluation-only ground-truth label, see AuditEntry


@dataclass(frozen=True)
class EnforcementResult:
    """What came back from an enforced query."""

    result: ResultSet
    decision: AccessOp
    status: AccessStatus
    categories_returned: tuple[str, ...]
    categories_masked: tuple[str, ...]
    cells_masked_by_consent: int
    rows_dropped_by_consent: int
    rewritten_sql: str


@dataclass
class EnforcerStats:
    """Counters for the overhead benchmark (E6)."""

    requests: int = 0
    denials: int = 0
    exceptions: int = 0
    policy_masked_columns: int = 0
    consent_masked_cells: int = 0
    consent_dropped_rows: int = 0
    permit_cache_hits: int = 0
    permit_cache_misses: int = 0
    permit_cache_invalidations: int = 0


class ActiveEnforcer:
    """The Active Enforcement middleware over one clinical database."""

    def __init__(
        self,
        database: Database,
        policy_store: PolicyStore,
        consent: ConsentStore,
        auditor: ComplianceAuditor,
        vocabulary: Vocabulary,
        ledger: "DisclosureLedger | None" = None,
    ) -> None:
        self.database = database
        self.policy_store = policy_store
        self.consent = consent
        self.auditor = auditor
        self.vocabulary = vocabulary
        #: optional accounting-of-disclosures ledger (see
        #: :mod:`repro.hdb.accounting`); when set, every category actually
        #: returned is recorded against the owning patient
        self.ledger = ledger
        self._bindings: dict[str, TableBinding] = {}
        self.stats = EnforcerStats()
        # permit decisions memoised per (category, purpose, role) as
        # (permitted, covering-rule revision), stamped with (policy-store
        # revision, vocabulary version) — the grounder's version-stamp
        # pattern, so a stale cache is impossible by construction (see
        # policy_decision)
        self._permit_cache: dict[tuple[str, str, str], tuple[bool, int | None]] = {}
        self._permit_stamp: tuple[int, int] = (-1, -1)
        # per-(table, column signature) controlled-item plans; re-binding
        # a table invalidates (see _controlled_plan)
        self._plan_cache: dict[tuple[str, tuple[str | None, ...]],
                               tuple[tuple[int, str, str], ...]] = {}
        #: registry captured at construction; enforcement decisions and
        #: per-request latency are recorded against it
        self._obs = get_registry()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def bind_table(self, binding: TableBinding) -> None:
        """Register the privacy binding for one clinical table."""
        table = self.database.table(binding.table)  # validates existence
        if binding.patient_column not in table.schema:
            raise EnforcementError(
                f"patient column {binding.patient_column!r} does not exist "
                f"in table {binding.table!r}"
            )
        for column in binding.categories:
            if column not in table.schema:
                raise EnforcementError(
                    f"bound column {column!r} does not exist in table {binding.table!r}"
                )
        if isinstance(table, Table):
            # every served query is rewritten with a patient-id equality
            # predicate, so give the optimizer a hash index to seek on
            table.create_index(binding.patient_column, kind="hash")
        self._bindings[binding.table] = binding
        self._plan_cache.clear()  # plans may embed the replaced binding

    @property
    def bindings(self) -> tuple[TableBinding, ...]:
        """Every registered table binding (the decision service rebinds
        these when it builds a copy-on-write snapshot)."""
        return tuple(self._bindings.values())

    def binding_for(self, table: str) -> TableBinding:
        """The registered binding for ``table``; raises if unbound."""
        try:
            return self._bindings[table.strip().lower()]
        except KeyError:
            raise EnforcementError(
                f"table {table!r} has no privacy binding; refusing to serve it"
            ) from None

    # ------------------------------------------------------------------
    # policy decision
    # ------------------------------------------------------------------
    def policy_permits(self, category: str, purpose: str, role: str) -> bool:
        """Does any active store rule cover this concrete access?"""
        return self.policy_decision(category, purpose, role)[0]

    def policy_decision(
        self, category: str, purpose: str, role: str
    ) -> tuple[bool, int | None]:
        """The policy verdict plus *which rule* made it.

        Returns ``(permitted, revision)`` where ``revision`` is the
        store revision of the first covering rule — the stable rule id
        decision provenance carries — or None when nothing covers the
        access (the deny reason).  Memoised per ``(category, purpose,
        role)`` and stamped with ``(policy-store revision, vocabulary
        version)``: mutating either clears the memo before the next
        lookup, so the serve hot path repays repeated decisions without
        ever reading a stale one.  A miss is one
        :meth:`~repro.policy.store.PolicyStore.covering_revision` lookup
        in the store's permit index.
        """
        stamp = (self.policy_store.revision, self.vocabulary.version)
        if stamp != self._permit_stamp:
            if self._permit_cache:
                self.stats.permit_cache_invalidations += 1
                self._permit_cache.clear()
            self._permit_stamp = stamp
        # callers pass canonical values, so probe with them as given and
        # canonicalise only when that misses
        decision = self._permit_cache.get((category, purpose, role))
        if decision is None:
            key = (canonical(category), canonical(purpose), canonical(role))
            decision = self._permit_cache.get(key)
            if decision is None:
                revision = self.policy_store.covering_revision(
                    *key, self.vocabulary
                )
                decision = (revision is not None, revision)
                self._permit_cache[key] = decision
                self.stats.permit_cache_misses += 1
                return decision
        self.stats.permit_cache_hits += 1
        return decision

    # ------------------------------------------------------------------
    # the enforcement pipeline
    # ------------------------------------------------------------------
    def execute(self, request: AccessRequest) -> EnforcementResult:
        """Enforce, run and audit one request.

        The whole decision-rewrite-execute-audit path runs inside a
        ``repro_hdb_enforcement_execute`` span; the outcome lands in
        ``repro_hdb_enforcement_decisions_total{decision,purpose,role}``.
        """
        with self._obs.span("repro_hdb_enforcement_execute"):
            return self._serve(request)

    def _count_decision(self, decision: str, purpose: str, role: str) -> None:
        self._obs.counter(
            "repro_hdb_enforcement_decisions_total",
            decision=decision,
            purpose=purpose,
            role=role,
        ).inc()

    def _serve(self, request: AccessRequest) -> EnforcementResult:
        self.stats.requests += 1
        select = self._parse_select(request.sql)
        binding = self.binding_for(select.table)
        items = self._expand_items(select, binding)

        role = canonical(request.role)
        purpose = canonical(request.purpose)
        # (position, column, category) for every controlled select item,
        # memoised per column signature
        plan = self._controlled_plan(binding, items)

        if request.exception:
            status = AccessStatus.EXCEPTION
            permitted = {category for _, _, category in plan}
            self.stats.exceptions += 1
        else:
            status = AccessStatus.REGULAR
            permitted = {
                category
                for _, _, category in plan
                if self.policy_permits(category, purpose, role)
            }

        masked = tuple(
            sorted({cat for _, _, cat in plan if cat not in permitted})
        )
        returned = tuple(sorted(permitted))
        if plan and not permitted:
            self.stats.denials += 1
            if self._obs.enabled:
                self._count_decision("deny", purpose, role)
            _LOGGER.debug(
                "deny user=%s role=%s purpose=%s categories=%s",
                request.user, role, purpose, ",".join(masked),
            )
            self.auditor.record_decision(
                request.user, role, purpose, returned, masked, status, request.truth
            )
            raise AccessDeniedError(
                f"policy permits none of the requested categories {masked} "
                f"for role {role!r} and purpose {purpose!r}"
            )

        rewritten = self._rewrite(select, items, plan, binding, permitted)
        raw = self.database.execute_statement(rewritten)
        assert isinstance(raw, ResultSet)
        category_positions = [(position, category) for position, _, category in plan]
        final, cells_masked, rows_dropped, disclosed = self._apply_consent(
            raw, category_positions, purpose, bypass=request.exception
        )
        self.stats.policy_masked_columns += len(masked)
        self.stats.consent_masked_cells += cells_masked
        self.stats.consent_dropped_rows += rows_dropped
        if self._obs.enabled:
            reg = self._obs
            self._count_decision(
                "exception" if request.exception else "allow", purpose, role
            )
            if masked:
                self._count_decision("rewrite", purpose, role)
                reg.counter("repro_hdb_enforcement_masked_columns_total").inc(
                    len(masked)
                )
            reg.counter("repro_hdb_enforcement_consent_cells_masked_total").inc(
                cells_masked
            )
            reg.counter("repro_hdb_enforcement_consent_rows_dropped_total").inc(
                rows_dropped
            )

        allow_entries = self.auditor.record_decision(
            request.user, role, purpose, returned, masked, status, request.truth
        )
        if self.ledger is not None and allow_entries:
            from repro.hdb.accounting import Disclosure

            tick = allow_entries[0].time
            for patient, categories in disclosed.items():
                for category in sorted(categories):
                    self.ledger.record(
                        Disclosure(
                            time=tick,
                            patient=patient,
                            user=request.user,
                            role=role,
                            data=category,
                            purpose=purpose,
                            status=status,
                        )
                    )
        return EnforcementResult(
            result=final,
            decision=AccessOp.ALLOW,
            status=status,
            categories_returned=returned,
            categories_masked=masked,
            cells_masked_by_consent=cells_masked,
            rows_dropped_by_consent=rows_dropped,
            rewritten_sql=str(rewritten),
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_select(sql: str) -> ast.Select:
        statement = parse(sql)
        if not isinstance(statement, ast.Select):
            raise EnforcementError("enforcement serves single-table SELECTs only")
        if statement.joins:
            raise EnforcementError("enforcement does not serve JOIN queries")
        aggregated = any(
            not isinstance(item.expr, ast.Star) and ast.contains_aggregate(item.expr)
            for item in statement.items
        )
        if statement.group_by or statement.having or aggregated:
            raise EnforcementError(
                "enforcement serves record retrieval, not aggregation"
            )
        return statement

    def _expand_items(
        self, select: ast.Select, binding: TableBinding
    ) -> tuple[ast.SelectItem, ...]:
        """Expand ``*`` against the bound table's schema."""
        table = self.database.table(binding.table)
        items: list[ast.SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                items.extend(
                    ast.SelectItem(ast.ColumnRef(column.name))
                    for column in table.schema.columns
                )
            else:
                items.append(item)
        return tuple(items)

    @staticmethod
    def _item_column(item: ast.SelectItem) -> str | None:
        """The underlying column of a select item, if it is a plain ref."""
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        columns = ast.collect_columns(item.expr)
        if columns:
            raise EnforcementError(
                "enforced queries must select plain columns, not expressions "
                f"over them (offending item: {item})"
            )
        return None

    def _controlled_plan(
        self, binding: TableBinding, items: tuple[ast.SelectItem, ...]
    ) -> tuple[tuple[int, str, str], ...]:
        """``(position, column, category)`` for each controlled item.

        Memoised per ``(table, column signature)``: the serve hot path
        replays a small set of query shapes over and over, and the
        per-item category lookups are pure functions of the binding.
        Re-binding a table clears the memo (see :meth:`bind_table`).
        """
        columns = tuple(self._item_column(item) for item in items)
        key = (binding.table, columns)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = tuple(
                (position, column, category)
                for position, column in enumerate(columns)
                if column is not None
                and (category := binding.category_of(column)) is not None
            )
            self._plan_cache[key] = plan
        return plan

    def _rewrite(
        self,
        select: ast.Select,
        items: tuple[ast.SelectItem, ...],
        plan: tuple[tuple[int, str, str], ...],
        binding: TableBinding,
        permitted: set[str],
    ) -> ast.Select:
        """Mask policy-denied columns and smuggle the patient id along."""
        category_at = {position: category for position, _, category in plan}
        new_items: list[ast.SelectItem] = []
        for position, item in enumerate(items):
            category = category_at.get(position)
            if category is not None and category not in permitted:
                new_items.append(
                    ast.SelectItem(ast.Literal(None), item.output_name(position))
                )
            else:
                new_items.append(item)
        new_items.append(
            ast.SelectItem(ast.ColumnRef(binding.patient_column), "__patient__")
        )
        return ast.Select(
            items=tuple(new_items),
            table=select.table,
            table_alias=select.table_alias,
            joins=(),
            where=select.where,
            group_by=(),
            having=None,
            order_by=select.order_by,
            limit=select.limit,
            distinct=False,
        )

    def _apply_consent(
        self,
        raw: ResultSet,
        category_positions: list[tuple[int, str]],
        purpose: str,
        bypass: bool,
    ) -> tuple[ResultSet, int, int, dict[str, set[str]]]:
        """Post-filter rows/cells per patient consent; strip the rider.

        Also returns which categories were actually *disclosed* per
        patient (non-NULL cells that survived all masking) for the
        accounting-of-disclosures ledger.
        """
        visible_columns = raw.columns[:-1]
        rows: list[tuple] = []
        cells_masked = 0
        rows_dropped = 0
        disclosed: dict[str, set[str]] = {}
        for row in raw.rows:
            patient = row[-1]
            visible = list(row[:-1])
            patient_key = str(patient) if patient is not None else None
            if bypass or patient is None:
                rows.append(tuple(visible))
                if patient_key is not None:
                    self._note_disclosures(
                        disclosed, patient_key, visible, category_positions
                    )
                continue
            dropped = False
            for position, category in category_positions:
                decision = self.consent.decide(patient_key, category, purpose)
                if decision.allowed:
                    continue
                if decision.row_level:
                    rows_dropped += 1
                    dropped = True
                    break
                if visible[position] is not None:
                    visible[position] = None
                    cells_masked += 1
            if not dropped:
                rows.append(tuple(visible))
                self._note_disclosures(
                    disclosed, patient_key, visible, category_positions
                )
        return (
            ResultSet(columns=visible_columns, rows=tuple(rows)),
            cells_masked,
            rows_dropped,
            disclosed,
        )

    @staticmethod
    def _note_disclosures(
        disclosed: dict[str, set[str]],
        patient: str,
        visible: list,
        category_positions: list[tuple[int, str]],
    ) -> None:
        for position, category in category_positions:
            if visible[position] is not None:
                disclosed.setdefault(patient, set()).add(category)
