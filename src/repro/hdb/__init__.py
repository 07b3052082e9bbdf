"""Hippocratic-Database-style middleware (Figures 4 and 5 of the paper).

Public surface:

- :class:`~repro.hdb.control_center.HdbControlCenter` — the facade most
  applications use.
- :class:`~repro.hdb.enforcement.ActiveEnforcer` /
  :class:`TableBinding` / :class:`AccessRequest` — Active Enforcement.
- :func:`~repro.hdb.decision.decide_categories` — the one category
  decision of the served, relational and tree front ends.
- :class:`~repro.hdb.auditing.ComplianceAuditor` /
  :class:`LogicalClock` — Compliance Auditing.
- :class:`~repro.hdb.consent.ConsentStore` — patient opt-in/opt-out.
- :class:`~repro.hdb.federation.AuditFederation` — Audit Management.
"""

from repro.hdb.accounting import Disclosure, DisclosureLedger
from repro.hdb.auditing import ComplianceAuditor, LogicalClock
from repro.hdb.consent import ConsentChoice, ConsentDecision, ConsentStore
from repro.hdb.control_center import HdbControlCenter
from repro.hdb.enforcement import (
    AccessRequest,
    ActiveEnforcer,
    EnforcementResult,
    TableBinding,
)
from repro.hdb.federation import AuditFederation

__all__ = [
    "AccessRequest",
    "Disclosure",
    "DisclosureLedger",
    "ActiveEnforcer",
    "AuditFederation",
    "ComplianceAuditor",
    "ConsentChoice",
    "ConsentDecision",
    "ConsentStore",
    "EnforcementResult",
    "HdbControlCenter",
    "LogicalClock",
    "TableBinding",
]
