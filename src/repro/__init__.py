"""repro — PRIMA, a PRIvacy Management Architecture for healthcare.

A full reproduction of Bhatti & Grandison, *"Towards Improved Privacy
Policy Coverage in Healthcare Using Policy Refinement"* (2007): the formal
policy-coverage model (Section 3), the Hippocratic-Database-style
enforcement and auditing middleware on an in-memory relational substrate
(Section 4), the refinement pipeline of Algorithms 1–6 (Section 4.3), the
Apriori future-work extension (Section 5), and a synthetic clinical
workload generator standing in for real hospital audit trails.

Quickstart::

    from repro import (
        healthcare_vocabulary, PolicyStore, Rule, refine, compute_coverage,
    )
    from repro.workload import table1_audit_log, figure3_policy_store

    vocabulary = healthcare_vocabulary()
    store = figure3_policy_store()
    log = table1_audit_log()
    result = refine(store.policy(), log, vocabulary)
    print(result.summary())   # finds referral:registration:nurse

Subpackages: :mod:`repro.vocab`, :mod:`repro.policy`,
:mod:`repro.coverage`, :mod:`repro.sqlmini`, :mod:`repro.hdb`,
:mod:`repro.audit`, :mod:`repro.mining`, :mod:`repro.refinement`,
:mod:`repro.workload`, :mod:`repro.experiments`, :mod:`repro.store`.
"""

import importlib

__version__ = "1.0.0"

#: Each public name's home subpackage.  PEP 562 ``__getattr__`` imports
#: a subpackage the first time one of its names is read, so importing
#: any ``repro`` module loads only what that module needs.
_HOMES: dict[str, tuple[str, ...]] = {
    "repro.audit": ("AccessOp", "AccessStatus", "AuditEntry", "AuditLog", "make_entry"),
    "repro.coverage": (
        "analyse_gaps",
        "completely_covers",
        "compute_coverage",
        "compute_entry_coverage",
    ),
    "repro.errors": ("PrimaError",),
    "repro.hdb": (
        "AccessRequest",
        "ActiveEnforcer",
        "AuditFederation",
        "ComplianceAuditor",
        "ConsentStore",
        "HdbControlCenter",
        "LogicalClock",
        "TableBinding",
    ),
    "repro.mining": (
        "AprioriPatternMiner",
        "MiningConfig",
        "Pattern",
        "SqlPatternMiner",
        "derive_rules",
    ),
    "repro.policy": (
        "Policy",
        "PolicySource",
        "PolicyStore",
        "Range",
        "Rule",
        "RuleTerm",
        "parse_policy",
        "parse_rule",
        "policy_range",
    ),
    "repro.refinement": (
        "AcceptAll",
        "RefinementConfig",
        "RefinementLoop",
        "ReviewQueue",
        "ThresholdReview",
        "refine",
    ),
    "repro.sqlmini": ("Database",),
    "repro.store": ("AuditStore", "DurableAuditLog", "StoreConfig", "copy_to_durable"),
    "repro.vocab": ("Vocabulary", "VocabularyTree", "healthcare_vocabulary"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME_OF, "__version__"])


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
