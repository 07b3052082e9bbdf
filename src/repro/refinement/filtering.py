"""Algorithm 3: ``Filter`` — isolate the practice entries.

The printed algorithm keeps every rule whose ``status`` is 0, i.e. the
exception-based accesses.  Its *Require* clause, however, says Filter
"returns the non-prohibitions", and Section 4.2 insists violations and
informal practice must be differentiated.  This implementation therefore:

- keeps allowed exception accesses (``op = 1``, ``status = 0``) — the
  paper's practice set;
- drops denied requests (``op = 0``) by default, since a prohibition the
  enforcement layer already stopped is not candidate practice
  (``include_denied=True`` restores the literal printed behaviour, which
  ignores ``op``);
- optionally routes entries through the Section 4.2 violation classifier
  first (``exclude_suspected_violations=True``), so suspected break-in
  attempts never reach the miner.

The result is a *view* of ``log``, not a copy: filtering an in-memory
:class:`~repro.audit.log.AuditLog` returns an ``AuditLog`` subset as it
always has, but filtering a disk-backed
:class:`~repro.store.durable.DurableAuditLog` (or any streamed view over
one) returns a lazy, re-iterable
:class:`~repro.audit.log.StreamedAuditView`, so the standalone Filter
path preserves the store's bounded-memory streaming guarantee instead of
materialising the whole trail.

Classification scope
--------------------
``classify_scope`` pins which log the violation classifier sees:

``"log"`` (the default, the historical semantics)
    :func:`~repro.audit.classify.classify_exceptions` runs over the *full*
    input log.  Support and distinct-user counts are computed over the
    allowed exceptions either way, but the full log additionally supplies
    the *regular echo* signal: a combination that also occurs through the
    sanctioned path is rescued as practice even when rare.

``"practice"``
    The classifier sees exactly the practice subset the miner will see.
    No regular (or denied) entries are present, so the regular-echo rescue
    never fires and rare combinations are judged on support and distinct
    users alone — a strictly more suspicious posture.

The two scopes produce different verdicts exactly when a rare exception
combination has a regular echo; ``tests/test_refinement_filter.py`` pins
the divergence.
"""

from __future__ import annotations

from repro.audit.classify import ClassifierConfig, classify_exceptions
from repro.audit.log import AuditLog

#: Valid values of :func:`filter_practice`'s ``classify_scope``.
CLASSIFY_SCOPES: tuple[str, ...] = ("log", "practice")


def filter_practice(
    log: AuditLog,
    include_denied: bool = False,
    exclude_suspected_violations: bool = False,
    classifier_config: ClassifierConfig | None = None,
    classify_scope: str = "log",
) -> AuditLog:
    """Return the practice subset of ``log`` (the paper's ``Practice[]``).

    The return value satisfies the ``AuditLog`` read protocol and shares
    the source's backing: in-memory logs yield in-memory subsets, durable
    logs yield lazy streamed views (nothing is materialised here).
    """
    if classify_scope not in CLASSIFY_SCOPES:
        raise ValueError(
            f"unknown classify_scope {classify_scope!r} "
            f"(choose from {CLASSIFY_SCOPES})"
        )
    if include_denied:
        practice = log.where(lambda entry: entry.is_exception)
    else:
        practice = log.exceptions()
    if exclude_suspected_violations:
        target = practice if classify_scope == "practice" else log
        report = classify_exceptions(target, classifier_config)
        # The classifier's verdict is a function of the entry's lifted rule
        # (support, distinct users and regular echo are rule-level), so
        # excluding by rule drops exactly the suspected entries.
        suspected_rules = {
            item.entry.to_rule()
            for item in report.classified
            if item.verdict == "violation" and item.entry.is_allowed
        }
        practice = practice.where(
            lambda entry: entry.to_rule() not in suspected_rules
        )
    practice.name = f"{log.name}.practice"
    return practice
