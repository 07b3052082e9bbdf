"""Exception hierarchy for the PRIMA reproduction.

Every exception raised by this library derives from :class:`PrimaError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the package layout: vocabulary errors, policy-model errors, the SQL
substrate's errors, and so on.
"""

from __future__ import annotations


class PrimaError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class VocabularyError(PrimaError):
    """A privacy policy vocabulary is malformed or misused."""


class UnknownTermError(VocabularyError):
    """A value was looked up in a vocabulary tree that does not define it."""

    def __init__(self, attribute: str, value: str) -> None:
        self.attribute = attribute
        self.value = value
        super().__init__(
            f"value {value!r} is not defined in the vocabulary tree "
            f"for attribute {attribute!r}"
        )


class DuplicateTermError(VocabularyError):
    """A value was added twice to the same vocabulary tree."""


class PolicyError(PrimaError):
    """A policy, rule, or rule term is malformed or misused."""


class PolicyParseError(PolicyError):
    """The policy text DSL could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CoverageError(PrimaError):
    """Coverage could not be computed (e.g. empty reference range)."""


class AuditError(PrimaError):
    """An audit entry or audit log is malformed or misused."""


class StoreError(PrimaError):
    """The durable audit store is corrupt, misused, or misconfigured."""


class EnforcementError(PrimaError):
    """Active Enforcement rejected or could not rewrite a query."""


class AccessDeniedError(EnforcementError):
    """A request was denied outright; ``decision`` is the
    :class:`~repro.hdb.decision.CategoryDecision` that denied it."""

    def __init__(self, reason: str, decision=None) -> None:
        self.reason = reason
        self.decision = decision
        super().__init__(f"access denied: {reason}")


class ConsentError(PrimaError):
    """Patient consent data is malformed or misused."""


class RefinementError(PrimaError):
    """The refinement pipeline was misconfigured or failed."""


class MiningError(PrimaError):
    """A pattern-mining back-end was misconfigured or failed."""


class WorkloadError(PrimaError):
    """The synthetic workload generator was misconfigured."""


class FederationError(PrimaError):
    """The audit federation layer was misconfigured or failed."""


class ObservabilityError(PrimaError):
    """The telemetry layer (metrics, spans, snapshots) was misused."""


class ServeError(PrimaError):
    """The policy decision service (server, client or protocol) failed."""


class DaemonError(PrimaError):
    """The online refinement daemon's state or wiring is invalid."""


class FleetError(PrimaError):
    """The multi-process serving fleet (supervisor/workers) failed."""


class CorpusError(PrimaError):
    """The HIPAA-scale policy corpus generator was misconfigured, or a
    corpus bundle on disk is malformed or corrupt."""


class ExplainError(PrimaError):
    """The explanation-based auditing layer was misconfigured or fed
    inconsistent inputs (trail, relations, or template weights)."""
