"""Audit entries — one row of the Section 4.2 schema."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.audit.schema import (
    AUDIT_ATTRIBUTES,
    RULE_ATTRIBUTES,
    STRING_ATTRIBUTES,
    AccessOp,
    AccessStatus,
)
from repro.errors import AuditError
from repro.policy.rule import Rule
from repro.vocab.tree import canonical


def canonical_field(attribute: str, value: object) -> str:
    """Validate one of an entry's string attributes and return its
    canonical form: a non-empty string after ``strip()``, then
    :func:`~repro.vocab.tree.canonical`.  Raises
    :class:`~repro.errors.AuditError` otherwise."""
    if not isinstance(value, str) or not value.strip():
        raise AuditError(f"audit {attribute} must be a non-empty string")
    return canonical(value)


#: One past the largest audit time: the store codec packs times as ``<Q``.
TIME_LIMIT: int = 2**64


def _check_time(time: object) -> None:
    """Raise :class:`~repro.errors.AuditError` unless ``time`` is an
    ``int`` other than a ``bool`` in ``[0, TIME_LIMIT)``."""
    if not isinstance(time, int) or isinstance(time, bool):
        raise AuditError(f"audit time must be an integer, got {time!r}")
    if time < 0:
        raise AuditError(f"audit time must be non-negative, got {time}")
    if time >= TIME_LIMIT:
        raise AuditError(f"audit time must be below 2**64, got {time}")


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One audited access.

    ``time`` is a monotonically meaningful integer tick (the paper's
    ``t_j``); real deployments would use wall-clock timestamps, but the
    algorithms only ever order and window on it.

    ``truth`` is **not** part of the paper's schema: the synthetic workload
    generator stamps each exception entry with its ground truth
    (``"practice"`` or ``"violation"``) so experiment E9 can score the
    classifier.  It is excluded from rows, serialisation and rule lifting.
    """

    time: int
    op: AccessOp
    user: str
    data: str
    purpose: str
    authorized: str
    status: AccessStatus
    truth: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_time(self.time)
        object.__setattr__(self, "op", AccessOp(self.op))
        object.__setattr__(self, "status", AccessStatus(self.status))
        for attribute in STRING_ATTRIBUTES:
            object.__setattr__(
                self, attribute, canonical_field(attribute, getattr(self, attribute))
            )

    @classmethod
    def _from_checked(cls, time: int, fields: tuple) -> "AuditEntry":
        """Build an entry whose fields already hold what ``__post_init__``
        would store, without running it again.

        ``fields`` is ``(op, user, data, purpose, authorized, status,
        truth)``, the entry's fields after ``time`` in the record payload's
        order.  The caller vouches for the invariant: ``time`` is an
        int in ``[0, TIME_LIMIT)``, ``op``/``status`` are enum members, and
        the four attributes came out of :func:`canonical_field`.  Two
        callers do: the store codec, for records the store wrote and
        CRC-checked, and :meth:`for_categories`, after checking each field
        once.  The fields are set through the slot descriptors, which bypass the
        frozen ``__setattr__`` without the ``object.__setattr__`` lookup.
        """
        entry = _new(cls)
        op, user, data, purpose, authorized, status, truth = fields
        _set_time(entry, time)
        _set_op(entry, op)
        _set_user(entry, user)
        _set_data(entry, data)
        _set_purpose(entry, purpose)
        _set_authorized(entry, authorized)
        _set_status(entry, status)
        _set_truth(entry, truth)
        return entry

    @classmethod
    def for_categories(
        cls,
        time: int,
        op: AccessOp,
        user: str,
        categories: tuple[str, ...],
        purpose: str,
        authorized: str,
        status: AccessStatus,
        truth: str = "",
    ) -> tuple["AuditEntry", ...]:
        """One entry per category of one request, each field checked once.

        Returns exactly ``tuple(AuditEntry(time, op, user, c, purpose,
        authorized, status, truth) for c in categories)`` and raises what
        that raises: the checks run in ``__post_init__``'s order, with the
        first category checked before the purpose.
        """
        if not categories:
            return ()
        _check_time(time)
        op = AccessOp(op)
        status = AccessStatus(status)
        user = canonical_field("user", user)
        data = [canonical_field("data", categories[0])]
        purpose = canonical_field("purpose", purpose)
        authorized = canonical_field("authorized", authorized)
        data += [canonical_field("data", category) for category in categories[1:]]
        return tuple(
            cls._from_checked(
                time, (op, user, category, purpose, authorized, status, truth)
            )
            for category in data
        )

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_exception(self) -> bool:
        """True for break-the-glass accesses (``status == 0``)."""
        return self.status is AccessStatus.EXCEPTION

    @property
    def is_allowed(self) -> bool:
        return self.op is AccessOp.ALLOW

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_rule(self, attributes: tuple[str, ...] = RULE_ATTRIBUTES) -> Rule:
        """Lift this entry into a ground policy rule over ``attributes``.

        Section 3's ``P_AL`` treats each entry as a rule over the
        ``(data, purpose, authorized)`` subset by default.
        """
        pairs = []
        for attribute in attributes:
            if attribute not in AUDIT_ATTRIBUTES:
                raise AuditError(f"unknown audit attribute {attribute!r}")
            pairs.append((attribute, str(getattr(self, attribute))))
        return Rule.from_pairs(pairs)

    def as_row(self) -> tuple:
        """Render as a sqlmini row matching :func:`audit_table_schema`."""
        return (
            self.time,
            int(self.op),
            self.user,
            self.data,
            self.purpose,
            self.authorized,
            int(self.status),
        )

    @classmethod
    def from_row(cls, row: tuple) -> "AuditEntry":
        """Rebuild from a sqlmini row (truth is not stored in rows)."""
        if len(row) != len(AUDIT_ATTRIBUTES):
            raise AuditError(
                f"audit rows have {len(AUDIT_ATTRIBUTES)} values, got {len(row)}"
            )
        time, op, user, data, purpose, authorized, status = row
        return cls(
            time=time,
            op=AccessOp(op),
            user=user,
            data=data,
            purpose=purpose,
            authorized=authorized,
            status=AccessStatus(status),
        )

    def to_dict(self) -> dict:
        """JSON-ready mapping (schema attributes only)."""
        payload = {attr: getattr(self, attr) for attr in AUDIT_ATTRIBUTES}
        payload["op"] = int(self.op)
        payload["status"] = int(self.status)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditEntry":
        try:
            return cls(
                time=int(payload["time"]),
                op=AccessOp(int(payload["op"])),
                user=payload["user"],
                data=payload["data"],
                purpose=payload["purpose"],
                authorized=payload["authorized"],
                status=AccessStatus(int(payload["status"])),
                truth=str(payload.get("truth", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AuditError(f"malformed audit entry payload: {exc}") from exc

    def with_truth(self, truth: str) -> "AuditEntry":
        """Copy of this entry with the evaluation-only truth label set."""
        return replace(self, truth=truth)


#: What ``AuditEntry._from_checked`` builds with: a bare instance and
#: one slot-descriptor setter per field.
_new = object.__new__
(
    _set_time, _set_op, _set_user, _set_data,
    _set_purpose, _set_authorized, _set_status, _set_truth,
) = (
    AuditEntry.__dict__[name].__set__
    for name in ("time", "op", "user", "data", "purpose", "authorized", "status", "truth")
)
