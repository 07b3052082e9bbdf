"""The policy store ``P_PS`` — a versioned collection of permission rules.

The paper's refinement loop repeatedly *amends* the organisation's policy:
every accepted pattern becomes a new rule, and stakeholders need to know
when a rule appeared and why.  :class:`PolicyStore` therefore keeps, for
each rule, a :class:`RuleRecord` with provenance (who added it, in which
refinement round, from which mined pattern) and supports snapshotting the
current rule set as a plain :class:`~repro.policy.policy.Policy` for the
coverage and refinement algorithms.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import PolicyError
from repro.policy.policy import Policy, PolicySource
from repro.policy.rule import Rule
from repro.vocab.vocabulary import Vocabulary

#: the attributes of a permit-shaped rule, in the rule's canonical
#: (sorted) term order
_PERMIT_ATTRIBUTES = ("authorized", "data", "purpose")


@dataclass(frozen=True, slots=True)
class RuleRecord:
    """One rule plus its provenance inside a :class:`PolicyStore`."""

    rule: Rule
    revision: int
    added_by: str = "privacy-officer"
    origin: str = "manual"
    note: str = ""
    active: bool = True


@dataclass
class StoreEvent:
    """One entry of the store's change history."""

    revision: int
    action: str
    rule: Rule
    added_by: str
    note: str = ""


class PolicyStore:
    """A versioned policy store (the architecture's ``P_PS`` box).

    Rules are deduplicated: adding a rule that is already active is a
    no-op returning ``False``.  Retiring a rule deactivates it but keeps
    its record, so the history remains auditable — fitting for a privacy
    architecture whose whole point is accountability.
    """

    def __init__(self, name: str = "P_PS") -> None:
        self.name = name
        self._records: dict[Rule, RuleRecord] = {}
        self._history: list[StoreEvent] = []
        self._revision = 0
        # (data, purpose, authorized) -> (store position, revision) of the
        # permit-shaped active rules, stamped with the revision it was
        # built at (see covering_revision)
        self._permit_index: dict[tuple[str, str, str], tuple[int, int]] = {}
        self._permit_index_stamp = -1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(
        self,
        rule: Rule,
        added_by: str = "privacy-officer",
        origin: str = "manual",
        note: str = "",
    ) -> bool:
        """Add ``rule``; returns ``True`` if the store changed.

        Re-adding a retired rule reactivates it (with fresh provenance).
        """
        if not isinstance(rule, Rule):
            raise PolicyError(f"policy stores hold Rule objects, got {rule!r}")
        existing = self._records.get(rule)
        if existing is not None and existing.active:
            return False
        self._revision += 1
        self._records[rule] = RuleRecord(
            rule=rule,
            revision=self._revision,
            added_by=added_by,
            origin=origin,
            note=note,
        )
        self._history.append(
            StoreEvent(self._revision, "add", rule, added_by, note)
        )
        return True

    def add_all(
        self,
        rules: list[Rule] | tuple[Rule, ...],
        added_by: str = "privacy-officer",
        origin: str = "manual",
        note: str = "",
    ) -> int:
        """Add every rule; returns how many actually changed the store."""
        return sum(
            self.add(rule, added_by=added_by, origin=origin, note=note)
            for rule in rules
        )

    def retire(self, rule: Rule, added_by: str = "privacy-officer", note: str = "") -> bool:
        """Deactivate ``rule``; returns ``True`` if it was active."""
        record = self._records.get(rule)
        if record is None or not record.active:
            return False
        self._revision += 1
        self._records[rule] = RuleRecord(
            rule=rule,
            revision=record.revision,
            added_by=record.added_by,
            origin=record.origin,
            note=record.note,
            active=False,
        )
        self._history.append(StoreEvent(self._revision, "retire", rule, added_by, note))
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for record in self._records.values() if record.active)

    def __contains__(self, rule: Rule) -> bool:
        record = self._records.get(rule)
        return record is not None and record.active

    def __iter__(self) -> Iterator[Rule]:
        return (rule for rule, record in self._records.items() if record.active)

    @property
    def revision(self) -> int:
        """Monotonically increasing change counter."""
        return self._revision

    @property
    def history(self) -> tuple[StoreEvent, ...]:
        """The full change history, oldest first."""
        return tuple(self._history)

    def record_for(self, rule: Rule) -> RuleRecord | None:
        """Return the provenance record for ``rule`` (active or not)."""
        return self._records.get(rule)

    def records(self, include_retired: bool = False) -> tuple[RuleRecord, ...]:
        """All records, optionally including retired rules."""
        return tuple(
            record
            for record in self._records.values()
            if include_retired or record.active
        )

    def covering_revision(
        self, data: str, purpose: str, authorized: str, vocabulary: Vocabulary
    ) -> int | None:
        """The revision of the first active rule, in store order, that
        covers the access ``(data) ^ (purpose) ^ (authorized)``; None when
        no rule does.

        Only a rule of exactly one ``data``, one ``purpose`` and one
        ``authorized`` term can cover a three-term request (coverage needs
        equal cardinality and a subsuming term per request term), so
        those rules are indexed by their three values, and a lookup probes
        every combination of the request values' lineages: a few dict
        probes instead of a scan of the store.  The index is rebuilt
        after any mutation (it is stamped with :attr:`revision`).  A
        request value unknown to a strict ``vocabulary`` raises
        :class:`~repro.errors.UnknownTermError`.
        """
        if self._permit_index_stamp != self._revision:
            self._permit_index = self._build_permit_index()
            self._permit_index_stamp = self._revision
        index = self._permit_index
        purposes = vocabulary.lineage("purpose", purpose)
        roles = vocabulary.lineage("authorized", authorized)
        best: tuple[int, int] | None = None
        for category in vocabulary.lineage("data", data):
            for purpose_value in purposes:
                for role in roles:
                    hit = index.get((category, purpose_value, role))
                    if hit is not None and (best is None or hit < best):
                        best = hit
        return None if best is None else best[1]

    def _build_permit_index(self) -> dict[tuple[str, str, str], tuple[int, int]]:
        index: dict[tuple[str, str, str], tuple[int, int]] = {}
        for position, record in enumerate(self._records.values()):
            if not record.active or record.rule.attributes != _PERMIT_ATTRIBUTES:
                continue
            authorized, data, purpose = (term.value for term in record.rule.terms)
            index.setdefault((data, purpose, authorized), (position, record.revision))
        return index

    def policy(self) -> Policy:
        """Snapshot the active rules as a ``P_PS`` policy."""
        return Policy(iter(self), source=PolicySource.POLICY_STORE, name=self.name)

    def clone(self, name: str | None = None) -> "PolicyStore":
        """An independent copy carrying the same records, history and
        revision.

        Records and history events are immutable, so the copy is shallow
        and O(rules); the decision service uses this for copy-on-write
        snapshots — admin mutations build and populate a clone, then swap
        it in atomically while in-flight readers keep the old store.
        """
        twin = PolicyStore(name or self.name)
        twin._records = dict(self._records)
        twin._history = list(self._history)
        twin._revision = self._revision
        return twin

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready encoding: records, history and the revision counter.

        Rules serialise as the policy DSL (see
        :mod:`repro.policy.parser`), keeping the file human-reviewable —
        fitting for an artifact a privacy officer signs off on.
        """
        from repro.policy.parser import format_rule

        return {
            "name": self.name,
            "revision": self._revision,
            "records": [
                {
                    "rule": format_rule(record.rule),
                    "revision": record.revision,
                    "added_by": record.added_by,
                    "origin": record.origin,
                    "note": record.note,
                    "active": record.active,
                }
                for record in self._records.values()
            ],
            "history": [
                {
                    "revision": event.revision,
                    "action": event.action,
                    "rule": format_rule(event.rule),
                    "added_by": event.added_by,
                    "note": event.note,
                }
                for event in self._history
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PolicyStore":
        """Rebuild a store (records, history, revision) from
        :meth:`to_dict` output."""
        from repro.policy.parser import parse_rule

        try:
            store = cls(payload["name"])
            for item in payload["records"]:
                rule = parse_rule(item["rule"])
                store._records[rule] = RuleRecord(
                    rule=rule,
                    revision=int(item["revision"]),
                    added_by=item["added_by"],
                    origin=item["origin"],
                    note=item["note"],
                    active=bool(item["active"]),
                )
            for item in payload["history"]:
                store._history.append(
                    StoreEvent(
                        revision=int(item["revision"]),
                        action=item["action"],
                        rule=parse_rule(item["rule"]),
                        added_by=item["added_by"],
                        note=item.get("note", ""),
                    )
                )
            store._revision = int(payload["revision"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PolicyError(f"malformed policy store payload: {exc}") from exc
        return store

    def __repr__(self) -> str:
        return f"PolicyStore(name={self.name!r}, active={len(self)}, revision={self._revision})"
