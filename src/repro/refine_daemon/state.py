"""Durable, resumable state of the online refinement daemon.

One JSON file — ``REFINE_DAEMON.json``, living *next to the store's
manifest* — holds everything a restarted daemon needs to resume instead
of restart:

- the **watermark**: how many entries from the front of the sealed
  region have been consumed.  An entry *count*, not a segment name,
  because compaction renames and merges sealed segments while preserving
  entry order and content — "the first W entries" survives compaction,
  a name list does not.  The consumed segment names are kept purely as
  an advisory trace for humans.
- the **cumulative mining aggregate**: the state is a
  :class:`~repro.parallel.refine.TrailAggregate` over the whole consumed
  trail — the distinct lifted rules in first-occurrence order with
  entry counts (``rules``), the SQL miner's practice groups (``groups``:
  lifted practice rule → support + distinct-user set) and the bounded
  exception evidence (``evidence``) — so a mining round is its
  ``finish`` and never rescans consumed segments.
- the **review ledger**: pending / accepted / (human-)rejected
  candidates, serialised as policy DSL so the file stays reviewable.

Writes go through :func:`repro.store.manifest.atomic_write_bytes`
(write-temp → fsync → rename → dir fsync): a crash mid-save leaves the
previous state intact plus at worst a stray ``.tmp`` file the loader
never reads.  A *corrupt* main file raises :class:`DaemonError` with the
path in the message — fail loudly, never resume from garbage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DaemonError
# EVIDENCE_LIMIT is re-exported: the ledger's evidence is bounded by it
from repro.parallel.refine import EVIDENCE_LIMIT, TrailAggregate  # noqa: F401
from repro.store.manifest import atomic_write_bytes

#: File name of the daemon state inside a store directory.
STATE_NAME: str = "REFINE_DAEMON.json"

#: State schema version.
STATE_FORMAT: int = 1


@dataclass
class Candidate:
    """One mined rule in the review ledger (DSL-serialised)."""

    rule: str
    support: int
    distinct_users: int
    round_index: int
    decided_by: str = ""
    note: str = ""
    #: global audit-entry indices of (some of) the exception accesses
    #: that mined this rule — decision provenance, bounded by
    #: :data:`EVIDENCE_LIMIT`
    evidence_entries: list[int] = field(default_factory=list)
    #: trace ids of those accesses, where the provenance ledger could
    #: resolve them (best-effort: only traced, retained decisions map)
    evidence_traces: list[str] = field(default_factory=list)
    #: trace id of the daemon poll that mined/accepted this candidate
    trace_id: str = ""
    #: aggregate explanation strength in (0, 1), stamped only when the
    #: daemon's gate scores candidates (an ExplanationGate); ``None``
    #: under plain gates, and then omitted from the state file so
    #: pre-explanation byte-identity is preserved
    strength: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready mapping (``strength`` present only when scored)."""
        payload = {
            "rule": self.rule,
            "support": self.support,
            "distinct_users": self.distinct_users,
            "round_index": self.round_index,
            "decided_by": self.decided_by,
            "note": self.note,
            "evidence_entries": list(self.evidence_entries),
            "evidence_traces": list(self.evidence_traces),
            "trace_id": self.trace_id,
        }
        if self.strength is not None:
            payload["strength"] = self.strength
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Candidate":
        """Rebuild from a state-file mapping (provenance fields are
        additive — pre-tracing state files load with empty evidence)."""
        return cls(
            rule=str(payload["rule"]),
            support=int(payload["support"]),
            distinct_users=int(payload["distinct_users"]),
            round_index=int(payload["round_index"]),
            decided_by=str(payload.get("decided_by", "")),
            note=str(payload.get("note", "")),
            evidence_entries=[int(e) for e in payload.get("evidence_entries", [])],
            evidence_traces=[str(t) for t in payload.get("evidence_traces", [])],
            trace_id=str(payload.get("trace_id", "")),
            strength=(
                float(payload["strength"]) if "strength" in payload else None
            ),
        )


@dataclass
class DaemonState(TrailAggregate):
    """The daemon's whole resumable state (see module docstring): the
    consumed trail's aggregate, the watermark and the review ledger."""

    watermark: int = 0
    segments_consumed: list[str] = field(default_factory=list)
    polls: int = 0
    rounds: int = 0
    last_mined_poll: int = 0
    last_mined_watermark: int = 0
    last_set_coverage: float | None = None
    last_entry_coverage: float | None = None
    pending: list[Candidate] = field(default_factory=list)
    accepted: list[Candidate] = field(default_factory=list)
    rejected: list[Candidate] = field(default_factory=list)

    # ------------------------------------------------------------------
    # ledger queries
    # ------------------------------------------------------------------
    def decided_rules(self) -> set[str]:
        """DSL strings already in the ledger (any state) — a mined
        pattern matching one is not re-gated."""
        ledger = self.pending + self.accepted + self.rejected
        return {candidate.rule for candidate in ledger}

    def find_pending(self, rule: str) -> Candidate | None:
        """The pending candidate for ``rule`` (DSL), if any."""
        for candidate in self.pending:
            if candidate.rule == rule:
                return candidate
        return None

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping (user sets become sorted lists)."""
        return {
            "format": STATE_FORMAT,
            "watermark": self.watermark,
            "segments_consumed": list(self.segments_consumed),
            "polls": self.polls,
            "rounds": self.rounds,
            "last_mined_poll": self.last_mined_poll,
            "last_mined_watermark": self.last_mined_watermark,
            "last_set_coverage": self.last_set_coverage,
            "last_entry_coverage": self.last_entry_coverage,
            "groups": [
                [list(values), count, sorted(users)]
                for values, (count, users) in self.groups.items()
            ],
            "evidence": [
                [list(values), list(entry_ids)]
                for values, entry_ids in self.evidence.items()
            ],
            "rules": [
                [list(values), count] for values, count in self.rules.items()
            ],
            "pending": [candidate.to_dict() for candidate in self.pending],
            "accepted": [candidate.to_dict() for candidate in self.accepted],
            "rejected": [candidate.to_dict() for candidate in self.rejected],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DaemonState":
        """Rebuild the state; raises :class:`DaemonError` on bad shape."""
        try:
            if payload["format"] != STATE_FORMAT:
                raise DaemonError(
                    f"unsupported daemon state format {payload['format']!r} "
                    f"(this build reads format {STATE_FORMAT})"
                )
            state = cls(
                watermark=int(payload["watermark"]),
                segments_consumed=[str(n) for n in payload["segments_consumed"]],
                polls=int(payload["polls"]),
                rounds=int(payload["rounds"]),
                last_mined_poll=int(payload["last_mined_poll"]),
                last_mined_watermark=int(payload["last_mined_watermark"]),
                last_set_coverage=payload["last_set_coverage"],
                last_entry_coverage=payload["last_entry_coverage"],
            )
            for values, count, users in payload["groups"]:
                state.groups[tuple(values)] = [int(count), set(users)]
            # additive: states saved before tracing carry no evidence
            for values, entry_ids in payload.get("evidence", []):
                state.evidence[tuple(values)] = [int(e) for e in entry_ids]
            for values, count in payload["rules"]:
                state.rules[tuple(values)] = int(count)
            for key in ("pending", "accepted", "rejected"):
                getattr(state, key).extend(
                    Candidate.from_dict(item) for item in payload[key]
                )
        except DaemonError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DaemonError(f"malformed daemon state: {exc}") from exc
        if state.watermark < 0:
            raise DaemonError(
                f"daemon state watermark must be >= 0, got {state.watermark}"
            )
        return state


def state_path(directory: str | Path) -> Path:
    """Path of the daemon state file inside a store directory."""
    return Path(directory) / STATE_NAME


def save_state(directory: str | Path, state: DaemonState) -> bytes:
    """Atomically and durably replace the daemon state file; returns the
    bytes written.

    Compact, key-sorted JSON: without ``indent`` the C encoder does the
    work, which is several times faster than the pure-Python one.
    """
    data = (json.dumps(state.to_dict(), sort_keys=True) + "\n").encode("utf-8")
    atomic_write_bytes(state_path(directory), data)
    return data


def read_state_bytes(directory: str | Path) -> bytes | None:
    """The state file's raw bytes, or ``None`` when there is none."""
    try:
        return state_path(directory).read_bytes()
    except FileNotFoundError:
        return None


def load_state(directory: str | Path) -> DaemonState:
    """Read the daemon state; a missing file means a fresh daemon.

    Leftover ``.tmp`` files from a crash mid-save are ignored (the main
    file is intact by construction of the atomic write); a corrupt main
    file raises :class:`DaemonError` naming the path — delete or repair
    it explicitly rather than silently restarting from zero.
    """
    path = state_path(directory)
    data = read_state_bytes(directory)
    if data is None:
        return DaemonState()
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DaemonError(
            f"{path} is not valid JSON ({exc}); delete the file to restart "
            f"the daemon from scratch, at the cost of a full re-mine"
        ) from exc
    return DaemonState.from_dict(payload)
