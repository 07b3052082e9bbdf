"""The closed loop over a fleet: one refinement daemon, N worker trails.

:class:`FleetRefineDaemon` is the PR 6 :class:`RefineDaemon` pointed at a
*federated* evidence base: instead of tailing one store it tails every
worker's sealed segments in site order, folding each into the same
cumulative aggregates.  The PR 4 merge-equivalence argument makes the
mining round over those aggregates equal a serial ``refine()`` over the
consolidated trail — which is exactly what E21 pins byte-for-byte.

Two deltas from the single-store daemon:

- **watermarks are per member.**  ``state.segments_consumed`` holds
  ``"site:count"`` marks (one per worker) instead of segment names;
  ``state.watermark`` stays the fleet-global consumed total so every
  trigger/lag/evidence computation in the base class keeps working.
- **adoption is a broadcast.**  :class:`FleetPolicyTarget` routes
  accepted rules through the supervisor's version-stamped control
  channel, so every worker hot-swaps the same batch; the supervisor's
  shadow policy store is what candidates are pruned against.

Live-safety: consumption reads each member's ``MANIFEST.json`` plus
sealed segment *files* only (:func:`shards_past_watermark` never opens
an :class:`AuditStore`, whose recovery could rewrite a worker's live
active segment).
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import DaemonError
from repro.fleet.trail import fleet_sites
from repro.parallel.partials import map_shard
from repro.parallel.shards import shards_past_watermark
from repro.policy.parser import format_rule
from repro.refine_daemon.daemon import DaemonConfig, RefineDaemon
from repro.refine_daemon.gate import ReviewGate
from repro.store.manifest import load_manifest
from repro.vocab.builtin import healthcare_vocabulary
from repro.vocab.vocabulary import Vocabulary


class _FederatedTrailView:
    """The minimal store-shaped object the base daemon needs.

    Deliberately has no ``store`` attribute (so the base class treats it
    as the store itself) and no ``add_seal_listener`` (so
    :class:`~repro.refine_daemon.runner.DaemonThread` runs interval-only):
    ``directory`` anchors the persisted daemon state at the fleet root,
    and ``len()`` is the fleet-wide sealed-entry total the lag gauges
    report against.
    """

    def __init__(self, root: str | Path) -> None:
        self.directory = Path(root)

    def __len__(self) -> int:
        return sum(
            sum(meta.entries for meta in load_manifest(self.directory / site).sealed)
            for site in fleet_sites(self.directory)
        )


class FleetPolicyTarget:
    """Adopt through the fleet supervisor's broadcast path.

    ``current_store()`` is the supervisor's shadow store — same initial
    rules as every worker, updated on each successful mutating broadcast
    — so pruning sees the converged fleet policy without a control round
    trip per candidate.
    """

    def __init__(self, supervisor) -> None:
        self.supervisor = supervisor

    def current_store(self):
        """The supervisor's shadow of the converged worker policy."""
        return self.supervisor.policy_store

    def adopt(self, rules, note: str = "") -> int:
        """Broadcast one adoption batch fleet-wide; returns new rules.

        Idempotent like every other target: rules already in the shadow
        store are dropped first, and an empty remainder skips the
        broadcast entirely (no oplog noise from reconcile polls).
        """
        store = self.supervisor.policy_store
        fresh = [rule for rule in rules if rule not in store]
        if not fresh:
            return 0
        response = self.supervisor.adopt_rules(
            [format_rule(rule) for rule in fresh], note=note
        )
        if not response.get("ok"):
            raise DaemonError(
                f"fleet adoption broadcast failed: {response.get('error')}"
            )
        return int(response.get("added", len(fresh)))


class FleetRefineDaemon(RefineDaemon):
    """A :class:`RefineDaemon` whose evidence base is a worker fleet.

    ``root`` is the fleet store directory (one ``worker-NN/`` per
    member); daemon state persists at the root, next to the worker
    directories.  Everything else — triggers, mining, gating, resume —
    is the base class verbatim.
    """

    def __init__(
        self,
        root: str | Path,
        target,
        gate: ReviewGate,
        vocabulary: Vocabulary | None = None,
        config: DaemonConfig | None = None,
        name: str = "fleet-refine-daemon",
        provenance=None,
    ) -> None:
        super().__init__(
            _FederatedTrailView(root),
            target,
            vocabulary if vocabulary is not None else healthcare_vocabulary(),
            gate,
            config=config,
            name=name,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    # per-member watermark plumbing
    # ------------------------------------------------------------------
    def _member_marks(self) -> dict[str, int]:
        """Per-site consumed counts decoded from ``segments_consumed``."""
        marks: dict[str, int] = {}
        for item in self.state.segments_consumed:
            site, _, count = str(item).rpartition(":")
            if site and count.isdigit():
                marks[site] = int(count)
        return marks

    def _consume(self) -> int:
        """Tail every member's sealed segments past its own mark.

        Members are visited in :func:`fleet_sites` order (the federation
        member order), so the evidence-id assignment — fleet-global
        consumption indices continuing from ``state.watermark`` — is
        deterministic across polls and restarts.
        """
        state = self.state
        marks = self._member_marks()
        root = self._store.directory
        consumed_total = 0
        new_marks: dict[str, int] = dict(marks)
        for site in fleet_sites(root):
            directory = root / site
            sealed = load_manifest(directory).sealed
            total = sum(meta.entries for meta in sealed)
            mark = marks.get(site, 0)
            if total < mark:
                raise DaemonError(
                    f"fleet member {site} holds {total} sealed entries but "
                    f"its daemon mark is {mark}; the trail shrank — "
                    f"refusing to tail a rewritten history"
                )
            if total == mark:
                new_marks[site] = total
                continue
            shards = shards_past_watermark(
                directory, sealed, mark, label=f"{self.name}:{site}"
            )
            consumed = 0
            for shard in shards:
                partial = map_shard(shard, self._task)
                self._merge_partial(
                    partial, state.watermark + consumed_total + consumed
                )
                consumed += partial.entries
            if consumed != total - mark:
                raise DaemonError(
                    f"fleet member {site}: tail pass consumed {consumed} "
                    f"entries but the sealed region grew by {total - mark}; "
                    f"segment files disagree with the manifest — run "
                    f"`repro store verify` on {directory}"
                )
            consumed_total += consumed
            new_marks[site] = total
        state.watermark += consumed_total
        state.segments_consumed = [
            f"{site}:{count}" for site, count in sorted(new_marks.items())
        ]
        return consumed_total
