"""The continuous online refinement daemon (the closed loop, live).

:class:`RefineDaemon` turns the paper's offline audit → mine → review →
amend cycle into a background process over the live deployment:

- it **tails** the durable audit store *incrementally*: a persisted
  watermark (entry count) marks how much of the sealed region has been
  consumed, and each :meth:`poll` streams only the sealed segments past
  it — never a full rescan.  Consumed partials fold into the state, a
  cumulative :class:`~repro.parallel.refine.TrailAggregate`, and a mining
  round is its ``finish`` — the one that ends an offline ``refine()`` —
  over state proportional to the number of *distinct* lifted rules, so
  it equals a from-scratch serial ``refine()`` over the consumed trail
  (``tests/test_refine_daemon_sim.py`` pins this byte-for-byte against
  the offline loop).  When the daemon's store is
  the live writer in this process, an :class:`AppendFeed` folds each
  appended entry into the active segment's partial as it is written, so
  a poll merges that partial at seal instead of decoding the segment;
  any segment without a valid fed partial is read from its file.
- mining **triggers** on a poll cadence, a wall-clock interval (under an
  injected clock), or a coverage-drop threshold: the current policy's
  entry coverage of the consumed trail, read off the state by
  :meth:`~repro.parallel.refine.TrailAggregate.cover` — the head of the
  finish that sets the figure it is compared with.
- candidates pass a pluggable :class:`~repro.refine_daemon.gate.ReviewGate`;
  accepted rules **hot-swap** into the serving snapshot through a
  :class:`PolicyTarget` (the PR 5 copy-on-write admin path when embedded
  in ``repro serve``) without dropping in-flight requests.
- the whole loop state persists next to the store manifest
  (:mod:`repro.refine_daemon.state`), in commit order
  *mine → gate → persist → hot-swap*: a crash anywhere leaves a state
  file from which a restarted daemon **resumes** — the reconcile step at
  the next poll adopts accepted-but-not-yet-swapped rules (idempotent),
  so no candidate is lost and no entry is ever re-mined.

The daemon is synchronous by design: :meth:`poll` does one complete
tail → (maybe) mine → gate → swap cycle and returns a
:class:`PollReport`.  Tests drive it step-by-step; production wraps it
in :class:`~repro.refine_daemon.runner.DaemonThread`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from repro.errors import DaemonError
from repro.mining.patterns import MiningConfig
from repro.obs import trace as obstrace
from repro.obs.runtime import get_registry
from repro.parallel.partials import (
    MapTask,
    PartialBuilder,
    ShardPartial,
    map_shard,
)
from repro.parallel.refine import (  # noqa: F401
    compute_coverage,  # kept for perfbench/plans.py only (ROADMAP item 3)
    prune_patterns,  # kept for perfbench/plans.py only (ROADMAP item 3)
)
from repro.parallel.shards import shards_past_watermark
from repro.policy.grounding import Grounder
from repro.policy.parser import format_rule, parse_rule
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.refine_daemon.gate import ReviewGate
from repro.refine_daemon.state import (
    Candidate,
    load_state,
    read_state_bytes,
    save_state,
)
from repro.vocab.vocabulary import Vocabulary


class PolicyTarget(Protocol):
    """Where accepted rules land — a bare store or a serving engine."""

    def current_store(self) -> PolicyStore:
        """The policy store candidates are pruned and adopted against."""
        ...  # pragma: no cover - protocol

    def adopt(self, rules, note: str = "") -> int:
        """Adopt ``rules`` (idempotent); returns how many were new."""
        ...  # pragma: no cover - protocol


class StorePolicyTarget:
    """Adopt straight into a :class:`PolicyStore` (standalone mode)."""

    def __init__(self, store: PolicyStore) -> None:
        self.store = store

    def current_store(self) -> PolicyStore:
        """The store itself."""
        return self.store

    def adopt(self, rules, note: str = "") -> int:
        """Add every rule; dedup makes re-adoption a no-op."""
        return self.store.add_all(
            tuple(rules), added_by="refine-daemon", origin="refinement", note=note
        )


class EnginePolicyTarget:
    """Adopt through a serving :class:`~repro.serve.engine.PdpEngine`.

    Each adoption is one copy-on-write snapshot swap (plus decision-cache
    invalidation), so new rules take effect between requests without
    dropping anything in flight.
    """

    def __init__(self, engine) -> None:
        self.engine = engine

    def current_store(self) -> PolicyStore:
        """The live snapshot's policy store."""
        return self.engine.manager.current.policy_store

    def adopt(self, rules, note: str = "") -> int:
        """One hot swap adopting every rule; returns how many were new."""
        _, added = self.engine.adopt_rules(tuple(rules), note=note)
        return added


def tail_task(attributes: tuple[str, ...]) -> MapTask:
    """The map task a daemon folds its trail with: the practice
    groups, every lifted rule, and the exception evidence."""
    return MapTask(
        attributes=attributes,
        include_denied=False,
        exclude_suspected=False,
        collect_regular=False,
        collect_exceptions=True,
    )


class AppendFeed:
    """Folds every entry the live store appends into the active
    segment's partial, so a poll need not decode what this process wrote.

    The store holds the feed weakly (:meth:`AuditStore.add_append_listener
    <repro.store.store.AuditStore.add_append_listener>`) and the daemon
    holds it strongly; the feed never refers back to the daemon, so the
    store never keeps a daemon alive.  Appends and seals run on the
    appending thread and only touch the active builder; the lock guards
    the stamped partials the poll thread takes.
    """

    def __init__(self, store, task: MapTask) -> None:
        self._store = store
        self._task = task
        #: the active segment's builder; None after a failed fold, until
        #: the next seal starts a fresh one
        self._builder: PartialBuilder | None = PartialBuilder(task)
        #: segment name -> partial, stamped at seal and not yet taken
        self._sealed: dict[str, ShardPartial] = {}
        self._lock = threading.Lock()

    def __call__(self, entry) -> None:
        builder = self._builder
        if builder is None:
            return
        try:
            builder.extend((entry,))
        except Exception:
            self._builder = None  # this segment is read from its file
            raise

    def sealed(self, meta) -> None:
        """Stamp the active builder with the sealed segment's name."""
        builder, self._builder = self._builder, PartialBuilder(self._task)
        if builder is not None:
            with self._lock:
                self._sealed[meta.name] = builder.finish(0)

    def take(self, sealed) -> dict[str, ShardPartial]:
        """Pop the partials of the segments in ``sealed`` (a manifest
        snapshot, all of which the caller consumes) and drop those of
        segments compaction removed; later seals' partials stay."""
        names = {meta.name for meta in sealed}
        with self._lock:
            live = {meta.name for meta in self._store.sealed_segments()}
            taken = {}
            kept = {}
            for name, partial in self._sealed.items():
                if name in names:
                    taken[name] = partial
                elif name in live:
                    kept[name] = partial
            self._sealed = kept
        return taken


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of one :class:`RefineDaemon`.

    ``mining`` carries the Algorithm 4/5 thresholds.  Mining triggers:
    ``mine_every_polls`` (0 disables the cadence), ``mine_interval``
    seconds on the injected ``clock``, and ``coverage_drop`` — mine when
    the current policy's entry coverage of the consumed trail falls this
    far below the last mined figure.  All triggers additionally require
    unmined consumed entries, except ``coverage_drop`` which may re-mine
    the same region after a policy regression.  ``entry_observer`` is a
    test hook called with every consumed entry's lifted-rule values, in
    global append order.
    """

    mining: MiningConfig = field(default_factory=MiningConfig)
    mine_every_polls: int = 1
    mine_interval: float | None = None
    coverage_drop: float | None = None
    clock: Callable[[], float] = time.monotonic
    entry_observer: Callable[[tuple[str, ...]], None] | None = None


@dataclass(frozen=True)
class PollReport:
    """What one synchronous :meth:`RefineDaemon.poll` did."""

    poll_index: int
    consumed: int
    watermark: int
    lag: int
    reconciled: int
    trigger: str | None
    patterns_mined: int
    patterns_useful: int
    accepted: tuple[Rule, ...]
    pended: int
    rejected: int
    set_coverage: float | None
    entry_coverage: float | None

    @property
    def mined(self) -> bool:
        """Whether this poll ran a mining round."""
        return self.trigger is not None


class RefineDaemon:
    """Watermark-tailing, incrementally-mining refinement daemon."""

    def __init__(
        self,
        log,
        target: PolicyTarget,
        vocabulary: Vocabulary,
        gate: ReviewGate,
        config: DaemonConfig | None = None,
        name: str = "refine-daemon",
        provenance=None,
    ) -> None:
        #: accepts a DurableAuditLog or a raw AuditStore
        self._store = log.store if hasattr(log, "store") else log
        self.target = target
        self.vocabulary = vocabulary
        self.gate = gate
        self.config = config or DaemonConfig()
        self.name = name
        self._lock = threading.Lock()
        #: private (raises if the vocabulary is mutated under it); its
        #: lift memo holds every lifted rule the daemon needs
        self._grounder = Grounder(vocabulary)
        self._obs = get_registry()
        self._tracer = obstrace.get_tracer()
        if provenance is None:
            # an EnginePolicyTarget shares the serving engine's ledger, so
            # candidate evidence resolves to the traces that served it
            provenance = getattr(getattr(target, "engine", None), "provenance", None)
        #: optional ProvenanceLedger mapping evidence entries -> trace ids
        self.provenance = provenance
        self._clock = self.config.clock
        self._last_mine_at = self._clock()
        self._task = tail_task(self.config.mining.attributes)
        #: the state file's bytes as this daemon last read or wrote them
        self._state_bytes: bytes | None = None
        #: each accepted candidate's DSL parsed once (reconcile runs on
        #: every poll)
        self._parsed: dict[str, Rule] = {}
        self._resume()  # loads ``state``
        #: set while a poll runs; still set at the next poll when one
        #: failed part-way, with merges the state file never saw
        self._poll_failed = False
        #: fed partials, when this daemon's store is the live writer
        self._feed: AppendFeed | None = None
        if hasattr(self._store, "add_append_listener"):
            self._feed = AppendFeed(self._store, self._task)
            self._store.add_append_listener(self._feed)

    # ------------------------------------------------------------------
    # resume plumbing
    # ------------------------------------------------------------------
    def _reload_state(self) -> None:
        """Pick up out-of-band edits of the state file (CLI review
        decisions): re-parse it only when its bytes differ from what
        this daemon last read or wrote."""
        data = read_state_bytes(self._store.directory)
        if data != self._state_bytes:
            self.state = load_state(self._store.directory)
            self._state_bytes = data

    def _resume(self) -> None:
        """Drop all in-memory progress and resume from the state file."""
        self._state_bytes = read_state_bytes(self._store.directory)
        self.state = load_state(self._store.directory)

    def _reconcile(self) -> int:
        """Adopt accepted rules missing from the target (crash repair).

        Covers both a crash between persist and hot-swap and CLI
        ``accept`` decisions taken while the daemon was down: adoption is
        idempotent, so replaying the whole accepted ledger is safe.
        """
        store = self.target.current_store()
        parsed = self._parsed
        backlog = []
        for candidate in self.state.accepted:
            rule = parsed.get(candidate.rule)
            if rule is None:
                rule = parsed[candidate.rule] = parse_rule(candidate.rule)
            if rule not in store:
                backlog.append(rule)
        if not backlog:
            return 0
        return self.target.adopt(backlog, note="refine-daemon reconcile")

    # ------------------------------------------------------------------
    # the poll cycle
    # ------------------------------------------------------------------
    def poll(self, force_mine: bool = False) -> PollReport:
        """One synchronous tail → trigger → mine → gate → swap cycle."""
        # The root trace opens before the obs span so the span (and every
        # span under consume/mine) lands in the poll's span tree; a poll
        # that adopts rules is force-retained ("refined").
        with self._lock, self._tracer.trace(
            "repro_refine_daemon_poll"
        ), self._obs.span("repro_refine_daemon_poll"):
            # Reload from disk when the file changed under us: picks up
            # CLI review decisions.  Unchanged bytes parse to the state
            # already in memory, so every poll is still a
            # from-persisted-state resume — restarts are not a special case.
            # A poll that failed part-way may have merged partials into
            # the state without saving them: resume from the file
            # instead, as a restart would, so nothing counts twice.
            if self._poll_failed:
                self._resume()
            else:
                self._reload_state()
            self._poll_failed = True
            state = self.state
            state.polls += 1
            reconciled = self._reconcile()
            with self._obs.span("repro_refine_daemon_consume"):
                consumed = self._consume()
            trigger = self._mine_trigger(force_mine)
            if trigger:
                with self._obs.span("repro_refine_daemon_mine"):
                    outcome = self._mine()
            else:
                outcome = None
            # Commit order: mine → gate → persist → hot-swap.  The state
            # file (watermark + ledger) is durable before any rule lands
            # in the serving snapshot; a crash in between is repaired by
            # the next poll's reconcile, never by re-mining.
            self._state_bytes = save_state(self._store.directory, state)
            if outcome is not None and outcome["accepted"]:
                obstrace.mark_keep("refined")
                self.target.adopt(
                    outcome["accepted"],
                    note=f"refine-daemon round={state.rounds - 1}",
                )
            report = PollReport(
                poll_index=state.polls,
                consumed=consumed,
                watermark=state.watermark,
                lag=len(self._store) - state.watermark,
                reconciled=reconciled,
                trigger=trigger if outcome is not None else None,
                patterns_mined=len(outcome["patterns"]) if outcome else 0,
                patterns_useful=len(outcome["useful"]) if outcome else 0,
                accepted=tuple(outcome["accepted"]) if outcome else (),
                pended=outcome["pended"] if outcome else 0,
                rejected=outcome["rejected"] if outcome else 0,
                set_coverage=state.last_set_coverage,
                entry_coverage=state.last_entry_coverage,
            )
            self._poll_failed = False
            self._record_metrics(report)
            return report

    def _consume(self) -> int:
        """Tail sealed segments past the watermark into the aggregates.

        A segment sealed while this daemon's feed watched the whole of it
        merges its fed partial; any other — a straddle after compaction,
        a segment renamed by compaction, one the feed joined part-way or
        failed on, anything before a restart — is mapped from its file.
        """
        directory = self._store.directory
        sealed = self._store.sealed_segments()
        total = sum(meta.entries for meta in sealed)
        state = self.state
        if total < state.watermark:
            raise DaemonError(
                f"store at {self._store.directory} holds {total} sealed "
                f"entries but the daemon watermark is {state.watermark}; "
                f"the trail shrank — refusing to tail a rewritten history"
            )
        fed = self._feed.take(sealed) if self._feed is not None else {}
        if total == state.watermark:
            return 0
        consumed = fed_segments = file_segments = 0
        position = 0  # sealed entries before ``meta``
        run: list = []  # consecutive segments to map from their files
        skip = 0  # already-consumed head of the run's first segment
        for meta in sealed:
            if position + meta.entries <= state.watermark:
                position += meta.entries
                continue
            partial = fed.get(meta.name)
            if (
                partial is None
                or partial.entries != meta.entries
                or position < state.watermark
            ):
                if not run:
                    skip = max(0, state.watermark - position)
                run.append(meta)
                file_segments += 1
            else:
                consumed += self._consume_files(directory, run, skip, consumed)
                run = []
                self._merge_partial(partial, state.watermark + consumed)
                consumed += partial.entries
                fed_segments += 1
            position += meta.entries
        consumed += self._consume_files(directory, run, skip, consumed)
        if consumed != total - state.watermark:
            raise DaemonError(
                f"tail pass consumed {consumed} entries but the sealed "
                f"region grew by {total - state.watermark}; segment files "
                f"disagree with the manifest — run `repro store verify`"
            )
        state.watermark = total
        state.segments_consumed = [meta.name for meta in sealed]
        if self._obs.enabled:
            segments = "repro_refine_daemon_segments_total"
            self._obs.counter(segments, source="fed").inc(fed_segments)
            self._obs.counter(segments, source="file").inc(file_segments)
        return consumed

    def _consume_files(
        self, directory: Path, run, skip: int, consumed: int
    ) -> int:
        """Map consecutive sealed segments of the store at ``directory``
        from their files, skipping the first ``skip`` entries;
        ``consumed`` counts this tail pass's entries before them.
        Returns how many entries were merged."""
        if not run:
            return 0
        base = self.state.watermark + consumed
        merged = 0
        for shard in shards_past_watermark(
            directory, tuple(run), skip, label=self.name
        ):
            partial = map_shard(shard, self._task)
            # shards tail the trail in order, so the global id of a
            # shard-local position is the base plus everything the
            # earlier shards contributed
            self._merge_partial(partial, base + merged)
            merged += partial.entries
        return merged

    def _merge_partial(self, partial: ShardPartial, base: int) -> None:
        """Fold one shard's partial into the cumulative aggregate;
        ``base``, the global index of the shard's first entry, turns its
        exception positions into global evidence ids."""
        observer = self.config.entry_observer
        if observer is not None:
            order: list = [None] * partial.entries
            for values, positions in partial.rule_entries.items():
                for position in positions:
                    order[position] = values
            for values in order:
                observer(values)
        # Lift at the tail, not only at the mine: under a strict
        # vocabulary an unknown trail value raises here, before the
        # watermark moves past it, instead of failing every later mine.
        self._grounder.lift(self.config.mining.attributes, partial.rule_entries)
        self.state.fold(partial, base)

    def _mine_trigger(self, force: bool) -> str | None:
        """Which trigger (if any) fires a mining round this poll."""
        state, cfg = self.state, self.config
        if state.watermark == 0:
            return None  # nothing sealed yet: coverage over zero entries
        if force:
            return "forced"
        fresh = state.watermark > state.last_mined_watermark
        if (
            fresh
            and cfg.mine_every_polls > 0
            and state.polls - state.last_mined_poll >= cfg.mine_every_polls
        ):
            return "cadence"
        if (
            fresh
            and cfg.mine_interval is not None
            and self._clock() - self._last_mine_at >= cfg.mine_interval
        ):
            return "interval"
        if cfg.coverage_drop is not None and state.last_entry_coverage is not None:
            current = state.cover(
                self.target.current_store().policy(),
                self.vocabulary,
                self._grounder,
                cfg.mining.attributes,
                self.name,
            ).entry_ratio
            if state.last_entry_coverage - current >= cfg.coverage_drop:
                return "coverage-drop"
        return None

    def _mine(self) -> dict:
        """One mining round: finish the aggregate → gate (no rescans)."""
        state, cfg = self.state, self.config
        trail = state.finish(
            self.target.current_store().policy(),
            self.vocabulary,
            self._grounder,
            cfg.mining,
            name=self.name,
        )
        accepted: list[Rule] = []
        pended = rejected = 0
        decided = state.decided_rules()
        # DSL -> lifted values, to look a pattern's evidence back up
        dsl_values = {
            format_rule(trail.lifted[values][0]): values for values in state.groups
        }
        poll_trace = obstrace.current_trace_id() or ""
        # A gate that can score candidates (an ExplanationGate) stamps a
        # strength on each; plain gates leave the field None and the
        # pending queue untouched, preserving byte-identity with the
        # offline loop.
        strength_of = getattr(self.gate, "strength_of", None)
        for pattern in trail.prune.useful:
            dsl = format_rule(pattern.rule)
            evidence = state.evidence.get(dsl_values.get(dsl, ()), [])
            existing = state.find_pending(dsl)
            if existing is not None:
                # evidence keeps accruing while the officer deliberates
                existing.support = pattern.support
                existing.distinct_users = pattern.distinct_users
                existing.evidence_entries = list(evidence)
                existing.evidence_traces = self._evidence_traces(evidence)
                if strength_of is not None:
                    existing.strength = strength_of(pattern)
                continue
            if dsl in decided:
                continue  # accepted (awaiting swap) or human-rejected
            verdict = self.gate.decide(pattern)
            candidate = Candidate(
                rule=dsl,
                support=pattern.support,
                distinct_users=pattern.distinct_users,
                round_index=state.rounds,
                evidence_entries=list(evidence),
                evidence_traces=self._evidence_traces(evidence),
                trace_id=poll_trace,
                strength=strength_of(pattern) if strength_of is not None else None,
            )
            if verdict == "accept":
                candidate.decided_by = "auto-gate"
                state.accepted.append(candidate)
                accepted.append(pattern.rule)
            elif verdict == "pend":
                state.pending.append(candidate)
                pended += 1
            else:
                # reject-for-now: NOT sticky — re-judged when support
                # grows, exactly like the offline loop's review policy
                rejected += 1
        if strength_of is not None:
            # Pre-sort the human queue by descending strength; the sort
            # is stable, so equal-strength candidates keep their mined
            # order and the queue stays deterministic.
            state.pending.sort(key=lambda c: -(c.strength or 0.0))
        state.rounds += 1
        state.last_mined_poll = state.polls
        state.last_mined_watermark = state.watermark
        state.last_set_coverage = trail.coverage.ratio
        state.last_entry_coverage = trail.entry_ratio
        self._last_mine_at = self._clock()
        return {
            "patterns": trail.patterns,
            "useful": trail.prune.useful,
            "accepted": accepted,
            "pended": pended,
            "rejected": rejected,
        }

    def _evidence_traces(self, evidence: list[int]) -> list[str]:
        """Trace ids behind the evidence entries (best-effort, sorted)."""
        if self.provenance is None or not evidence:
            return []
        resolved = self.provenance.trace_for_entries(evidence)
        return sorted(set(resolved.values()))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _record_metrics(self, report: PollReport) -> None:
        reg = self._obs
        if not reg.enabled:
            return
        reg.counter("repro_refine_daemon_polls_total").inc()
        reg.counter("repro_refine_daemon_entries_consumed_total").inc(
            report.consumed
        )
        if report.mined:
            reg.counter("repro_refine_daemon_rounds_total").inc()
            reg.counter("repro_refine_daemon_candidates_mined_total").inc(
                report.patterns_useful
            )
            reg.counter("repro_refine_daemon_candidates_accepted_total").inc(
                len(report.accepted)
            )
            reg.counter("repro_refine_daemon_candidates_rejected_total").inc(
                report.rejected
            )
        reg.gauge("repro_refine_daemon_watermark_entries").set(report.watermark)
        reg.gauge("repro_refine_daemon_watermark_lag_entries").set(report.lag)
        reg.gauge("repro_refine_daemon_pending").set(len(self.state.pending))
        if report.entry_coverage is not None:
            reg.gauge("repro_refine_daemon_coverage").set(report.entry_coverage)

    def status(self) -> dict:
        """JSON-ready daemon state for ``stats`` and ``/healthz``."""
        state = self.state
        trail = len(self._store)
        return {
            "name": self.name,
            "watermark_entries": state.watermark,
            "trail_entries": trail,
            "lag_entries": trail - state.watermark,
            "polls": state.polls,
            "rounds": state.rounds,
            "pending": len(state.pending),
            "accepted": len(state.accepted),
            "coverage": {
                "set": state.last_set_coverage,
                "entry": state.last_entry_coverage,
            },
        }
