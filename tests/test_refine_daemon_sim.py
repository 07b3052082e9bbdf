"""Deterministic simulation harness for the online refinement daemon.

The headline theorem of this suite: driving the closed loop *online* —
traffic lands in the durable store, segments seal, the daemon tails past
its watermark, mines incrementally, gates, and hot-swaps — produces a
policy store **byte-identical** to the offline
:class:`~repro.refinement.loop.RefinementLoop` run over the very same
recorded trail, with equal coverage.  Everything is synchronous and
clock-injected: no threads, no sleeps, no wall time.
"""

from __future__ import annotations

import pytest

from repro.audit.log import AuditLog
from repro.coverage.engine import compute_coverage, compute_entry_coverage
from repro.errors import DaemonError
from repro.experiments.harness import (
    ReplayEnvironment,
    standard_loop_setup,
)
from repro.mining.patterns import MiningConfig
from repro.policy.parser import format_rule, parse_rule
from repro.refine_daemon import (
    AutoAcceptGate,
    DaemonConfig,
    QueueForReviewGate,
    RefineDaemon,
    StorePolicyTarget,
    load_state,
)
from repro.refinement.engine import RefinementConfig
from repro.refinement.loop import RefinementLoop
from repro.refinement.review import ThresholdReview
from repro.store.durable import DurableAuditLog

ROUNDS = 4
MINING = dict(min_support=5, min_distinct_users=2)
GATE = dict(min_support=10, min_distinct_users=3)


def rules_of(store) -> tuple[str, ...]:
    """The store's active rules as sorted DSL — the comparison currency."""
    return tuple(sorted(format_rule(rule) for rule in store.policy()))


def drive_daemon(tmp_path, rounds=ROUNDS, accesses=800, seed=7, config=None):
    """Run the online loop: simulate → append → seal → poll, per round.

    Returns ``(setup, daemon, log, windows, reports)`` with the log still
    open; the recorded windows replay into the offline comparator.
    """
    setup = standard_loop_setup(accesses_per_round=accesses, seed=seed)
    log = DurableAuditLog(tmp_path / "trail", name="online")
    daemon = RefineDaemon(
        log,
        StorePolicyTarget(setup.store),
        setup.vocabulary,
        AutoAcceptGate(**GATE),
        config or DaemonConfig(mining=MiningConfig(**MINING)),
    )
    windows, reports = [], []
    for round_index in range(rounds):
        window = setup.environment.simulate_round(round_index, setup.store)
        windows.append(window)
        log.extend(window)
        log.seal_active()
        reports.append(daemon.poll())
    return setup, daemon, log, windows, reports


def offline_loop(windows, accesses=800, seed=7):
    """The stock offline loop over the recorded trail, from an identical
    starting store (same seed → same fixture)."""
    setup = standard_loop_setup(accesses_per_round=accesses, seed=seed)
    loop = RefinementLoop(
        ReplayEnvironment(windows),
        setup.store,
        setup.vocabulary,
        ThresholdReview(**GATE),
        config=RefinementConfig(mining=MiningConfig(**MINING)),
    )
    result = loop.run(len(windows))
    return setup, result


class TestOnlineOfflineEquivalence:
    """The daemon is the offline loop, deployed."""

    def test_accepted_rules_byte_identical_to_offline_loop(self, tmp_path):
        online_setup, daemon, log, windows, reports = drive_daemon(tmp_path)
        offline_setup, _result = offline_loop(windows)
        assert rules_of(online_setup.store) == rules_of(offline_setup.store)
        # and the daemon genuinely accepted beyond the seeded store
        assert any(report.accepted for report in reports)
        log.close()

    def test_equal_coverage_against_the_same_trail(self, tmp_path):
        online_setup, daemon, log, windows, _ = drive_daemon(tmp_path)
        offline_setup, result = offline_loop(windows)
        trail = [entry for window in windows for entry in window]
        attributes = MiningConfig(**MINING).attributes
        covers = []
        for setup in (online_setup, offline_setup):
            audit_policy = AuditLog(trail).to_policy(attributes)
            covers.append(
                compute_coverage(
                    setup.store.policy(), audit_policy, setup.vocabulary
                ).ratio
            )
        assert covers[0] == covers[1]
        assert covers[0] == result.rounds[-1].coverage_after
        log.close()

    def test_every_round_mined_on_the_cadence_trigger(self, tmp_path):
        _, _, log, _, reports = drive_daemon(tmp_path)
        assert [report.trigger for report in reports] == ["cadence"] * ROUNDS
        assert all(report.consumed == 800 for report in reports)
        log.close()

    def test_watermark_tracks_the_sealed_region_exactly(self, tmp_path):
        _, daemon, log, windows, reports = drive_daemon(tmp_path)
        assert reports[-1].watermark == sum(len(w) for w in windows)
        assert reports[-1].lag == 0
        assert daemon.state.watermark == len(log)
        log.close()


class TestIncrementalTailing:
    """No full rescans: each poll consumes only the new sealed suffix."""

    def test_consumed_entries_are_the_new_suffix_only(self, tmp_path):
        consumed_order = []
        setup = standard_loop_setup(accesses_per_round=300, seed=11)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            AutoAcceptGate(**GATE),
            DaemonConfig(
                mining=MiningConfig(**MINING),
                entry_observer=consumed_order.append,
            ),
        )
        expected = []
        attributes = MiningConfig(**MINING).attributes
        for round_index in range(3):
            window = setup.environment.simulate_round(round_index, setup.store)
            log.extend(window)
            log.seal_active()
            expected.extend(
                tuple(str(getattr(entry, a)) for a in attributes)
                for entry in window
            )
            daemon.poll()
            assert consumed_order == expected  # nothing re-read, nothing skipped
        log.close()

    def test_unsealed_entries_wait_behind_the_watermark(self, tmp_path):
        setup = standard_loop_setup(accesses_per_round=200, seed=3)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            AutoAcceptGate(**GATE),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        window = setup.environment.simulate_round(0, setup.store)
        log.extend(window)  # active segment, never sealed
        report = daemon.poll()
        assert report.consumed == 0
        assert report.watermark == 0
        assert report.lag == len(window)
        assert report.trigger is None  # nothing sealed → nothing to mine
        log.seal_active()
        report = daemon.poll()
        assert report.consumed == len(window)
        assert report.lag == 0
        log.close()

    def test_a_shrunken_trail_is_refused(self, tmp_path):
        setup = standard_loop_setup(accesses_per_round=150, seed=5)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            AutoAcceptGate(**GATE),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        daemon.poll()
        daemon.state.watermark += 1_000_000  # simulate a rewritten trail
        from repro.refine_daemon import save_state

        save_state(log.store.directory, daemon.state)
        with pytest.raises(DaemonError, match="shrank"):
            daemon.poll()
        log.close()


class TestResume:
    """A restarted daemon resumes from persisted state — never restarts."""

    def test_restart_resumes_at_the_watermark(self, tmp_path):
        setup, daemon, log, windows, _ = drive_daemon(tmp_path, rounds=2)
        watermark = daemon.state.watermark
        rules_before = rules_of(setup.store)
        # a brand-new daemon instance over the same directory and store
        revived = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            AutoAcceptGate(**GATE),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        assert revived.state.watermark == watermark
        report = revived.poll()  # nothing new sealed
        assert report.consumed == 0
        assert rules_of(setup.store) == rules_before
        log.close()

    def test_restarted_daemon_matches_the_uninterrupted_run(self, tmp_path):
        # run A: one daemon drives all rounds
        setup_a, _, log_a, windows, _ = drive_daemon(
            tmp_path / "a", rounds=ROUNDS, seed=7
        )
        # run B: a fresh daemon instance per round (restart between every
        # seal), same seed → same traffic evolution
        setup_b = standard_loop_setup(accesses_per_round=800, seed=7)
        log_b = DurableAuditLog(tmp_path / "b" / "trail")
        for round_index in range(ROUNDS):
            window = setup_b.environment.simulate_round(round_index, setup_b.store)
            log_b.extend(window)
            log_b.seal_active()
            daemon = RefineDaemon(  # new instance: must resume, not re-mine
                log_b,
                StorePolicyTarget(setup_b.store),
                setup_b.vocabulary,
                AutoAcceptGate(**GATE),
                DaemonConfig(mining=MiningConfig(**MINING)),
            )
            daemon.poll()
        assert rules_of(setup_a.store) == rules_of(setup_b.store)
        log_a.close()
        log_b.close()


class TestStateFile:
    """The state file is compact JSON, and the state in memory is exactly
    what re-reading it would give — which is why a poll re-parses the
    file only when its bytes changed."""

    def test_saved_state_parses_back_to_the_state_after_every_poll(
        self, tmp_path
    ):
        import json

        from repro.refine_daemon import DaemonState
        from repro.refine_daemon.state import state_path

        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail", name="online")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        for round_index in range(ROUNDS):
            log.extend(setup.environment.simulate_round(round_index, setup.store))
            log.seal_active()
            daemon.poll()
            saved = state_path(log.store.directory).read_bytes()
            assert saved.endswith(b"\n") and b"\n  " not in saved
            assert DaemonState.from_dict(json.loads(saved)) == daemon.state
        assert daemon.state.pending  # the ledger round-trips too
        log.close()


class TestCountAwareRestart:
    """A restarted daemon grounds nothing until it mines; its first mine
    grounds each distinct lifted rule once and reads the entry coverage
    the batch engine reads over the whole trail."""

    def test_restart_grounds_once_per_distinct_key(self, tmp_path):
        from repro.audit.log import make_entry
        from repro.audit.schema import AccessStatus
        from repro.policy.store import PolicyStore
        from repro.vocab.builtin import healthcare_vocabulary

        vocabulary = healthcare_vocabulary()
        policy = PolicyStore()
        policy.add(parse_rule("ALLOW nurse TO USE prescription FOR treatment"))
        combos = [
            ("prescription", "treatment", "nurse"),
            ("referral", "registration", "nurse"),
            ("psychiatry", "billing", "clerk"),
            ("lab_results", "treatment", "physician"),
        ]
        trail = [
            make_entry(t, f"u{t % 5}", *combos[t % len(combos)],
                       status=AccessStatus.EXCEPTION)
            for t in range(120)
        ]
        log = DurableAuditLog(tmp_path / "trail")
        config = DaemonConfig(mining=MiningConfig(**MINING), mine_every_polls=0)
        log.extend(trail)
        log.seal_active()
        RefineDaemon(log, StorePolicyTarget(policy), vocabulary,
                     QueueForReviewGate(), config).poll()
        distinct = len(load_state(log.store.directory).rules)
        assert distinct == len(combos) < len(trail)

        revived = RefineDaemon(log, StorePolicyTarget(policy), vocabulary,
                               QueueForReviewGate(), config)
        grounder = revived._grounder
        assert (grounder.hits, grounder.misses) == (0, 0)  # nothing grounded
        report = revived.poll(force_mine=True)
        assert report.consumed == 0
        # one expansion per distinct key (the policy's rule is one of them)
        assert grounder.misses == distinct
        attributes = config.mining.attributes
        batch = compute_entry_coverage(
            policy.policy(), [entry.to_rule(attributes) for entry in trail],
            vocabulary,
        )
        assert report.entry_coverage == batch.ratio
        log.close()


class TestReviewGateModes:
    """Auto-accept vs the human pending queue."""

    def test_queue_gate_parks_candidates_without_adopting(self, tmp_path):
        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        seeded = rules_of(setup.store)
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        report = daemon.poll()
        assert report.pended > 0
        assert not report.accepted
        assert rules_of(setup.store) == seeded  # nothing adopted
        # the queue is durable: a fresh load sees the same candidates
        persisted = load_state(log.store.directory)
        assert len(persisted.pending) == report.pended
        log.close()

    def test_cli_style_acceptance_is_adopted_at_the_next_poll(self, tmp_path):
        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        daemon.poll()
        # a human decides out-of-band, exactly as the CLI does: move one
        # candidate from pending to accepted and save
        from repro.refine_daemon import save_state

        state = load_state(log.store.directory)
        candidate = state.pending.pop(0)
        candidate.decided_by = "privacy-officer"
        state.accepted.append(candidate)
        save_state(log.store.directory, state)
        report = daemon.poll()  # reload → reconcile → adopt
        assert report.reconciled == 1
        assert parse_rule(candidate.rule) in setup.store
        log.close()

    def test_retired_accepted_rule_is_adopted_again_parsed_once(
        self, tmp_path, monkeypatch
    ):
        import repro.refine_daemon.daemon as daemon_module

        parsed: list[str] = []

        def counting_parse(dsl):
            parsed.append(dsl)
            return parse_rule(dsl)

        monkeypatch.setattr(daemon_module, "parse_rule", counting_parse)
        setup, daemon, log, _, _ = drive_daemon(tmp_path, rounds=2)
        assert daemon.poll().reconciled == 0  # reconciles the last round
        accepted = [candidate.rule for candidate in daemon.state.accepted]
        assert accepted
        # every poll checked the whole ledger; each DSL was parsed once
        assert sorted(parsed) == sorted(set(accepted))
        # an admin retires an adopted rule: the next poll adopts it again
        rule = parse_rule(accepted[0])
        assert setup.store.retire(rule)
        report = daemon.poll()
        assert report.reconciled == 1
        assert rule in setup.store
        assert daemon.poll().reconciled == 0
        assert sorted(parsed) == sorted(set(accepted))
        log.close()

    def test_cli_style_rejection_holds_from_the_next_poll(self, tmp_path):
        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        daemon.poll()
        from repro.refine_daemon import save_state

        state = load_state(log.store.directory)
        candidate = state.pending.pop(0)
        candidate.decided_by = "privacy-officer"
        state.rejected.append(candidate)
        save_state(log.store.directory, state)
        log.extend(setup.environment.simulate_round(1, setup.store))
        log.seal_active()
        daemon.poll()  # reload → the veto holds through a mining round
        assert candidate.rule in {c.rule for c in daemon.state.rejected}
        assert candidate.rule not in {c.rule for c in daemon.state.pending}
        assert parse_rule(candidate.rule) not in setup.store
        assert candidate.rule in {
            c.rule for c in load_state(log.store.directory).rejected
        }
        log.close()

    def test_auto_rejections_are_not_sticky(self, tmp_path):
        # a pattern below the gate threshold in round 0 must be re-judged
        # once its support grows — byte-identity with the offline loop
        # depends on re-judging, so assert the ledger holds no rejects
        _, daemon, log, _, reports = drive_daemon(tmp_path)
        assert any(report.rejected for report in reports)
        assert daemon.state.rejected == []  # transient, never persisted
        log.close()


class TestTriggers:
    """Cadence, injected-clock interval, and coverage-drop triggers."""

    def _daemon(self, tmp_path, config):
        setup = standard_loop_setup(accesses_per_round=400, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            AutoAcceptGate(**GATE),
            config,
        )
        return setup, log, daemon

    def test_cadence_spacing_skips_intermediate_polls(self, tmp_path):
        setup, log, daemon = self._daemon(
            tmp_path,
            DaemonConfig(mining=MiningConfig(**MINING), mine_every_polls=2),
        )
        triggers = []
        for round_index in range(4):
            log.extend(setup.environment.simulate_round(round_index, setup.store))
            log.seal_active()
            triggers.append(daemon.poll().trigger)
        assert triggers == [None, "cadence", None, "cadence"]
        log.close()

    def test_interval_trigger_follows_the_injected_clock(self, tmp_path):
        clock = {"now": 0.0}
        setup, log, daemon = self._daemon(
            tmp_path,
            DaemonConfig(
                mining=MiningConfig(**MINING),
                mine_every_polls=0,  # cadence off
                mine_interval=60.0,
                clock=lambda: clock["now"],
            ),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        assert daemon.poll().trigger is None  # 0s elapsed
        clock["now"] = 59.0
        assert daemon.poll().trigger is None
        clock["now"] = 61.0
        assert daemon.poll().trigger == "interval"
        # the interval timer reset at the mine; no fresh data → no re-mine
        clock["now"] = 200.0
        assert daemon.poll().trigger is None
        log.close()

    def test_coverage_drop_trigger_fires_on_regression(self, tmp_path):
        from repro.audit.log import make_entry
        from repro.audit.schema import AccessStatus
        from repro.policy.store import PolicyStore
        from repro.vocab.builtin import healthcare_vocabulary

        vocabulary = healthcare_vocabulary()
        store = PolicyStore()
        store.add(parse_rule("ALLOW nurse TO USE prescription FOR treatment"))
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(store),
            vocabulary,
            AutoAcceptGate(min_support=100, min_distinct_users=100),  # never
            DaemonConfig(
                mining=MiningConfig(**MINING),
                mine_every_polls=0,  # only the drop trigger is armed
                coverage_drop=0.25,
            ),
        )
        covered = [
            make_entry(t, f"u{t % 3}", "prescription", "treatment", "nurse",
                       status=AccessStatus.EXCEPTION)
            for t in range(10)
        ]
        log.extend(covered)
        log.seal_active()
        baseline = daemon.poll(force_mine=True)  # baseline: fully covered
        assert baseline.trigger == "forced"
        assert baseline.entry_coverage == 1.0
        # a policy regression: half the trail is now an uncovered practice
        uncovered = [
            make_entry(10 + t, f"u{t % 3}", "psychiatry", "billing", "clerk",
                       status=AccessStatus.EXCEPTION)
            for t in range(10)
        ]
        log.extend(uncovered)
        log.seal_active()
        report = daemon.poll()  # tracker coverage fell 1.0 → 0.5 ≥ 0.25
        assert report.trigger == "coverage-drop"
        assert report.entry_coverage == 0.5
        log.close()


class TestCoverageDropReadsTheState:
    """The coverage-drop trigger reads the policy's entry coverage off the
    daemon state, so a live daemon fires exactly where a restarted one
    does: after a rule is retired, and over composite entries."""

    def _daemon(self, log, store, gate=None):
        from repro.vocab.builtin import healthcare_vocabulary

        return RefineDaemon(
            log,
            StorePolicyTarget(store),
            healthcare_vocabulary(),
            gate or AutoAcceptGate(min_support=100, min_distinct_users=100),
            DaemonConfig(
                mining=MiningConfig(**MINING),
                mine_every_polls=0,  # only the drop trigger is armed
                coverage_drop=0.25,
            ),
        )

    @staticmethod
    def _exceptions(start, count, data, purpose, role):
        from repro.audit.log import make_entry
        from repro.audit.schema import AccessStatus

        return [
            make_entry(start + t, f"u{t % 3}", data, purpose, role,
                       status=AccessStatus.EXCEPTION)
            for t in range(count)
        ]

    @pytest.mark.parametrize("restart", [False, True])
    def test_a_retired_rule_fires_the_drop(self, tmp_path, restart):
        from repro.policy.store import PolicyStore

        rule = parse_rule("ALLOW nurse TO USE prescription FOR treatment")
        store = PolicyStore()
        store.add(rule)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = self._daemon(log, store)
        log.extend(self._exceptions(0, 10, "prescription", "treatment", "nurse"))
        log.seal_active()
        assert daemon.poll(force_mine=True).entry_coverage == 1.0
        assert store.retire(rule)
        if restart:
            daemon = self._daemon(log, store)
        report = daemon.poll()  # no new seal: coverage fell 1.0 → 0.0
        assert report.trigger == "coverage-drop"
        assert report.entry_coverage == 0.0
        log.close()

    @pytest.mark.parametrize("restart", [False, True])
    def test_composite_entries_count_once(self, tmp_path, restart):
        from repro.policy.store import PolicyStore

        store = PolicyStore()
        store.add(parse_rule("ALLOW nurse TO USE prescription FOR treatment"))
        log = DurableAuditLog(tmp_path / "trail")
        gate = AutoAcceptGate(**MINING)
        daemon = self._daemon(log, store, gate)
        log.extend(
            self._exceptions(0, 10, "medical_records", "treatment", "nurse")
            + self._exceptions(10, 10, "prescription", "treatment", "nurse")
        )
        log.seal_active()
        adopted = daemon.poll(force_mine=True)
        assert adopted.entry_coverage == 0.5
        assert adopted.accepted == (
            parse_rule("ALLOW nurse TO USE medical_records FOR treatment"),
        )
        assert daemon.poll(force_mine=True).entry_coverage == 1.0
        log.extend(self._exceptions(20, 13, "psychiatry", "billing", "clerk"))
        log.seal_active()
        if restart:
            daemon = self._daemon(log, store, gate)
        report = daemon.poll()  # 20 of 33 entries covered: a drop of 13/33
        assert report.trigger == "coverage-drop"
        assert report.entry_coverage == pytest.approx(20 / 33)
        log.close()

    def test_idle_armed_polls_cover_once(self, tmp_path, monkeypatch):
        """The armed check recomputes coverage only when the watermark,
        the store revision or the vocabulary version moved."""
        from repro.errors import CoverageError
        from repro.parallel.refine import TrailAggregate
        from repro.policy.store import PolicyStore

        covers = []
        cover = TrailAggregate.cover

        def counting(self, *args, **kwargs):
            covers.append(1)
            return cover(self, *args, **kwargs)

        nurse = parse_rule("ALLOW nurse TO USE prescription FOR treatment")
        clerk = parse_rule("ALLOW clerk TO USE psychiatry FOR billing")
        store = PolicyStore()
        store.add(nurse)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = self._daemon(log, store)
        log.extend(self._exceptions(0, 10, "prescription", "treatment", "nurse"))
        log.seal_active()
        assert daemon.poll(force_mine=True).entry_coverage == 1.0
        monkeypatch.setattr(TrailAggregate, "cover", counting)

        def polls(count):
            """``count`` polls' triggers, and how many covers they ran."""
            before = len(covers)
            triggers = [daemon.poll().trigger for _ in range(count)]
            return triggers, len(covers) - before

        assert polls(3) == ([None, None, None], 1)
        store.add(clerk)  # an adoption
        assert polls(2) == ([None, None], 1)
        log.extend(self._exceptions(10, 10, "psychiatry", "billing", "clerk"))
        log.seal_active()  # a fold: both halves are covered
        assert polls(2) == ([None, None], 1)
        assert store.retire(clerk)  # coverage falls 1.0 → 0.5; mining covers once more
        assert polls(2) == (["coverage-drop", None], 2)
        daemon.vocabulary.tree_for("data").add("genomics", parent="medical_records")
        # the daemon's private grounder refuses a mutated vocabulary, as
        # it did before the ratio was kept: the new version is a new key
        with pytest.raises(CoverageError):
            daemon.poll()
        log.close()


class TestStrictVocabulary:
    def test_an_unknown_value_stops_the_tail_before_the_watermark(
        self, tmp_path
    ):
        from repro.audit.log import make_entry
        from repro.errors import UnknownTermError
        from repro.policy.store import PolicyStore
        from repro.vocab.builtin import healthcare_vocabulary

        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(PolicyStore()),
            healthcare_vocabulary(strict=True),
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(**MINING), mine_every_polls=0),
        )
        log.append(make_entry(0, "u0", "prescription", "treatment", "nurse"))
        log.append(make_entry(1, "u1", "tarot_reading", "treatment", "nurse"))
        log.seal_active()
        for _ in range(2):  # the poison stays ahead of the watermark
            with pytest.raises(UnknownTermError):
                daemon.poll()
            assert load_state(log.store.directory).watermark == 0
        log.close()


class TestServingIntegration:
    """The daemon hot-swaps a live engine without dropping requests."""

    def test_engine_target_adopts_via_snapshot_swap(self, tmp_path):
        from repro.refine_daemon import EnginePolicyTarget
        from repro.serve.engine import build_demo_engine
        from repro.store.durable import DurableAuditLog as Durable

        audit = Durable(tmp_path / "served", name="served")
        engine = build_demo_engine(rows=40, seed=7, audit_log=audit)
        target = EnginePolicyTarget(engine)
        setup = standard_loop_setup(accesses_per_round=600, seed=7)
        daemon = RefineDaemon(
            audit,
            target,
            setup.vocabulary,
            AutoAcceptGate(min_support=5, min_distinct_users=2),
            DaemonConfig(mining=MiningConfig(**MINING)),
        )
        snapshot_before = engine.manager.current.snapshot_id
        # exception traffic lands in the served trail; the daemon mines it
        audit.extend(setup.environment.simulate_round(0, setup.store))
        audit.seal_active()
        report = daemon.poll()
        assert report.accepted  # mined rules were hot-swapped in
        after = engine.manager.current
        assert after.snapshot_id > snapshot_before
        for rule in report.accepted:
            assert rule in after.policy_store
        # versions stamp moved with the swap
        assert engine.versions()["snapshot"] == after.snapshot_id
        audit.close()

    def test_daemon_status_is_json_ready(self, tmp_path):
        import json

        _, daemon, log, _, _ = drive_daemon(tmp_path, rounds=1)
        status = daemon.status()
        assert json.loads(json.dumps(status)) == status
        assert status["watermark_entries"] == status["trail_entries"]
        assert status["lag_entries"] == 0
        assert status["rounds"] == 1
        log.close()


class TestDecisionProvenanceStamping:
    """Accepted rules carry the evidence that mined them (ISSUE 7)."""

    def _traced_run(self, tmp_path, provenance=None, rounds=ROUNDS):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer(sample_every=1)
        with use_tracer(tracer):
            setup = standard_loop_setup(accesses_per_round=800, seed=7)
            log = DurableAuditLog(tmp_path / "trail", name="online")
            daemon = RefineDaemon(
                log,
                StorePolicyTarget(setup.store),
                setup.vocabulary,
                AutoAcceptGate(**GATE),
                DaemonConfig(mining=MiningConfig(**MINING)),
                provenance=provenance,
            )
        windows = []
        for round_index in range(rounds):
            window = setup.environment.simulate_round(round_index, setup.store)
            windows.append(window)
            log.extend(window)
            log.seal_active()
            daemon.poll()
        return setup, daemon, log, windows, tracer

    def test_accepted_candidates_carry_bounded_audit_evidence(self, tmp_path):
        from repro.refine_daemon.state import EVIDENCE_LIMIT

        setup, daemon, log, windows, tracer = self._traced_run(tmp_path)
        trail = [entry for window in windows for entry in window]
        accepted = daemon.state.accepted
        assert accepted
        attributes = MiningConfig(**MINING).attributes
        for candidate in accepted:
            assert candidate.evidence_entries
            assert len(candidate.evidence_entries) <= EVIDENCE_LIMIT
            for entry_id in candidate.evidence_entries:
                entry = trail[entry_id]
                # the evidence is exactly the exception traffic whose
                # lifted rule is the candidate
                assert entry.is_exception
                assert format_rule(entry.to_rule(attributes)) == candidate.rule
        log.close()

    def test_accepting_poll_trace_is_stamped_and_retained(self, tmp_path):
        _, daemon, log, _, tracer = self._traced_run(tmp_path)
        poll_ids = {candidate.trace_id for candidate in daemon.state.accepted}
        assert all(len(trace_id) == 32 for trace_id in poll_ids)
        for trace_id in poll_ids:
            trace = tracer.store.get(trace_id)
            assert trace is not None
            assert trace["name"] == "repro_refine_daemon_poll"
            # adoption force-retains the poll even under sparse sampling
            assert "refined" in trace["keep"]
            names = {span["name"] for span in trace["spans"]}
            assert "repro_refine_daemon_mine" in names
        log.close()

    def test_evidence_resolves_to_serving_traces_via_ledger(self, tmp_path):
        from repro.obs.provenance import ProvenanceLedger

        ledger = ProvenanceLedger()
        serving_trace = "ab" * 16
        ledger.record({
            "trace_id": serving_trace, "op": "decide", "user": "u",
            "role": "r", "purpose": "p", "decision": "OK",
            "status": "exception", "categories": [], "matched_rules": {},
            "versions": {}, "cache": "off", "queue_ms": None,
            "handle_ms": None, "entry_ids": list(range(3200)),
            "deadline_remaining_ms": None,
        })
        _, daemon, log, _, _ = self._traced_run(tmp_path, provenance=ledger)
        accepted = daemon.state.accepted
        assert accepted
        assert all(
            candidate.evidence_traces == [serving_trace]
            for candidate in accepted
        )
        log.close()

    def test_evidence_survives_a_state_round_trip(self, tmp_path):
        _, daemon, log, _, _ = self._traced_run(tmp_path, rounds=2)
        persisted = load_state(log.store.directory)
        by_rule = {c.rule: c for c in persisted.accepted}
        for candidate in daemon.state.accepted:
            twin = by_rule[candidate.rule]
            assert twin.evidence_entries == candidate.evidence_entries
            assert twin.evidence_traces == candidate.evidence_traces
            assert twin.trace_id == candidate.trace_id
        log.close()

    def test_untraced_daemon_still_matches_offline_loop(self, tmp_path):
        """Evidence stamping never changes *what* is accepted: the NULL
        tracer run stays byte-identical to the offline comparator."""
        from repro.obs.trace import NULL_TRACER, use_tracer

        with use_tracer(NULL_TRACER):
            online_setup, daemon, log, windows, _ = drive_daemon(tmp_path)
        offline_setup, _ = offline_loop(windows)
        assert rules_of(online_setup.store) == rules_of(offline_setup.store)
        for candidate in daemon.state.accepted:
            assert candidate.trace_id == ""  # no poll trace to stamp
            assert candidate.evidence_entries  # evidence is tracer-free
        log.close()
