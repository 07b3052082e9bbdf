"""Tests for the closed refinement loop (Figure 2 dynamics)."""

from __future__ import annotations

import pytest

from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.errors import RefinementError
from repro.mining.patterns import MiningConfig
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.refinement.engine import RefinementConfig
from repro.refinement.loop import RefinementLoop
from repro.refinement.review import AcceptAll, RejectAll, ThresholdReview
from repro.vocab.builtin import healthcare_vocabulary


class _ScriptedEnvironment:
    """Deterministic environment: one recurring undocumented practice."""

    def __init__(self) -> None:
        self.tick = 1

    def simulate_round(self, round_index: int, store: PolicyStore) -> AuditLog:
        covered = Rule.of(
            data="referral", purpose="registration", authorized="nurse"
        ) in store
        log = AuditLog(name=f"round{round_index}")
        for user in ("a", "b", "c", "a", "b", "c"):
            log.append(
                make_entry(
                    self.tick, user, "referral", "registration", "nurse",
                    status=AccessStatus.REGULAR if covered else AccessStatus.EXCEPTION,
                )
            )
            self.tick += 1
        # one sanctioned access so exception_rate is defined either way
        log.append(
            make_entry(self.tick, "d", "prescription", "treatment", "nurse",
                       status=AccessStatus.REGULAR)
        )
        self.tick += 1
        return log


def _store() -> PolicyStore:
    store = PolicyStore()
    store.add(Rule.of(data="prescription", purpose="treatment", authorized="nurse"))
    return store


def _loop(review, **kwargs) -> RefinementLoop:
    return RefinementLoop(
        environment=_ScriptedEnvironment(),
        store=_store(),
        vocabulary=healthcare_vocabulary(),
        review=review,
        config=RefinementConfig(mining=MiningConfig(min_support=5)),
        **kwargs,
    )


class TestLoopDynamics:
    def test_accepted_rule_stops_exception_traffic(self):
        result = _loop(AcceptAll()).run(3)
        rates = result.exception_rate_series()
        # round 0 is all exceptions; once the rule lands, traffic is regular
        assert rates[0] == pytest.approx(6 / 7)
        assert rates[1] == 0.0
        assert rates[2] == 0.0

    def test_coverage_improves_after_acceptance(self):
        result = _loop(AcceptAll()).run(2)
        first = result.rounds[0]
        assert first.coverage_after > first.coverage_before
        assert first.rules_accepted == 1
        assert first.store_size_after == 2

    def test_reject_all_keeps_exceptions_flowing(self):
        result = _loop(RejectAll()).run(3)
        assert all(rate == pytest.approx(6 / 7) for rate in result.exception_rate_series())
        assert all(r.rules_accepted == 0 for r in result.rounds)
        # the same useful pattern keeps being proposed every round
        assert all(r.patterns_useful == 1 for r in result.rounds)

    def test_threshold_review_gates_acceptance(self):
        # 6 occurrences, 3 users per round; threshold demands 12 support,
        # reached once two rounds accumulate (cumulative refinement)
        loop = _loop(ThresholdReview(min_support=12, min_distinct_users=3))
        result = loop.run(3)
        accepted_in = [r.round_index for r in result.rounds if r.rules_accepted]
        assert accepted_in == [1]

    def test_window_mode_refines_on_round_only(self):
        loop = _loop(
            ThresholdReview(min_support=12, min_distinct_users=3),
            refine_on_cumulative=False,
        )
        result = loop.run(3)
        # per-round windows never reach 12 occurrences
        assert all(r.rules_accepted == 0 for r in result.rounds)

    def test_cumulative_log_collects_all_rounds(self):
        result = _loop(AcceptAll()).run(3)
        assert len(result.cumulative_log) == 21

    def test_round_reports_capture_refinement_result(self):
        result = _loop(AcceptAll()).run(1)
        report = result.rounds[0]
        assert report.entries == 7
        assert report.patterns_mined == 1
        assert report.refinement.prune.useful[0].support == 6

    def test_coverage_series_shape(self):
        result = _loop(AcceptAll()).run(3)
        series = result.coverage_series()
        assert len(series) == 3
        assert series[0] == 1.0  # both distinct rules covered after round 0


class TestValidation:
    def test_zero_rounds_rejected(self):
        with pytest.raises(RefinementError):
            _loop(AcceptAll()).run(0)

    def test_empty_environment_rejected(self):
        class Empty:
            def simulate_round(self, round_index, store):
                return AuditLog()

        loop = RefinementLoop(
            environment=Empty(),
            store=_store(),
            vocabulary=healthcare_vocabulary(),
            review=AcceptAll(),
        )
        with pytest.raises(RefinementError):
            loop.run(1)
