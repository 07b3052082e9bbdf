"""Unit tests for Algorithm 2 (the Refinement engine)."""

from __future__ import annotations

import pytest

from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.errors import RefinementError
from repro.mining.apriori import AprioriPatternMiner
from repro.mining.patterns import MiningConfig
from repro.mining.sql_patterns import SqlPatternMiner
from repro.policy.rule import Rule
from repro.refinement.engine import RefinementConfig, refine


class TestSection5:
    def test_full_pipeline_on_table1(self, vocabulary, fig3_store, table1_log):
        result = refine(fig3_store.policy(), table1_log, vocabulary)
        assert result.entry_coverage.ratio == pytest.approx(0.3)
        assert result.coverage.ratio == pytest.approx(0.5)
        assert len(result.practice) == 7
        assert result.candidate_rules == (
            Rule.of(data="referral", purpose="registration", authorized="nurse"),
        )

    def test_pattern_already_in_store_is_pruned(self, vocabulary, fig3_store, table1_log):
        fig3_store.add(
            Rule.of(data="referral", purpose="registration", authorized="nurse")
        )
        result = refine(fig3_store.policy(), table1_log, vocabulary)
        assert result.useful_patterns == ()
        assert len(result.pruned_patterns) == 1

    def test_summary_mentions_candidates(self, vocabulary, fig3_store, table1_log):
        text = refine(fig3_store.policy(), table1_log, vocabulary).summary()
        assert "candidate" in text
        assert "referral" in text


class TestConfiguration:
    def test_empty_log_rejected(self, vocabulary, fig3_store):
        with pytest.raises(RefinementError):
            refine(fig3_store.policy(), AuditLog(), vocabulary)

    def test_mining_config_threaded_through(self, vocabulary, fig3_store, table1_log):
        config = RefinementConfig(mining=MiningConfig(min_support=6))
        result = refine(fig3_store.policy(), table1_log, vocabulary, config)
        assert result.patterns == ()

    def test_custom_miner_threaded_through(self, vocabulary, fig3_store, table1_log):
        config = RefinementConfig(miner="apriori")
        result = refine(fig3_store.policy(), table1_log, vocabulary, config)
        assert len(result.useful_patterns) == 1

    @pytest.mark.parametrize(
        "miner",
        ["fpgrowth", "SQL", "", None, SqlPatternMiner(), AprioriPatternMiner()],
        ids=["unknown", "wrong-case", "empty", "none", "sql-object", "apriori-object"],
    )
    def test_only_the_named_miners_are_accepted(self, miner):
        with pytest.raises(ValueError, match="unknown miner"):
            RefinementConfig(miner=miner)

    def test_violation_screening_option(self, vocabulary, fig3_store):
        log = AuditLog()
        tick = 1
        for _ in range(6):
            log.append(
                make_entry(tick, "creep", "psychiatry", "telemarketing", "clerk",
                           status=AccessStatus.EXCEPTION, truth="violation")
            )
            tick += 1
        unscreened = refine(
            fig3_store.policy(), log, vocabulary,
            RefinementConfig(mining=MiningConfig(min_distinct_users=1)),
        )
        # single-user snooping would surface without screening (c=1!)
        assert len(unscreened.useful_patterns) == 1
        screened = refine(
            fig3_store.policy(), log, vocabulary,
            RefinementConfig(
                mining=MiningConfig(min_distinct_users=1),
                exclude_suspected_violations=True,
            ),
        )
        assert screened.useful_patterns == ()

    def test_attribute_subset_coverage(self, vocabulary, fig3_store, table1_log):
        config = RefinementConfig(
            mining=MiningConfig(attributes=("data", "purpose"), min_support=5)
        )
        result = refine(fig3_store.policy(), table1_log, vocabulary, config)
        # coverage is then computed over 2-term audit rules, none of which
        # match the 3-term store rules
        assert result.coverage.ratio == 0.0
        assert result.useful_patterns[0].rule.cardinality == 2
