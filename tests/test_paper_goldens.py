"""Golden paper-number regressions pinned through every coverage path.

The paper makes exactly two quantitative claims, and a backend swap (like
the bitset Range) must not be able to drift either of them:

- **Figure 3**: store range 8, audit range 6, overlap 3 — coverage
  3/6 = 50 % (Definition 9 set semantics).
- **Table 1 / Section 5**: entry coverage over the ten-entry audit trail
  is 3/10 = 30 % (trace semantics; the five ``Referral:Registration:
  Nurse`` entries are one ground rule but five entries).

Each number is asserted through :func:`compute_coverage`,
:func:`compute_entry_coverage` *and* :meth:`TrailAggregate.cover
<repro.parallel.refine.TrailAggregate.cover>` — the incremental state the
refinement daemon folds its trail into — so the batch engines and the
daemon's coverage cannot diverge from each other or from the paper.
"""

from __future__ import annotations

import pytest

from repro.audit.schema import RULE_ATTRIBUTES
from repro.coverage.engine import compute_coverage, compute_entry_coverage
from repro.parallel.partials import map_shard
from repro.parallel.refine import TrailAggregate
from repro.parallel.shards import shards_of
from repro.policy.grounding import Grounder
from repro.policy.policy import Policy
from repro.refine_daemon.daemon import tail_task
from repro.workload.scenarios import expected_table1_pattern


def cover(aggregate, policy, vocabulary):
    """``policy``'s coverage of the trail folded into ``aggregate``."""
    return aggregate.cover(policy, vocabulary, Grounder(vocabulary), RULE_ATTRIBUTES)


def aggregate_of(log) -> TrailAggregate:
    """``log`` mapped as one shard and folded, as the daemon folds it."""
    (shard,) = shards_of(log, 1)
    return TrailAggregate().fold(map_shard(shard, tail_task(RULE_ATTRIBUTES)))


class TestFigure3Goldens:
    def test_compute_coverage_is_half(self, vocabulary, fig3_policy, fig3_audit):
        report = compute_coverage(fig3_policy, fig3_audit, vocabulary)
        assert report.covering.cardinality == 8
        assert report.reference.cardinality == 6
        assert report.overlap.cardinality == 3
        assert report.ratio == pytest.approx(0.5)
        assert not report.complete
        assert report.uncovered.cardinality == 3

    def test_entry_coverage_on_figure3_audit_rules(
        self, vocabulary, fig3_policy, fig3_audit
    ):
        # Figure 3's audit policy is already deduplicated ground rules, so
        # trace semantics coincide with set semantics: 3/6 = 50 %.
        report = compute_entry_coverage(
            fig3_policy, iter(fig3_audit), vocabulary
        )
        assert report.total == 6
        assert report.matched == 3
        assert report.ratio == pytest.approx(0.5)

    def test_incremental_tracker_reaches_half(
        self, vocabulary, fig3_policy, fig3_audit
    ):
        # Figure 3(b)'s six ground rules, one entry each
        aggregate = TrailAggregate(
            rules={
                tuple(rule.value_of(a) for a in RULE_ATTRIBUTES): 1
                for rule in fig3_audit
            }
        )
        head = cover(aggregate, fig3_policy, vocabulary)
        assert head.entries == 6
        assert len(head.uncovered) == 3
        assert head.entry_ratio == pytest.approx(0.5)
        assert head.coverage.ratio == pytest.approx(0.5)


class TestTable1Goldens:
    def test_entry_coverage_is_thirty_percent(
        self, vocabulary, fig3_policy, table1_log
    ):
        trace = [entry.to_rule() for entry in table1_log]
        report = compute_entry_coverage(fig3_policy, trace, vocabulary)
        assert report.total == 10
        assert report.matched == 3
        assert report.ratio == pytest.approx(0.3)
        assert len(report.uncovered_entries) == 7

    def test_set_coverage_on_deduplicated_trail_is_half(
        self, vocabulary, fig3_policy, table1_log
    ):
        # The EXPERIMENTS.md discrepancy note: Definition 9 on the
        # deduplicated Table 1 rules gives 3/6 = 50 %, not 30 %.
        report = compute_coverage(
            fig3_policy, table1_log.to_policy(), vocabulary
        )
        assert report.reference.cardinality == 6
        assert report.overlap.cardinality == 3
        assert report.ratio == pytest.approx(0.5)

    def test_incremental_tracker_reports_both_semantics(
        self, vocabulary, fig3_policy, table1_log
    ):
        head = cover(aggregate_of(table1_log), fig3_policy, vocabulary)
        assert head.entries == 10
        assert len(head.lifted) == 6
        assert sum(head.uncovered.values()) == 7
        assert head.entry_ratio == pytest.approx(0.3)
        assert head.coverage.ratio == pytest.approx(0.5)

    def test_incremental_retroactive_credit_matches_batch(
        self, vocabulary, fig3_policy, table1_log
    ):
        # Fold the whole trail first, then cover it: the policy's rules
        # credit the folded history, at 30 % as the batch engine reports,
        # and the one refined pattern lifts it to Section 5's 80 %.
        aggregate = aggregate_of(table1_log)
        before = cover(aggregate, fig3_policy, vocabulary)
        assert before.entry_ratio == pytest.approx(0.3)
        refined = Policy((*fig3_policy, expected_table1_pattern()))
        head = cover(aggregate, refined, vocabulary)
        assert head.entry_ratio == pytest.approx(0.8)
        batch = compute_entry_coverage(
            refined, [entry.to_rule() for entry in table1_log], vocabulary
        )
        assert head.entry_ratio == batch.ratio
