"""E2 — Table 1 / Section 5: the full use-case refinement run.

Paper numbers: entry coverage drops to 3/10 = 30 %; Filter keeps seven
exception entries; mining (f = 5, COUNT(DISTINCT user) > 1 over
(data, purpose, authorized)) extracts exactly Referral:Registration:Nurse
(entries t3, t7-t10); pruning keeps it; adopting it raises entry coverage
to 8/10.  The bench times one full Refinement(P_PS, P_AL, V) invocation
(Algorithm 2: coverage + filter + mining + prune, run by the one-shard
kernel) and checks it against the literal pipeline, whose miner is the
paper's Algorithm 5 SQL statement (``tests/reference.py``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.experiments.paper import reproduce_table1
from repro.experiments.reporting import format_table
from repro.policy.rule import Rule
from repro.refinement.engine import refine
from repro.workload.scenarios import figure3_policy, table1_audit_log
from tests.reference import assert_identical, reference_refine


def test_e2_table1_refinement(benchmark, vocabulary):
    store_policy = figure3_policy()
    log = table1_audit_log()

    result = benchmark(refine, store_policy, log, vocabulary)

    expected = Rule.of(data="referral", purpose="registration", authorized="nurse")
    assert result.entry_coverage.ratio == pytest.approx(0.3)
    assert len(result.practice) == 7
    assert [p.rule for p in result.useful_patterns] == [expected]
    assert result.useful_patterns[0].support == 5
    assert result.useful_patterns[0].distinct_users == 3
    assert_identical(reference_refine(store_policy, log, vocabulary), result)

    full = reproduce_table1()
    emit(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["entry coverage before", "30%", f"{full.entry_coverage_before.ratio:.0%}"],
                ["practice entries", 7, full.practice_size],
                ["patterns mined", 1, len(full.patterns)],
                ["pattern", "Referral:Registration:Nurse", str(full.patterns[0].rule)],
                ["pattern support", 5, full.patterns[0].support],
                ["distinct users", "3 (>1)", full.patterns[0].distinct_users],
                ["entry coverage after", "8/10", f"{full.entry_coverage_after.ratio:.0%}"],
            ],
            title="E2 / Table 1 — Section 5 use case",
        )
    )
