"""E8 — ComputeCoverage (Algorithm 1) scaling and the grounding ablation.

Coverage reduces to range materialisation plus a set intersection; the
refinement loop recomputes it constantly over an evolving store, so the
memoised :class:`~repro.policy.grounding.Grounder` is the design choice
DESIGN.md calls out.  We measure coverage over stores of 10–1 000
composite rules, both cold (a fresh grounder per call) and warm (the
default call through the vocabulary's shared grounder), and the
ablation: memoised vs naive re-expansion when the same policy is ground
ten times (the loop's actual access pattern).
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import emit
from repro.coverage.engine import compute_coverage
from repro.experiments.reporting import format_table
from repro.policy.grounding import Grounder, Range
from repro.policy.policy import Policy
from repro.policy.rule import Rule
from repro.vocab.builtin import healthcare_vocabulary

VOCAB = healthcare_vocabulary()


def _random_policy(rules: int, seed: int, composite_bias: float = 0.5) -> Policy:
    rng = random.Random(seed)
    data_tree = VOCAB.tree_for("data")
    purpose_tree = VOCAB.tree_for("purpose")
    role_tree = VOCAB.tree_for("authorized")

    def pick(tree):
        nodes = list(tree)
        internal = [n for n in nodes if not tree.is_leaf(n)]
        leaves = [n for n in nodes if tree.is_leaf(n)]
        if internal and rng.random() < composite_bias:
            return rng.choice(internal)
        return rng.choice(leaves)

    return Policy(
        [
            Rule.of(
                data=pick(data_tree),
                purpose=pick(purpose_tree),
                authorized=pick(role_tree),
            )
            for _ in range(rules)
        ]
    )


@pytest.mark.parametrize("path", ["cold", "warm"])
@pytest.mark.parametrize("store_rules", [10, 100, 1000])
def test_e8_coverage_scaling(benchmark, store_rules, path):
    """``cold`` grounds both policies afresh on every call (a new
    grounder each time); ``warm`` is the default call, which reuses the
    vocabulary's shared grounder and so, after the first round, only
    probes its memo."""
    store = _random_policy(store_rules, seed=store_rules)
    audit = _random_policy(200, seed=7, composite_bias=0.0)
    if path == "cold":
        report = benchmark(
            lambda: compute_coverage(store, audit, VOCAB, Grounder(VOCAB))
        )
    else:
        report = benchmark(compute_coverage, store, audit, VOCAB)
    assert 0.0 <= report.ratio <= 1.0


def test_e8_memoised_vs_naive_ablation(benchmark):
    import time

    policy = _random_policy(300, seed=3)
    repeats = 10

    def naive() -> Range:
        result = Range()
        for _ in range(repeats):
            rules = set()
            for rule in policy:
                rules.update(rule.ground_rules(VOCAB))
            result = Range(rules)
        return result

    def memoised() -> Range:
        grounder = Grounder(VOCAB)
        result = Range()
        for _ in range(repeats):
            result = grounder.range_of(policy)
        return result

    assert naive() == memoised()

    started = time.perf_counter()
    naive()
    naive_seconds = time.perf_counter() - started
    started = time.perf_counter()
    memoised()
    memo_seconds = time.perf_counter() - started
    emit(
        format_table(
            ["grounding", "seconds (10x range of 300-rule policy)"],
            [
                ["naive re-expansion", f"{naive_seconds:.4f}"],
                ["memoised grounder", f"{memo_seconds:.4f}"],
                ["speedup", f"{naive_seconds / memo_seconds:.2f}x"],
            ],
            title="E8 ablation — memoised vs naive grounding",
        )
    )
    # the ablation's point: memoisation wins on repeated range computation
    assert memo_seconds < naive_seconds
    benchmark(memoised)
