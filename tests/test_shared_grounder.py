"""The shared per-vocabulary grounder behind every ``grounder=None`` call.

``refine()``, the coverage functions, Prune and ``policy_range`` ground
through :meth:`Grounder.for_vocabulary` when no grounder is passed, so a
second call over the same vocabulary reuses the store rules' expansions
and the trail's lifted rules.  These tests pin that reuse as counts and
identities: a warm call grounds nothing and lifts nothing, its result is
the cold result, a vocabulary mutation is picked up rather than served
stale, the shared grounder never keeps its vocabulary alive, and its
telemetry lands in the registry active at the call.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import obs
from repro.coverage.engine import compute_coverage
from repro.errors import CoverageError, UnknownTermError
from repro.parallel.execution import ExecutionPolicy
from repro.policy.grounding import Grounder, grounder_for, policy_range
from repro.policy.parser import format_rule
from repro.policy.rule import Rule
from repro.refinement.engine import MINERS, RefinementConfig, refine
from repro.store.durable import copy_to_durable
from repro.vocab.builtin import healthcare_vocabulary
from repro.vocab.vocabulary import Vocabulary
from repro.workload.scenarios import figure3_policy, table1_audit_log


def serialise(result) -> dict:
    """Everything ``refine()`` returns but the lazy practice view."""

    def patterns(items):
        return [(format_rule(p.rule), p.support, p.distinct_users) for p in items]

    return {
        "patterns": patterns(result.patterns),
        "useful": patterns(result.useful_patterns),
        "pruned": patterns(result.pruned_patterns),
        "set_coverage": result.coverage.ratio,
        "overlap": result.coverage.overlap.rules(),
        "entry_coverage": (
            result.entry_coverage.ratio,
            result.entry_coverage.matched,
            result.entry_coverage.total,
        ),
        "uncovered": result.entry_coverage.uncovered_entries,
    }


def split_address(vocabulary: Vocabulary) -> None:
    """Make the Table 1 trail's covered ``address`` composite over three
    leaves: Figure 3's set coverage moves from 3/6 to 5/8."""
    tree = vocabulary.tree_for("data")
    for leaf in ("street", "city", "postcode"):
        tree.add(leaf, parent="address")


@pytest.fixture()
def trail(tmp_path):
    """The Section 5 trail, in memory and in a sealed durable store."""
    log = table1_audit_log()
    durable = copy_to_durable(log, tmp_path / "store")
    durable.seal_active()
    yield {"memory": log, "durable": durable}
    durable.close()


@pytest.fixture()
def counted_from_pairs(monkeypatch):
    """Count ``Rule.from_pairs`` calls: how lifted rules get built."""
    calls = []
    original = Rule.from_pairs.__func__

    def counting(cls, pairs):
        calls.append(pairs)
        return original(cls, pairs)

    monkeypatch.setattr(Rule, "from_pairs", classmethod(counting))
    return calls


class TestWarmRefine:
    @pytest.mark.parametrize("miner", MINERS)
    @pytest.mark.parametrize("source", ["memory", "durable"])
    def test_warm_call_grounds_and_lifts_nothing(
        self, trail, counted_from_pairs, source, miner
    ):
        vocabulary = healthcare_vocabulary()
        policy = figure3_policy()
        config = RefinementConfig(miner=miner)
        grounder = Grounder.for_vocabulary(vocabulary)
        cold = refine(policy, trail[source], vocabulary, config)
        assert grounder.misses > 0
        assert counted_from_pairs  # the cold call lifted the trail's keys
        misses = grounder.misses
        counted_from_pairs.clear()
        warm = refine(policy, trail[source], vocabulary, config)
        assert grounder.misses == misses
        assert counted_from_pairs == []
        assert serialise(warm) == serialise(cold)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("miner", MINERS)
    def test_cold_and_warm_equal_a_private_grounder(self, trail, miner, workers):
        vocabulary = healthcare_vocabulary()
        policy = figure3_policy()
        config = RefinementConfig(
            miner=miner, execution=ExecutionPolicy(workers=workers)
        )
        private = refine(
            policy, trail["durable"], vocabulary, config, Grounder(vocabulary)
        )
        cold = refine(policy, trail["durable"], vocabulary, config)
        warm = refine(policy, trail["durable"], vocabulary, config)
        assert serialise(cold) == serialise(warm) == serialise(private)
        # the paper's goldens, through the shared grounder
        assert warm.coverage.ratio == 0.5
        assert warm.entry_coverage.ratio == 0.3


class TestVocabularyMutation:
    def test_mutation_between_calls_matches_a_fresh_vocabulary(self):
        vocabulary = healthcare_vocabulary()
        policy, log = figure3_policy(), table1_audit_log()
        before = refine(policy, log, vocabulary)
        split_address(vocabulary)
        after = refine(policy, log, vocabulary)  # no CoverageError
        fresh = Vocabulary.from_dict(healthcare_vocabulary().to_dict())
        split_address(fresh)
        expected = refine(policy, log, fresh, None, Grounder(fresh))
        assert serialise(after) == serialise(expected)
        assert serialise(after) != serialise(before)
        assert after.coverage.ratio == 5 / 8

    def test_shared_grounder_restamps_instead_of_raising(self):
        vocabulary = healthcare_vocabulary()
        policy = figure3_policy()
        shared = Grounder.for_vocabulary(vocabulary)
        private = Grounder(vocabulary)
        shared.range_of(policy)
        private.range_of(policy)
        vocabulary.tree_for("data").add("middle_name", parent="demographic")
        with pytest.raises(CoverageError, match="mutated"):
            private.range_of(policy)
        assert policy_range(policy, vocabulary) == Grounder(vocabulary).range_of(
            policy
        )
        assert Grounder.for_vocabulary(vocabulary) is shared
        assert shared.misses == len(policy)  # re-ground after the clear


    def test_strictness_flip_is_a_mutation(self):
        vocabulary = healthcare_vocabulary()
        unknown = [Rule.of(data="alien_artifact", purpose="treatment",
                           authorized="nurse")]
        assert policy_range(unknown, vocabulary).cardinality == 1
        vocabulary.strict = True
        with pytest.raises(UnknownTermError):
            policy_range(unknown, vocabulary)


class TestSharing:
    def test_one_shared_grounder_per_vocabulary(self):
        vocabulary = healthcare_vocabulary()
        shared = Grounder.for_vocabulary(vocabulary)
        assert Grounder.for_vocabulary(vocabulary) is shared
        assert grounder_for(vocabulary) is shared
        assert Grounder(vocabulary) is not shared
        assert Grounder.for_vocabulary(healthcare_vocabulary()) is not shared

    def test_grounder_for_another_vocabulary_is_refused(self):
        vocabulary = healthcare_vocabulary()
        other = Grounder(healthcare_vocabulary())
        with pytest.raises(CoverageError):
            compute_coverage(figure3_policy(), figure3_policy(), vocabulary, other)
        with pytest.raises(CoverageError):
            refine(figure3_policy(), table1_audit_log(), vocabulary, None, other)

    def test_dropped_vocabulary_is_collected(self):
        vocabulary = healthcare_vocabulary()
        refine(figure3_policy(), table1_audit_log(), vocabulary)
        vocabulary_ref = weakref.ref(vocabulary)
        grounder_ref = weakref.ref(Grounder.for_vocabulary(vocabulary))
        del vocabulary
        gc.collect()
        assert vocabulary_ref() is None
        assert grounder_ref() is None


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        sample["value"] for sample in snapshot["counters"] if sample["name"] == name
    )


class TestTelemetry:
    HITS = "repro_policy_grounder_cache_hits_total"
    MISSES = "repro_policy_grounder_cache_misses_total"

    def test_warm_call_counts_land_in_the_active_registry(self):
        vocabulary = healthcare_vocabulary()
        policy, log = figure3_policy(), table1_audit_log()
        default = obs.get_registry()
        refine(policy, log, vocabulary)  # cold, under the default registry
        default_hits = _counter(default.snapshot(), self.HITS)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            refine(policy, log, vocabulary)
        snapshot = registry.snapshot()
        assert _counter(snapshot, self.HITS) > 0
        assert _counter(snapshot, self.MISSES) == 0
        assert _counter(default.snapshot(), self.HITS) == default_hits
