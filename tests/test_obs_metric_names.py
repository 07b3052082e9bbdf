"""Exported metric names: a span's histogram gets ``_seconds`` once.

``Span`` appends ``_seconds`` to the name it is given, so a span named
``..._seconds`` would export ``..._seconds_seconds``.  This runs the
instrumented corpus, explanation and refinement paths under a private
registry and checks every histogram name it exported.
"""

from __future__ import annotations

from repro import obs
from repro.corpus import (
    CorpusSpec,
    generate_corpus,
    load_corpus,
    save_corpus,
    simulate_corpus_trace,
)
from repro.explain import (
    ExplanationContext,
    build_index,
    mine_template_weights,
    triage_patterns,
)
from repro.mining.patterns import MiningConfig
from repro.refinement.engine import RefinementConfig, refine

SMALL = CorpusSpec(seed=5, departments=3, staff_per_role=2, patients=40,
                   rounds=1, accesses_per_round=500, protocol_rules=10)


def test_no_histogram_name_repeats_the_seconds_suffix(tmp_path):
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        corpus = generate_corpus(SMALL)
        trace = simulate_corpus_trace(corpus)
        save_corpus(corpus, trace, tmp_path / "bundle")
        load_corpus(tmp_path / "bundle")
        context = ExplanationContext(trace.state, trace.log)
        weights = mine_template_weights(trace.log, context)
        index = build_index(trace.log, context, weights)
        result = refine(
            corpus.store.policy(), trace.log, corpus.vocabulary,
            RefinementConfig(mining=MiningConfig(min_support=3)),
        )
        triage_patterns(result.patterns, index)
        names = {sample["name"] for sample in registry.snapshot()["histograms"]}
    assert not {name for name in names if name.endswith("_seconds_seconds")}
    assert {
        "repro_corpus_generate_seconds",
        "repro_corpus_round_seconds",
        "repro_corpus_save_seconds",
        "repro_corpus_load_seconds",
        "repro_explain_mine_seconds",
        "repro_explain_score_seconds",
        "repro_explain_triage_seconds",
        "repro_refinement_stage_seconds",
    } <= names
