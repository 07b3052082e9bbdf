"""E15 — telemetry overhead: instrumented vs dark coverage computation.

The telemetry layer (DESIGN.md §8) promises that instrumentation is cheap
enough to leave on: hot paths keep plain ints flushed by collectors at
snapshot time, and per-call extras are a single span plus a few counter
increments.  This bench runs the E8/E14 coverage-scaling workload shape
twice — once under :data:`repro.obs.NULL_REGISTRY` (dark) and once under a
live :class:`~repro.obs.MetricsRegistry` — in interleaved dark/live trial
pairs, and asserts that the median over pairs of the live/dark time ratio
stays within 5 % of 1.  Each ratio compares two trials run back to back,
so a slow stretch of the host moves both halves of a pair together, and
the median ignores the pairs a stretch splits; the arm that leads a pair
alternates, so neither arm always runs second.  A JSON perf record (including the live run's telemetry
snapshot) lands in ``benchmarks/out/e15_obs_overhead.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import emit
from benchmarks.test_e14_range_backend import _random_policy, _scale_vocabulary
from repro import obs
from repro.coverage.engine import compute_coverage, compute_entry_coverage
from repro.experiments.reporting import format_table
from repro.policy.grounding import Grounder

_STORE_RULES = 400
_AUDIT_RULES = 250
_ENTRY_TRACE = 300
_REPEATS = 12  # coverage computations per timed trial
_TRIALS = 15  # interleaved dark/live pairs; the median pair ratio is compared
_MAX_OVERHEAD = 0.05

_OUT_PATH = Path(__file__).parent / "out" / "e15_obs_overhead.json"


def _build_workload(registry: obs.MetricsRegistry):
    """Vocabulary, policies, entry trace and a *warm* grounder under ``registry``.

    Everything (grounder included) is constructed while ``registry`` is
    active, because components capture the active registry at construction
    — this is the A/B mechanism the runtime layer provides.
    """
    with obs.use_registry(registry):
        vocab = _scale_vocabulary()
        store = _random_policy(vocab, _STORE_RULES, seed=3)
        audit = _random_policy(vocab, _AUDIT_RULES, seed=7)
        entries = list(_random_policy(vocab, _ENTRY_TRACE, seed=11))
        grounder = Grounder(vocab)
        # Warm up: populate the grounder memo and interner so the timed
        # region measures steady-state coverage, not first-touch grounding.
        compute_coverage(store, audit, vocab, grounder)
        compute_entry_coverage(store, iter(entries), vocab, grounder)
    return vocab, store, audit, entries, grounder


def _timed_trial(registry, vocab, store, audit, entries, grounder) -> float:
    """One trial: ``_REPEATS`` coverage computations under ``registry``."""
    with obs.use_registry(registry):
        started = time.perf_counter()
        for _ in range(_REPEATS):
            compute_coverage(store, audit, vocab, grounder)
            compute_entry_coverage(store, iter(entries), vocab, grounder)
        return time.perf_counter() - started


def test_e15_instrumentation_overhead_within_5_percent():
    live_registry = obs.MetricsRegistry()
    dark_workload = _build_workload(obs.NULL_REGISTRY)
    live_workload = _build_workload(live_registry)

    # One untimed warm-up trial per arm: the first pass through either
    # workload pays allocator/branch-predictor setup that would otherwise
    # bias whichever arm runs first.
    _timed_trial(obs.NULL_REGISTRY, *dark_workload)
    _timed_trial(live_registry, *live_workload)

    dark_trials: list[float] = []
    live_trials: list[float] = []
    for pair in range(_TRIALS):  # interleaved so drift hits both arms equally
        if pair % 2:
            live_trials.append(_timed_trial(live_registry, *live_workload))
            dark_trials.append(_timed_trial(obs.NULL_REGISTRY, *dark_workload))
        else:
            dark_trials.append(_timed_trial(obs.NULL_REGISTRY, *dark_workload))
            live_trials.append(_timed_trial(live_registry, *live_workload))

    ratios = [live / dark for dark, live in zip(dark_trials, live_trials)]
    overhead = statistics.median(ratios) - 1.0
    dark_median = statistics.median(dark_trials)
    live_median = statistics.median(live_trials)

    snapshot = live_registry.snapshot()
    cache_hits = next(
        (
            sample["value"]
            for sample in snapshot["counters"]
            if sample["name"] == "repro_policy_grounder_cache_hits_total"
        ),
        0.0,
    )
    assert cache_hits > 0, "live run must have recorded grounder cache hits"

    record = {
        "experiment": "E15",
        "store_rules": _STORE_RULES,
        "audit_rules": _AUDIT_RULES,
        "entry_trace": _ENTRY_TRACE,
        "repeats_per_trial": _REPEATS,
        "trials": _TRIALS,
        "estimator": "median of per-pair live/dark ratios",
        "dark_seconds": round(dark_median, 6),
        "instrumented_seconds": round(live_median, 6),
        "pair_ratios": [round(ratio, 4) for ratio in ratios],
        "overhead": round(overhead, 4),
        "max_overhead": _MAX_OVERHEAD,
        "metrics": snapshot,
    }
    _OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    _OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        format_table(
            ["registry", f"median of {_TRIALS} trials (s)"],
            [
                ["null (dark)", f"{dark_median:.4f}"],
                ["live (instrumented)", f"{live_median:.4f}"],
                ["overhead (median pair ratio)", f"{overhead:+.1%}"],
            ],
            title=(
                f"E15 — telemetry overhead on {_REPEATS} coverage "
                f"computations/trial"
            ),
        )
        + f"\nJSON record: {_OUT_PATH}"
    )

    assert overhead < _MAX_OVERHEAD, (
        f"instrumented coverage must stay within {_MAX_OVERHEAD:.0%} of dark, "
        f"measured {overhead:+.1%}"
    )
