"""The closed refinement loop (Figure 2's process, made executable).

The paper describes refinement as ongoing: run the system, collect audit
entries, refine "at regular intervals or at the request of the
stakeholders", fold accepted rules back in, repeat.  :class:`RefinementLoop`
drives that cycle against any traffic source implementing
:class:`ClinicalEnvironment` (the synthetic hospital in
:mod:`repro.workload` is the main one) and records a
:class:`RoundReport` per round — the data series behind experiment E3.

Like the refinement daemon, the loop folds each window once into a
residual :class:`~repro.parallel.refine.TrailAggregate`, so no round
reads the history again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.audit.log import AuditLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.refine import TrailRound
    from repro.store.durable import DurableAuditLog
from repro.errors import RefinementError
from repro.obs.metrics import sample_delta
from repro.obs.runtime import get_registry
from repro.policy.grounding import Grounder
from repro.policy.store import PolicyStore
from repro.refinement.engine import RefinementConfig
from repro.refinement.review import ReviewPolicy
from repro.vocab.vocabulary import Vocabulary

_LOGGER = logging.getLogger("repro.refinement.loop")


class ClinicalEnvironment(Protocol):
    """A traffic source the loop can drive.

    Each call simulates one interval of clinical operation under the
    *current* policy store (enforcement consults it live, so freshly
    accepted rules immediately reduce exception traffic) and returns the
    audit entries generated during the interval.
    """

    def simulate_round(self, round_index: int, store: PolicyStore) -> AuditLog:
        """Produce one interval of audit traffic under ``store``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RoundReport:
    """Metrics of one refinement round."""

    round_index: int
    entries: int
    exception_rate: float
    coverage_before: float
    coverage_after: float
    entry_coverage_before: float
    entry_coverage_after: float
    patterns_mined: int
    patterns_useful: int
    rules_accepted: int
    store_size_after: int
    #: the round's finish before review
    refinement: "TrailRound"
    #: what this round contributed to every monotone telemetry sample
    #: (counter values, span-histogram counts/sums) under the registry
    #: active when the loop ran; empty under the null registry.  This is
    #: the series E3-style experiments chart cache behaviour and stage
    #: latency against.
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LoopResult:
    """All rounds plus the final artifacts."""

    rounds: tuple[RoundReport, ...]
    store: PolicyStore
    cumulative_log: "AuditLog | DurableAuditLog"

    def coverage_series(self) -> tuple[float, ...]:
        """Set-coverage after each round (the E3 headline series)."""
        return tuple(r.coverage_after for r in self.rounds)

    def exception_rate_series(self) -> tuple[float, ...]:
        """Break-the-glass rate per round."""
        return tuple(r.exception_rate for r in self.rounds)

    def metrics_series(self, sample: str | None = None) -> tuple:
        """Per-round telemetry deltas (optionally one sample's series).

        With no argument, the tuple of per-round delta dicts; with a
        sample key (e.g. ``"repro_policy_grounder_cache_hits_total"``)
        the per-round numeric series for that sample, zero-filled where a
        round did not move it.
        """
        if sample is None:
            return tuple(r.metrics for r in self.rounds)
        return tuple(r.metrics.get(sample, 0.0) for r in self.rounds)


class RefinementLoop:
    """Run N rounds of operate → audit → refine → review → amend."""

    def __init__(
        self,
        environment: ClinicalEnvironment,
        store: PolicyStore,
        vocabulary: Vocabulary,
        review: ReviewPolicy,
        config: RefinementConfig | None = None,
        refine_on_cumulative: bool = True,
        cumulative_log: "AuditLog | DurableAuditLog | None" = None,
    ) -> None:
        self.environment = environment
        self.store = store
        self.vocabulary = vocabulary
        self.review = review
        self.config = config or RefinementConfig()
        #: where the loop writes its audit history, never reading it back:
        #: any AuditLog-protocol sink (a ``DurableAuditLog`` persists it),
        #: or None for a fresh in-memory log per :meth:`run`.
        self.cumulative_log = cumulative_log
        # One grounder for the life of the loop: the store mostly persists
        # between rounds, so expansions memoised (and range masks interned)
        # in round N are free in round N+1.
        self._grounder = Grounder(vocabulary)
        #: refine over everything seen so far (True) or only the latest
        #: round's window (False) — the training-period choice the paper
        #: leaves to the deploying organisation.
        self.refine_on_cumulative = refine_on_cumulative

    def run(self, rounds: int) -> LoopResult:
        """Drive the loop for ``rounds`` intervals."""
        if rounds < 1:
            raise RefinementError(f"the loop needs at least one round, got {rounds}")
        # imported here, as refine() does, so importing the loop does not
        # pull in the process pool
        from repro.parallel.refine import TrailAggregate, fold_and_finish

        cumulative = (
            self.cumulative_log
            if self.cumulative_log is not None
            else AuditLog(name="cumulative")
        )
        reports: list[RoundReport] = []
        reg = get_registry()
        samples_before = reg.sample_values() if reg.enabled else {}
        for round_index in range(rounds):
            with reg.span("repro_refinement_round"):
                with reg.span("repro_refinement_stage", stage="simulate"):
                    window = self.environment.simulate_round(round_index, self.store)
                if len(window) == 0:
                    raise RefinementError(
                        f"environment produced no audit entries in round {round_index}"
                    )
                cumulative.extend(window)
                if round_index == 0 or not self.refine_on_cumulative:
                    aggregate = TrailAggregate()
                result = fold_and_finish(
                    aggregate, window, self.store.policy(), self.vocabulary,
                    self.config, self._grounder,
                )
                accepted = 0
                with reg.span("repro_refinement_stage", stage="review"):
                    for pattern in result.prune.useful:
                        if self.review.accept(pattern):
                            accepted += self.store.add(
                                pattern.rule,
                                added_by="loop-review",
                                origin="refinement",
                                note=f"round={round_index}, support={pattern.support}",
                            )
                after = aggregate.cover(
                    self.store.policy(), self.vocabulary, self._grounder,
                    self.config.mining.attributes,
                )
            if reg.enabled:
                # the round's entry coverage, before and after review
                reg.counter("repro_coverage_computations_total", kind="entry").inc(2)
                reg.counter("repro_refinement_rounds_total").inc()
                reg.counter("repro_refinement_rules_accepted_total").inc(accepted)
                reg.counter("repro_refinement_entries_total").inc(len(window))
                samples_after = reg.sample_values()
                round_metrics = sample_delta(samples_before, samples_after)
                samples_before = samples_after
            else:
                round_metrics = {}
            if _LOGGER.isEnabledFor(logging.INFO):
                _LOGGER.info(
                    "round=%d entries=%d exception_rate=%.3f coverage_after=%.3f "
                    "entry_coverage_after=%.3f patterns_mined=%d accepted=%d "
                    "store_size=%d",
                    round_index, len(window), window.exception_rate(),
                    after.coverage.ratio, after.entry_ratio, len(result.patterns),
                    accepted, len(self.store),
                )
            reports.append(
                RoundReport(
                    round_index=round_index,
                    entries=len(window),
                    exception_rate=window.exception_rate(),
                    coverage_before=result.coverage.ratio,
                    coverage_after=after.coverage.ratio,
                    entry_coverage_before=result.entry_ratio,
                    entry_coverage_after=after.entry_ratio,
                    patterns_mined=len(result.patterns),
                    patterns_useful=len(result.prune.useful),
                    rules_accepted=accepted,
                    store_size_after=len(self.store),
                    refinement=result,
                    metrics=round_metrics,
                )
            )
        return LoopResult(
            rounds=tuple(reports), store=self.store, cumulative_log=cumulative
        )
