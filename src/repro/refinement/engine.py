"""Algorithm 2: ``Refinement`` — the whole pipeline in one call.

``refine`` runs the paper's Filter → extractPatterns → Prune and
additionally reports the coverage of the store over the log before
refinement (both semantics — see :mod:`repro.coverage.engine`), since
that is the number the architecture is trying to move.

For the built-in miners (the default SQL GROUP BY and Apriori) every
call runs the one shard → map → merge kernel of
:mod:`repro.parallel.refine`: one worker maps a single shard
in-process, reading the trail once; more workers fan the shards out to
a process pool.  A custom :class:`~repro.mining.patterns.PatternMiner`
has no partial-aggregate form, so it gets the literal pipeline below —
lift the log for coverage, :func:`filter_practice`,
:func:`extract_patterns`, :func:`prune_patterns` — which keeps
``extractPatterns`` the pluggable interface the paper describes.  The
literal pipeline over :class:`~repro.mining.sql_patterns.SqlPatternMiner`
(the paper's SQL statement) is the oracle the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.audit.classify import ClassifierConfig
from repro.audit.log import AuditLog
from repro.coverage.engine import (
    CoverageReport,
    EntryCoverageReport,
    compute_coverage,
    compute_entry_coverage,
)
from repro.errors import RefinementError
from repro.mining.patterns import MiningConfig, Pattern, PatternMiner
from repro.obs.runtime import get_registry
from repro.policy.grounding import Grounder, grounder_for
from repro.policy.policy import Policy
from repro.refinement.extract import extract_patterns
from repro.refinement.filtering import CLASSIFY_SCOPES, filter_practice
from repro.refinement.prune import PruneResult, prune_patterns
from repro.vocab.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.execution import ExecutionPolicy


@dataclass(frozen=True)
class RefinementConfig:
    """Everything tunable about one refinement run.

    ``mining`` carries the Algorithm 4 parameters.  ``include_denied``,
    ``exclude_suspected_violations`` and ``classify_scope`` control
    Algorithm 3's filtering (see
    :func:`~repro.refinement.filtering.filter_practice`).  ``execution``
    sets the worker count of the refinement kernel
    (:mod:`repro.parallel`): ``None`` or ``ExecutionPolicy(workers=1)``
    maps the trail as one in-process shard, ``ExecutionPolicy(workers=N)``
    shards it over a process pool.  Custom miners have no
    partial-aggregate form and always run the serial literal pipeline.
    """

    mining: MiningConfig = field(default_factory=MiningConfig)
    miner: PatternMiner | None = None
    include_denied: bool = False
    exclude_suspected_violations: bool = False
    classifier: ClassifierConfig | None = None
    classify_scope: str = "log"
    execution: "ExecutionPolicy | None" = None

    def __post_init__(self) -> None:
        if self.classify_scope not in CLASSIFY_SCOPES:
            raise ValueError(
                f"unknown classify_scope {self.classify_scope!r} "
                f"(choose from {CLASSIFY_SCOPES})"
            )


@dataclass(frozen=True)
class RefinementResult:
    """Everything one refinement run produced."""

    practice: AuditLog
    patterns: tuple[Pattern, ...]
    useful_patterns: tuple[Pattern, ...]
    pruned_patterns: tuple[Pattern, ...]
    coverage: CoverageReport
    entry_coverage: EntryCoverageReport

    @property
    def candidate_rules(self) -> tuple:
        """The rules the stakeholders are asked to consider."""
        return tuple(pattern.rule for pattern in self.useful_patterns)

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"practice entries : {len(self.practice)}",
            f"coverage (set)   : {self.coverage.ratio:.1%}",
            f"coverage (entry) : {self.entry_coverage.ratio:.1%}",
            f"patterns mined   : {len(self.patterns)}",
            f"patterns useful  : {len(self.useful_patterns)}",
        ]
        lines.extend(f"  candidate: {pattern}" for pattern in self.useful_patterns)
        return "\n".join(lines)


def refine(
    policy_store: Policy,
    audit_log: AuditLog,
    vocabulary: Vocabulary,
    config: RefinementConfig | None = None,
    grounder: Grounder | None = None,
) -> RefinementResult:
    """Algorithm 2: mine the audit log for rules the policy should gain.

    Parameters mirror the paper's ``Refinement(P_PS, P_AL, V)``; the
    result's :attr:`~RefinementResult.useful_patterns` is the paper's
    ``usefulPatterns`` return value, with evidence attached.

    With a built-in miner this is the one-shard case of
    :func:`~repro.parallel.refine.parallel_refine` (a single streaming
    pass over the trail; ``config.execution`` only sets the worker
    count).  A custom miner runs the literal Filter → extract → Prune
    pipeline.

    Without a ``grounder`` the call grounds through the vocabulary's
    shared :class:`~repro.policy.grounding.Grounder`
    (:meth:`~repro.policy.grounding.Grounder.for_vocabulary`), so repeated
    calls over one vocabulary reuse the store rules' expansions and the
    trail's lifted rules instead of grounding them again; it starts
    afresh if the vocabulary was mutated in between.  Pass your own
    ``Grounder(vocabulary)`` to keep a private memo that raises
    :class:`~repro.errors.CoverageError` on such a mutation instead.
    """
    cfg = config or RefinementConfig()
    from repro.parallel.refine import parallel_refine, supports_parallel_miner

    if supports_parallel_miner(cfg.miner):
        return parallel_refine(policy_store, audit_log, vocabulary, cfg, grounder)
    reg = get_registry()
    if cfg.execution is not None and cfg.execution.workers > 1 and reg.enabled:
        reg.counter("repro_parallel_fallbacks_total", reason="custom_miner").inc()
    if len(audit_log) == 0:
        raise RefinementError("cannot refine against an empty audit log")
    grounder = grounder_for(vocabulary, grounder)
    with reg.span("repro_refinement_stage", stage="coverage"):
        audit_policy = audit_log.to_policy(cfg.mining.attributes)
        coverage = compute_coverage(policy_store, audit_policy, vocabulary, grounder)
        entry_coverage = compute_entry_coverage(
            policy_store, iter(audit_policy), vocabulary, grounder
        )

    with reg.span("repro_refinement_stage", stage="filter"):
        practice = filter_practice(
            audit_log,
            include_denied=cfg.include_denied,
            exclude_suspected_violations=cfg.exclude_suspected_violations,
            classifier_config=cfg.classifier,
            classify_scope=cfg.classify_scope,
        )
    with reg.span("repro_refinement_stage", stage="extract"):
        patterns = extract_patterns(practice, cfg.mining, cfg.miner)
    with reg.span("repro_refinement_stage", stage="prune"):
        prune_result = prune_patterns(patterns, policy_store, vocabulary, grounder)
    return finish_refinement(practice, patterns, prune_result, coverage, entry_coverage)


def finish_refinement(
    practice: AuditLog,
    patterns: tuple[Pattern, ...],
    prune_result: PruneResult,
    coverage: CoverageReport,
    entry_coverage: EntryCoverageReport,
) -> RefinementResult:
    """Count one finished run in the registry and assemble its result."""
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_refinement_runs_total").inc()
        reg.counter("repro_refinement_patterns_mined_total").inc(len(patterns))
        reg.counter("repro_refinement_patterns_useful_total").inc(
            len(prune_result.useful)
        )
        reg.counter("repro_refinement_patterns_pruned_total").inc(
            len(prune_result.pruned)
        )
    return RefinementResult(
        practice=practice,
        patterns=patterns,
        useful_patterns=prune_result.useful,
        pruned_patterns=prune_result.pruned,
        coverage=coverage,
        entry_coverage=entry_coverage,
    )
