"""Algorithm 2: ``Refinement`` — the whole pipeline in one call.

``refine`` runs the paper's Filter → extractPatterns → Prune and
additionally reports the coverage of the store over the log before
refinement (both semantics — see :mod:`repro.coverage.engine`), since
that is the number the architecture is trying to move.

Every call runs the one shard → map → fold → finish kernel of
:mod:`repro.parallel.refine`: one worker maps a single shard
in-process, reading the trail once; more workers fan the shards out to
a process pool.  The miner is named, not passed: ``"sql"`` (the paper's
GROUP BY statement, Algorithm 5) or ``"apriori"`` (its proposed
upgrade, whose full-width patterns are the same groups in another
order), so both fold one partial aggregate.  The literal
steps — :func:`filter_practice`, :func:`extract_patterns` over a
:class:`~repro.mining.patterns.PatternMiner`, :func:`prune_patterns` —
stay public as the paper's Algorithms 3–6; chained by hand they are the
oracle the kernel is tested against (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.audit.classify import ClassifierConfig
from repro.audit.log import AuditLog
from repro.coverage.engine import (  # noqa: F401
    CoverageReport,
    EntryCoverageReport,
    compute_coverage,  # kept for perfbench/plans.py only (ROADMAP item 4)
    compute_entry_coverage,  # kept for perfbench/plans.py only (ROADMAP item 4)
)
from repro.mining.patterns import MiningConfig, Pattern
from repro.policy.grounding import Grounder
from repro.policy.policy import Policy
from repro.refinement.extract import (  # noqa: F401
    extract_patterns,  # kept for perfbench/plans.py only (ROADMAP item 4)
)
from repro.refinement.filtering import (  # noqa: F401
    CLASSIFY_SCOPES,
    filter_practice,  # kept for perfbench/plans.py only (ROADMAP item 4)
)
from repro.refinement.prune import (  # noqa: F401
    prune_patterns,  # kept for perfbench/plans.py only (ROADMAP item 4)
)
from repro.vocab.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.execution import ExecutionPolicy

#: The miners ``refine()`` runs: the SQL GROUP BY and Apriori back-ends.
MINERS: tuple[str, ...] = ("sql", "apriori")


@dataclass(frozen=True)
class RefinementConfig:
    """Everything tunable about one refinement run.

    ``mining`` carries the Algorithm 4 parameters and ``miner`` names
    its back-end, one of :data:`MINERS`.  ``include_denied``,
    ``exclude_suspected_violations`` and ``classify_scope`` control
    Algorithm 3's filtering (see
    :func:`~repro.refinement.filtering.filter_practice`).  ``execution``
    sets the worker count of the refinement kernel
    (:mod:`repro.parallel`): ``None`` or ``ExecutionPolicy(workers=1)``
    maps the trail as one in-process shard, ``ExecutionPolicy(workers=N)``
    shards it over a process pool; the offline loop, which folds each
    window in-process, ignores it.
    """

    mining: MiningConfig = field(default_factory=MiningConfig)
    miner: str = "sql"
    include_denied: bool = False
    exclude_suspected_violations: bool = False
    classifier: ClassifierConfig | None = None
    classify_scope: str = "log"
    execution: "ExecutionPolicy | None" = None

    def __post_init__(self) -> None:
        if self.miner not in MINERS:
            raise ValueError(
                f"unknown miner {self.miner!r} (choose from {MINERS})"
            )
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

    This is :func:`~repro.parallel.refine.parallel_refine`: a single
    streaming pass over the trail, mapped as one in-process shard unless
    ``config.execution`` asks for more workers.

    Without a ``grounder`` the call grounds through the vocabulary's
    shared :class:`~repro.policy.grounding.Grounder`
    (:meth:`~repro.policy.grounding.Grounder.for_vocabulary`), so repeated
    calls over one vocabulary reuse the store rules' expansions and the
    trail's lifted rules instead of grounding them again; it starts
    afresh if the vocabulary was mutated in between.  Pass your own
    ``Grounder(vocabulary)`` to keep a private memo that raises
    :class:`~repro.errors.CoverageError` on such a mutation instead.
    """
    # imported here: repro.parallel.refine imports this module for
    # RefinementConfig and RefinementResult
    from repro.parallel.refine import parallel_refine

    return parallel_refine(policy_store, audit_log, vocabulary, config, grounder)
