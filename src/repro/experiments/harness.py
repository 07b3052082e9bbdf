"""Simulation harnesses for the synthetic experiments (E3, E6, E7).

These functions build the standard experimental fixtures — a hospital, an
initial partially-documented policy store, an enforced clinical database —
so that benches and tests share one definition of each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.audit.log import AuditLog
from repro.audit.schema import AccessStatus
from repro.errors import AccessDeniedError
from repro.hdb.control_center import HdbControlCenter
from repro.hdb.enforcement import TableBinding
from repro.mining.patterns import MiningConfig
from repro.policy.store import PolicyStore
from repro.refinement.engine import RefinementConfig
from repro.refinement.loop import LoopResult, RefinementLoop
from repro.refinement.review import ReviewPolicy
from repro.vocab.builtin import healthcare_vocabulary
from repro.vocab.vocabulary import Vocabulary
from repro.workload.generator import SyntheticHospitalEnvironment, WorkloadConfig
from repro.workload.hospital import HospitalModel, build_hospital


@dataclass(frozen=True)
class LoopExperimentSetup:
    """Everything a refinement-loop experiment needs."""

    vocabulary: Vocabulary
    hospital: HospitalModel
    store: PolicyStore
    environment: SyntheticHospitalEnvironment


def standard_loop_setup(
    documented_fraction: float = 0.4,
    accesses_per_round: int = 5000,
    noise_rate: float = 0.05,
    violation_rate: float = 0.02,
    seed: int = 7,
    departments: int = 3,
    staff_per_role: int = 4,
) -> LoopExperimentSetup:
    """The E3 fixture: a hospital whose store documents part of reality."""
    vocabulary = healthcare_vocabulary()
    hospital = build_hospital(
        vocabulary,
        departments=departments,
        staff_per_role=staff_per_role,
        seed=seed,
    )
    store = hospital.documented_store(documented_fraction, random.Random(seed))
    environment = SyntheticHospitalEnvironment(
        hospital,
        WorkloadConfig(
            accesses_per_round=accesses_per_round,
            noise_rate=noise_rate,
            violation_rate=violation_rate,
            seed=seed,
        ),
    )
    return LoopExperimentSetup(
        vocabulary=vocabulary,
        hospital=hospital,
        store=store,
        environment=environment,
    )


class ReplayEnvironment:
    """A :class:`~repro.refinement.loop.ClinicalEnvironment` that replays
    recorded traffic instead of simulating fresh rounds.

    Built from per-round windows (any iterables of audit entries), it
    returns them verbatim regardless of the policy store it is handed —
    the tool for comparing two refinement pipelines over the *same*
    trail, e.g. the online daemon against the offline loop in
    ``tests/test_refine_daemon_sim.py``.
    """

    def __init__(self, windows) -> None:
        self.windows = [
            window
            if isinstance(window, AuditLog)
            else AuditLog(tuple(window), name=f"replay-{index}")
            for index, window in enumerate(windows)
        ]

    def simulate_round(self, round_index: int, store: PolicyStore) -> AuditLog:
        """The recorded window for ``round_index`` (store is ignored)."""
        if round_index >= len(self.windows):
            from repro.errors import RefinementError

            raise RefinementError(
                f"replay has {len(self.windows)} recorded rounds, "
                f"round {round_index} was requested"
            )
        return self.windows[round_index]


def run_refinement_loop(
    setup: LoopExperimentSetup,
    review: ReviewPolicy,
    rounds: int = 8,
    min_support: int = 5,
    min_distinct_users: int = 2,
    refine_on_cumulative: bool = True,
    cumulative_log=None,
) -> LoopResult:
    """Drive the closed loop for E3 (and its review-policy ablation).

    ``cumulative_log`` optionally supplies the history sink — pass a
    :class:`~repro.store.durable.DurableAuditLog` to persist every round's
    traffic (the CLI's ``--store-dir``).
    """
    loop = RefinementLoop(
        environment=setup.environment,
        store=setup.store,
        vocabulary=setup.vocabulary,
        review=review,
        config=RefinementConfig(
            mining=MiningConfig(
                min_support=min_support, min_distinct_users=min_distinct_users
            ),
        ),
        refine_on_cumulative=refine_on_cumulative,
        cumulative_log=cumulative_log,
    )
    return loop.run(rounds)


@dataclass(frozen=True)
class ClinicalDbSetup:
    """The E6 fixture: an enforced clinical database with demo traffic."""

    control_center: HdbControlCenter
    table: str
    rows: int


#: Column → data-category binding of the demo ``patients`` table.
PATIENT_COLUMNS: dict[str, str] = {
    "name": "name",
    "address": "address",
    "gender": "gender",
    "birth_date": "birth_date",
    "prescription": "prescription",
    "referral": "referral",
    "lab_results": "lab_results",
    "psychiatry": "psychiatry",
    "insurance": "insurance",
}

#: The demo deployment's sanctioned rules (shared by E6, E18 and the
#: ``repro serve`` default engine so served and in-process decisions are
#: comparable by construction).
DEMO_RULES: tuple[str, ...] = (
    "ALLOW nurse TO USE medical_records FOR treatment",
    "ALLOW nurse TO USE demographic FOR treatment",
    "ALLOW physician TO USE clinical FOR treatment",
    "ALLOW physician TO USE clinical FOR diagnosis",
    "ALLOW clerk TO USE demographic FOR billing",
    "ALLOW clerk TO USE insurance FOR billing",
    "ALLOW registrar TO USE demographic FOR registration",
)


def clinical_db_setup(
    rows: int = 1000,
    seed: int = 7,
    audit_log=None,
    rules: tuple[str, ...] | list[str] | None = None,
) -> ClinicalDbSetup:
    """Build an enforced patients table with ``rows`` synthetic records.

    ``audit_log`` optionally replaces the in-memory trail (pass a
    :class:`~repro.store.durable.DurableAuditLog` for write-through
    persistence); ``rules`` replaces :data:`DEMO_RULES`.
    """
    rng = random.Random(seed)
    vocabulary = healthcare_vocabulary()
    center = HdbControlCenter(vocabulary, audit_log=audit_log)
    columns = ", ".join(f"{column} TEXT" for column in PATIENT_COLUMNS)
    center.database.execute(
        f"CREATE TABLE patients (pid TEXT NOT NULL, {columns})"
    )
    table = center.database.table("patients")
    for index in range(rows):
        record = [f"p{index:06d}"]
        record.extend(
            f"{column}-{rng.randrange(10_000)}" for column in PATIENT_COLUMNS
        )
        table.insert(record)
    table.create_index("pid")
    center.bind_table(TableBinding("patients", "pid", dict(PATIENT_COLUMNS)))
    center.define_rules(list(rules if rules is not None else DEMO_RULES))
    return ClinicalDbSetup(control_center=center, table="patients", rows=rows)


@dataclass(frozen=True)
class EnforcementReplayStats:
    """What happened when audit traffic was replayed through enforcement."""

    replayed: int
    allowed: int
    denied: int
    masked: int
    skipped: int

    def summary(self) -> str:
        """One line suitable for CLI output."""
        return (
            f"enforcement replay: {self.replayed} queries "
            f"({self.allowed} allowed, {self.denied} denied, "
            f"{self.masked} with masking; {self.skipped} entries skipped)"
        )


def replay_through_enforcement(
    log: AuditLog,
    sample_size: int = 200,
    rows: int = 200,
    seed: int = 7,
) -> EnforcementReplayStats:
    """Replay a sample of audit entries as enforced SQL queries.

    The synthetic hospital fabricates audit entries directly (it models the
    *outcome* of enforcement, not the mechanism), so a simulation alone never
    exercises the active-enforcement path.  This helper closes that gap for
    telemetry and demos: it builds the E6 clinical database and re-issues a
    sample of the log's accesses as ``SELECT`` queries through the control
    center, so enforcement decision counters and query-rewrite metrics
    reflect the simulated workload.

    Entries whose data category has no column in the demo ``patients`` table
    are skipped (and counted in :attr:`EnforcementReplayStats.skipped`).
    """
    setup = clinical_db_setup(rows=rows, seed=seed)
    column_for = {category: column for column, category in PATIENT_COLUMNS.items()}
    entries = list(log)
    replayable = [entry for entry in entries if entry.data in column_for]
    skipped = len(entries) - len(replayable)
    if sample_size < len(replayable):
        replayable = random.Random(seed).sample(replayable, sample_size)
    allowed = denied = masked = 0
    for entry in replayable:
        sql = f"SELECT {column_for[entry.data]} FROM patients LIMIT 3"
        try:
            outcome = setup.control_center.run(
                user=entry.user,
                role=entry.authorized,
                purpose=entry.purpose,
                sql=sql,
                exception=entry.status is AccessStatus.EXCEPTION,
                truth=entry.truth,
            )
        except AccessDeniedError:
            denied += 1
        else:
            allowed += 1
            if outcome.categories_masked:
                masked += 1
    return EnforcementReplayStats(
        replayed=allowed + denied,
        allowed=allowed,
        denied=denied,
        masked=masked,
        skipped=skipped,
    )
