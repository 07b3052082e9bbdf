"""Stress scenario programs over a generated corpus.

:class:`CorpusEnvironment` implements the refinement loop's
``ClinicalEnvironment`` protocol (``simulate_round(round_index, store) ->
AuditLog``) at corpus scale.  One round is one day of shift-structured
traffic mixing:

``workflow``
    Weighted draws from the corpus's true workflow, emitted during the
    acting user's rostered shift.
``surge``
    Break-the-glass surges: emergency-department clinicians pulling
    charts for ``emergency_care`` at any hour.
``handoff``
    Shift handoffs: incoming nurses reviewing notes/vitals at the shift
    boundary under the ``shift_handoff`` purpose.
``referral``
    Multi-department referral chains: a consulting specialist in another
    department works a received referral under ``referral_consult``.
``noise``
    One-off idiosyncratic-but-legitimate accesses.
``misuse``
    Injected abuse with **ground-truth violation labels**, split across
    three campaigns: a ``colluding_ring`` of billing clerks repeatedly
    pulling specially-protected records under a plausible billing purpose
    (engineered to clear the miner's support *and* distinct-user
    thresholds — the case support-only triage cannot catch), a
    ``lone_snooper``, and an ``offhours_export`` by records clerks
    outside their rostered shifts.

Legitimate traffic *accrues clinical relations* into a
:class:`~repro.explain.relations.ClinicalState` (treatments, referrals,
shifts, ...) as it is planned — subject to ``relation_noise`` — while
misuse never does.  Ground truth is stamped on every emitted entry
(``truth``) and additionally journalled as :class:`LabelRecord` rows with
global trace indexes and the originating scenario, which is what the E23
triage experiment scores against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.corpus.generate import PolicyCorpus
from repro.corpus.hipaa import (
    ENCOUNTER_LEAVES,
    IDENTITY_LEAVES,
    NURSING_ROLES,
    PHYSICIAN_ROLES,
    RESULT_LEAVES,
    SENSITIVE_LEAVES,
    department_record_leaf,
)
from repro.errors import CorpusError
from repro.explain.relations import ClinicalState, hour_in_shift
from repro.policy.grounding import Grounder
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.workload.entities import StaffMember

#: The daily shift roster, assigned round-robin over the staff list.
SHIFT_WINDOWS: tuple[tuple[int, int], ...] = ((7, 15), (15, 23), (23, 7))

#: Scenario kinds considered legitimate (labelled ``practice`` when they
#: surface as exceptions).
LEGITIMATE_KINDS: tuple[str, ...] = (
    "workflow",
    "surge",
    "handoff",
    "referral",
    "noise",
)

#: Injected-misuse campaign kinds (labelled ``violation``).
MISUSE_KINDS: tuple[str, ...] = ("colluding_ring", "lone_snooper", "offhours_export")


@dataclass(frozen=True, slots=True)
class LabelRecord:
    """Ground truth for one labelled trace entry.

    ``index`` is the entry's global position in the cumulative corpus
    trace (counting *all* entries, labelled or not), so labels join back
    to the JSONL trace by line number.
    """

    index: int
    time: int
    user: str
    scenario: str
    truth: str

    def to_dict(self) -> dict:
        """JSON-ready encoding."""
        return {
            "index": self.index,
            "time": self.time,
            "user": self.user,
            "scenario": self.scenario,
            "truth": self.truth,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LabelRecord":
        """Rebuild a label from a :meth:`to_dict` encoding."""
        try:
            return cls(
                index=int(payload["index"]),
                time=int(payload["time"]),
                user=payload["user"],
                scenario=payload["scenario"],
                truth=payload["truth"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed label payload: {exc}") from exc


@dataclass(frozen=True, slots=True)
class _PlannedAccess:
    """One access resolved at plan time (before chronological sorting)."""

    tick: int
    kind: str
    user: str
    role: str
    data: str
    purpose: str


@dataclass
class CorpusTrace:
    """A simulated corpus trace plus its ground truth and joinable state."""

    log: AuditLog
    labels: tuple[LabelRecord, ...]
    state: ClinicalState
    violations: int = 0
    practices: int = 0

    def __post_init__(self) -> None:
        self.violations = sum(1 for lab in self.labels if lab.truth == "violation")
        self.practices = sum(1 for lab in self.labels if lab.truth == "practice")


def _shift_hours(window: tuple[int, int]) -> tuple[int, ...]:
    """The wall hours contained in a (wrapping) shift window."""
    return tuple(hour for hour in range(24) if hour_in_shift(window[0], window[1], hour))


class CorpusEnvironment:
    """Generates one day of corpus-scale traffic per round."""

    def __init__(self, corpus: PolicyCorpus) -> None:
        self.corpus = corpus
        spec = corpus.spec
        self._rng = random.Random(spec.seed + 101)
        self._grounder = Grounder(corpus.vocabulary)
        self._next_day = 0
        self._emitted = 0
        self.labels: list[LabelRecord] = []
        hospital = corpus.hospital
        if not hospital.practices:
            raise CorpusError("the corpus hospital has no workflow practices")
        self._practices = tuple(hospital.practices)
        self._practice_weights = [p.weight for p in self._practices]
        data_tree = corpus.vocabulary.tree_for("data")
        purpose_tree = corpus.vocabulary.tree_for("purpose")
        self._data_values = data_tree.leaves() if data_tree else ("record",)
        purpose_leaves = purpose_tree.leaves() if purpose_tree else ("care",)
        # "telemarketing" is reserved for the lone snooper, mirroring the
        # base generator's convention: no legitimate user types it in.
        self._purpose_values = tuple(
            purpose for purpose in purpose_leaves if purpose != "telemarketing"
        )

        self.state = ClinicalState(ticks_per_hour=spec.ticks_per_hour)
        staff = hospital.all_staff()
        if not staff:
            raise CorpusError("the corpus hospital has no staff")
        for position, member in enumerate(staff):
            window = SHIFT_WINDOWS[position % len(SHIFT_WINDOWS)]
            self.state.set_shift(member.user_id, window[0], window[1])
            self.state.set_department(member.user_id, member.department)
        for corpus_rule in corpus.permit_rules():
            purpose = corpus_rule.rule.value_of("purpose")
            if purpose is None:  # pragma: no cover - rulebook rules are 3-term
                continue
            for leaf in corpus.vocabulary.ground_values("purpose", purpose):
                self.state.add_role_purpose(corpus_rule.role, leaf)

        clinical = corpus.clinical_departments()
        self._clinical_departments = clinical
        self._surge_department = "emergency" if "emergency" in clinical else clinical[0]
        self._surge_staff = self._department_staff(
            self._surge_department, PHYSICIAN_ROLES + NURSING_ROLES
        )
        self._nursing_by_department = {
            department: self._department_staff(department, NURSING_ROLES)
            for department in clinical
        }
        self._specialists_by_department = {
            department: self._department_staff(department, ("consulting_specialist",))
            for department in clinical
        }
        ring_pool = hospital.staff_with_role("billing_clerk")
        self._ring_users = ring_pool[: min(3, len(ring_pool))]
        snoop_pool = hospital.staff_with_role("registered_nurse") or staff
        self._snooper = self._rng.choice(snoop_pool)
        export_pool = hospital.staff_with_role("records_clerk")
        self._export_users = export_pool[: min(2, len(export_pool))]
        self._handoff_data = ENCOUNTER_LEAVES + ("vital_signs",)
        self._referral_data = RESULT_LEAVES + ("referral",)
        self._ring_data = ("psychiatry_note", "substance_abuse_record", "hiv_status")
        self._snoop_data = IDENTITY_LEAVES + SENSITIVE_LEAVES

    # ------------------------------------------------------------------
    # the ClinicalEnvironment protocol
    # ------------------------------------------------------------------
    def simulate_round(self, round_index: int, store: PolicyStore) -> AuditLog:
        """Simulate one day of corpus traffic under ``store``."""
        reg = obs.get_registry()
        with reg.span("repro_corpus_round"):
            covered = self._covered_rules(store)
            day = self._next_day
            self._next_day += 1
            spec = self.corpus.spec
            planned: list[_PlannedAccess] = []
            for _ in range(spec.accesses_per_round):
                draw = self._rng.random()
                if draw < spec.misuse_rate:
                    planned.append(self._plan_misuse(day))
                elif draw < spec.misuse_rate + spec.surge_rate:
                    planned.append(self._plan_surge(day))
                elif draw < spec.misuse_rate + spec.surge_rate + spec.handoff_rate:
                    planned.append(self._plan_handoff(day))
                elif draw < (
                    spec.misuse_rate
                    + spec.surge_rate
                    + spec.handoff_rate
                    + spec.referral_rate
                ):
                    planned.append(self._plan_referral(day))
                elif draw < (
                    spec.misuse_rate
                    + spec.surge_rate
                    + spec.handoff_rate
                    + spec.referral_rate
                    + spec.noise_rate
                ):
                    planned.append(self._plan_noise(day))
                else:
                    planned.append(self._plan_workflow(day))
            planned.sort(key=lambda access: access.tick)
            log = AuditLog(name=f"{self.corpus.spec.name}_day_{day}")
            for access in planned:
                log.append(self._emit(access, covered))
            reg.counter("repro_corpus_entries_total").inc(len(log))
        return log

    # ------------------------------------------------------------------
    # planners (one per traffic kind)
    # ------------------------------------------------------------------
    def _plan_workflow(self, day: int) -> _PlannedAccess:
        practice = self._rng.choices(
            self._practices, weights=self._practice_weights, k=1
        )[0]
        member = self._rng.choice(
            self.corpus.hospital.staff_with_role(practice.role)
        )
        hour = self._rng.choice(self._member_hours(member))
        self._record_relation(member, practice.data)
        return _PlannedAccess(
            tick=self._tick(day, hour),
            kind="workflow",
            user=member.user_id,
            role=member.role,
            data=practice.data,
            purpose=practice.purpose,
        )

    def _plan_surge(self, day: int) -> _PlannedAccess:
        member = self._rng.choice(self._surge_staff)
        data = self._rng.choice(
            ENCOUNTER_LEAVES
            + RESULT_LEAVES
            + SENSITIVE_LEAVES
            + (department_record_leaf(self._surge_department),)
        )
        self._record_relation(member, data)
        return _PlannedAccess(
            tick=self._tick(day, self._rng.randrange(24)),
            kind="surge",
            user=member.user_id,
            role=member.role,
            data=data,
            purpose="emergency_care",
        )

    def _plan_handoff(self, day: int) -> _PlannedAccess:
        department = self._rng.choice(self._clinical_departments)
        member = self._rng.choice(self._nursing_by_department[department])
        shift = self.state.shifts[member.user_id]
        data = self._rng.choice(
            self._handoff_data + (department_record_leaf(department),)
        )
        self._record_relation(member, data)
        return _PlannedAccess(
            tick=self._tick(day, shift[0]),
            kind="handoff",
            user=member.user_id,
            role=member.role,
            data=data,
            purpose="shift_handoff",
        )

    def _plan_referral(self, day: int) -> _PlannedAccess:
        if len(self._clinical_departments) >= 2:
            _, target = self._rng.sample(self._clinical_departments, 2)
        else:
            target = self._clinical_departments[0]
        member = self._rng.choice(self._specialists_by_department[target])
        data = self._rng.choice(self._referral_data)
        if self._rng.random() >= self.corpus.spec.relation_noise:
            self.state.add_referral(member.user_id, data)
        hour = self._rng.choice(self._member_hours(member))
        return _PlannedAccess(
            tick=self._tick(day, hour),
            kind="referral",
            user=member.user_id,
            role=member.role,
            data=data,
            purpose="referral_consult",
        )

    def _plan_noise(self, day: int) -> _PlannedAccess:
        member = self._rng.choice(self.corpus.hospital.all_staff())
        return _PlannedAccess(
            tick=self._tick(day, self._rng.randrange(24)),
            kind="noise",
            user=member.user_id,
            role=member.role,
            data=self._rng.choice(self._data_values),
            purpose=self._rng.choice(self._purpose_values),
        )

    def _plan_misuse(self, day: int) -> _PlannedAccess:
        draw = self._rng.random()
        if draw < 0.5 and self._ring_users:
            member = self._rng.choice(self._ring_users)
            return _PlannedAccess(
                tick=self._tick(day, self._rng.choice(self._member_hours(member))),
                kind="colluding_ring",
                user=member.user_id,
                role=member.role,
                data=self._rng.choice(self._ring_data),
                purpose="claims_processing",
            )
        if draw < 0.8 and self._export_users:
            member = self._rng.choice(self._export_users)
            shift = self.state.shifts[member.user_id]
            off_hours = tuple(
                hour
                for hour in range(24)
                if not hour_in_shift(shift[0], shift[1], hour)
            )
            return _PlannedAccess(
                tick=self._tick(day, self._rng.choice(off_hours)),
                kind="offhours_export",
                user=member.user_id,
                role=member.role,
                data=self._rng.choice(RESULT_LEAVES),
                purpose="records_management",
            )
        member = self._snooper
        return _PlannedAccess(
            tick=self._tick(day, self._rng.randrange(24)),
            kind="lone_snooper",
            user=member.user_id,
            role=member.role,
            data=self._rng.choice(self._snoop_data),
            purpose="telemarketing",
        )

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(self, access: _PlannedAccess, covered: set[Rule]):
        rule = Rule.of(
            data=access.data, purpose=access.purpose, authorized=access.role
        )
        sanctioned = rule in covered
        if sanctioned:
            truth = ""
        elif access.kind in MISUSE_KINDS:
            truth = "violation"
        else:
            truth = "practice"
        entry = make_entry(
            time=access.tick,
            user=access.user,
            data=access.data,
            purpose=access.purpose,
            authorized=access.role,
            status=AccessStatus.REGULAR if sanctioned else AccessStatus.EXCEPTION,
            truth=truth,
        )
        if truth:
            self.labels.append(
                LabelRecord(
                    index=self._emitted,
                    time=access.tick,
                    user=access.user,
                    scenario=access.kind,
                    truth=truth,
                )
            )
        self._emitted += 1
        return entry

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tick(self, day: int, hour: int) -> int:
        ticks = self.corpus.spec.ticks_per_hour
        return (day * 24 + hour) * ticks + self._rng.randrange(ticks)

    def _member_hours(self, member: StaffMember) -> tuple[int, ...]:
        return _shift_hours(self.state.shifts[member.user_id])

    def _record_relation(self, member: StaffMember, data: str) -> None:
        """Accrue the supporting relation for a legitimate access.

        Clinical staff gain a *treatment* relationship, everyone else a
        work *assignment*; ``relation_noise`` of accesses record nothing,
        modelling charting lag.
        """
        if self._rng.random() < self.corpus.spec.relation_noise:
            return
        if member.role in PHYSICIAN_ROLES or member.role in NURSING_ROLES:
            self.state.add_treatment(member.user_id, data)
        else:
            self.state.add_assignment(member.user_id, data)

    def _department_staff(
        self, department: str, roles: tuple[str, ...]
    ) -> tuple[StaffMember, ...]:
        for candidate in self.corpus.hospital.departments:
            if candidate.name == department:
                return tuple(
                    member for member in candidate.staff if member.role in roles
                )
        raise CorpusError(f"corpus hospital has no department {department!r}")

    def _covered_rules(self, store: PolicyStore) -> set[Rule]:
        """Ground rules the current store covers."""
        covered: set[Rule] = set()
        for rule in store:
            covered.update(self._grounder.ground_rules(rule))
        return covered


def simulate_corpus_trace(
    corpus: PolicyCorpus, rounds: int | None = None
) -> CorpusTrace:
    """Run the scenario engine against the corpus's own documented store.

    The store is held fixed (no refinement), producing the canonical
    labelled trace persisted in a corpus bundle.  ``rounds`` overrides
    ``corpus.spec.rounds`` when given.
    """
    environment = CorpusEnvironment(corpus)
    total = AuditLog(name=corpus.spec.name)
    for round_index in range(rounds if rounds is not None else corpus.spec.rounds):
        total.extend(environment.simulate_round(round_index, corpus.store))
    return CorpusTrace(
        log=total,
        labels=tuple(environment.labels),
        state=environment.state,
    )
