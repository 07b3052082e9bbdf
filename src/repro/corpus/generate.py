"""Seeded generation of HIPAA-scale policy corpora.

:func:`generate_corpus` expands the literal rulebook templates in
:mod:`repro.corpus.hipaa` into a :class:`PolicyCorpus`: a deep vocabulary,
a fully-staffed hospital, hundreds of modal rules (permit /
require-consent / deny, each with a HIPAA citation), a true workflow
instantiated from the permit rules, and a documented
:class:`~repro.policy.store.PolicyStore` covering part of it.

Everything is driven by one ``random.Random(spec.seed)`` stream over
deterministically-ordered inputs (literal tables, roster order), so the
same spec always produces the same corpus — byte-identical once
serialised, which is what the E23 acceptance check and the CI determinism
guard verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.corpus.hipaa import (
    BUSINESS_OFFICE_ROLES,
    CLINICAL_DEPARTMENT_ROLES,
    CLINICAL_DEPARTMENTS,
    COMPLIANCE_OFFICE_ROLES,
    DEPARTMENT_RULEBOOK,
    DEPARTMENT_RULE_ROLES,
    MODALITIES,
    ROLE_RULEBOOK,
    department_record_leaf,
    hipaa_vocabulary,
)
from repro.errors import CorpusError
from repro.policy.parser import format_rule
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.vocab.vocabulary import Vocabulary
from repro.workload.entities import Department, Patient, WorkflowPractice
from repro.workload.hospital import HospitalModel

#: Heavy-tailed practice weights per rulebook weight class.
WEIGHT_CLASSES: dict[str, tuple[float, ...]] = {
    "dominant": (20.0, 12.0),
    "routine": (6.0, 3.0),
    "tail": (1.5, 0.5),
}


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Knobs of one corpus generation run (all validated, all seeded).

    ``departments`` selects a prefix of
    :data:`~repro.corpus.hipaa.CLINICAL_DEPARTMENTS`; the business and
    compliance offices are always staffed on top.  ``protocol_rules``
    pads the rulebook with leaf-level "departmental protocol" rules
    (ground instantiations of permit templates) so corpus scale is a
    dial, not a constant.  Traffic-mix rates are per-access draws inside
    the scenario engine; ``relation_noise`` is the fraction of legitimate
    accesses that *skip* recording their supporting clinical relation,
    bounding how separable explanations can ever be.
    """

    seed: int = 20260807
    departments: int = 3
    staff_per_role: int = 3
    patients: int = 300
    documented_fraction: float = 0.55
    protocol_rules: int = 40
    rounds: int = 4
    accesses_per_round: int = 4000
    ticks_per_hour: int = 20
    noise_rate: float = 0.03
    misuse_rate: float = 0.05
    surge_rate: float = 0.04
    handoff_rate: float = 0.06
    referral_rate: float = 0.05
    relation_noise: float = 0.05
    name: str = "hipaa-corpus"

    def __post_init__(self) -> None:
        if not 1 <= self.departments <= len(CLINICAL_DEPARTMENTS):
            raise CorpusError(
                f"departments must be in [1, {len(CLINICAL_DEPARTMENTS)}], "
                f"got {self.departments}"
            )
        if self.staff_per_role < 1 or self.patients < 1:
            raise CorpusError("staff_per_role and patients must be >= 1")
        if not 0.0 <= self.documented_fraction <= 1.0:
            raise CorpusError(
                f"documented_fraction must be in [0, 1], got {self.documented_fraction}"
            )
        if self.protocol_rules < 0:
            raise CorpusError(f"protocol_rules must be >= 0, got {self.protocol_rules}")
        if self.rounds < 1 or self.accesses_per_round < 1:
            raise CorpusError("rounds and accesses_per_round must be >= 1")
        if self.ticks_per_hour < 1:
            raise CorpusError(f"ticks_per_hour must be >= 1, got {self.ticks_per_hour}")
        rates = {
            "noise_rate": self.noise_rate,
            "misuse_rate": self.misuse_rate,
            "surge_rate": self.surge_rate,
            "handoff_rate": self.handoff_rate,
            "referral_rate": self.referral_rate,
            "relation_noise": self.relation_noise,
        }
        for label, rate in rates.items():
            if not 0.0 <= rate < 1.0:
                raise CorpusError(f"{label} must be in [0, 1), got {rate}")
        mix = (
            self.noise_rate
            + self.misuse_rate
            + self.surge_rate
            + self.handoff_rate
            + self.referral_rate
        )
        if mix >= 1.0:
            raise CorpusError(
                f"scenario rates must leave room for workflow traffic, sum={mix:.3f}"
            )

    def to_dict(self) -> dict:
        """JSON-ready encoding (field order is declaration order)."""
        return {
            "seed": self.seed,
            "departments": self.departments,
            "staff_per_role": self.staff_per_role,
            "patients": self.patients,
            "documented_fraction": self.documented_fraction,
            "protocol_rules": self.protocol_rules,
            "rounds": self.rounds,
            "accesses_per_round": self.accesses_per_round,
            "ticks_per_hour": self.ticks_per_hour,
            "noise_rate": self.noise_rate,
            "misuse_rate": self.misuse_rate,
            "surge_rate": self.surge_rate,
            "handoff_rate": self.handoff_rate,
            "referral_rate": self.referral_rate,
            "relation_noise": self.relation_noise,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusSpec":
        """Rebuild a spec from a :meth:`to_dict` encoding."""
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"malformed corpus spec payload: {exc}") from exc


@dataclass(frozen=True, slots=True)
class CorpusRule:
    """One modal rule of the corpus rulebook.

    ``rule`` is a (possibly composite) policy rule; ``modality`` is one of
    :data:`~repro.corpus.hipaa.MODALITIES`; ``citation`` names the HIPAA
    provision the rule was extracted from (Alshugran & Dichter's modeling);
    ``weight`` drives how much workflow traffic the rule's practices get.
    """

    rule: Rule
    modality: str
    citation: str
    weight: float

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise CorpusError(
                f"modality must be one of {MODALITIES}, got {self.modality!r}"
            )
        if self.weight <= 0:
            raise CorpusError(f"rule weights must be positive, got {self.weight}")

    @property
    def role(self) -> str:
        """The role (``authorized`` value) the rule applies to."""
        value = self.rule.value_of("authorized")
        return value if value is not None else "staff"

    def to_dict(self) -> dict:
        """JSON-ready encoding (rule as the policy DSL)."""
        return {
            "rule": format_rule(self.rule),
            "modality": self.modality,
            "citation": self.citation,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusRule":
        """Rebuild a corpus rule from a :meth:`to_dict` encoding."""
        from repro.policy.parser import parse_rule

        try:
            return cls(
                rule=parse_rule(payload["rule"]),
                modality=payload["modality"],
                citation=payload["citation"],
                weight=float(payload["weight"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed corpus rule payload: {exc}") from exc


@dataclass
class PolicyCorpus:
    """One generated corpus: vocabulary, hospital, modal rulebook, store."""

    spec: CorpusSpec
    vocabulary: Vocabulary
    hospital: HospitalModel
    rules: tuple[CorpusRule, ...] = field(default_factory=tuple)
    store: PolicyStore = field(default_factory=PolicyStore)

    def rules_with_modality(self, modality: str) -> tuple[CorpusRule, ...]:
        """The rulebook subset carrying ``modality`` (definition order)."""
        if modality not in MODALITIES:
            raise CorpusError(
                f"modality must be one of {MODALITIES}, got {modality!r}"
            )
        return tuple(rule for rule in self.rules if rule.modality == modality)

    def permit_rules(self) -> tuple[CorpusRule, ...]:
        """The permitted subset — the source of the true workflow."""
        return self.rules_with_modality("permit")

    def deny_rules(self) -> tuple[CorpusRule, ...]:
        """The denied subset — what misuse campaigns transgress."""
        return self.rules_with_modality("deny")

    def consent_rules(self) -> tuple[CorpusRule, ...]:
        """The require-consent subset."""
        return self.rules_with_modality("require_consent")

    def clinical_departments(self) -> tuple[str, ...]:
        """The clinical department names this corpus staffs."""
        return CLINICAL_DEPARTMENTS[: self.spec.departments]


def _expand_rulebook(
    spec: CorpusSpec, vocabulary: Vocabulary, rng: random.Random
) -> tuple[CorpusRule, ...]:
    """Expand the literal templates into the corpus rulebook."""
    rules: list[CorpusRule] = []
    seen: set[tuple[Rule, str]] = set()

    def push(rule: Rule, modality: str, citation: str, weight_class: str) -> None:
        key = (rule, modality)
        if key in seen:
            return
        seen.add(key)
        weight = rng.choice(WEIGHT_CLASSES[weight_class])
        rules.append(
            CorpusRule(
                rule=rule,
                modality=modality,
                citation=f"45 CFR {citation}",
                weight=weight,
            )
        )

    for role, templates in ROLE_RULEBOOK.items():
        for data, purpose, modality, citation, weight_class in templates:
            push(
                Rule.of(data=data, purpose=purpose, authorized=role),
                modality,
                citation,
                weight_class,
            )
    for department in CLINICAL_DEPARTMENTS[: spec.departments]:
        leaf = department_record_leaf(department)
        for role in DEPARTMENT_RULE_ROLES:
            for _, purpose, modality, citation, weight_class in DEPARTMENT_RULEBOOK:
                push(
                    Rule.of(data=leaf, purpose=purpose, authorized=role),
                    modality,
                    citation,
                    weight_class,
                )

    # Leaf-level "departmental protocol" rules: ground instantiations of
    # permit templates, padding the rulebook to the requested scale.
    permits = [rule for rule in rules if rule.modality == "permit"]
    attempts = 0
    added = 0
    while added < spec.protocol_rules and attempts < spec.protocol_rules * 20:
        attempts += 1
        template = rng.choice(permits)
        data = template.rule.value_of("data")
        purpose = template.rule.value_of("purpose")
        if data is None or purpose is None:  # pragma: no cover - templates are 3-term
            continue
        ground = Rule.of(
            data=rng.choice(vocabulary.ground_values("data", data)),
            purpose=rng.choice(vocabulary.ground_values("purpose", purpose)),
            authorized=template.role,
        )
        key = (ground, "permit")
        if key in seen:
            continue
        seen.add(key)
        rules.append(
            CorpusRule(
                rule=ground,
                modality="permit",
                citation=template.citation,
                weight=rng.choice(WEIGHT_CLASSES["tail"]),
            )
        )
        added += 1
    return tuple(rules)


def _build_hospital(spec: CorpusSpec, vocabulary: Vocabulary) -> HospitalModel:
    """Staff the corpus hospital (clinical depts + business/compliance)."""
    hospital = HospitalModel(name=spec.name, vocabulary=vocabulary)
    rosters: list[tuple[str, tuple[str, ...]]] = [
        (department, CLINICAL_DEPARTMENT_ROLES)
        for department in CLINICAL_DEPARTMENTS[: spec.departments]
    ]
    rosters.append(("business_office", BUSINESS_OFFICE_ROLES))
    rosters.append(("compliance_office", COMPLIANCE_OFFICE_ROLES))
    for name, roles in rosters:
        department = Department(name)
        for role in roles:
            for index in range(spec.staff_per_role):
                department.add_staff(f"{role}_{name}_{index:02d}", role)
        hospital.departments.append(department)
    hospital.patients = [
        Patient(f"patient_{index:05d}") for index in range(spec.patients)
    ]
    return hospital


def _instantiate_workflow(
    corpus_rules: tuple[CorpusRule, ...],
    vocabulary: Vocabulary,
    hospital: HospitalModel,
    rng: random.Random,
) -> None:
    """Turn permit rules into the hospital's leaf-level true workflow."""
    for corpus_rule in corpus_rules:
        if corpus_rule.modality != "permit":
            continue
        data = corpus_rule.rule.value_of("data")
        purpose = corpus_rule.rule.value_of("purpose")
        if data is None or purpose is None:  # pragma: no cover - 3-term rules
            continue
        data_leaves = vocabulary.ground_values("data", data)
        purpose_leaves = vocabulary.ground_values("purpose", purpose)
        if corpus_rule.weight >= 10.0:
            instances = 3
        elif corpus_rule.weight >= 2.0:
            instances = 2
        else:
            instances = 1
        for _ in range(instances):
            hospital.add_practice(
                WorkflowPractice(
                    data=rng.choice(data_leaves),
                    purpose=rng.choice(purpose_leaves),
                    role=corpus_rule.role,
                    weight=corpus_rule.weight / instances,
                )
            )


def _documented_store(
    spec: CorpusSpec, corpus_rules: tuple[CorpusRule, ...], rng: random.Random
) -> PolicyStore:
    """Seed the documented store from the heaviest permit rules.

    Mirrors :meth:`HospitalModel.documented_store`: the officer documents
    the common cases first (weight-ranked prefix) plus a couple of random
    tail rules, except here the documented artifacts are the *composite*
    rulebook rules — coverage must ground them through the deep hierarchy.
    """
    permits = [rule for rule in corpus_rules if rule.modality == "permit"]
    ranked = sorted(
        permits, key=lambda rule: (-rule.weight, format_rule(rule.rule))
    )
    keep = round(len(ranked) * spec.documented_fraction)
    store = PolicyStore(f"{spec.name}-store")
    for corpus_rule in ranked[:keep]:
        store.add(
            corpus_rule.rule,
            added_by="privacy-office",
            origin="hipaa-rulebook",
            note=corpus_rule.citation,
        )
    tail = ranked[keep:]
    if tail and keep:
        for corpus_rule in rng.sample(tail, k=min(2, len(tail))):
            store.add(
                corpus_rule.rule,
                added_by="privacy-office",
                origin="hipaa-rulebook",
                note=corpus_rule.citation,
            )
    return store


def generate_corpus(spec: CorpusSpec | None = None) -> PolicyCorpus:
    """Generate the full corpus for ``spec`` (deterministic in the seed)."""
    spec = spec or CorpusSpec()
    reg = obs.get_registry()
    with reg.span("repro_corpus_generate"):
        departments = CLINICAL_DEPARTMENTS[: spec.departments]
        vocabulary = hipaa_vocabulary(departments)
        rng = random.Random(spec.seed)
        rules = _expand_rulebook(spec, vocabulary, rng)
        hospital = _build_hospital(spec, vocabulary)
        _instantiate_workflow(rules, vocabulary, hospital, rng)
        store = _documented_store(spec, rules, rng)
    reg.counter("repro_corpus_generated_total").inc()
    reg.counter("repro_corpus_rules_total").inc(len(rules))
    return PolicyCorpus(
        spec=spec,
        vocabulary=vocabulary,
        hospital=hospital,
        rules=rules,
        store=store,
    )
