"""Unit tests for tree-structured Active Enforcement."""

from __future__ import annotations

import pytest

from repro.audit.log import AuditLog
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import AccessDeniedError, EnforcementError
from repro.hdb.auditing import ComplianceAuditor
from repro.hdb.consent import ConsentStore
from repro.policy.store import PolicyStore
from repro.policy.parser import parse_rule
from repro.treestore.enforcement import TreeBinding, TreeEnforcer
from repro.treestore.node import TreeDocument, TreeNode
from repro.vocab.builtin import healthcare_vocabulary


def _ward_document() -> TreeDocument:
    root = TreeNode("patients")
    for pid, name in (("p1", "Alice"), ("p2", "Bob")):
        patient = root.child("patient", {"id": pid})
        demographics = patient.child("demographics")
        demographics.child("name", text=name)
        demographics.child("address", text=f"{pid} street")
        record = patient.child("record")
        record.child("prescription", text=f"rx-{pid}")
        record.child("referral", text=f"ref-{pid}")
        record.child("psychiatry", text=f"psy-{pid}")
    return TreeDocument(root, name="ward")


def _binding() -> TreeBinding:
    return TreeBinding(
        patient_path="/patients/patient",
        patient_attribute="id",
        categories={
            "//demographics/name": "name",
            "//demographics/address": "address",
            "//record/prescription": "prescription",
            "//record/referral": "referral",
            "//record/psychiatry": "psychiatry",
        },
    )


@pytest.fixture()
def enforcer():
    vocabulary = healthcare_vocabulary()
    store = PolicyStore()
    store.add(parse_rule("ALLOW nurse TO USE medical_records FOR treatment"))
    store.add(parse_rule("ALLOW physician TO USE psychiatry FOR treatment"))
    store.add(parse_rule("ALLOW clerk TO USE demographic FOR billing"))
    consent = ConsentStore(vocabulary)
    auditor = ComplianceAuditor(AuditLog())
    tree_enforcer = TreeEnforcer(store, consent, auditor, vocabulary)
    tree_enforcer.bind_document("ward", _binding())
    return tree_enforcer


def _texts(result, name):
    return [
        node.text
        for subtree in result.subtrees
        for node in subtree.find_all(name)
    ]


class TestPolicyPruning:
    def test_permitted_categories_survive(self, enforcer):
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient",
        )
        assert _texts(result, "prescription") == ["rx-p1", "rx-p2"]
        assert _texts(result, "referral") == ["ref-p1", "ref-p2"]

    def test_denied_categories_pruned(self, enforcer):
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient",
        )
        assert _texts(result, "psychiatry") == []
        assert _texts(result, "name") == []
        assert "psychiatry" in result.categories_masked
        assert result.nodes_pruned_by_policy == 6  # name, address, psychiatry x2

    def test_structural_elements_always_pass(self, enforcer):
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient",
        )
        assert all(subtree.name == "patient" for subtree in result.subtrees)
        assert all(
            subtree.find_all("record") for subtree in result.subtrees
        )

    def test_original_document_untouched(self, enforcer):
        document = _ward_document()
        enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", document, "/patients/patient"
        )
        assert len(document.root.find_all("psychiatry")) == 2

    def test_full_denial_raises_and_audits(self, enforcer):
        with pytest.raises(AccessDeniedError):
            enforcer.retrieve(
                "clerk_jo", "clerk", "billing", _ward_document(),
                "//record/prescription",
            )
        entry = enforcer.auditor.log[-1]
        assert entry.op is AccessOp.DENY
        assert entry.data == "prescription"

    def test_selection_with_predicate(self, enforcer):
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient[@id='p2']",
        )
        assert _texts(result, "prescription") == ["rx-p2"]

    def test_empty_selection_rejected(self, enforcer):
        with pytest.raises(EnforcementError):
            enforcer.retrieve(
                "nurse_kim", "nurse", "treatment", _ward_document(),
                "/patients/visitor",
            )

    def test_unbound_document_rejected(self, enforcer):
        stray = TreeDocument(TreeNode("loose"), name="loose")
        with pytest.raises(EnforcementError):
            enforcer.retrieve("u", "nurse", "treatment", stray, "/loose")


class TestPermitMemo:
    def test_repeat_retrieve_hits_and_a_store_mutation_invalidates(self, enforcer):
        memo = enforcer.permit_memo

        def retrieve():
            return enforcer.retrieve(
                "nurse_kim", "nurse", "treatment", _ward_document(),
                "/patients/patient",
            )

        retrieve()  # five categories, each a miss
        assert (memo.hits, memo.misses, memo.invalidations) == (0, 5, 0)
        retrieve()
        assert (memo.hits, memo.misses, memo.invalidations) == (5, 5, 0)
        enforcer.policy_store.add(
            parse_rule("ALLOW nurse TO USE psychiatry FOR treatment")
        )
        result = retrieve()
        assert (memo.hits, memo.misses, memo.invalidations) == (5, 10, 1)
        assert "psychiatry" in result.categories_returned


class TestBreakTheGlass:
    def test_exception_bypasses_policy(self, enforcer):
        result = enforcer.retrieve(
            "clerk_jo", "clerk", "billing", _ward_document(),
            "//record/prescription", exception=True,
        )
        assert result.status is AccessStatus.EXCEPTION
        assert _texts(result, "prescription") == ["rx-p1", "rx-p2"]
        assert result.categories_masked == ()
        entry = enforcer.auditor.log[-1]
        assert entry.status is AccessStatus.EXCEPTION
        assert entry.op is AccessOp.ALLOW


class TestConsent:
    def test_cell_level_opt_out_prunes_element(self, enforcer):
        enforcer.consent.opt_out("p2", "treatment", data="referral")
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient",
        )
        assert _texts(result, "referral") == ["ref-p1"]
        assert result.nodes_pruned_by_consent == 1

    def test_whole_purpose_opt_out_drops_patient(self, enforcer):
        enforcer.policy_store.add(
            parse_rule("ALLOW physician TO USE medical_records FOR research")
        )
        enforcer.consent.opt_out("p1", "research")
        result = enforcer.retrieve(
            "dr_x", "physician", "research", _ward_document(),
            "/patients/patient",
        )
        assert len(result.subtrees) == 1
        assert result.subtrees[0].attributes["id"] == "p2"
        assert result.patients_dropped_by_consent == 1

    def test_break_the_glass_overrides_consent(self, enforcer):
        enforcer.consent.opt_out("p1", "treatment")
        result = enforcer.retrieve(
            "nurse_kim", "nurse", "treatment", _ward_document(),
            "/patients/patient", exception=True,
        )
        assert len(result.subtrees) == 2
        assert result.nodes_pruned_by_consent == 0

    def test_missing_patient_attribute_rejected(self, enforcer):
        document = _ward_document()
        del document.root.children[0].attributes["id"]
        with pytest.raises(EnforcementError):
            enforcer.retrieve(
                "nurse_kim", "nurse", "treatment", document, "/patients/patient"
            )


class TestSharedRefinementPipeline:
    def test_tree_exceptions_feed_the_same_miner(self, enforcer):
        # the whole point of the adaptation: one refinement pipeline
        from repro.mining.patterns import MiningConfig
        from repro.refinement.engine import RefinementConfig, refine

        document = _ward_document()
        for user in ("clerk_a", "clerk_b", "clerk_c"):
            for _ in range(2):
                enforcer.retrieve(
                    user, "clerk", "billing", document,
                    "//record/prescription", exception=True,
                )
        result = refine(
            enforcer.policy_store.policy(),
            enforcer.auditor.log,
            enforcer.vocabulary,
            RefinementConfig(mining=MiningConfig(min_support=5)),
        )
        assert [str(p.rule) for p in result.useful_patterns] == [
            "{(authorized, clerk) ^ (data, prescription) ^ (purpose, billing)}"
        ]
