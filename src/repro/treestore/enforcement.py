"""Active Enforcement for tree-structured records.

The relational enforcer masks *columns*; legacy hierarchical systems need
the same guarantees over *subtrees*.  A :class:`TreeBinding` maps path
patterns onto the privacy vocabulary's data categories and locates the
data subject; :class:`TreeEnforcer` then serves ``retrieve`` requests:

1. select the requested subtrees with a path expression;
2. classify every element via the binding (first matching category path
   wins; unclassified elements are structural and always pass);
3. decide the categories in :mod:`repro.hdb.decision`, as the relational
   and served paths do — denied categories' elements are pruned;
4. apply patient consent: cell-level opt-outs prune the element,
   whole-purpose opt-outs drop the patient's entire subtree;
5. audit through Compliance Auditing with the same schema as the
   relational path, so *one* refinement pipeline serves both worlds.

Break-the-glass (``exception=True``) bypasses policy and consent but is
audited with ``status = EXCEPTION``, exactly like the relational path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.schema import AccessStatus
from repro.errors import EnforcementError
from repro.hdb.auditing import ComplianceAuditor
from repro.hdb.consent import ConsentStore
from repro.hdb.decision import PermitMemo, decide_categories
from repro.policy.store import PolicyStore
from repro.treestore.node import TreeDocument, TreeNode
from repro.treestore.path import PathExpression, compile_path
from repro.vocab.tree import canonical
from repro.vocab.vocabulary import Vocabulary


class TreeBinding:
    """How one document schema maps onto the privacy vocabulary.

    Parameters
    ----------
    patient_path:
        Path selecting the patient elements (e.g. ``/patients/patient``).
    patient_attribute:
        Attribute on those elements carrying the data subject id.
    categories:
        Mapping of path pattern → data-category value.  Patterns are
        checked in insertion order; the first match classifies a node.
    """

    def __init__(
        self,
        patient_path: str | PathExpression,
        patient_attribute: str,
        categories: dict[str, str],
    ) -> None:
        self.patient_path = (
            patient_path
            if isinstance(patient_path, PathExpression)
            else compile_path(patient_path)
        )
        self.patient_attribute = patient_attribute
        self.category_paths: list[tuple[PathExpression, str]] = [
            (compile_path(pattern), canonical(category))
            for pattern, category in categories.items()
        ]

    def classify(self, document: TreeDocument) -> dict[int, str]:
        """Map node ids to data categories for one document."""
        classified: dict[int, str] = {}
        for expression, category in self.category_paths:
            for node in expression.select(document):
                classified.setdefault(id(node), category)
        return classified

    def patients(self, document: TreeDocument) -> dict[int, str]:
        """Map node ids to the owning patient id.

        Every descendant of a patient element (and the element itself)
        belongs to that patient; nodes outside any patient element have
        no data subject and skip consent checks.
        """
        ownership: dict[int, str] = {}
        for element in self.patient_path.select(document):
            patient = element.attributes.get(self.patient_attribute)
            if patient is None:
                raise EnforcementError(
                    f"patient element <{element.name}> lacks the "
                    f"{self.patient_attribute!r} attribute"
                )
            for node in element.walk():
                ownership[id(node)] = patient
        return ownership


@dataclass(frozen=True)
class TreeEnforcementResult:
    """Outcome of one tree retrieval."""

    subtrees: tuple[TreeNode, ...]
    status: AccessStatus
    categories_returned: tuple[str, ...]
    categories_masked: tuple[str, ...]
    nodes_pruned_by_policy: int
    nodes_pruned_by_consent: int
    patients_dropped_by_consent: int


class TreeEnforcer:
    """Policy/consent enforcement over tree documents."""

    def __init__(
        self,
        policy_store: PolicyStore,
        consent: ConsentStore,
        auditor: ComplianceAuditor,
        vocabulary: Vocabulary,
    ) -> None:
        self.policy_store = policy_store
        self.consent = consent
        self.auditor = auditor
        self.vocabulary = vocabulary
        self.permit_memo = PermitMemo(policy_store, vocabulary)
        self._bindings: dict[str, TreeBinding] = {}

    def bind_document(self, document_name: str, binding: TreeBinding) -> None:
        """Register the privacy binding for one document schema."""
        self._bindings[document_name] = binding

    def binding_for(self, document_name: str) -> TreeBinding:
        """The registered binding for a document; raises if unbound."""
        try:
            return self._bindings[document_name]
        except KeyError:
            raise EnforcementError(
                f"document {document_name!r} has no privacy binding; "
                "refusing to serve it"
            ) from None

    # ------------------------------------------------------------------
    def retrieve(
        self,
        user: str,
        role: str,
        purpose: str,
        document: TreeDocument,
        select: str,
        exception: bool = False,
        truth: str = "",
    ) -> TreeEnforcementResult:
        """Serve one enforced, audited subtree retrieval."""
        binding = self.binding_for(document.name)
        selection = compile_path(select).select(document)
        if not selection:
            raise EnforcementError(
                f"path {select!r} selects nothing in document {document.name!r}"
            )
        categories = binding.classify(document)
        ownership = binding.patients(document)
        decision = decide_categories(
            self.permit_memo.permitted, role, purpose,
            (
                categories[id(node)]
                for root in selection
                for node in root.walk()
                if id(node) in categories
            ),
            exception,
        )
        if decision.deny:
            decision.audit(self.auditor, user, truth)
            raise decision.denied()
        purpose, permitted = decision.purpose, decision.returned

        pruned_policy = 0
        pruned_consent = 0
        dropped_patients: set[str] = set()
        removals: set[int] = set()
        for root in selection:
            for node in root.walk():
                category = categories.get(id(node))
                if category is None:
                    continue
                if category not in permitted:
                    removals.add(id(node))
                    pruned_policy += 1
                    continue
                patient = ownership.get(id(node))
                if patient is None or exception:
                    continue
                choice = self.consent.decide(patient, category, purpose)
                if choice.allowed:
                    continue
                if choice.row_level:
                    dropped_patients.add(patient)
                else:
                    removals.add(id(node))
                    pruned_consent += 1
        # whole-purpose opt-outs remove the patient's entire element
        if dropped_patients:
            removals.update(
                node for node, owner in ownership.items() if owner in dropped_patients
            )

        subtrees = tuple(
            pruned
            for root in selection
            for pruned in [_prune_clone(root, removals)]
            if pruned is not None
        )
        decision.audit(self.auditor, user, truth)
        return TreeEnforcementResult(
            subtrees=subtrees,
            status=decision.status,
            categories_returned=decision.returned,
            categories_masked=decision.masked,
            nodes_pruned_by_policy=pruned_policy,
            nodes_pruned_by_consent=pruned_consent,
            patients_dropped_by_consent=len(dropped_patients),
        )


def _prune_clone(node: TreeNode, removals: set[int]) -> TreeNode | None:
    """Deep-copy ``node``, skipping every subtree rooted in ``removals``."""
    if id(node) in removals:
        return None
    copy = TreeNode(node.name, dict(node.attributes), node.text)
    for child in node.children:
        kept = _prune_clone(child, removals)
        if kept is not None:
            copy.append(kept)
    return copy
