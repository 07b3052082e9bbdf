"""The one category decision of Active Enforcement and Compliance Auditing.

Figure 5 makes enforcement and auditing one decision, and its trail is
all refinement mines, so the served PDP (:mod:`repro.serve.engine`), the
relational enforcer (:mod:`repro.hdb.enforcement`) and the tree enforcer
(:mod:`repro.treestore.enforcement`) all decide here:
:func:`decide_categories` over a :class:`PermitMemo`, then
:meth:`CategoryDecision.audit`.  Each front end audits where its access
takes effect — a query that fails while executing writes nothing — and
keeps only its own shape: the query rewrite and cell consent, subtree
pruning and node consent, or the decision cache and protocol response.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, NamedTuple

from repro.audit.entry import AuditEntry
from repro.audit.schema import AccessStatus
from repro.errors import AccessDeniedError
from repro.hdb.auditing import ComplianceAuditor
from repro.policy.store import PolicyStore
from repro.vocab.tree import canonical
from repro.vocab.vocabulary import Vocabulary

# each enum member lookup costs about 0.12 µs; bind the two statuses once
_EXCEPTION, _REGULAR = AccessStatus.EXCEPTION, AccessStatus.REGULAR


class PermitMemo:
    """Permit decisions over one policy store, memoised per ``(category,
    purpose, role)`` and stamped with ``(store revision, vocabulary
    version)``: mutating either clears the memo before the next lookup,
    so no answer is ever stale.  A miss is one
    :meth:`~repro.policy.store.PolicyStore.covering_revision` lookup.
    """

    def __init__(self, policy_store: PolicyStore, vocabulary: Vocabulary) -> None:
        self.policy_store = policy_store
        self.vocabulary = vocabulary
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._permit_cache: dict[tuple[str, str, str], tuple[bool, int | None]] = {}
        self._permit_stamp: tuple[int, int] = (-1, -1)

    def decision(self, category: str, purpose: str, role: str) -> tuple[bool, int | None]:
        """``(permitted, revision of the first covering rule or None)``."""
        stamp = (self.policy_store.revision, self.vocabulary.version)
        if stamp != self._permit_stamp:
            if self._permit_cache:
                self.invalidations += 1
                self._permit_cache.clear()
            self._permit_stamp = stamp
        # callers pass canonical values, so probe with them as given and
        # canonicalise only when that misses
        decision = self._permit_cache.get((category, purpose, role))
        if decision is None:
            key = (canonical(category), canonical(purpose), canonical(role))
            decision = self._permit_cache.get(key)
            if decision is None:
                revision = self.policy_store.covering_revision(*key, self.vocabulary)
                decision = (revision is not None, revision)
                self._permit_cache[key] = decision
                self.misses += 1
                return decision
        self.hits += 1
        return decision

    def permitted(
        self, categories: Iterable[str], purpose: str, role: str
    ) -> frozenset[str]:
        """The subset of ``categories`` the policy permits."""
        decision = self.decision
        return frozenset(
            category for category in categories if decision(category, purpose, role)[0]
        )

    def stats(self) -> dict:
        """JSON-ready counters (the ``stats`` op's ``permit_cache``)."""
        return {
            "hits": self.hits, "misses": self.misses, "invalidations": self.invalidations,
        }


class CategoryDecision(NamedTuple):
    """Canonical role and purpose, status, the sorted returned and masked
    categories, and whether nothing requested is returned (a denial)."""

    role: str
    purpose: str
    status: AccessStatus
    returned: tuple[str, ...]
    masked: tuple[str, ...]
    deny: bool

    def audit(
        self, auditor: ComplianceAuditor, user: str, truth: str = ""
    ) -> tuple[AuditEntry, ...]:
        """Write this decision's audit entries; return the ALLOW ones."""
        return auditor.record_decision(
            user, self.role, self.purpose, self.returned, self.masked,
            self.status, truth,
        )

    def denied(self) -> AccessDeniedError:
        """The error an in-process front end raises for a denial."""
        return AccessDeniedError(
            f"policy permits none of the requested categories {self.masked} "
            f"for role {self.role!r} and purpose {self.purpose!r}",
            decision=self,
        )


def decide_categories(
    permitted: Callable[[list[str], str, str], Collection[str]],
    role: str,
    purpose: str,
    categories: Iterable[str],
    exception: bool,
) -> CategoryDecision:
    """Decide which of ``categories`` ``role`` may use for ``purpose``.

    Break-the-glass (``exception``) returns every category as EXCEPTION
    without a check.  Otherwise ``permitted`` is called once with the
    canonical sorted categories, purpose and role, and returns the subset
    it permits; the rest is masked.
    """
    role = canonical(role)
    purpose = canonical(purpose)
    requested = sorted({canonical(category) for category in categories})
    if exception:
        return CategoryDecision(role, purpose, _EXCEPTION, tuple(requested), (), False)
    allowed = permitted(requested, purpose, role)
    if len(allowed) == len(requested):
        return CategoryDecision(role, purpose, _REGULAR, tuple(requested), (), False)
    returned = tuple([category for category in requested if category in allowed])
    masked = tuple([category for category in requested if category not in allowed])
    return CategoryDecision(role, purpose, _REGULAR, returned, masked, not returned)
