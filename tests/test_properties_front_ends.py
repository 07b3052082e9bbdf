"""Served ≡ relational ≡ tree: one category decision behind three front ends.

The served ``decide`` (:class:`~repro.serve.engine.PdpEngine`), the
relational :class:`~repro.hdb.enforcement.ActiveEnforcer` and the
:class:`~repro.treestore.enforcement.TreeEnforcer` all decide a request
through :func:`~repro.hdb.decision.decide_categories`.  For the same
user, role, purpose, category set and exception flag, over random
stores, they must return and mask the same categories with the same
status, deny the same requests, and write byte-identical audit trails to
durable logs.  Role, purpose and the served categories arrive in
non-canonical spellings; sparse stores make full denials common.  The
expected split comes from the scanning oracle
:func:`tests.reference.reference_permit`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AccessDeniedError
from repro.hdb.auditing import ComplianceAuditor, LogicalClock
from repro.hdb.consent import ConsentStore
from repro.hdb.enforcement import AccessRequest, ActiveEnforcer, TableBinding
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.serve import protocol
from repro.serve.cache import DecisionCache
from repro.serve.engine import PdpEngine, SnapshotManager
from repro.sqlmini.database import Database
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from repro.treestore.enforcement import TreeBinding, TreeEnforcer
from repro.treestore.node import TreeDocument, TreeNode
from repro.vocab.builtin import healthcare_vocabulary
from tests.reference import reference_permit

_VOCABULARY = healthcare_vocabulary()
DATA = tuple(_VOCABULARY.tree_for("data"))
PURPOSES = tuple(_VOCABULARY.tree_for("purpose"))
ROLES = tuple(_VOCABULARY.tree_for("authorized"))
#: the leaf categories, one column / element each
CATEGORIES = _VOCABULARY.tree_for("data").leaves()
CONFIG = StoreConfig(max_segment_entries=4, fsync="off")

spellings = st.sampled_from([
    lambda value: value,
    str.upper,
    str.title,
    lambda value: f"  {value} ",
    lambda value: value.replace("_", " "),
])


@st.composite
def requests(draw):
    categories = draw(
        st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=4, unique=True)
    )
    served = [draw(spellings)(category) for category in categories]
    if draw(st.booleans()):
        served.append(draw(spellings)(categories[0]))  # a second spelling
    role, purpose = draw(st.sampled_from(ROLES)), draw(st.sampled_from(PURPOSES))
    return {
        "user": draw(st.sampled_from(["ann", "bo"])),
        "canonical": (role, purpose),
        "role": draw(spellings)(role),
        "purpose": draw(spellings)(purpose),
        "categories": categories,
        "served": served,
        "exception": draw(st.booleans()),
        "truth": draw(st.sampled_from(["", "practice"])),
    }


@st.composite
def scenarios(draw):
    reqs = draw(st.lists(requests(), min_size=1, max_size=3))
    # the first request's categories again, in new spellings, under a
    # fresh role (and maybe purpose and flag): the served cache's hits
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        first, again = reqs[0], draw(requests())
        again["categories"] = first["categories"]
        again["served"] = [draw(spellings)(c) for c in first["categories"]]
        if draw(st.booleans()):
            again["purpose"] = first["purpose"]
            again["canonical"] = (again["canonical"][0], first["canonical"][1])
        reqs.append(again)
    # random rules, plus rules over some requests' own role and purpose,
    # so that partial permits are as common as full denials
    rules = draw(st.lists(
        st.tuples(
            st.sampled_from(DATA), st.sampled_from(PURPOSES), st.sampled_from(ROLES)
        ),
        max_size=4,
    ))
    for req in reqs:
        if draw(st.booleans()):
            rules.append((draw(st.sampled_from(DATA)), *reversed(req["canonical"])))
    retire = bool(rules) and draw(st.booleans())
    return rules, retire, reqs


class FrontEnds:
    """The three front ends over one store, each auditing to its own
    durable log from its own clock."""

    def __init__(self, root: Path, store: PolicyStore, vocabulary) -> None:
        self.logs = {
            name: DurableAuditLog(root / name, CONFIG)
            for name in ("served", "relational", "tree")
        }

        def auditor(name):
            return ComplianceAuditor(self.logs[name], LogicalClock())

        database = Database("clinical")
        database.execute(
            "CREATE TABLE patients (pid TEXT NOT NULL, "
            + ", ".join(f"{category} TEXT" for category in CATEGORIES) + ")"
        )
        database.table("patients").insert(["p1", *CATEGORIES])
        self.relational = ActiveEnforcer(
            database, store, ConsentStore(vocabulary), auditor("relational"), vocabulary
        )
        self.relational.bind_table(
            TableBinding("patients", "pid", {c: c for c in CATEGORIES})
        )
        self.served = PdpEngine(
            SnapshotManager(ActiveEnforcer(
                database, store, ConsentStore(vocabulary), auditor("served"), vocabulary
            )),
            DecisionCache(16),
        )
        self.tree = TreeEnforcer(store, ConsentStore(vocabulary), auditor("tree"), vocabulary)
        self.tree.bind_document("ward", TreeBinding(
            "/patients/patient", "id", {f"//record/{c}": c for c in CATEGORIES}
        ))

    def decide(self, req) -> dict:
        """Each front end's ``(returned, masked, status, deny)``."""
        response = self.served.decide(protocol.parse_request({
            "op": "decide", "user": req["user"], "role": req["role"],
            "purpose": req["purpose"], "categories": req["served"],
            "exception": req["exception"], "truth": req["truth"],
        }))
        denied = response["code"] == protocol.DENIED
        outcomes = {"served": (
            tuple(response["returned"]), tuple(response["masked"]),
            "regular" if denied else response["status"], denied,
        )}
        sql = f"SELECT {', '.join(req['categories'])} FROM patients"
        access = AccessRequest(
            req["user"], req["role"], req["purpose"], sql, req["exception"],
            req["truth"],
        )
        outcomes["relational"] = _outcome(lambda: self.relational.execute(access))
        root = TreeNode("patients")
        record = root.child("patient", {"id": "p1"}).child("record")
        for category in req["categories"]:
            record.child(category, text=category)
        outcomes["tree"] = _outcome(lambda: self.tree.retrieve(
            req["user"], req["role"], req["purpose"],
            TreeDocument(root, name="ward"), "/patients/patient",
            exception=req["exception"], truth=req["truth"],
        ))
        return outcomes

    def close(self) -> None:
        for log in self.logs.values():
            log.close()


def _outcome(call) -> tuple:
    try:
        result = call()
    except AccessDeniedError as exc:
        decision = exc.decision
        return decision.returned, decision.masked, decision.status.name.lower(), True
    return (
        result.categories_returned, result.categories_masked,
        result.status.name.lower(), False,
    )


def _expected(store, vocabulary, req) -> tuple:
    categories = tuple(sorted(req["categories"]))
    if req["exception"]:
        return categories, (), "exception", False
    role, purpose = req["canonical"]
    returned = tuple(
        category for category in categories
        if reference_permit(store, vocabulary, category, purpose, role)[0]
    )
    masked = tuple(category for category in categories if category not in returned)
    return returned, masked, "regular", not returned


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_served_relational_and_tree_decide_alike(scenario):
    rules, retire, reqs = scenario
    vocabulary = healthcare_vocabulary()
    store = PolicyStore()
    for data, purpose, role in rules:
        store.add(Rule.of(data=data, purpose=purpose, authorized=role))
    if retire:
        data, purpose, role = rules[0]
        store.retire(Rule.of(data=data, purpose=purpose, authorized=role))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        front_ends = FrontEnds(root, store, vocabulary)
        for req in reqs:
            outcomes = front_ends.decide(req)
            expected = _expected(store, vocabulary, req)
            assert outcomes == dict.fromkeys(outcomes, expected), req
        front_ends.close()
        names = sorted(path.name for path in (root / "served").iterdir())
        assert len(DurableAuditLog(root / "served")) > 0
        for other in ("relational", "tree"):
            assert sorted(path.name for path in (root / other).iterdir()) == names
            for name in names:
                assert (root / other / name).read_bytes() == (
                    root / "served" / name
                ).read_bytes(), (other, name)
