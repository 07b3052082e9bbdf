"""Property tests: the store's permit index against the permit scan.

A permit miss is answered by :meth:`PolicyStore.covering_revision` — a
lookup over the lineages of the request's three values in an index of
the store's permit-shaped rules — where it used to scan the store with
``Rule.covers``.  Hypothesis drives random schedules of store mutations,
vocabulary growth and decisions over random vocabularies (flat
attributes, bushy trees, single-child chains, unknown values) and checks
that both the index and ``ActiveEnforcer.policy_decision`` (its memo in
front of the index) return exactly what the scan in
``tests/reference.py`` returns: whether the access is permitted and the
revision of the first covering rule in store order.

The pinned cases below cover what a random schedule reaches only by
luck, and the one place the two differ on purpose: a value unknown to a
strict vocabulary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownTermError
from repro.hdb.auditing import ComplianceAuditor
from repro.hdb.consent import ConsentStore
from repro.hdb.enforcement import ActiveEnforcer
from repro.policy.rule import Rule
from repro.policy.store import PolicyStore
from repro.sqlmini.database import Database
from repro.vocab.builtin import healthcare_vocabulary
from repro.vocab.vocabulary import Vocabulary

from tests.reference import reference_permit

ATTRIBUTES = ("data", "purpose", "authorized")

#: every value a schedule may name per attribute: the root, the names
#: random trees give their nodes (``d0``, ``d1``, ... in creation order,
#: so a name past a tree's size is unknown until the tree grows to it)
#: and one name no tree ever holds
POOLS = {
    attribute: (attribute, *(f"{attribute[0]}{i}" for i in range(8)), "x_unknown")
    for attribute in ATTRIBUTES
}

#: how a request spells a value; the answer must not depend on it
SPELLINGS = (
    lambda value: value,
    str.upper,
    lambda value: f"  {value.upper()} ",
)

#: each node's parent index, drawn modulo the nodes made before it
bushy = st.lists(st.integers(min_value=0, max_value=63), max_size=7)
#: every node under the one before it
chain = st.integers(min_value=1, max_value=7).map(lambda n: list(range(n)))
#: None is a flat attribute
tree_shapes = st.one_of(st.none(), bushy, chain)

value_ids = st.integers(min_value=0, max_value=63)
ops = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(("permit", "pair", "quad", "dup")),
        st.tuples(value_ids, value_ids, value_ids, value_ids),
    ),
    st.tuples(st.just("retire"), value_ids),
    st.tuples(st.just("readd"), value_ids),
    st.tuples(st.just("grow"), st.integers(min_value=0, max_value=2), value_ids),
    st.tuples(
        st.just("decide"),
        st.integers(min_value=0, max_value=len(SPELLINGS) - 1),
        st.tuples(value_ids, value_ids, value_ids),
    ),
)


def _vocabulary(strict: bool, shapes: tuple) -> Vocabulary:
    vocabulary = Vocabulary("random", strict=strict)
    for attribute, parents in zip(ATTRIBUTES, shapes):
        if parents is None:
            continue
        tree = vocabulary.new_tree(attribute)
        nodes = [tree.root]
        for index, parent in enumerate(parents):
            nodes.append(tree.add(f"{attribute[0]}{index}", nodes[parent % len(nodes)]))
    return vocabulary


def _pools(vocabulary: Vocabulary) -> dict[str, tuple[str, ...]]:
    """The values a schedule draws from: all of them, or under a strict
    vocabulary only those its trees know when the schedule starts."""
    if not vocabulary.strict:
        return POOLS
    pools = {}
    for attribute, pool in POOLS.items():
        tree = vocabulary.tree_for(attribute)
        pools[attribute] = pool if tree is None else tuple(tree)
    return pools


def _rule(shape: str, ids: tuple[int, ...], pools) -> Rule:
    data, purpose, role = (
        pools[attribute][i % len(pools[attribute])]
        for attribute, i in zip(ATTRIBUTES, ids)
    )
    pairs = [("data", data), ("purpose", purpose), ("authorized", role)]
    if shape == "pair":
        del pairs[ids[3] % 3]
    elif shape == "quad":
        pairs.append(("user", f"u{ids[3] % 3}"))
    elif shape == "dup":  # two data terms: three terms, no authorized one
        pairs[2] = ("data", pools["data"][ids[3] % len(pools["data"])])
    return Rule.from_pairs(pairs)


def _enforcer(store: PolicyStore, vocabulary: Vocabulary) -> ActiveEnforcer:
    return ActiveEnforcer(
        database=Database(),
        policy_store=store,
        consent=ConsentStore(vocabulary),
        auditor=ComplianceAuditor(),
        vocabulary=vocabulary,
    )


def _assert_agrees(store, enforcer, vocabulary, category, purpose, role):
    expected = reference_permit(store, vocabulary, category, purpose, role)
    assert store.covering_revision(category, purpose, role, vocabulary) == expected[1]
    assert enforcer.policy_decision(category, purpose, role) == expected


@settings(max_examples=200, deadline=None)
@given(
    strict=st.booleans(),
    shapes=st.tuples(tree_shapes, tree_shapes, tree_shapes),
    schedule=st.lists(ops, min_size=1, max_size=30),
)
def test_index_and_enforcer_match_the_scan(strict, shapes, schedule):
    vocabulary = _vocabulary(strict, shapes)
    pools = _pools(vocabulary)
    store = PolicyStore()
    enforcer = _enforcer(store, vocabulary)
    added: list[Rule] = []
    for op, *args in schedule:
        if op == "add":
            rule = _rule(args[0], args[1], pools)
            store.add(rule)
            added.append(rule)
        elif op == "retire" and added:
            store.retire(added[args[0] % len(added)])
        elif op == "readd" and added:
            store.add(added[args[0] % len(added)])
        elif op == "grow":
            tree = vocabulary.tree_for(ATTRIBUTES[args[0]])
            if tree is not None and len(tree) <= 8:
                nodes = list(tree)
                tree.add(f"{tree.attribute[0]}{len(tree) - 1}", nodes[args[1] % len(nodes)])
        elif op == "decide":
            spell = SPELLINGS[args[0]]
            category, purpose, role = (
                spell(pools[attribute][i % len(pools[attribute])])
                for attribute, i in zip(ATTRIBUTES, args[1])
            )
            _assert_agrees(store, enforcer, vocabulary, category, purpose, role)
    # and every request over the final store and vocabulary
    for category in pools["data"]:
        for purpose in pools["purpose"]:
            for role in pools["authorized"]:
                _assert_agrees(store, enforcer, vocabulary, category, purpose, role)


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
NURSE_RECORDS = Rule.of(data="medical_records", purpose="treatment", authorized="nurse")
CLINICAL_CARE = Rule.of(data="clinical", purpose="healthcare", authorized="clinical_staff")


@pytest.fixture()
def vocabulary() -> Vocabulary:
    return healthcare_vocabulary()


@pytest.fixture()
def store() -> PolicyStore:
    store = PolicyStore()
    store.add(Rule.of(data="name", purpose="billing", authorized="clerk"))
    store.add(NURSE_RECORDS)
    return store


def test_vocabulary_growth_is_answered_afresh(store, vocabulary):
    enforcer = _enforcer(store, vocabulary)
    assert enforcer.policy_decision("genomics", "treatment", "nurse") == (False, None)
    assert store.covering_revision("genomics", "treatment", "nurse", vocabulary) is None
    vocabulary.tree_for("data").add("genomics", parent="medical_records")
    # neither the store revision nor the index changed; the lineage did
    assert store.covering_revision("genomics", "treatment", "nurse", vocabulary) == 2
    assert enforcer.policy_decision("genomics", "treatment", "nurse") == (True, 2)
    assert enforcer.policy_decision("genomics", "treatment", "nurse") == reference_permit(
        store, vocabulary, "genomics", "treatment", "nurse"
    )


def test_in_place_mutation_rebuilds_the_index(store, vocabulary):
    assert store.covering_revision("psychiatry", "diagnosis", "doctor", vocabulary) is None
    assert store.add(CLINICAL_CARE)
    assert store.covering_revision("psychiatry", "diagnosis", "doctor", vocabulary) == 3
    assert store.retire(CLINICAL_CARE)
    assert store.covering_revision("psychiatry", "diagnosis", "doctor", vocabulary) is None


def test_first_covering_rule_is_by_store_position_not_revision(store, vocabulary):
    store.add(CLINICAL_CARE)  # revision 3, after NURSE_RECORDS (revision 2)
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) == 2
    store.retire(NURSE_RECORDS)
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) == 3
    store.add(NURSE_RECORDS)  # revision 5, but back in its old slot
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) == 5
    assert reference_permit(store, vocabulary, "referral", "treatment", "nurse") == (True, 5)


def test_a_clone_answers_from_its_own_index(store, vocabulary):
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) == 2
    twin = store.clone()
    twin.retire(NURSE_RECORDS)
    assert twin.covering_revision("referral", "treatment", "nurse", vocabulary) is None
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) == 2


def test_only_permit_shaped_rules_cover(vocabulary):
    store = PolicyStore()
    store.add(Rule.of(data="referral", purpose="treatment"))
    store.add(Rule.from_pairs(
        [("data", "referral"), ("data", "prescription"), ("purpose", "treatment")]
    ))
    store.add(Rule.of(data="referral", purpose="treatment", authorized="nurse", user="u1"))
    assert store.covering_revision("referral", "treatment", "nurse", vocabulary) is None
    assert reference_permit(store, vocabulary, "referral", "treatment", "nurse") == (False, None)


class TestStrictVocabulary:
    """A value unknown to a strict vocabulary.

    The scan raised only when its ``all``/``any`` short-circuits reached
    the unknown term, so the same request could raise or answer
    depending on the store's contents and order.  The index raises for
    every request naming an unknown value, and a store rule naming one
    never covers anything (no known request value has it in its
    lineage) and raises nothing.
    """

    def test_unknown_request_value_raises_even_from_an_empty_store(self):
        strict = healthcare_vocabulary(strict=True)
        store = PolicyStore()
        assert reference_permit(store, strict, "genomics", "treatment", "nurse") == (False, None)
        with pytest.raises(UnknownTermError):
            store.covering_revision("genomics", "treatment", "nurse", strict)
        with pytest.raises(UnknownTermError):
            _enforcer(store, strict).policy_decision("genomics", "treatment", "nurse")

    def test_unknown_request_value_raises_whatever_the_store_holds(self, store):
        strict = healthcare_vocabulary(strict=True)
        # the scan decides on the first rule's authorized term, never
        # resolving the unknown purpose; the index resolves every value
        assert reference_permit(store, strict, "name", "alien_purpose", "nurse") == (False, None)
        with pytest.raises(UnknownTermError):
            store.covering_revision("name", "alien_purpose", "nurse", strict)

    def test_unknown_rule_value_never_covers(self, store):
        strict = healthcare_vocabulary(strict=True)
        store.add(Rule.of(data="genomics", purpose="treatment", authorized="nurse"))
        # the scan reaches the unknown rule term only when no earlier rule
        # covers the request
        assert reference_permit(store, strict, "lab_results", "treatment", "nurse") == (True, 2)
        with pytest.raises(UnknownTermError):
            reference_permit(store, strict, "insurance", "treatment", "nurse")
        assert store.covering_revision("lab_results", "treatment", "nurse", strict) == 2
        assert store.covering_revision("insurance", "treatment", "nurse", strict) is None


def test_non_canonical_spellings_get_the_canonical_answer(store, vocabulary):
    enforcer = _enforcer(store, vocabulary)
    canonical_answer = enforcer.policy_decision("prescription", "treatment", "nurse")
    assert canonical_answer == (True, 2)
    hits = enforcer.permit_memo.hits
    assert enforcer.policy_decision("  Prescription ", "TREATMENT", "  Nurse ") == canonical_answer
    # the canonical key answered it: a hit, and no second memo entry
    assert enforcer.permit_memo.hits == hits + 1
    assert enforcer.permit_memo.misses == 1
    assert list(enforcer.permit_memo._permit_cache) == [("prescription", "treatment", "nurse")]
    fresh = _enforcer(store, vocabulary)
    assert fresh.policy_decision(" Lab Results", "Treatment", "NURSE") == (True, 2)
    assert fresh.policy_decision(" Lab Results", "Billing", "NURSE") == (False, None)


class TestLineage:
    def test_a_node_and_its_ancestors_up_to_the_root(self, vocabulary):
        assert vocabulary.lineage("data", "referral") == (
            "referral", "medical_records", "clinical", "data",
        )
        assert vocabulary.lineage("authorized", "staff") == ("staff",)
        assert vocabulary.lineage("Authorized", " Nurse ") == (
            "nurse", "clinical_staff", "staff",
        )

    def test_flat_and_unknown_values_are_their_own_lineage(self, vocabulary):
        assert vocabulary.lineage("user", " Alice ") == ("alice",)
        assert vocabulary.lineage("data", "Genomics") == ("genomics",)

    def test_strict_unknown_value_raises(self):
        strict = healthcare_vocabulary(strict=True)
        with pytest.raises(UnknownTermError):
            strict.lineage("data", "genomics")
        with pytest.raises(UnknownTermError):
            strict.subsumes("data", "genomics", "referral")
        assert strict.lineage("user", "alice") == ("alice",)

    def test_growth_is_seen(self, vocabulary):
        tree = vocabulary.tree_for("data")
        assert vocabulary.lineage("data", "genomics") == ("genomics",)
        tree.add("genomics", parent="psychiatry")
        assert vocabulary.lineage("data", "genomics") == (
            "genomics", "psychiatry", "clinical", "data",
        )
        assert tree.ancestors("genomics") == ("psychiatry", "clinical", "data")

    @settings(max_examples=60, deadline=None)
    @given(shape=tree_shapes, strict=st.booleans(), top=value_ids, bottom=value_ids)
    def test_subsumes_is_lineage_membership(self, shape, strict, top, bottom):
        vocabulary = _vocabulary(strict, (shape, None, None))
        pool = _pools(vocabulary)["data"]
        ancestor, descendant = pool[top % len(pool)], pool[bottom % len(pool)]
        tree = vocabulary.tree_for("data")
        if tree is not None and ancestor in tree and descendant in tree:
            expected = ancestor == descendant or ancestor in tree.ancestors(descendant)
        else:
            expected = ancestor == descendant
        assert vocabulary.subsumes("data", ancestor, descendant) == expected
        assert (ancestor in vocabulary.lineage("data", descendant)) == expected
