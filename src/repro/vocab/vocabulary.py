"""Multi-attribute privacy policy vocabularies.

A :class:`Vocabulary` bundles one :class:`~repro.vocab.tree.VocabularyTree`
per hierarchical policy attribute.  It is the ``V`` parameter threaded
through every algorithm in the paper: grounding (Definition 3), equivalence
(Definitions 4 and 6), range computation (Definition 8), coverage
(Algorithm 1) and pruning (Algorithm 6) all consult it.

Attributes *without* a registered tree are treated as **flat**: every value
of such an attribute is its own ground value.  This mirrors the paper's
audit schema, where attributes like ``user`` and ``time`` carry atomic
values that no hierarchy refines.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import UnknownTermError, VocabularyError
from repro.vocab.tree import VocabularyTree, canonical


class Vocabulary:
    """A set of per-attribute value hierarchies.

    Parameters
    ----------
    name:
        Human-readable identifier, used in reports and serialisation.
    strict:
        When true, looking up a value that is missing from a registered
        tree raises :class:`~repro.errors.UnknownTermError`.  When false
        (the default) unknown values are treated as ground atoms, which is
        the forgiving behaviour an audit pipeline needs when logs mention
        values the vocabulary curator has not yet added.
    """

    def __init__(self, name: str = "vocabulary", strict: bool = False) -> None:
        self.name = name
        self._strict = bool(strict)
        self._trees: dict[str, VocabularyTree] = {}
        self._version = 0

    @property
    def strict(self) -> bool:
        """Whether unknown values raise (see the class docstring)."""
        return self._strict

    @strict.setter
    def strict(self, value: bool) -> None:
        # strictness changes what grounding returns, so it is a mutation
        if bool(value) != self._strict:
            self._strict = bool(value)
            self._version += 1

    @property
    def version(self) -> int:
        """Monotonic mutation stamp over the whole vocabulary.

        Changes whenever a tree is registered, any registered tree gains
        a node, or :attr:`strict` flips, so a consumer holding one
        stamped value can detect every mutation path.  The memoised
        grounder uses this to refuse to serve expansions cached against
        an older hierarchy.
        """
        return self._version + sum(tree.version for tree in self._trees.values())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_tree(self, tree: VocabularyTree) -> VocabularyTree:
        """Register ``tree`` for its attribute; returns the tree."""
        if tree.attribute in self._trees:
            raise VocabularyError(
                f"vocabulary {self.name!r} already has a tree for "
                f"attribute {tree.attribute!r}"
            )
        self._trees[tree.attribute] = tree
        self._version += 1
        return tree

    def new_tree(self, attribute: str, root: str | None = None) -> VocabularyTree:
        """Create, register and return an empty tree for ``attribute``."""
        return self.add_tree(VocabularyTree(attribute, root=root))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """The attributes that have a registered hierarchy."""
        return tuple(self._trees)

    def tree_for(self, attribute: str) -> VocabularyTree | None:
        """Return the tree for ``attribute`` or ``None`` if it is flat."""
        return self._trees.get(canonical(attribute))

    def __contains__(self, attribute: str) -> bool:
        try:
            return canonical(attribute) in self._trees
        except VocabularyError:
            return False

    def __iter__(self) -> Iterator[VocabularyTree]:
        return iter(self._trees.values())

    def _resolve(self, attribute: str, value: str) -> tuple[VocabularyTree | None, str]:
        """Return ``(tree, canonical_value)``, enforcing strictness."""
        tree = self._trees.get(attribute)
        if tree is None:
            tree = self._trees.get(canonical(attribute))
        elif tree.has_node(value):
            return tree, value
        node = canonical(value)
        if tree is not None and not tree.has_node(node):
            if self.strict:
                raise UnknownTermError(tree.attribute, node)
            return None, node
        return tree, node

    def is_ground(self, attribute: str, value: str) -> bool:
        """True iff ``value`` is atomic for ``attribute`` (Definition 2).

        A value is ground when its attribute is flat, when the value is
        unknown to the tree (non-strict mode), or when it is a leaf.
        """
        tree, node = self._resolve(attribute, value)
        if tree is None:
            return True
        return tree.is_leaf(node)

    def ground_values(self, attribute: str, value: str) -> tuple[str, ...]:
        """Return the ground values derivable from ``value`` (Definition 3).

        For a ground value the result is a one-element tuple containing the
        canonical value itself, so the result is never empty: this is the
        paper's "existence of ground RuleTerm" guarantee.
        """
        tree, node = self._resolve(attribute, value)
        if tree is None:
            return (node,)
        return tree.leaves_under(node)

    def lineage(self, attribute: str, value: str) -> tuple[str, ...]:
        """Return the canonical ``value`` followed by its ancestors up to
        the root of ``attribute``'s tree.

        A flat attribute, or a value the tree does not know (non-strict
        mode), has the lineage ``(value,)``; in strict mode an unknown
        value raises :class:`~repro.errors.UnknownTermError`.  The values
        that subsume ``value`` are exactly the members of the result, so
        subsumption is one membership test.
        """
        tree, node = self._resolve(attribute, value)
        if tree is None:
            return (node,)
        return tree.lineage(node)

    def subsumes(self, attribute: str, ancestor: str, descendant: str) -> bool:
        """True iff ``ancestor`` covers ``descendant`` for ``attribute``.

        Flat attributes subsume only on equality.
        """
        _, top = self._resolve(attribute, ancestor)
        return top in self.lineage(attribute, descendant)

    def overlap(self, attribute: str, value_a: str, value_b: str) -> bool:
        """True iff the ground sets of the two values intersect.

        Equivalence of RuleTerms (Definition 4) reduces to ground-set
        overlap on same-attribute terms, so this is the primitive the
        policy layer builds on.
        """
        ground_a = self.ground_values(attribute, value_a)
        ground_b = self.ground_values(attribute, value_b)
        if len(ground_a) == 1 and len(ground_b) == 1:
            return ground_a[0] == ground_b[0]
        return bool(set(ground_a) & set(ground_b))

    def fanout(self, attribute: str, value: str) -> int:
        """Return how many ground values ``value`` expands to."""
        return len(self.ground_values(attribute, value))

    # ------------------------------------------------------------------
    # serialisation helpers
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Return a JSON-ready encoding of the whole vocabulary."""
        return {
            "name": self.name,
            "strict": self.strict,
            "trees": [tree.to_dict() for tree in self._trees.values()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        """Rebuild a vocabulary from the :meth:`to_dict` encoding."""
        try:
            vocab = cls(payload["name"], strict=bool(payload.get("strict", False)))
            trees = payload["trees"]
        except (KeyError, TypeError) as exc:
            raise VocabularyError(f"malformed vocabulary payload: {exc}") from exc
        for tree_payload in trees:
            vocab.add_tree(VocabularyTree.from_dict(tree_payload))
        return vocab

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vocabulary(name={self.name!r}, attributes={list(self._trees)})"
