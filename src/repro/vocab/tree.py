"""Single-attribute vocabulary hierarchies.

A :class:`VocabularyTree` models the hierarchy for one policy attribute —
for example the ``data`` tree from Figure 1 of the paper, in which
``demographic`` is an internal (composite) node whose leaves are ``name``,
``address``, ``gender`` and ``birth_date``.  Leaves are the *ground* values
of the attribute; internal nodes are *composite* values that a policy rule
may use as shorthand for the whole subtree.

Values are canonicalised (lower-cased, stripped, internal whitespace
collapsed to underscores) so that ``"Birth Date"`` and ``"birth_date"`` name
the same node.  The canonical form is what all other layers of the library
compare against.  :func:`canonical` runs on every audited and decided
value, mostly on the same few role, purpose and category strings, so it
remembers the answer for each of the first :data:`CANONICAL_MEMO_LIMIT`
distinct ``str`` inputs of at most :data:`CANONICAL_MEMO_MAX_CHARS`
characters; past the cap, misses are computed but not kept.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.errors import DuplicateTermError, UnknownTermError, VocabularyError

_WHITESPACE = re.compile(r"\s+")

#: The most distinct inputs :func:`canonical` remembers.  Past it a miss
#: is still computed but not kept, so the memo holds at most this many
#: entries whatever the callers send.
CANONICAL_MEMO_LIMIT: int = 8192

#: The longest input :func:`canonical` remembers.  Vocabulary values are
#: a few words; the bound keeps a caller's long strings (a served frame
#: may carry 64 KiB of them) out of the memo, so it stays a few MB.
CANONICAL_MEMO_MAX_CHARS: int = 64

#: exact-``str`` input -> its canonical form; nothing that raised is kept
_canonical_memo: dict[str, str] = {}


def canonical(value: str) -> str:
    """Return the canonical form of a vocabulary value.

    Canonicalisation lower-cases the value, strips surrounding whitespace,
    and replaces internal whitespace runs with a single underscore.  Only
    exact ``str`` inputs are memoised; a subclass is recomputed each time
    and anything else raises :class:`~repro.errors.VocabularyError`.

    >>> canonical("  Birth Date ")
    'birth_date'
    """
    if type(value) is str:
        cached = _canonical_memo.get(value)
        if cached is not None:
            return cached
    elif not isinstance(value, str):
        raise VocabularyError(f"vocabulary values must be strings, got {value!r}")
    collapsed = _WHITESPACE.sub("_", value.strip())
    if not collapsed:
        raise VocabularyError("vocabulary values must be non-empty strings")
    result = collapsed.lower()
    if (
        type(value) is str
        and len(value) <= CANONICAL_MEMO_MAX_CHARS
        and len(_canonical_memo) < CANONICAL_MEMO_LIMIT
    ):
        _canonical_memo[value] = result
    return result


class VocabularyTree:
    """The value hierarchy for a single policy attribute.

    Parameters
    ----------
    attribute:
        Name of the policy attribute this tree describes (``"data"``,
        ``"purpose"``, ``"authorized"`` ...).
    root:
        Name of the root node.  Defaults to the attribute name itself, which
        is the convention used by the paper's Figure 1 (the ``data`` tree is
        rooted at a node standing for "any data").
    """

    def __init__(self, attribute: str, root: str | None = None) -> None:
        self.attribute = canonical(attribute)
        self.root = canonical(root) if root is not None else self.attribute
        self._parent: dict[str, str | None] = {self.root: None}
        self._children: dict[str, list[str]] = {self.root: []}
        self._version = 0
        # node -> (node, parent, ..., root), filled by lineage()
        self._lineages: dict[str, tuple[str, ...]] = {}

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped on every :meth:`add`.

        Consumers that cache derived data (the memoised grounder, interned
        range masks) stamp this value and detect later mutation instead of
        silently serving stale expansions.
        """
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, value: str, parent: str | None = None) -> str:
        """Add ``value`` under ``parent`` (the root when omitted).

        Returns the canonical form of the added value.  Raises
        :class:`DuplicateTermError` if the value already exists and
        :class:`UnknownTermError` if the parent does not.
        """
        node = canonical(value)
        parent_node = self.root if parent is None else canonical(parent)
        if node in self._parent:
            raise DuplicateTermError(
                f"value {node!r} already exists in the {self.attribute!r} tree"
            )
        if parent_node not in self._parent:
            raise UnknownTermError(self.attribute, parent_node)
        self._parent[node] = parent_node
        self._children[node] = []
        self._children[parent_node].append(node)
        self._version += 1
        self._lineages.clear()
        return node

    def add_branch(self, parent: str, values: list[str] | tuple[str, ...]) -> list[str]:
        """Add ``parent`` (if missing) under the root and ``values`` under it.

        Convenience for declaring one level of Figure-1-style hierarchy in a
        single call.  Returns the canonical names of the added children.
        """
        parent_node = canonical(parent)
        if parent_node not in self._parent:
            self.add(parent_node)
        return [self.add(value, parent_node) for value in values]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, value: str) -> bool:
        try:
            return canonical(value) in self._parent
        except VocabularyError:
            return False

    def has_node(self, node: str) -> bool:
        """True iff ``node`` is a node of the tree as spelled, without
        canonicalising it (nodes are canonical, so a hit needs none)."""
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[str]:
        """Iterate over all node names in preorder (root first)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def _require(self, value: str) -> str:
        node = canonical(value)
        if node not in self._parent:
            raise UnknownTermError(self.attribute, node)
        return node

    def parent(self, value: str) -> str | None:
        """Return the parent of ``value`` (``None`` for the root)."""
        return self._parent[self._require(value)]

    def children(self, value: str) -> tuple[str, ...]:
        """Return the direct children of ``value``."""
        return tuple(self._children[self._require(value)])

    def is_leaf(self, value: str) -> bool:
        """True iff ``value`` has no children, i.e. it is a ground value."""
        return not self._children[self._require(value)]

    def leaves(self) -> tuple[str, ...]:
        """Return every leaf in the tree, in preorder."""
        return tuple(node for node in self if not self._children[node])

    def leaves_under(self, value: str) -> tuple[str, ...]:
        """Return the ground values derivable from ``value``.

        This realises the paper's Definition 3: for a composite value the
        result is the set of leaves of its subtree; for a ground value the
        result is the value itself.
        """
        start = self._require(value)
        found: list[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            kids = self._children[node]
            if kids:
                stack.extend(reversed(kids))
            else:
                found.append(node)
        return tuple(found)

    def lineage(self, value: str) -> tuple[str, ...]:
        """Return ``value`` followed by its ancestors up to the root.

        Memoised per node until the next :meth:`add`; a value that is
        already a node is answered without canonicalising it.
        """
        found = self._lineages.get(value)
        if found is None:
            node = self._require(value)
            chain = [node]
            parent = self._parent[node]
            while parent is not None:
                chain.append(parent)
                parent = self._parent[parent]
            found = self._lineages[node] = tuple(chain)
        return found

    def ancestors(self, value: str) -> tuple[str, ...]:
        """Return the ancestors of ``value`` from parent up to the root."""
        return self.lineage(value)[1:]

    def depth(self, value: str) -> int:
        """Return the depth of ``value`` (the root has depth 0)."""
        return len(self.ancestors(value))

    def subsumes(self, ancestor: str, descendant: str) -> bool:
        """True iff ``ancestor`` equals or is an ancestor of ``descendant``.

        Matches the paper's notion that a composite term covers every ground
        term derivable from it.
        """
        top = self._require(ancestor)
        return top in self.lineage(descendant)

    def height(self) -> int:
        """Return the height of the tree (a lone root has height 0)."""
        return max(self.depth(node) for node in self)

    # ------------------------------------------------------------------
    # serialisation helpers
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Return a JSON-ready nested-dict encoding of the tree."""

        def encode(node: str) -> dict:
            return {
                "name": node,
                "children": [encode(child) for child in self._children[node]],
            }

        return {"attribute": self.attribute, "root": encode(self.root)}

    @classmethod
    def from_dict(cls, payload: dict) -> "VocabularyTree":
        """Rebuild a tree from the :meth:`to_dict` encoding."""
        try:
            attribute = payload["attribute"]
            root = payload["root"]
            root_name = root["name"]
        except (KeyError, TypeError) as exc:
            raise VocabularyError(f"malformed vocabulary tree payload: {exc}") from exc
        tree = cls(attribute, root=root_name)

        def walk(node: dict, parent: str) -> None:
            for child in node.get("children", ()):
                tree.add(child["name"], parent)
                walk(child, child["name"])

        walk(root, root_name)
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VocabularyTree(attribute={self.attribute!r}, "
            f"nodes={len(self)}, leaves={len(self.leaves())})"
        )
