"""``canonical()``'s memo against the memo-free oracle.

:func:`tests.reference.reference_canonical` recomputes every answer;
``canonical`` remembers the first ``CANONICAL_MEMO_LIMIT`` distinct
``str`` inputs.  The two must agree on every input, cold or warm, and
the memo must stay within its cap and hold nothing that raised.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VocabularyError
from repro.vocab import tree
from repro.vocab.tree import CANONICAL_MEMO_LIMIT, CANONICAL_MEMO_MAX_CHARS, canonical
from tests.reference import reference_canonical

#: ASCII and Unicode whitespace, including the separators ``str.strip``
#: and ``\s`` both treat as space
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0      　"
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(_WHITESPACE),
        st.sampled_from("AbCdé_İß"),
        st.characters(),
    ),
    max_size=12,
)


def _outcome(function, value):
    try:
        return "ok", function(value)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return "raised", type(exc), str(exc)


@pytest.fixture()
def fresh_memo(monkeypatch):
    """An empty memo for the test, so the process's warm one is untouched."""
    memo: dict[str, str] = {}
    monkeypatch.setattr(tree, "_canonical_memo", memo)
    return memo


class _Text(str):
    pass


@settings(max_examples=500, deadline=None)
@given(value=_TEXT)
def test_equals_oracle_cold_and_warm(value):
    expected = _outcome(reference_canonical, value)
    with patch.object(tree, "_canonical_memo", {}):
        assert _outcome(canonical, value) == expected  # cold: a miss
        assert _outcome(canonical, value) == expected  # warm: a hit


@settings(max_examples=200, deadline=None)
@given(value=_TEXT)
def test_str_subclass_gets_the_same_answer(value):
    expected = _outcome(reference_canonical, value)
    with patch.object(tree, "_canonical_memo", {}):
        assert _outcome(canonical, value) == expected  # warms the plain str
        got = _outcome(canonical, _Text(value))
    assert got == expected
    if got[0] == "ok":
        assert type(got[1]) is str


def test_memo_stops_at_its_cap(fresh_memo):
    values = [f"Term {index}" for index in range(CANONICAL_MEMO_LIMIT + 500)]
    for value in values:
        assert canonical(value) == reference_canonical(value)
    assert len(fresh_memo) == CANONICAL_MEMO_LIMIT
    # misses past the cap are still answered, and still not kept
    for value in reversed(values):
        assert canonical(value) == reference_canonical(value)
    assert len(fresh_memo) == CANONICAL_MEMO_LIMIT


def test_a_smaller_cap_is_honoured(fresh_memo, monkeypatch):
    monkeypatch.setattr(tree, "CANONICAL_MEMO_LIMIT", 16)
    for index in range(100):
        assert canonical(f" V{index}\t") == f"v{index}"
    assert len(fresh_memo) == 16


def test_long_inputs_are_answered_but_not_kept(fresh_memo):
    short = "X" * CANONICAL_MEMO_MAX_CHARS
    long = " Y" * CANONICAL_MEMO_MAX_CHARS
    assert canonical(short) == reference_canonical(short)
    assert canonical(long) == reference_canonical(long)
    assert list(fresh_memo) == [short]


def test_raising_inputs_never_enter_the_memo(fresh_memo):
    for value in ("", "   ", "\t\n", "　"):
        with pytest.raises(VocabularyError):
            canonical(value)
    assert fresh_memo == {}


def test_only_exact_str_keys_are_kept(fresh_memo):
    assert canonical(_Text("  Nurse ")) == "nurse"
    assert fresh_memo == {}
    assert canonical("  Nurse ") == "nurse"
    assert all(type(key) is str for key in fresh_memo)


class _PosesAsNurse:
    """Hashes and compares like ``"nurse"`` without being a ``str``."""

    def __hash__(self):
        return hash("nurse")

    def __eq__(self, other):
        return other == "nurse"


@pytest.mark.parametrize("value", [None, 7, 1.5, b"nurse", ["nurse"], _PosesAsNurse()])
def test_non_str_raises_after_the_memo_is_warm(value):
    assert canonical("nurse") == "nurse"
    with pytest.raises(VocabularyError, match="must be strings"):
        canonical(value)
    assert _outcome(canonical, value) == _outcome(reference_canonical, value)
