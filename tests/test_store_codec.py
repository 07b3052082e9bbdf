"""Unit tests for the durable store's binary record codec."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.audit.log import make_entry
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import StoreError
from repro.store import codec
from repro.store.codec import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    MAX_RECORD_BYTES,
    SEGMENT_HEADER,
    decode_payload,
    encode_payload,
    encode_record,
    frame,
    read_frame,
)
from repro.store.segment import SegmentWriter, iter_segment, scan_segment
from repro.store.store import AuditStore, StoreConfig
from repro.vocab.tree import canonical
from tests.reference import reference_decode


def _entry(**overrides):
    defaults = dict(
        time=7, user="mark", data="referral", purpose="registration",
        authorized="nurse", status=AccessStatus.EXCEPTION, op=AccessOp.ALLOW,
        truth="practice",
    )
    defaults.update(overrides)
    return make_entry(**defaults)


class TestPayload:
    def test_round_trip(self):
        entry = _entry()
        assert decode_payload(encode_payload(entry)) == entry

    def test_truth_survives(self):
        entry = _entry(truth="violation")
        assert decode_payload(encode_payload(entry)).truth == "violation"

    def test_unicode_values_round_trip(self):
        entry = _entry(user="médecin_α", data="überweisung")
        rebuilt = decode_payload(encode_payload(entry))
        assert rebuilt.user == entry.user
        assert rebuilt.data == entry.data

    def test_all_ops_and_statuses(self):
        for op in AccessOp:
            for status in AccessStatus:
                entry = _entry(op=op, status=status)
                rebuilt = decode_payload(encode_payload(entry))
                assert (rebuilt.op, rebuilt.status) == (op, status)

    def test_truncated_payload_rejected(self):
        payload = encode_payload(_entry())
        with pytest.raises(StoreError):
            decode_payload(payload[:-1])

    def test_trailing_garbage_rejected(self):
        payload = encode_payload(_entry())
        with pytest.raises(StoreError):
            decode_payload(payload + b"\x00")


class TestFrame:
    def test_read_back(self):
        payload = encode_payload(_entry())
        buffer = frame(payload)
        result = read_frame(buffer, 0)
        assert result is not None
        got, next_offset = result
        assert got == payload
        assert next_offset == len(buffer) == FRAME_OVERHEAD + len(payload)

    def test_encode_record_is_framed_payload(self):
        entry = _entry()
        assert encode_record(entry) == frame(encode_payload(entry))

    def test_short_header_is_torn(self):
        assert read_frame(b"\x01\x02\x03", 0) is None

    def test_short_payload_is_torn(self):
        buffer = frame(encode_payload(_entry()))
        assert read_frame(buffer[:-1], 0) is None

    def test_corrupt_byte_is_torn(self):
        buffer = bytearray(frame(encode_payload(_entry())))
        buffer[-1] ^= 0xFF  # flip a payload bit; CRC must catch it
        assert read_frame(bytes(buffer), 0) is None

    def test_oversized_length_is_torn(self):
        buffer = struct.pack("<II", MAX_RECORD_BYTES + 1, 0) + b"x" * 16
        assert read_frame(buffer, 0) is None

    def test_sequential_frames(self):
        first = _entry(time=1)
        second = _entry(time=2, user="tim")
        buffer = encode_record(first) + encode_record(second)
        payload, offset = read_frame(buffer, 0)
        assert decode_payload(payload) == first
        payload, offset = read_frame(buffer, offset)
        assert decode_payload(payload) == second
        assert offset == len(buffer)

    def test_segment_header_size(self):
        assert len(SEGMENT_HEADER) == HEADER_SIZE


# ----------------------------------------------------------------------
# the field memo against the validating decode
# ----------------------------------------------------------------------
#: Field texts the validating constructor accepts, including ones it
#: rewrites (surrounding and internal whitespace, case, non-ASCII).
texts = st.sampled_from([
    "mark", "referral", "  Birth Date ", "Birth\tDate", "birth_date",
    "médecin_α", "看护 Nurse", "ÜBERWEISUNG",
]) | st.text(min_size=1, max_size=8).filter(str.strip)
#: Field bytes, valid or not: whitespace-only, empty and bad UTF-8 too.
raw_fields = texts.map(lambda text: text.encode("utf-8")) | st.sampled_from(
    [b"", b"   ", b"\t\n", b"\xff\xfe", b"ok\xc3", b"\xed\xa0\x80"]
)
truth_labels = st.sampled_from(["", "practice", "violation", "Not Canonical "])


def raw_payload(time, op, status, fields):
    """A payload packed from raw field bytes, valid or not."""
    parts = [struct.pack("<QBB", time, op, status)]
    for raw in fields:
        parts.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(parts)


@st.composite
def entries(draw):
    return make_entry(
        time=draw(st.integers(min_value=0, max_value=2**63)),
        user=draw(texts), data=draw(texts), purpose=draw(texts),
        authorized=draw(texts),
        status=draw(st.sampled_from(list(AccessStatus))),
        op=draw(st.sampled_from(list(AccessOp))),
        truth=draw(truth_labels),
    )


@st.composite
def mutated_payloads(draw):
    """Payloads that may be torn, padded, or carry bad field bytes."""
    fields = [draw(raw_fields) for _ in range(4)]
    fields.append(draw(truth_labels).encode("utf-8"))
    payload = raw_payload(
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        draw(st.integers(min_value=0, max_value=2)),
        draw(st.integers(min_value=0, max_value=2)),
        fields,
    )
    cut = draw(st.none() | st.integers(min_value=0, max_value=len(payload)))
    if cut is not None:
        payload = payload[:cut]
    return payload + draw(st.sampled_from([b"", b"\x00", b"\x01\x02\x03"]))


def decode_both(payload, strings):
    """(reference outcome, memo outcome): an entry or ``StoreError``."""
    outcomes = []
    for decode in (reference_decode, lambda raw: decode_payload(raw, strings)):
        try:
            outcomes.append(decode(payload))
        except StoreError:
            outcomes.append(StoreError)
    return outcomes


def assert_same_entry(expected, actual):
    for name in ("time", "user", "data", "purpose", "authorized", "truth"):
        assert getattr(actual, name) == getattr(expected, name), name
    assert actual.op is expected.op
    assert actual.status is expected.status


def assert_memo_valid(strings):
    """Every memoised value is what the constructor makes of its bytes."""
    for raw, value in strings.items():
        text = raw.decode("utf-8")
        assert text.strip()
        assert value == canonical(text)


class TestFieldMemo:
    @given(st.lists(entries(), min_size=1, max_size=12))
    def test_round_trip_matches_the_validating_decode(self, batch):
        payloads = [encode_payload(entry) for entry in batch]
        shared: dict[bytes, str] = {}
        for _ in range(2):  # the second pass reads a warm memo
            for entry, payload in zip(batch, payloads):
                expected = reference_decode(payload)
                assert_same_entry(entry, expected)
                assert_same_entry(expected, decode_payload(payload))
                assert_same_entry(expected, decode_payload(payload, {}))
                assert_same_entry(expected, decode_payload(payload, shared))
        assert_memo_valid(shared)

    @given(st.lists(mutated_payloads(), min_size=1, max_size=12))
    def test_bad_bytes_agree_with_the_validating_decode(self, payloads):
        shared: dict[bytes, str] = {}
        for _ in range(2):
            for payload in payloads:
                for strings in ({}, shared):
                    expected, actual = decode_both(payload, strings)
                    if expected is StoreError:
                        assert actual is StoreError
                    else:
                        assert_same_entry(expected, actual)
        assert_memo_valid(shared)

    @pytest.mark.parametrize("bad", [b"", b"   ", b"\xff\xfe", b"ok\xc3"])
    @pytest.mark.parametrize("position", range(4))
    def test_rejected_field_never_enters_the_memo(self, bad, position):
        fields = [b"mark", b"Referral", b"registration", b"nurse", b""]
        fields[position] = bad
        strings: dict[bytes, str] = {}
        for _ in range(2):
            with pytest.raises(StoreError):
                decode_payload(raw_payload(1, 1, 1, fields), strings)
        assert bad not in strings
        assert_memo_valid(strings)
        fields[position] = b"  Clerk "
        assert decode_payload(raw_payload(1, 1, 1, fields), strings) == (
            reference_decode(raw_payload(1, 1, 1, fields))
        )

    @pytest.mark.parametrize("op,status", [(2, 1), (1, 2), (255, 0)])
    def test_unknown_op_or_status_rejected(self, op, status):
        fields = [b"mark", b"referral", b"registration", b"nurse", b""]
        with pytest.raises(StoreError):
            decode_payload(raw_payload(1, op, status, fields))


class TestFieldMemoCounts:
    """Each distinct field value is validated once per segment read,
    however many records repeat it."""

    USERS = ("ann", "bob", "cat")
    COMBOS = (("referral", "registration", "nurse"), ("psychiatry", "billing", "clerk"))

    def _entries(self, count):
        return [
            make_entry(
                tick, self.USERS[tick % 3], *self.COMBOS[tick % 2],
                status=AccessStatus(tick % 2),
            )
            for tick in range(count)
        ]

    @pytest.fixture()
    def checks(self, monkeypatch):
        calls = []
        check = codec.canonical_field

        def counting_check(attribute, value):
            calls.append(value)
            return check(attribute, value)

        monkeypatch.setattr(codec, "canonical_field", counting_check)
        return calls

    def test_segment_reads_check_each_distinct_value_once(self, tmp_path, checks):
        path = tmp_path / "seg-00000001.seg"
        writer = SegmentWriter(path, create=True)
        written = self._entries(300)
        for entry in written:
            writer.append(entry)
        writer.close()
        distinct = len(self.USERS) + 3 * len(self.COMBOS)
        assert list(iter_segment(path)) == written
        assert sorted(checks) == sorted(set(checks)) and len(checks) == distinct
        checks.clear()
        assert scan_segment(path).entries == len(written)
        assert len(checks) == distinct

    def test_index_lookup_checks_each_distinct_value_once(self, tmp_path, checks):
        with AuditStore(tmp_path / "store", StoreConfig(max_segment_entries=100)) as store:
            for entry in self._entries(300):
                store.append(entry)
            checks.clear()
            found = list(store.lookup(data="referral"))
        assert len(found) == 150
        # one memo per segment handle: each of the three segments holds
        # the referral combination's three values and all three users
        assert len(checks) == 3 * (3 + len(self.USERS))
