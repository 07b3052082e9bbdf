"""Unit tests for the durable store's binary record codec."""

from __future__ import annotations

import io
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.audit.log import make_entry
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import StoreError
from repro.store import codec, segment
from repro.store.codec import (
    FRAME_OVERHEAD,
    HEADER_SIZE,
    MAX_RECORD_BYTES,
    SEGMENT_HEADER,
    RecordMemo,
    decode_payload,
    encode_payload,
    encode_record,
    frame,
    read_frame,
)
from repro.store.segment import SegmentWriter, iter_segment, read_record_at, scan_segment
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
# the record and field memo against the validating decode
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
times = st.integers(min_value=0, max_value=2**64 - 1)


def raw_payload(time, op, status, fields):
    """A payload packed from raw field bytes, valid or not."""
    parts = [struct.pack("<QBB", time, op, status)]
    for raw in fields:
        parts.append(struct.pack("<I", len(raw)) + raw)
    return b"".join(parts)


@st.composite
def shared_batches(draw):
    """Entries drawn from a few string tuples, so most share an earlier
    entry's strings and differ from it only in time, op or status."""
    pool = draw(st.lists(
        st.tuples(texts, texts, texts, texts, truth_labels), min_size=1, max_size=3
    ))
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        user, data, purpose, authorized, truth = draw(st.sampled_from(pool))
        batch.append(make_entry(
            time=draw(times), user=user, data=data, purpose=purpose,
            authorized=authorized,
            status=draw(st.sampled_from(list(AccessStatus))),
            op=draw(st.sampled_from(list(AccessOp))),
            truth=truth,
        ))
    return batch


@st.composite
def mutated_payloads(draw):
    """Payloads that may be torn, padded, or carry bad field bytes."""
    fields = [draw(raw_fields) for _ in range(4)]
    fields.append(draw(truth_labels).encode("utf-8"))
    payload = raw_payload(
        draw(times),
        draw(st.integers(min_value=0, max_value=2)),
        draw(st.integers(min_value=0, max_value=2)),
        fields,
    )
    cut = draw(st.none() | st.integers(min_value=0, max_value=len(payload)))
    if cut is not None:
        payload = payload[:cut]
    return payload + draw(st.sampled_from([b"", b"\x00", b"\x01\x02\x03"]))


def decode_both(payload, memo):
    """(reference outcome, memo outcome): an entry or ``StoreError``."""
    outcomes = []
    for decode in (reference_decode, lambda raw: decode_payload(raw, memo)):
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


def assert_memo_valid(memo):
    """Every memoised record and field is what the validating constructor
    makes of its bytes."""
    for raw, value in memo.strings.items():
        text = raw.decode("utf-8")
        assert text.strip()
        assert value == canonical(text)
    for body, fields in memo.records.items():
        expected = reference_decode(bytes(8) + body)
        op, user, data, purpose, authorized, status, truth = fields
        assert op is expected.op and status is expected.status
        assert (user, data, purpose, authorized, truth) == (
            expected.user, expected.data, expected.purpose,
            expected.authorized, expected.truth,
        )


class TestFieldMemo:
    @given(shared_batches())
    def test_round_trip_matches_the_validating_decode(self, batch):
        payloads = [encode_payload(entry) for entry in batch]
        shared = RecordMemo()
        for _ in range(2):  # the second pass reads a warm memo
            for entry, payload in zip(batch, payloads):
                expected = reference_decode(payload)
                assert_same_entry(entry, expected)
                assert_same_entry(expected, decode_payload(payload))
                assert_same_entry(expected, decode_payload(payload, RecordMemo()))
                assert_same_entry(expected, decode_payload(payload, shared))
        assert_memo_valid(shared)
        assert set(shared.records) == {payload[8:] for payload in payloads}

    @given(st.lists(mutated_payloads(), min_size=1, max_size=12))
    def test_bad_bytes_agree_with_the_validating_decode(self, payloads):
        shared = RecordMemo()
        for _ in range(2):
            for payload in payloads:
                for memo in (RecordMemo(), shared):
                    expected, actual = decode_both(payload, memo)
                    if expected is StoreError:
                        assert actual is StoreError
                        assert payload[8:] not in memo.records
                    else:
                        assert_same_entry(expected, actual)
        assert_memo_valid(shared)

    @given(shared_batches(), st.lists(mutated_payloads(), min_size=1, max_size=8))
    def test_rejected_record_enters_neither_memo(self, batch, bad):
        """Good and bad records through one memo: the memo holds exactly
        the good records' bodies, and every good decode stays equal to
        the validating decode."""
        good = [encode_payload(entry) for entry in batch]
        bad = [payload for payload in bad if decode_both(payload, None)[0] is StoreError]
        memo = RecordMemo()
        for payload in [*good, *bad, *good]:
            expected, actual = decode_both(payload, memo)
            if expected is StoreError:
                assert actual is StoreError
            else:
                assert_same_entry(expected, actual)
        assert set(memo.records) == {payload[8:] for payload in good}
        assert_memo_valid(memo)

    @pytest.mark.parametrize("bad", [b"", b"   ", b"\xff\xfe", b"ok\xc3"])
    @pytest.mark.parametrize("position", range(4))
    def test_rejected_field_never_enters_the_memo(self, bad, position):
        fields = [b"mark", b"Referral", b"registration", b"nurse", b""]
        fields[position] = bad
        memo = RecordMemo()
        for _ in range(2):
            with pytest.raises(StoreError):
                decode_payload(raw_payload(1, 1, 1, fields), memo)
        assert bad not in memo.strings
        assert memo.records == {}
        assert_memo_valid(memo)
        fields[position] = b"  Clerk "
        assert decode_payload(raw_payload(1, 1, 1, fields), memo) == (
            reference_decode(raw_payload(1, 1, 1, fields))
        )
        assert len(memo.records) == 1
        assert_memo_valid(memo)

    @pytest.mark.parametrize("op,status", [(2, 1), (1, 2), (255, 0)])
    def test_unknown_op_or_status_rejected(self, op, status):
        fields = [b"mark", b"referral", b"registration", b"nurse", b""]
        memo = RecordMemo()
        with pytest.raises(StoreError):
            decode_payload(raw_payload(1, op, status, fields), memo)
        assert memo.records == {} and memo.strings == {}

    def test_a_repeated_record_keeps_its_own_time(self):
        fields = [b"mark", b"referral", b"registration", b"nurse", b"practice"]
        memo = RecordMemo()
        decoded = [
            decode_payload(raw_payload(time, 1, 0, fields), memo)
            for time in (5, 2**64 - 1, 0, 5)
        ]
        assert [entry.time for entry in decoded] == [5, 2**64 - 1, 0, 5]
        assert len({id(entry) for entry in decoded}) == 4
        assert all(entry.truth == "practice" for entry in decoded)
        assert len(memo.records) == 1


class TestRecordMemoCap:
    """A segment whose records do not repeat fills the record table only
    up to ``RECORD_MEMO_LIMIT``; later misses decode through the field
    table and are not kept."""

    def test_a_segment_past_the_cap_decodes_whole_and_keeps_the_cap(
        self, tmp_path, monkeypatch
    ):
        memos = []

        class RecordedMemo(RecordMemo):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(segment, "RecordMemo", RecordedMemo)
        limit = codec.RECORD_MEMO_LIMIT
        written = [_entry(time=tick, user=f"u{tick}") for tick in range(limit + 300)]
        # repeats of a memoised and of an unmemoised record, at new times
        written += [_entry(time=limit + 400, user="u0"),
                    _entry(time=limit + 401, user=f"u{limit + 299}")]
        payloads = [encode_payload(entry) for entry in written]
        path = tmp_path / "seg-00000001.seg"
        path.write_bytes(SEGMENT_HEADER + b"".join(frame(p) for p in payloads))
        decoded = list(iter_segment(path))
        assert len(decoded) == len(payloads)
        for payload, entry in zip(payloads, decoded):
            assert_same_entry(reference_decode(payload), entry)
        (memo,) = memos
        assert len(memo.records) == limit
        assert set(memo.records) == {payload[8:] for payload in payloads[:limit]}
        assert_memo_valid(memo)


def reference_walk(raw, offset=HEADER_SIZE):
    """``iter_segment`` spelt out without the codec's frame walker: frames
    up to the first with a short prefix, an oversized length, a short
    payload or a CRC mismatch, every payload through the validating
    decode."""
    entries = []
    while len(raw) - offset >= 8:
        length, crc = struct.unpack_from("<II", raw, offset)
        payload = raw[offset + 8:offset + 8 + length]
        if length > MAX_RECORD_BYTES or len(payload) < length or zlib.crc32(payload) != crc:
            break
        entries.append(reference_decode(payload))
        offset += 8 + length
    return entries


@st.composite
def damaged_segments(draw):
    """A segment's bytes, possibly with a byte flipped, its tail cut or
    garbage appended."""
    raw = SEGMENT_HEADER + b"".join(encode_record(entry) for entry in draw(shared_batches()))
    damage = draw(st.sampled_from(["none", "flip", "cut", "append"]))
    if damage == "flip":
        position = draw(st.integers(min_value=HEADER_SIZE, max_value=len(raw) - 1))
        flipped = raw[position] ^ draw(st.integers(min_value=1, max_value=255))
        raw = raw[:position] + bytes([flipped]) + raw[position + 1:]
    elif damage == "cut":
        raw = raw[:draw(st.integers(min_value=HEADER_SIZE, max_value=len(raw)))]
    elif damage == "append":
        raw += draw(st.binary(min_size=1, max_size=24))
    return raw


class TestFrameWalk:
    """The segment readers' one frame walk, ``codec.iter_frames``, checks
    each frame's length and CRC."""

    @given(damaged_segments())
    def test_iter_segment_matches_the_checked_frame_walk(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg-00000001.seg"
            path.write_bytes(raw)
            try:
                expected = reference_walk(raw)
            except StoreError:
                with pytest.raises(StoreError):
                    list(iter_segment(path))
                return
            actual = list(iter_segment(path))
        assert len(actual) == len(expected)
        for want, got in zip(expected, actual):
            assert_same_entry(want, got)

    def test_start_offset_and_stop_at_a_bad_frame(self, tmp_path):
        written = [_entry(time=tick, user=f"u{tick % 2}") for tick in range(6)]
        records = [encode_record(entry) for entry in written]
        third = HEADER_SIZE + len(records[0]) + len(records[1])
        path = tmp_path / "seg-00000001.seg"
        path.write_bytes(SEGMENT_HEADER + b"".join(records))
        assert list(iter_segment(path)) == written
        assert list(iter_segment(path, third)) == written[2:]
        # a valid record after the bad frame is never reached
        for bad in (
            struct.pack("<II", MAX_RECORD_BYTES + 1, 0),  # oversized length
            records[0][:-1],  # torn payload
            records[0][:5],  # torn prefix
        ):
            path.write_bytes(SEGMENT_HEADER + b"".join(records) + bad + records[0])
            assert list(iter_segment(path)) == written
            assert list(iter_segment(path, third)) == written[2:]
        corrupt = bytearray(SEGMENT_HEADER + b"".join(records))
        corrupt[third + FRAME_OVERHEAD + 3] ^= 0x01  # third record's payload
        path.write_bytes(bytes(corrupt))
        assert list(iter_segment(path)) == written[:2]

    def test_read_record_at_rejects_an_oversized_length_before_reading(self):
        record = encode_record(_entry())
        sizes = []

        class RecordingReader(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        handle = RecordingReader(struct.pack("<II", 2**32 - 1, 0) + record)
        with pytest.raises(StoreError):
            read_record_at(handle, 0)
        assert sizes == [FRAME_OVERHEAD]
        assert read_record_at(RecordingReader(record), 0) == _entry()


class TestFieldMemoCounts:
    """Each distinct field value is validated, and each distinct record
    decoded, once per segment read, however many records repeat it."""

    USERS = ("ann", "bob", "cat")
    COMBOS = (("referral", "registration", "nurse"), ("psychiatry", "billing", "clerk"))
    #: distinct (user, combo, status) records in any 12 consecutive ticks
    RECORDS = 12

    def _entries(self, count):
        return [
            make_entry(
                tick, self.USERS[tick % 3], *self.COMBOS[tick % 2],
                status=AccessStatus(tick // 2 % 2),
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

    @pytest.fixture()
    def records(self, monkeypatch):
        calls = []
        decode_body = codec._decode_body

        def counting_decode(body, strings):
            calls.append(body)
            return decode_body(body, strings)

        monkeypatch.setattr(codec, "_decode_body", counting_decode)
        return calls

    def test_segment_reads_check_each_distinct_value_once(
        self, tmp_path, checks, records
    ):
        path = tmp_path / "seg-00000001.seg"
        writer = SegmentWriter(path, create=True)
        written = self._entries(300)
        for entry in written:
            writer.append(entry)
        writer.close()
        distinct = len(self.USERS) + 3 * len(self.COMBOS)
        assert list(iter_segment(path)) == written
        assert sorted(checks) == sorted(set(checks)) and len(checks) == distinct
        assert len(set(records)) == len(records) == self.RECORDS
        checks.clear()
        records.clear()
        assert scan_segment(path).entries == len(written)
        assert len(checks) == distinct
        assert len(set(records)) == len(records) == self.RECORDS

    def test_index_lookup_checks_each_distinct_value_once(
        self, tmp_path, checks, records
    ):
        with AuditStore(tmp_path / "store", StoreConfig(max_segment_entries=100)) as store:
            for entry in self._entries(300):
                store.append(entry)
            checks.clear()
            records.clear()
            found = list(store.lookup(data="referral"))
        assert len(found) == 150
        # one memo per segment handle: each of the three segments holds
        # the referral combination's three values and all three users,
        # in six records (every user, both statuses)
        assert len(checks) == 3 * (3 + len(self.USERS))
        assert len(records) == 3 * 6
