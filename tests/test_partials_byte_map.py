"""The map over segment bytes equals the map over entries.

:func:`~repro.parallel.partials.map_shard` folds a segments shard from
its CRC-checked record payloads, resolving each distinct record body to
its aggregate slots once and building no entry.  These tests pin it to
:meth:`PartialBuilder.extend <repro.parallel.partials.PartialBuilder.extend>`
over the entries the validating decode makes of the same bytes — every
field, dict order and evidence order included — for damaged segments,
multi-segment shards, every ``MapTask`` shape and a record memo filled
past its cap; and they pin that a bad record raises from both readers
and leaves nothing behind.
"""

from __future__ import annotations

import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.schema import RULE_ATTRIBUTES, AccessOp, AccessStatus
from repro.errors import StoreError
from repro.parallel import partials
from repro.parallel.partials import (
    MEMO_TRIAL,
    REPEAT_SHARE,
    MapTask,
    PartialBuilder,
    map_shard,
)
from repro.parallel.shards import Shard
from repro.store.codec import (
    RECORD_MEMO_LIMIT,
    SEGMENT_HEADER,
    encode_payload,
    encode_record,
    frame,
)
from repro.store.segment import iter_segment
from tests.test_store_codec import (
    _entry,
    damaged_segments,
    raw_payload,
    reference_walk,
    shared_batches,
)

#: One task per shape the map distinguishes.
TASKS = (
    MapTask(RULE_ATTRIBUTES, False, False, False),
    MapTask(("time", "data"), False, False, False),
    MapTask(("op", "data", "purpose"), False, False, False, True),
    MapTask(("status", "authorized"), True, False, False),
    MapTask(("user", "data"), False, True, False),
    MapTask(RULE_ATTRIBUTES, True, False, False),
    MapTask(RULE_ATTRIBUTES, False, True, False),
    MapTask(RULE_ATTRIBUTES, False, True, True),
    MapTask(RULE_ATTRIBUTES, False, False, True),
    MapTask(RULE_ATTRIBUTES, False, False, False, True),
    MapTask(RULE_ATTRIBUTES, True, True, True, True),
)


def fields_of(partial) -> dict:
    """Every field of a partial but its timing, dicts as ordered items."""
    fields = {}
    for name, value in vars(partial).items():
        if name == "seconds":
            continue
        fields[name] = list(value.items()) if isinstance(value, dict) else value
    return fields


def entry_map(entries, task, index=0):
    builder = PartialBuilder(task)
    builder.extend(entries)
    return builder.finish(index)


def segments_shard(paths, index=0) -> Shard:
    return Shard(index=index, kind="segments", label="t",
                 segments=tuple(str(path) for path in paths))


def write_segment(path: Path, payloads) -> Path:
    path.write_bytes(SEGMENT_HEADER + b"".join(frame(p) for p in payloads))
    return path


class TestByteMapEqualsEntryMap:
    @settings(max_examples=150, deadline=None)
    @given(raw=damaged_segments(), task=st.sampled_from(TASKS))
    def test_a_damaged_segment(self, raw, task):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg-00000001.seg"
            path.write_bytes(raw)
            try:
                entries = reference_walk(raw)
            except StoreError:
                with pytest.raises(StoreError):
                    map_shard(segments_shard([path]), task)
                return
            mapped = map_shard(segments_shard([path], index=3), task)
        assert fields_of(mapped) == fields_of(entry_map(entries, task, index=3))

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(shared_batches(), min_size=2, max_size=4),
        task=st.sampled_from(TASKS),
    )
    def test_a_multi_segment_shard(self, batches, task):
        """Records repeat across segments: the slot memo outlives each
        segment's field memo."""
        batches.append(batches[0])
        with tempfile.TemporaryDirectory() as tmp:
            paths = [
                write_segment(Path(tmp) / f"seg-{n:08d}.seg",
                              [encode_payload(entry) for entry in batch])
                for n, batch in enumerate(batches)
            ]
            mapped = map_shard(segments_shard(paths), task)
            entries = [entry for path in paths for entry in iter_segment(path)]
        assert fields_of(mapped) == fields_of(entry_map(entries, task))

    @pytest.mark.parametrize("task", TASKS[:2] + TASKS[-1:])
    def test_past_the_record_memo_cap(self, tmp_path, task):
        """More distinct bodies than the memo keeps, each repeated, then
        repeats of a memoised and of an unmemoised record at new times."""
        limit = RECORD_MEMO_LIMIT
        distinct = [
            _entry(time=tick, user=f"u{tick}",
                   status=AccessStatus(tick % 2), op=AccessOp(tick // 2 % 2))
            for tick in range(limit + 300)
        ]
        written = [
            record
            for entry in distinct
            for record in (entry, replace(entry, time=entry.time + 2 * limit))
        ]
        written += [replace(distinct[0], time=4 * limit),
                    replace(distinct[-1], time=4 * limit + 1)]
        payloads = [encode_payload(entry) for entry in written]
        path = write_segment(tmp_path / "seg-00000001.seg", payloads)
        assert fields_of(map_shard(segments_shard([path]), task)) == fields_of(
            entry_map(written, task)
        )
        if "time" not in task.attributes:  # each distinct body until the cap
            builder = PartialBuilder(task)
            builder.extend_payloads(payloads)
            assert set(builder._memo) == {p[8:] for p in payloads[: 2 * limit : 2]}

    @pytest.mark.parametrize("task", TASKS[:2] + TASKS[-1:])
    def test_records_that_do_not_repeat_stop_filling_the_memo(self, tmp_path, task):
        """Past the trial a memo that hits fewer than one record in
        REPEAT_SHARE keeps one miss in REPEAT_SHARE; once records repeat
        it keeps every miss again."""
        fresh = [_entry(time=tick, user=f"u{tick}") for tick in range(
            MEMO_TRIAL + 64 * REPEAT_SHARE
        )]
        again = [replace(entry, user=f"v{tick % 40}") for tick, entry in enumerate(fresh)]
        written = fresh + again
        payloads = [encode_payload(entry) for entry in written]
        path = write_segment(tmp_path / "seg-00000001.seg", payloads)
        assert fields_of(map_shard(segments_shard([path]), task)) == fields_of(
            entry_map(written, task)
        )
        timed = "time" in task.attributes
        for extend, items in ((PartialBuilder.extend_payloads, payloads),
                              (PartialBuilder.extend, written)):
            builder = PartialBuilder(task)
            extend(builder, items[:len(fresh)])
            assert len(builder._memo) == MEMO_TRIAL + 64
            extend(builder, items[len(fresh):])
            if not timed:  # 40 new bodies, repeating: every one is kept
                assert len(builder._memo) == MEMO_TRIAL + 64 + 40


class TestRecordKey:
    def test_the_key_is_the_body_after_the_time(self):
        payloads = [encode_payload(_entry(time=tick)) for tick in (1, 2, 3)]
        builder = PartialBuilder(MapTask(RULE_ATTRIBUTES, False, False, False))
        builder.extend_payloads(payloads)
        assert list(builder._memo) == [payloads[0][8:]]
        assert builder.rule_entries == {("referral", "registration", "nurse"): [0, 1, 2]}

    def test_a_time_attribute_keys_the_whole_payload(self):
        payloads = [encode_payload(_entry(time=tick)) for tick in (1, 2, 1)]
        task = MapTask(("time", "data"), False, False, False, True)
        builder = PartialBuilder(task)
        builder.extend_payloads(payloads)
        assert list(builder._memo) == payloads[:2]
        assert builder.rule_entries == {("1", "referral"): [0, 2], ("2", "referral"): [1]}
        assert list(builder.groups.items()) == [
            (("1", "referral"), [2, {"mark"}]), (("2", "referral"), [1, {"mark"}]),
        ]
        assert builder.exception_entries == builder.rule_entries

    def test_each_distinct_body_is_decoded_once(self, tmp_path, monkeypatch):
        bodies = []
        decode = partials.decode_body

        def counting_decode(body, strings):
            bodies.append(body)
            return decode(body, strings)

        monkeypatch.setattr(partials, "decode_body", counting_decode)
        written = [_entry(time=tick, user=f"u{tick % 3}") for tick in range(30)]
        paths = [
            write_segment(tmp_path / f"seg-{n:08d}.seg",
                          [encode_payload(entry) for entry in written])
            for n in range(2)
        ]
        task = MapTask(RULE_ATTRIBUTES, False, True, True, True)
        assert fields_of(map_shard(segments_shard(paths), task)) == fields_of(
            entry_map(written * 2, task)
        )
        assert len(bodies) == len(set(bodies)) == 3


#: CRC-valid records the store could not have written, with what the
#: decode says of each.
BAD_PAYLOADS = {
    "unknown op": (
        raw_payload(5, 7, 0, [b"mark", b"lab", b"registration", b"nurse", b""]),
        "unknown op",
    ),
    "blank user": (
        raw_payload(5, 1, 0, [b"  ", b"lab", b"registration", b"nurse", b""]),
        "non-empty",
    ),
    "overrun string": (
        raw_payload(5, 1, 0, [b"mark", b"lab", b"registration"])
        + struct.pack("<I", 255) + b"nurse" + struct.pack("<I", 0),
        "runs past the end",
    ),
}


class TestBadRecord:
    @pytest.mark.parametrize("bad", sorted(BAD_PAYLOADS))
    def test_raises_from_both_readers_and_leaves_no_slot(self, tmp_path, bad):
        good = [encode_payload(_entry(time=tick, user=f"u{tick % 2}")) for tick in range(4)]
        payload, reason = BAD_PAYLOADS[bad]
        payloads = [*good, payload, *good]
        path = write_segment(tmp_path / "seg-00000001.seg", payloads)
        with pytest.raises(StoreError, match=reason):
            list(iter_segment(path))
        task = MapTask(RULE_ATTRIBUTES, True, True, True, True)
        with pytest.raises(StoreError, match=reason):
            map_shard(segments_shard([path]), task)
        builder = PartialBuilder(task)
        with pytest.raises(StoreError, match=reason):
            builder.extend_payloads(payloads)
        assert set(builder._memo) == {payload[8:] for payload in good[:2]}
        assert list(builder.rule_entries) == [("referral", "registration", "nurse")]
        assert [users for _, users in builder.groups.values()] == [{"u0", "u1"}]
        assert list(builder.cls_stats) == [("referral", "registration", "nurse")]

    def test_a_good_record_after_a_torn_tail_is_never_read(self, tmp_path):
        good = encode_record(_entry())
        path = tmp_path / "seg-00000001.seg"
        path.write_bytes(SEGMENT_HEADER + good + good[:-1] + good)
        task = MapTask(RULE_ATTRIBUTES, False, False, False)
        assert map_shard(segments_shard([path]), task).entries == 1
