"""Binary record codec for the durable audit store.

Segment files hold a fixed 8-byte header followed by length-prefixed,
checksummed records — the standard write-ahead-log frame:

.. code-block:: text

    segment  := header record*
    header   := magic(4) version(u16) flags(u16)
    record   := length(u32) crc32(u32) payload(length bytes)
    payload  := time(u64) op(u8) status(u8) str(user) str(data)
                str(purpose) str(authorized) str(truth)
    str      := byte_length(u32) utf8_bytes

All integers are little-endian.  The CRC covers the payload only, so a
torn write (the process died mid-``write``) is detectable as either a
short header, a short payload, or a checksum mismatch — recovery
truncates the file back to the last frame that passes all three checks.
The evaluation-only ``truth`` label is stored (like the JSONL format, and
unlike CSV) so a durable log round-trips everything the in-memory log
holds.

Trust boundary: a record reaches :func:`decode_payload` only after its
frame passed the length and CRC checks, so it is one the store wrote.
It is still validated, but each distinct record once.  A
:class:`RecordMemo` maps a payload's bytes after the time — op, status
and the five strings — to the validated field tuple, so a record that
repeats an earlier one in all but its time costs a slice, a dict probe
and a time unpack.  A record miss validates its fields through the
memo's field table, which maps a field's raw bytes to the canonical
string the ``AuditEntry`` constructor would have made of them (UTF-8,
non-empty after ``strip()``, :func:`~repro.vocab.tree.canonical`), so
each distinct field is checked once too; ``op``/``status`` come from a
fixed lookup, and the entry is built without re-running the
constructor's checks.  A record or field that fails validation raises
:class:`~repro.errors.StoreError` and enters neither table.  Segment
readers keep one memo per segment read.  A memoised record costs about
230 bytes, some three times a typical frame, so the record table keeps
at most :data:`RECORD_MEMO_LIMIT` records: over a full 4 MiB segment of
distinct records, iterating peaks at 6.2 MB of allocation (17.9 MB
uncapped, 4.4 MB with the field table alone), while the 3 183 distinct
records of a 10 000-record corpus segment are all kept (2.1 MB).
External input — CSV, JSONL, served frames,
``AuditEntry.from_dict`` — goes through the validating constructor for
every record.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator

from repro.audit.entry import AuditEntry, canonical_field
from repro.audit.schema import AccessOp, AccessStatus
from repro.errors import AuditError, StoreError

#: First bytes of every segment file ("PRima Audit Segment").
MAGIC: bytes = b"PRAS"

#: On-disk format version stamped into every segment header.
FORMAT_VERSION: int = 1

#: The 8-byte segment header (magic + version + reserved flags).
SEGMENT_HEADER: bytes = MAGIC + struct.pack("<HH", FORMAT_VERSION, 0)

#: Bytes before the first record of a segment.
HEADER_SIZE: int = len(SEGMENT_HEADER)

#: Bytes of frame overhead per record (length prefix + CRC).
FRAME_OVERHEAD: int = 8

#: Sanity bound: a length prefix above this means the frame is garbage
#: (torn or corrupt), not a legitimate record.
MAX_RECORD_BYTES: int = 1 << 24

#: A record frame's prefix: payload length, then the payload's CRC32.
FRAME_PREFIX = struct.Struct("<II")

_FIXED = struct.Struct("<QBB")
_TIME = struct.Struct("<Q")
_CODES = struct.Struct("<BB")
_STRLEN = struct.Struct("<I")

#: ``op``/``status`` bytes to their enum members; any other byte is corrupt.
_OPS = {int(member): member for member in AccessOp}
_STATUSES = {int(member): member for member in AccessStatus}

#: The validated string fields, in payload order (``truth`` follows them
#: and is stored as written).
_ATTRIBUTES = ("user", "data", "purpose", "authorized")

_from_checked = AuditEntry._from_checked

#: The most record bodies one :class:`RecordMemo` keeps.  Past it a
#: record miss still decodes through the field table but is not kept, so
#: a segment whose records do not repeat costs the memo at most this
#: many entries.
RECORD_MEMO_LIMIT: int = 8192


def encode_payload(entry: AuditEntry) -> bytes:
    """Serialise one :class:`~repro.audit.entry.AuditEntry` to payload bytes."""
    parts = [_FIXED.pack(entry.time, int(entry.op), int(entry.status))]
    for value in (entry.user, entry.data, entry.purpose, entry.authorized, entry.truth):
        raw = value.encode("utf-8")
        parts.append(_STRLEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


class RecordMemo:
    """One segment read's decode memo.

    ``records`` maps a record payload's bytes after the time to the field
    tuple :meth:`~repro.audit.entry.AuditEntry._from_checked` takes;
    ``strings`` maps a field's raw bytes to the canonical string
    :func:`canonical_field` made of them.  A record miss is decoded
    through ``strings``, so each distinct field is validated once per
    memo, and each of the first :data:`RECORD_MEMO_LIMIT` distinct
    records is decoded once.  Nothing that fails validation enters
    either table.
    """

    __slots__ = ("records", "strings")

    def __init__(self) -> None:
        self.records: dict[bytes, tuple] = {}
        self.strings: dict[bytes, str] = {}


def decode_payload(payload: bytes, memo: RecordMemo | None = None) -> AuditEntry:
    """Rebuild an :class:`~repro.audit.entry.AuditEntry` from payload bytes.

    Pass one :class:`RecordMemo` for all records of a segment: a record
    whose bytes after the time were decoded before costs one dict probe.
    Without one, each call uses a fresh memo.
    """
    if memo is None:
        memo = RecordMemo()
    body = payload[_TIME.size:]
    records = memo.records
    fields = records.get(body)
    if fields is None:
        fields = _decode_body(body, memo.strings)
        if len(records) < RECORD_MEMO_LIMIT:
            records[body] = fields
    return _from_checked(_TIME.unpack_from(payload)[0], fields)


def _decode_body(body: bytes, strings: dict[bytes, str]) -> tuple:
    """Validate a payload's bytes after the time into the field tuple
    ``(op, user, data, purpose, authorized, status, truth)``.

    Each string attribute goes through the ``strings`` field memo; a
    field that fails the check raises and never enters it.
    """
    try:
        op_code, status_code = _CODES.unpack_from(body, 0)
        op = _OPS.get(op_code)
        status = _STATUSES.get(status_code)
        if op is None or status is None:
            raise StoreError(f"unknown op {op_code} or status {status_code}")
        size = len(body)
        offset = _CODES.size
        values = [op]
        for attribute in _ATTRIBUTES:
            (length,) = _STRLEN.unpack_from(body, offset)
            offset += _STRLEN.size
            end = offset + length
            if end > size:
                raise StoreError("string field runs past the end of the payload")
            raw = body[offset:end]
            value = strings.get(raw)
            if value is None:
                value = canonical_field(attribute, raw.decode("utf-8"))
                strings[raw] = value
            values.append(value)
            offset = end
        (length,) = _STRLEN.unpack_from(body, offset)
        offset += _STRLEN.size
        end = offset + length
        if end != size:
            raise StoreError(
                f"truth field ends at byte {_TIME.size + end} of a "
                f"{_TIME.size + size}-byte payload"
            )
        values.append(status)
        values.append(body[offset:end].decode("utf-8"))
    except StoreError:
        raise
    except (struct.error, UnicodeDecodeError, AuditError) as exc:
        raise StoreError(f"undecodable audit record payload: {exc}") from exc
    return tuple(values)


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length + CRC32 record frame."""
    if len(payload) > MAX_RECORD_BYTES:
        raise StoreError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return FRAME_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(entry: AuditEntry) -> bytes:
    """Serialise one entry as a complete framed record."""
    return frame(encode_payload(entry))


def iter_frames(buffer: bytes, offset: int) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, next_offset)`` for each frame of ``buffer`` from
    ``offset`` on.

    Every frame is checked — a full prefix, a length of at most
    :data:`MAX_RECORD_BYTES`, a full payload and a matching CRC — and the
    walk stops at the first that fails: a torn tail.  The offset of that
    frame is the last ``next_offset`` yielded (or ``offset``), which is
    where the valid prefix ends.
    """
    size = len(buffer)
    unpack_prefix = FRAME_PREFIX.unpack_from
    crc32 = zlib.crc32
    while offset + FRAME_PREFIX.size <= size:
        length, crc = unpack_prefix(buffer, offset)
        start = offset + FRAME_PREFIX.size
        offset = start + length
        if length > MAX_RECORD_BYTES or offset > size:
            return
        payload = buffer[start:offset]
        if crc32(payload) != crc:
            return
        yield payload, offset


def read_frame(buffer: bytes, offset: int) -> tuple[bytes, int] | None:
    """Read one frame from ``buffer`` at ``offset``.

    Returns ``(payload, next_offset)`` for a complete, checksum-valid
    frame, or ``None`` when the bytes from ``offset`` onward do not form
    one — a torn tail (short header, short payload, oversized length, or
    CRC mismatch).  Callers decide whether ``None`` means "truncate here"
    (recovery) or "corrupt store" (verification).
    """
    return next(iter_frames(buffer, offset), None)
