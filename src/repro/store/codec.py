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
It is still validated, but each distinct field value once: a memo maps
a field's raw bytes to the canonical string the ``AuditEntry``
constructor would have made of them (UTF-8, non-empty after ``strip()``,
:func:`~repro.vocab.tree.canonical`), ``op``/``status`` come from a fixed
lookup, and the entry is built without re-running the constructor's
checks.  Segment readers keep one memo per segment read, so it is bounded
by one segment's distinct values.  External input — CSV, JSONL, served
frames, ``AuditEntry.from_dict`` — goes through the validating
constructor for every record.
"""

from __future__ import annotations

import struct
import zlib

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

_FRAME = struct.Struct("<II")
_FIXED = struct.Struct("<QBB")
_STRLEN = struct.Struct("<I")

#: ``op``/``status`` bytes to their enum members; any other byte is corrupt.
_OPS = {int(member): member for member in AccessOp}
_STATUSES = {int(member): member for member in AccessStatus}

#: The validated string fields, in payload order (``truth`` follows them
#: and is stored as written).
_ATTRIBUTES = ("user", "data", "purpose", "authorized")


def encode_payload(entry: AuditEntry) -> bytes:
    """Serialise one :class:`~repro.audit.entry.AuditEntry` to payload bytes."""
    parts = [_FIXED.pack(entry.time, int(entry.op), int(entry.status))]
    for value in (entry.user, entry.data, entry.purpose, entry.authorized, entry.truth):
        raw = value.encode("utf-8")
        parts.append(_STRLEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_payload(payload: bytes, strings: dict[bytes, str] | None = None) -> AuditEntry:
    """Rebuild an :class:`~repro.audit.entry.AuditEntry` from payload bytes.

    ``strings`` memoises the four validated attributes: it maps a field's
    raw bytes to the canonical string :func:`canonical_field` made of
    them, so a value is decoded and checked once however many records
    repeat it.  A field that fails the check raises and never enters the
    memo.  Pass one dict for all records of a segment; without one, each
    call uses a fresh memo.
    """
    if strings is None:
        strings = {}
    try:
        time, op_code, status_code = _FIXED.unpack_from(payload, 0)
        op = _OPS.get(op_code)
        status = _STATUSES.get(status_code)
        if op is None or status is None:
            raise StoreError(f"unknown op {op_code} or status {status_code}")
        size = len(payload)
        offset = _FIXED.size
        values = []
        for attribute in _ATTRIBUTES:
            (length,) = _STRLEN.unpack_from(payload, offset)
            offset += _STRLEN.size
            end = offset + length
            if end > size:
                raise StoreError("string field runs past the end of the payload")
            raw = payload[offset:end]
            value = strings.get(raw)
            if value is None:
                value = canonical_field(attribute, raw.decode("utf-8"))
                strings[raw] = value
            values.append(value)
            offset = end
        (length,) = _STRLEN.unpack_from(payload, offset)
        offset += _STRLEN.size
        end = offset + length
        if end != size:
            raise StoreError(f"truth field ends at byte {end} of a {size}-byte payload")
        truth = payload[offset:end].decode("utf-8")
    except StoreError:
        raise
    except (struct.error, UnicodeDecodeError, AuditError) as exc:
        raise StoreError(f"undecodable audit record payload: {exc}") from exc
    user, data, purpose, authorized = values
    return AuditEntry._from_checked(
        time, op, user, data, purpose, authorized, status, truth
    )


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length + CRC32 record frame."""
    if len(payload) > MAX_RECORD_BYTES:
        raise StoreError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(entry: AuditEntry) -> bytes:
    """Serialise one entry as a complete framed record."""
    return frame(encode_payload(entry))


def read_frame(buffer: bytes, offset: int) -> tuple[bytes, int] | None:
    """Read one frame from ``buffer`` at ``offset``.

    Returns ``(payload, next_offset)`` for a complete, checksum-valid
    frame, or ``None`` when the bytes from ``offset`` onward do not form
    one — a torn tail (short header, short payload, oversized length, or
    CRC mismatch).  Callers decide whether ``None`` means "truncate here"
    (recovery) or "corrupt store" (verification).
    """
    if offset + _FRAME.size > len(buffer):
        return None
    length, crc = _FRAME.unpack_from(buffer, offset)
    if length > MAX_RECORD_BYTES:
        return None
    start = offset + _FRAME.size
    end = start + length
    if end > len(buffer):
        return None
    payload = buffer[start:end]
    if zlib.crc32(payload) != crc:
        return None
    return payload, end
