"""Append-only segment files: the writer, the scanner, random reads.

A segment is one bounded, append-only file of framed audit records (see
:mod:`repro.store.codec`).  Readers work a segment at a time: segments
are bounded by the store's rotation limits, so holding one segment's
bytes while decoding keeps memory proportional to the segment size, never
the log size.

:func:`scan_segment` is the recovery and streaming primitive — it decodes
every committed record and reports exactly where the valid prefix ends,
so a torn tail can be truncated without guessing.
:func:`iter_segment_payloads` is the one reader of records from a file:
:func:`iter_segment` decodes what it yields into entries, and the
refinement map folds the payloads without building any.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.audit.entry import AuditEntry
from repro.errors import StoreError
from repro.store.codec import (
    FRAME_OVERHEAD,
    FRAME_PREFIX,
    HEADER_SIZE,
    MAX_RECORD_BYTES,
    SEGMENT_HEADER,
    RecordMemo,
    decode_payload,
    encode_record,
    iter_frames,
)


def segment_name(index: int) -> str:
    """The canonical file name of segment number ``index``."""
    return f"seg-{index:08d}.seg"


@dataclass(frozen=True)
class SegmentScan:
    """What :func:`scan_segment` learned about one segment file.

    ``valid_bytes`` is the offset where the checksum-valid prefix ends;
    ``torn`` is True when bytes exist past that offset (a torn or corrupt
    tail).  ``first_time``/``last_time`` are None for an empty segment.
    """

    entries: int
    valid_bytes: int
    torn: bool
    first_time: int | None
    last_time: int | None


def check_header(raw: bytes, path: Path) -> None:
    """Raise :class:`~repro.errors.StoreError` unless ``raw`` starts with
    a well-formed segment header."""
    if raw[:HEADER_SIZE] != SEGMENT_HEADER:
        raise StoreError(
            f"{path} is not a v{SEGMENT_HEADER[4]} audit segment "
            f"(bad magic/version in header)"
        )


def scan_segment(
    path: str | Path,
    visit: Callable[[int, AuditEntry], None] | None = None,
) -> SegmentScan:
    """Decode every committed record of the segment at ``path``.

    ``visit(offset, entry)`` is called for each record (recovery uses it
    to rebuild the active segment's in-memory index).  A file shorter
    than the header counts as fully torn (``valid_bytes`` is then the
    header size the rewritten file must be truncated to).
    """
    source = Path(path)
    raw = source.read_bytes()
    if len(raw) < HEADER_SIZE:
        return SegmentScan(
            entries=0, valid_bytes=HEADER_SIZE, torn=True,
            first_time=None, last_time=None,
        )
    check_header(raw, source)
    offset = HEADER_SIZE
    entries = 0
    first_time: int | None = None
    last_time: int | None = None
    memo = RecordMemo()
    for payload, next_offset in iter_frames(raw, offset):
        try:
            entry = decode_payload(payload, memo)
        except StoreError:
            break  # checksum-valid but undecodable: treat as end of prefix
        if visit is not None:
            visit(offset, entry)
        if first_time is None:
            first_time = entry.time
        last_time = entry.time
        entries += 1
        offset = next_offset
    return SegmentScan(
        entries=entries,
        valid_bytes=offset,
        torn=offset < len(raw),
        first_time=first_time,
        last_time=last_time,
    )


def iter_segment_payloads(
    path: str | Path, start_offset: int = HEADER_SIZE
) -> Iterator[bytes]:
    """Yield the payload of every committed record of a segment, from
    ``start_offset`` on: the one reader of records from segment files.

    Each frame's length and CRC are checked; the walk stops silently at
    the first invalid frame (the scan/recovery path is responsible for
    deciding whether that is acceptable).  A payload is undecoded bytes.
    """
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        return
    check_header(raw, Path(path))
    for payload, _ in iter_frames(raw, start_offset):
        yield payload


def iter_segment(path: str | Path, start_offset: int = HEADER_SIZE) -> Iterator[AuditEntry]:
    """Yield every committed entry of a segment, from ``start_offset`` on.

    Stops silently at the first invalid frame, as
    :func:`iter_segment_payloads` does; use :func:`scan_segment` when
    the end position matters.
    """
    memo = RecordMemo()
    for payload in iter_segment_payloads(path, start_offset):
        yield decode_payload(payload, memo)


def read_record_at(
    handle: BinaryIO, offset: int, memo: RecordMemo | None = None
) -> AuditEntry:
    """Random-access read of the record starting at byte ``offset``.

    Used by index-driven lookups; raises :class:`~repro.errors.StoreError`
    when the frame at ``offset`` is invalid.  ``memo`` is the record memo
    of :func:`~repro.store.codec.decode_payload`; share one across reads
    from the same segment.
    """
    handle.seek(offset)
    header = handle.read(FRAME_OVERHEAD)
    if len(header) != FRAME_OVERHEAD:
        raise StoreError(f"no record frame at offset {offset}")
    length, crc = FRAME_PREFIX.unpack(header)
    if length > MAX_RECORD_BYTES:
        # checked before the read: read(length) allocates length bytes
        raise StoreError(f"corrupt record frame at offset {offset}")
    payload = handle.read(length)
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise StoreError(f"corrupt record frame at offset {offset}")
    return decode_payload(payload, memo)


class SegmentWriter:
    """Appends framed records to one segment file.

    The writer owns the file handle and tracks the segment's entry count,
    byte size and time bounds.  Flushing and fsync policy live in the
    store — the writer only exposes the primitives.
    """

    def __init__(
        self,
        path: str | Path,
        create: bool,
        entries: int = 0,
        size: int = HEADER_SIZE,
        first_time: int | None = None,
        last_time: int | None = None,
    ) -> None:
        self.path = Path(path)
        if create:
            self._handle = self.path.open("wb")
            self._handle.write(SEGMENT_HEADER)
            self._handle.flush()
            self.entries = 0
            self.size = HEADER_SIZE
            self.first_time: int | None = None
            self.last_time: int | None = None
        else:
            self._handle = self.path.open("ab")
            self.entries = entries
            self.size = size
            self.first_time = first_time
            self.last_time = last_time

    @property
    def name(self) -> str:
        """The segment's file name."""
        return self.path.name

    def append(self, entry: AuditEntry) -> tuple[int, int]:
        """Write one record; returns ``(record_offset, bytes_written)``."""
        record = encode_record(entry)
        offset = self.size
        self._handle.write(record)
        self.size += len(record)
        self.entries += 1
        if self.first_time is None:
            self.first_time = entry.time
        self.last_time = entry.time
        return offset, len(record)

    def flush(self, sync: bool = False) -> None:
        """Flush Python buffers; with ``sync`` also fsync to stable storage."""
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def close(self, sync: bool = True) -> None:
        """Flush (optionally fsync) and close the file handle."""
        if self._handle.closed:
            return
        self.flush(sync=sync)
        self._handle.close()
