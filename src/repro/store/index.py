"""Per-segment indexes: hash lookups and sparse time seeks.

A sealed segment's index holds

- a **hash index** per lookup attribute (``user``, ``data``, ``purpose``):
  value → sorted record byte offsets, for point lookups without a scan;
- a **sparse time index**: ``(time, offset)`` for every *stride*-th record
  (and always the first), so a window scan seeks close to ``start``
  instead of decoding the whole segment.

A sidecar is a **cache**, never part of a commit: recovery reads only
the manifest and the segments, so a seal does not write one.  The store
keeps a sealed segment's index in memory and writes its sidecar at
``close()`` (compaction writes those of the segments it creates), with a
plain temp-file rename and no fsync.  :func:`load_index` trusts a
sidecar only once it parses, has this format and holds the entry count
the manifest records for its segment; anything else — missing after a
crash, torn, garbage, stale — is rebuilt from the segment
(:func:`build_index`).  The active segment keeps the same structure in
memory (:class:`IndexBuilder`), fed record-by-record on append and
replayed by recovery, so lookups cover unsealed data too.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.audit.entry import AuditEntry
from repro.errors import StoreError
from repro.store.codec import HEADER_SIZE

#: The audit attributes hash-indexed per segment.
INDEXED_ATTRIBUTES: tuple[str, ...] = ("user", "data", "purpose")

#: Index sidecar schema version.
INDEX_FORMAT: int = 1

#: Default record stride of the sparse time index.
DEFAULT_TIME_STRIDE: int = 64


@dataclass
class SegmentIndex:
    """The queryable index of one segment."""

    entries: int = 0
    stride: int = DEFAULT_TIME_STRIDE
    by: dict[str, dict[str, list[int]]] = field(
        default_factory=lambda: {attr: {} for attr in INDEXED_ATTRIBUTES}
    )
    times: list[tuple[int, int]] = field(default_factory=list)

    def offsets_for(self, attribute: str, value: str) -> list[int]:
        """Record offsets whose ``attribute`` equals ``value`` (sorted)."""
        if attribute not in self.by:
            raise StoreError(
                f"attribute {attribute!r} is not indexed "
                f"(indexed: {INDEXED_ATTRIBUTES})"
            )
        return self.by[attribute].get(value, [])

    def seek_offset(self, start_time: int) -> int:
        """A byte offset at or before the first record with
        ``time >= start_time`` — where a window scan should begin."""
        if not self.times:
            return HEADER_SIZE
        position = bisect.bisect_right([t for t, _ in self.times], start_time) - 1
        if position < 0:
            return HEADER_SIZE
        return self.times[position][1]

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "format": INDEX_FORMAT,
            "entries": self.entries,
            "stride": self.stride,
            "by": self.by,
            "times": [[time, offset] for time, offset in self.times],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentIndex":
        """Rebuild from sidecar JSON."""
        try:
            if payload["format"] != INDEX_FORMAT:
                raise StoreError(
                    f"unsupported index format {payload['format']!r}"
                )
            return cls(
                entries=int(payload["entries"]),
                stride=int(payload["stride"]),
                by={
                    attr: {
                        value: list(map(int, offsets))
                        for value, offsets in payload["by"].get(attr, {}).items()
                    }
                    for attr in INDEXED_ATTRIBUTES
                },
                times=[(int(t), int(o)) for t, o in payload["times"]],
            )
        except StoreError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed segment index: {exc}") from exc


class IndexBuilder:
    """Accumulates a :class:`SegmentIndex` record-by-record.

    The store feeds it on every append (and recovery replays the active
    segment through it), so the index of the active segment is always
    current in memory and is simply serialised at seal time.
    """

    def __init__(self, stride: int = DEFAULT_TIME_STRIDE) -> None:
        if stride < 1:
            raise StoreError(f"time-index stride must be >= 1, got {stride}")
        self._index = SegmentIndex(stride=stride)

    def add(self, offset: int, entry: AuditEntry) -> None:
        """Record one appended entry at byte ``offset``."""
        index = self._index
        for attribute in INDEXED_ATTRIBUTES:
            index.by[attribute].setdefault(getattr(entry, attribute), []).append(offset)
        if index.entries % index.stride == 0:
            index.times.append((entry.time, offset))
        index.entries += 1

    @property
    def index(self) -> SegmentIndex:
        """The live index (shared, not a copy)."""
        return self._index


def index_path(segment_path: str | Path) -> Path:
    """Sidecar path of the index for the segment at ``segment_path``."""
    path = Path(segment_path)
    return path.with_name(path.name + ".idx.json")


def save_index(segment_path: str | Path, index: SegmentIndex) -> Path:
    """Write the sidecar index for a sealed segment.

    A temp file renamed over the target, so a reader sees the old or
    the new file whole; nothing is fsynced, because :func:`load_index`
    rebuilds whatever a crash leaves.
    """
    target = index_path(segment_path)
    temp = target.with_name(target.name + ".tmp")
    temp.write_bytes(
        (json.dumps(index.to_dict(), sort_keys=True) + "\n").encode("utf-8")
    )
    os.replace(temp, target)
    return target


def load_index(segment_path: str | Path, entries: int) -> SegmentIndex | None:
    """A segment's sidecar index, or None when it cannot be trusted.

    None when the sidecar is missing, is not valid JSON of this format,
    or indexes a count other than ``entries`` (the manifest's for the
    segment); the caller then rebuilds it from the segment.
    """
    try:
        payload = json.loads(index_path(segment_path).read_bytes())
        index = SegmentIndex.from_dict(payload)
    except (OSError, ValueError, StoreError):
        return None
    return index if index.entries == entries else None


def build_index(
    segment_path: str | Path, stride: int = DEFAULT_TIME_STRIDE
) -> SegmentIndex:
    """Rebuild a segment's index by scanning the segment file."""
    from repro.store.segment import scan_segment

    builder = IndexBuilder(stride=stride)
    scan_segment(segment_path, visit=builder.add)
    return builder.index
