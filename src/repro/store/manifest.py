"""The store manifest: the single source of truth for segment layout.

``MANIFEST.json`` records every sealed segment (with entry counts, byte
sizes and time bounds — the metadata window scans prune on) plus the name
of the active segment and the next segment number.  It is only ever
replaced whole, via write-to-temp → fsync → :func:`os.replace` → fsync of
the directory, so a crash leaves either the old manifest or the new one,
never a partial file.  Record data never lives here: appends touch only
the active segment file, and the manifest changes only on seal,
compaction, or store creation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StoreError

#: File name of the manifest inside a store directory.
MANIFEST_NAME: str = "MANIFEST.json"

#: Manifest schema version.
MANIFEST_FORMAT: int = 1


@dataclass(frozen=True)
class SegmentMeta:
    """Metadata of one sealed segment, as recorded in the manifest."""

    name: str
    entries: int
    size: int
    first_time: int | None
    last_time: int | None

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "name": self.name,
            "entries": self.entries,
            "size": self.size,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentMeta":
        """Rebuild from a manifest JSON mapping."""
        try:
            return cls(
                name=str(payload["name"]),
                entries=int(payload["entries"]),
                size=int(payload["size"]),
                first_time=payload["first_time"],
                last_time=payload["last_time"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed segment metadata: {exc}") from exc


@dataclass
class Manifest:
    """The mutable in-memory image of ``MANIFEST.json``."""

    active: str
    next_segment: int
    sealed: list[SegmentMeta] = field(default_factory=list)

    def sealed_entries(self) -> int:
        """Total committed entries across sealed segments."""
        return sum(meta.entries for meta in self.sealed)

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "format": MANIFEST_FORMAT,
            "active": self.active,
            "next_segment": self.next_segment,
            "sealed": [meta.to_dict() for meta in self.sealed],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Manifest":
        """Rebuild from parsed manifest JSON."""
        try:
            if payload["format"] != MANIFEST_FORMAT:
                raise StoreError(
                    f"unsupported manifest format {payload['format']!r} "
                    f"(this build reads format {MANIFEST_FORMAT})"
                )
            return cls(
                active=str(payload["active"]),
                next_segment=int(payload["next_segment"]),
                sealed=[SegmentMeta.from_dict(item) for item in payload["sealed"]],
            )
        except StoreError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed manifest: {exc}") from exc


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    The temp file is fsynced before the rename and the parent directory
    after it, so after a crash the path holds either the previous content
    or ``data`` in full.  (Directory fsync is best-effort on platforms
    that refuse it.)
    """
    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(directory_fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(directory_fd)


def manifest_path(directory: str | Path) -> Path:
    """Path of the manifest file inside ``directory``."""
    return Path(directory) / MANIFEST_NAME


def save_manifest(directory: str | Path, manifest: Manifest) -> None:
    """Atomically replace the manifest of the store at ``directory``.

    One line of sorted-key JSON: every seal rewrites the whole manifest,
    and ``indent`` would force :mod:`json`'s pure-Python encoder.  The
    reader takes any layout, so manifests written indented still load.
    """
    data = (json.dumps(manifest.to_dict(), sort_keys=True) + "\n").encode("utf-8")
    atomic_write_bytes(manifest_path(directory), data)


def load_manifest(directory: str | Path) -> Manifest:
    """Read and validate the manifest of the store at ``directory``."""
    path = manifest_path(directory)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"{path} is not valid JSON: {exc}") from exc
    return Manifest.from_dict(payload)
