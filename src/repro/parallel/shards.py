"""Shard planning: split an audit source into worker-sized pieces.

A :class:`Shard` is a small, picklable description of one contiguous
slice of the audit trail — never the entries themselves for disk-backed
sources.  Workers rehydrate a shard with :func:`iter_shard`, streaming
straight off the segment files (or member exports) with no store
recovery and no shared file handles.

The invariant every shard plan satisfies: **iterating the shards in
index order concatenates to exactly the source's global entry order.**
The coordinator relies on this to convert worker-local entry positions
into global indices (entry coverage) by adding per-shard offsets.

Sources and their shapes:

- a :class:`~repro.store.durable.DurableAuditLog` (or raw
  :class:`~repro.store.store.AuditStore`) shards into contiguous groups
  of segment *files*, balanced by committed entry counts from the
  manifest — the active segment is flushed first so nothing is missed;
- an in-memory :class:`~repro.audit.log.AuditLog` shards into contiguous
  entry chunks (entries travel to workers by pickling);
- an :class:`~repro.hdb.federation.AuditFederation` maps each member
  site to one shard, in site order: store-directory members become
  segment shards, still-lazy CSV/JSONL members become file shards parsed
  inside the worker, and already-loaded members become entry chunks.
  The implied global order is site-major (site order, then each member's
  own append order) — the same order the federation's virtual SQL view
  uses, *not* the time-merged ``consolidated_log`` order;
- any other re-iterable entry source (e.g. a
  :class:`~repro.store.durable.StreamedAuditView`) is materialised and
  chunked — correct, but it forfeits the streaming economy, so prefer
  handing the underlying log to the planner.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.audit.entry import AuditEntry
from repro.audit.log import AuditLog
from repro.errors import RefinementError

#: Shard payload kinds (see :func:`iter_shard`).
SHARD_KINDS: tuple[str, ...] = ("segments", "entries", "csv", "jsonl")


@dataclass(frozen=True)
class Shard:
    """One contiguous, independently-streamable slice of the trail.

    ``planned_entries`` is the entry count the planner *expected* from
    metadata (``None`` for file shards, which are only parsed in the
    worker); the coordinator always offsets by the count the worker
    actually iterated, so a stale plan degrades balance, never
    correctness.
    """

    index: int
    kind: str
    label: str
    segments: tuple[str, ...] = ()
    entries: tuple[AuditEntry, ...] = field(default=(), repr=False)
    path: str = ""
    planned_entries: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHARD_KINDS:
            raise RefinementError(
                f"unknown shard kind {self.kind!r} (choose from {SHARD_KINDS})"
            )


def iter_shard(shard: Shard) -> Iterator[AuditEntry]:
    """Stream one shard's entries in order (runs inside the worker)."""
    if shard.kind == "segments":
        from repro.store.segment import iter_segment

        for path in shard.segments:
            yield from iter_segment(Path(path))
    elif shard.kind == "entries":
        yield from shard.entries
    elif shard.kind == "csv":
        from repro.audit import io as audit_io

        yield from audit_io.load_csv(Path(shard.path), name=shard.label)
    else:  # jsonl
        from repro.audit import io as audit_io

        yield from audit_io.load_jsonl(Path(shard.path), name=shard.label)


def _chunk_sizes(total: int, parts: int) -> list[int]:
    """Near-equal contiguous chunk sizes (first chunks take the slack)."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def _segment_groups(weights: list[int], limit: int) -> list[list[int]]:
    """Partition segment indices into ≤ ``limit`` contiguous groups,
    balanced by entry weight.  Deterministic: boundaries fall where the
    running weight crosses the next ``total/limit`` threshold."""
    count = len(weights)
    limit = max(1, min(limit, count))
    total = sum(weights)
    if total <= 0:
        return [list(range(count))] if count else []
    groups: list[list[int]] = []
    current: list[int] = []
    running = 0
    last_group = 0
    for index, weight in enumerate(weights):
        group = min(limit - 1, (running * limit) // total)
        if current and group != last_group:
            groups.append(current)
            current = []
        current.append(index)
        last_group = group
        running += weight
    if current:
        groups.append(current)
    return groups


def _entry_shards(
    entries: tuple[AuditEntry, ...], limit: int, label: str, start_index: int = 0
) -> list[Shard]:
    shards: list[Shard] = []
    position = 0
    for size in _chunk_sizes(len(entries), limit):
        shards.append(
            Shard(
                index=start_index + len(shards),
                kind="entries",
                label=f"{label}[{position}:{position + size}]",
                entries=entries[position : position + size],
                planned_entries=size,
            )
        )
        position += size
    return shards


def _segment_shards(
    snapshot: tuple[tuple[str, int], ...],
    limit: int,
    label: str,
    start_index: int = 0,
) -> list[Shard]:
    weights = [entry_count for _, entry_count in snapshot]
    shards: list[Shard] = []
    for group in _segment_groups(weights, limit):
        first, last = group[0], group[-1]
        shards.append(
            Shard(
                index=start_index + len(shards),
                kind="segments",
                label=f"{label}[seg {first}..{last}]",
                segments=tuple(snapshot[i][0] for i in group),
                planned_entries=sum(weights[i] for i in group),
            )
        )
    return shards


def _store_snapshot(directory: Path) -> tuple[tuple[str, int], ...]:
    """Open a store directory read-side, snapshot its segments, close.

    Opening runs the store's normal recovery, so a torn active tail is
    repaired before workers stream the files.
    """
    from repro.store.store import AuditStore

    store = AuditStore(directory, create=False)
    try:
        return store.segment_snapshot()
    finally:
        store.close()


def shards_past_watermark(
    directory: str | Path,
    sealed: tuple,
    watermark: int,
    label: str = "tail",
) -> tuple[Shard, ...]:
    """Plan the shards covering sealed entries ``[watermark, total)`` only:
    one segments shard, after a straddle shard when compaction merged
    the watermark into a segment.

    ``sealed`` is the manifest's ordered
    :class:`~repro.store.manifest.SegmentMeta` list; ``watermark`` counts
    entries already consumed from the front of the sealed region.  The
    refinement daemon's watermark normally lands exactly on a segment
    boundary (it only advances past whole sealed segments), but
    compaction may merge consumed and unconsumed segments into one file —
    in that case the straddling segment's already-consumed head is
    skipped by streaming, and the remainder travels as an entries shard.
    Shards concatenate, in index order, to exactly the unconsumed sealed
    suffix in global append order.
    """
    if watermark < 0:
        raise RefinementError(f"watermark must be >= 0, got {watermark}")
    directory = Path(directory)
    snapshot: list[tuple[str, int]] = []
    head_entries: tuple[AuditEntry, ...] = ()
    consumed = 0
    for meta in sealed:
        if consumed + meta.entries <= watermark:
            consumed += meta.entries  # fully behind the watermark
            continue
        if consumed < watermark:
            # compaction merged consumed history into this segment: skip
            # the first (watermark - consumed) entries by streaming
            from repro.store.segment import iter_segment

            skip = watermark - consumed
            head_entries = tuple(iter_segment(directory / meta.name))[skip:]
        else:
            snapshot.append((str(directory / meta.name), meta.entries))
        consumed += meta.entries
    shards: list[Shard] = []
    if head_entries:
        shards.append(
            Shard(
                index=0,
                kind="entries",
                label=f"{label}[straddle:{len(head_entries)}]",
                entries=head_entries,
                planned_entries=len(head_entries),
            )
        )
    if snapshot:
        shards.extend(
            _segment_shards(snapshot, 1, label, start_index=len(shards))
        )
    return tuple(shards)


def shards_of(source, limit: int) -> tuple[Shard, ...]:
    """Plan at most ``limit`` shards whose in-order concatenation is
    exactly ``source``'s entry order.  See the module docstring for the
    shapes each source type produces."""
    if limit < 1:
        raise RefinementError(f"shard limit must be >= 1, got {limit}")
    # Imported lazily: the planner must not force the store or federation
    # stacks onto callers sharding plain in-memory logs.
    from repro.hdb.federation import AuditFederation
    from repro.store.durable import DurableAuditLog
    from repro.store.store import AuditStore

    if isinstance(source, AuditFederation):
        shards: list[Shard] = []
        for site, member in source.shard_sources():
            if isinstance(member, Path):
                if member.is_dir():
                    shards.extend(
                        _segment_shards(
                            _store_snapshot(member), 1, site, start_index=len(shards)
                        )
                    )
                else:
                    suffix = member.suffix.lower()
                    kind = "csv" if suffix == ".csv" else "jsonl"
                    shards.append(
                        Shard(
                            index=len(shards),
                            kind=kind,
                            label=site,
                            path=str(member),
                        )
                    )
            elif isinstance(member, DurableAuditLog):
                shards.extend(
                    _segment_shards(
                        member.store.segment_snapshot(),
                        1,
                        site,
                        start_index=len(shards),
                    )
                )
            else:
                shards.extend(
                    _entry_shards(
                        tuple(member), 1, site, start_index=len(shards)
                    )
                )
        return tuple(shards)
    if isinstance(source, DurableAuditLog):
        return tuple(
            _segment_shards(source.store.segment_snapshot(), limit, source.name)
        )
    if isinstance(source, AuditStore):
        return tuple(
            _segment_shards(source.segment_snapshot(), limit, str(source.directory))
        )
    if isinstance(source, AuditLog):
        return tuple(_entry_shards(source.entries, limit, source.name))
    if isinstance(source, Iterable):
        name = getattr(source, "name", "audit_view")
        return tuple(_entry_shards(tuple(source), limit, name))
    raise RefinementError(
        f"cannot shard {type(source).__name__}: not an audit entry source"
    )
