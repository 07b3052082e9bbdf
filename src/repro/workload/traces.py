"""Reproducible trace bundles: a workload config plus its audit log.

Synthetic experiments live or die on reproducibility, so a generated trace
can be saved as a bundle — a JSON manifest carrying the generator
parameters next to the JSONL entries — and reloaded bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.audit.io import load_jsonl, save_jsonl
from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.errors import WorkloadError
from repro.workload.generator import WorkloadConfig

_MANIFEST_SUFFIX = ".manifest.json"
_LOG_SUFFIX = ".entries.jsonl"

# The demo ward's workflow wheel (shared by the E18 and E21 benchmarks):
# skewed like real audit traffic, with denied combinations mixed in so
# both decision outcomes are exercised.
_DEMO_COMBOS = (
    ("prescription", "treatment", "physician", AccessStatus.REGULAR),
    ("referral", "treatment", "nurse", AccessStatus.REGULAR),
    ("name", "billing", "clerk", AccessStatus.REGULAR),
    ("insurance", "billing", "clerk", AccessStatus.REGULAR),
    ("lab_results", "diagnosis", "physician", AccessStatus.REGULAR),
    ("psychiatry", "treatment", "nurse", AccessStatus.REGULAR),
    ("insurance", "treatment", "physician", AccessStatus.EXCEPTION),
    ("address", "registration", "registrar", AccessStatus.REGULAR),
)
_DEMO_WEIGHTS = (24, 20, 14, 12, 10, 9, 6, 5)


def save_trace(
    log: AuditLog, config: WorkloadConfig, directory: str | Path, name: str
) -> tuple[Path, Path]:
    """Write a trace bundle; returns (manifest path, entries path)."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest_path = target / f"{name}{_MANIFEST_SUFFIX}"
    entries_path = target / f"{name}{_LOG_SUFFIX}"
    manifest = {
        "name": name,
        "entries_file": entries_path.name,
        "entry_count": len(log),
        "config": asdict(config),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    save_jsonl(log, entries_path)
    return manifest_path, entries_path


def decision_payloads(log: AuditLog, limit: int | None = None) -> list[dict]:
    """Turn audit traffic into PDP ``decide`` request payloads.

    Each entry becomes one category-level decision request against the
    decision service — the natural replay of the workload generator's
    traffic through a live server (the E18, E19 and E21 load phases use
    this).  Ground truth rides along so served trails
    stay minable by the evaluation pipeline.
    """
    payloads: list[dict] = []
    for entry in log:
        if limit is not None and len(payloads) >= limit:
            break
        payloads.append(
            {
                "op": "decide",
                "user": entry.user,
                "role": entry.authorized,
                "purpose": entry.purpose,
                "categories": [entry.data],
                "exception": entry.is_exception,
                "truth": entry.truth,
            }
        )
    return payloads


def demo_decision_payloads(count: int) -> list[dict]:
    """``count`` deterministic decide payloads for the demo deployment.

    A Weyl-style multiplicative walk over a weighted combo wheel: skewed
    enough to reward the interned decision cache, deterministic so two
    replays (single server vs a fleet, cache on vs off) serve the same
    traffic.  The request stream the E18 and E21 benchmarks share.
    """
    wheel: list[int] = []
    for combo_index, weight in enumerate(_DEMO_WEIGHTS):
        wheel.extend([combo_index] * weight)
    log = AuditLog()
    for tick in range(count):
        slot = (tick * 2654435761) % len(wheel)
        data, purpose, role, status = _DEMO_COMBOS[wheel[slot]]
        log.append(
            make_entry(tick + 1, f"user{(tick * 97) % 23}", data, purpose,
                       role, status=status)
        )
    return decision_payloads(log)


def load_trace(directory: str | Path, name: str) -> tuple[AuditLog, WorkloadConfig]:
    """Read a bundle written by :func:`save_trace`."""
    target = Path(directory)
    manifest_path = target / f"{name}{_MANIFEST_SUFFIX}"
    if not manifest_path.exists():
        raise WorkloadError(f"no trace manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        config = WorkloadConfig(**manifest["config"])
        entries_path = target / manifest["entries_file"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise WorkloadError(f"malformed trace manifest {manifest_path}: {exc}") from exc
    log = load_jsonl(entries_path, name=manifest.get("name"))
    if len(log) != manifest.get("entry_count"):
        raise WorkloadError(
            f"trace {name!r} is corrupt: manifest says "
            f"{manifest.get('entry_count')} entries, file has {len(log)}"
        )
    return log, config
