"""Snapshot exposition: Prometheus text format and JSON files.

Snapshots (see :meth:`repro.obs.registry.MetricsRegistry.snapshot`) are
plain dicts, so they serialise with :mod:`json` directly; this module adds
the Prometheus text rendering (the format every scraper and most humans
already read) and the save/load helpers behind the CLI's
``--metrics-out PATH`` and ``repro metrics`` surfaces.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ObservabilityError


def _format_number(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus convention)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_text(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(merged.items()))
    return "{" + inner + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot dict in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms expand to the
    conventional ``_bucket{le=…}`` / ``_sum`` / ``_count`` series.  One
    ``# TYPE`` header is emitted per metric name.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for sample in snapshot.get("counters", []):
        header(sample["name"], "counter")
        lines.append(
            f"{sample['name']}{_labels_text(sample['labels'])} "
            f"{_format_number(sample['value'])}"
        )
    for sample in snapshot.get("gauges", []):
        header(sample["name"], "gauge")
        lines.append(
            f"{sample['name']}{_labels_text(sample['labels'])} "
            f"{_format_number(sample['value'])}"
        )
    for sample in snapshot.get("histograms", []):
        name = sample["name"]
        header(name, "histogram")
        for bucket in sample["buckets"]:
            le = bucket["le"]
            le_text = le if isinstance(le, str) else _format_number(float(le))
            lines.append(
                f"{name}_bucket{_labels_text(sample['labels'], {'le': le_text})} "
                f"{bucket['count']}"
            )
        lines.append(
            f"{name}_sum{_labels_text(sample['labels'])} "
            f"{_format_number(sample['sum'])}"
        )
        lines.append(
            f"{name}_count{_labels_text(sample['labels'])} {sample['count']}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def render_summary(snapshot: dict) -> str:
    """Human summary of a snapshot: percentiles instead of bucket dumps.

    Counters and gauges render one sample per line; every histogram
    renders as ``count / sum`` plus **p50 / p90 / p99 estimates** from
    log-bucket geometric interpolation
    (:func:`repro.obs.metrics.estimate_quantile`), capped at the
    histogram's largest observation when the snapshot carries it, with
    ``*_seconds`` series scaled to milliseconds.  Bucket exemplars — the
    trace ids the tracing layer attaches to latency observations — are
    listed under the histogram so a slow bucket links straight to a
    ``repro trace show <id>`` invocation.
    """
    from repro.obs.metrics import estimate_quantile

    lines: list[str] = []

    def value_text(value: float) -> str:
        return _format_number(float(value))

    for kind in ("counters", "gauges"):
        samples = snapshot.get(kind, [])
        if samples:
            lines.append(f"# {kind}")
            for sample in samples:
                lines.append(
                    f"{sample['name']}{_labels_text(sample['labels'])} "
                    f"{value_text(sample['value'])}"
                )
    histograms = snapshot.get("histograms", [])
    if histograms:
        lines.append("# histograms (p50/p90/p99 via log-bucket interpolation)")
        for sample in histograms:
            name = sample["name"]
            seconds = name.endswith("_seconds")
            quantiles = []
            for q, tag in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                estimate = estimate_quantile(
                    sample["buckets"], q, sample.get("max")
                )
                if estimate is None:
                    quantiles.append(f"{tag}=n/a")
                elif seconds:
                    quantiles.append(f"{tag}={estimate * 1000.0:.3f}ms")
                else:
                    quantiles.append(f"{tag}={estimate:.3g}")
            total = sample["sum"]
            sum_text = f"{total * 1000.0:.3f}ms" if seconds else value_text(total)
            lines.append(
                f"{name}{_labels_text(sample['labels'])} "
                f"count={sample['count']} sum={sum_text} "
                + " ".join(quantiles)
            )
            for exemplar in sample.get("exemplars", []):
                le = exemplar["le"]
                le_text = le if isinstance(le, str) else _format_number(float(le))
                value = exemplar["value"]
                observed = f"{value * 1000.0:.3f}ms" if seconds else f"{value:.6g}"
                lines.append(
                    f"  exemplar le={le_text} value={observed} "
                    f"trace={exemplar['trace_id']}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render_registry(registry=None) -> str:
    """Prometheus text for a *live* registry (collects, snapshots, renders).

    With no argument the process-active registry is used — this is the
    single call behind the decision service's ``GET /metrics`` endpoint.
    """
    if registry is None:
        from repro.obs.runtime import get_registry

        registry = get_registry()
    return render_prometheus(registry.snapshot())


def save_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Write a snapshot as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot JSON written by :func:`save_snapshot`."""
    try:
        snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ObservabilityError(f"{path} is not a metrics snapshot: {error}")
    if not isinstance(snapshot, dict):
        raise ObservabilityError(f"{path} is not a metrics snapshot (not an object)")
    return snapshot
