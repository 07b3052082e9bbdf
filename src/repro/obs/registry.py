"""The metrics registry: instrument factory, collectors, spans, snapshots.

One :class:`MetricsRegistry` holds every instrument of a process (or of an
experiment, when tests and benchmarks swap in a private registry via
:func:`~repro.obs.runtime.use_registry`).  Three access patterns coexist:

direct
    ``registry.counter("repro_x_total", kind="set").inc()`` — for
    decision-bearing, once-per-operation call sites.
collectors
    Hot paths (the grounder's memo probes, the SQL executor's row scans)
    keep **plain Python ints** and register a collector that flushes the
    delta into real counters at snapshot time, so steady-state
    instrumentation costs nothing per call.  Collectors are weakly
    referenced: a dropped component unregisters itself by dying.
spans
    ``with registry.span("repro_pkg_op", stage="x"):`` times a block into
    the ``repro_pkg_op_seconds`` histogram, emits a structured event when
    a sink is attached, and debug-logs under ``repro.obs.span``.

:class:`NullRegistry` is the disabled twin: every factory returns a shared
no-op instrument and ``enabled`` is False, so instrumented code can guard
hot extras with a single attribute check (``if reg.enabled: ...``).
"""

from __future__ import annotations

import logging
import time
import weakref
from collections.abc import Callable
from functools import wraps

from repro.errors import ObservabilityError
from repro.obs import trace as _trace
from repro.obs.events import JsonlEventSink
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    format_sample,
    validate_labels,
    validate_name,
)

_SPAN_LOGGER = logging.getLogger("repro.obs.span")


class Span:
    """A context-manager *and* decorator timing one named operation.

    On exit the elapsed wall time is observed into the
    ``<name>_seconds`` histogram carrying the span's labels; if the
    registry has an event sink attached, a ``span`` event is emitted; and
    a debug line goes to the ``repro.obs.span`` logger (visible under the
    CLI's ``--verbose``).  Exceptions propagate — the duration is recorded
    either way, with ``error`` set on the event.

    When a trace root is active (:mod:`repro.obs.trace`), the span also
    becomes a **child span** of the enclosing one — the PR 2 timers are
    the span tree — and the histogram observation carries the trace id
    as its bucket exemplar.  Untraced, the extra cost is a single
    context-variable read on enter.
    """

    __slots__ = ("_registry", "_name", "_labels", "_started", "_trace")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._started = 0.0
        self._trace = None

    def __enter__(self) -> "Span":
        """Start the timer (and a trace child span, when traced)."""
        self._trace = _trace.enter_child(self._name, self._labels)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Stop the timer; record histogram, trace span, event, log."""
        elapsed = time.perf_counter() - self._started
        registry = self._registry
        handle, self._trace = self._trace, None
        exemplar = None
        if handle is not None:
            exemplar = _trace.exit_child(
                handle, exc_type.__name__ if exc_type is not None else None
            )
        registry.histogram(self._name + "_seconds", **self._labels).observe(
            elapsed, exemplar
        )
        if registry.event_sink is not None:
            registry.event(
                "span",
                name=self._name,
                seconds=round(elapsed, 9),
                error=exc_type.__name__ if exc_type is not None else None,
                **self._labels,
            )
        if _SPAN_LOGGER.isEnabledFor(logging.DEBUG):
            labels = "".join(
                f" {key}={value}" for key, value in sorted(self._labels.items())
            )
            _SPAN_LOGGER.debug(
                "span=%s seconds=%.6f%s", self._name, elapsed, labels
            )
        return False

    def __call__(self, fn: Callable) -> Callable:
        """Decorator form: each call runs inside a fresh span."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with type(self)(self._registry, self._name, self._labels):
                return fn(*args, **kwargs)

        return wrapper


class MetricsRegistry:
    """Process-local home of every counter, gauge, histogram and span."""

    #: the one-attribute-check guard instrumented call sites use
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._kinds: dict[str, str] = {}  # metric name -> instrument kind
        self._collectors: list = []  # WeakMethod | weakref.ref | callable
        #: optional structured event sink (see :mod:`repro.obs.events`)
        self.event_sink: JsonlEventSink | None = None

    # ------------------------------------------------------------------
    # instrument factories (get-or-create, keyed by name + labels)
    # ------------------------------------------------------------------
    def _key(self, name: str, kind: str, labels: dict) -> tuple[tuple, dict]:
        validate_name(name)
        clean = validate_labels(labels)
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as a {seen}, not a {kind}"
            )
        return (name, tuple(sorted(clean.items()))), clean

    def counter(self, name: str, **labels: object) -> Counter:
        """Return the counter ``name`` for this label set, creating it once."""
        key, clean = self._key(name, "counter", labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, clean)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Return the gauge ``name`` for this label set, creating it once."""
        key, clean = self._key(name, "gauge", labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, clean)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Return the histogram ``name`` for this label set, creating it once.

        ``buckets`` is honoured on first creation only; later calls for
        the same series return the existing instrument unchanged.
        """
        key, clean = self._key(name, "histogram", labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, clean, buckets)
        return instrument

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def span(self, name: str, **labels: object) -> Span:
        """Time a block into ``<name>_seconds`` (context manager/decorator)."""
        validate_name(name)
        return Span(self, name, validate_labels(labels))

    def event(self, event: str, **fields: object) -> None:
        """Emit one structured event to the attached sink (no-op without one)."""
        if self.event_sink is not None:
            self.event_sink.emit(event, **fields)

    def attach_sink(self, sink: JsonlEventSink | None) -> None:
        """Attach (or with ``None`` detach) the structured event sink."""
        self.event_sink = sink

    # ------------------------------------------------------------------
    # collectors: pull-style flushing for hot-path components
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a zero-argument callable run before every snapshot.

        Bound methods are held via :class:`weakref.WeakMethod` so
        registering never extends a component's lifetime; dead collectors
        are pruned on the next :meth:`collect`.
        """
        if hasattr(collector, "__self__"):
            self._collectors.append(weakref.WeakMethod(collector))
        else:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run every live collector, pruning the dead ones."""
        live = []
        for entry in self._collectors:
            fn = entry() if isinstance(entry, weakref.WeakMethod) else entry
            if fn is None:
                continue
            fn()
            live.append(entry)
        self._collectors = live

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Collect, then serialise every instrument to a JSON-able dict.

        The schema (``counters`` / ``gauges`` / ``histograms`` lists with
        ``name``, ``labels`` and values; histogram buckets cumulative,
        ending at ``+Inf``, beside the largest observation as ``max``)
        is what ``--metrics-out`` writes and what
        :func:`repro.obs.exposition.render_prometheus` renders.
        """
        self.collect()

        def ordered(instruments: dict) -> list:
            return [instruments[key] for key in sorted(instruments)]

        return {
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for c in ordered(self._counters)
            ],
            "gauges": [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for g in ordered(self._gauges)
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": h.labels,
                    "count": h.count,
                    "sum": h.sum,
                    "max": h.max,
                    "buckets": [
                        {"le": le, "count": count}
                        for le, count in h.cumulative_buckets()
                    ],
                    **(
                        {"exemplars": exemplars}
                        if (exemplars := h.exemplars())
                        else {}
                    ),
                }
                for h in ordered(self._histograms)
            ],
        }

    def sample_values(self) -> dict[str, float]:
        """Flat map of every *monotone* sample (after collecting).

        Counters appear under their rendered name; histograms contribute
        ``<name>_count`` and ``<name>_sum``.  Gauges are excluded — deltas
        of non-monotone series are not meaningful.  Feed two of these to
        :func:`repro.obs.metrics.sample_delta` for interval attribution.
        """
        self.collect()
        out: dict[str, float] = {}
        for counter in self._counters.values():
            out[format_sample(counter.name, counter.labels)] = counter.value
        for histogram in self._histograms.values():
            base = format_sample(histogram.name, histogram.labels)
            out[base + "#count"] = float(histogram.count)
            out[base + "#sum"] = histogram.sum
        return out


class _NullCounter(Counter):
    """A counter that ignores every increment."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""


class _NullGauge(Gauge):
    """A gauge that ignores every movement."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1) -> None:
        """Discard the movement."""

    def dec(self, amount: float = 1) -> None:
        """Discard the movement."""


class _NullHistogram(Histogram):
    """A histogram that ignores every observation."""

    __slots__ = ()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Discard the observation."""


class _NullSpan:
    """A stateless, reusable span that measures nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """Do nothing."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Do nothing; let exceptions propagate."""
        return False

    def __call__(self, fn: Callable) -> Callable:
        """Decorator form: return ``fn`` untouched (zero overhead)."""
        return fn


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    ``enabled`` is False, so instrumented call sites skip their extras
    with one attribute check; anything that does call through lands on
    singletons whose mutators are empty methods.  Snapshots are empty and
    collectors are never retained.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null", {})
        self._null_gauge = _NullGauge("null", {})
        self._null_histogram = _NullHistogram("null", {}, (1.0,))
        self._null_span = _NullSpan()

    def counter(self, name: str, **labels: object) -> Counter:
        """Return the shared no-op counter."""
        return self._null_counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Return the shared no-op gauge."""
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Return the shared no-op histogram."""
        return self._null_histogram

    def span(self, name: str, **labels: object) -> _NullSpan:  # type: ignore[override]
        """Return the shared no-op span."""
        return self._null_span

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Drop the collector; a disabled registry never pulls."""

    def event(self, event: str, **fields: object) -> None:
        """Discard the event."""


#: The process-wide disabled registry; pass to
#: :func:`repro.obs.runtime.use_registry` to switch instrumentation off.
NULL_REGISTRY = NullRegistry()
