"""Metric primitives: counters, gauges, and log-scale histograms.

These are deliberately dependency-free, single-process, single-threaded
instruments in the Prometheus data model:

:class:`Counter`
    A monotonically increasing total (``repro_*_total`` by convention).
:class:`Gauge`
    A value that can go up and down (sizes, cache occupancy).
:class:`Histogram`
    A distribution over **fixed log-scale buckets**: durations and
    cardinalities both span orders of magnitude, so buckets are spaced
    geometrically (powers of two by default) rather than linearly.

Instruments are handed out and keyed by the
:class:`~repro.obs.registry.MetricsRegistry`; this module also defines the
*snapshot* helpers — the plain-``dict`` serialisation of a registry that
the exposition layer (:mod:`repro.obs.exposition`) and the per-round
metric deltas of the refinement loop both consume.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left

from repro.errors import ObservabilityError

#: Default histogram bucket upper bounds: powers of two from ~1 µs to 32 s,
#: tuned for the ``*_seconds`` span histograms.  Observations above the
#: last bound land in the implicit ``+Inf`` bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2.0**e for e in range(-20, 6))

#: Bucket bounds for cardinality-style histograms (range sizes, row
#: counts): powers of two from 1 to 2^20.
CARDINALITY_BUCKETS: tuple[float, ...] = tuple(2.0**e for e in range(0, 21))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def validate_name(name: str) -> str:
    """Check ``name`` against the Prometheus metric-name grammar.

    The repo's naming scheme is ``repro_<pkg>_<name>`` with counters
    suffixed ``_total`` and span histograms suffixed ``_seconds`` (see
    DESIGN.md §8); this only enforces the character set.
    """
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def validate_labels(labels: dict[str, object]) -> dict[str, str]:
    """Validate label names and coerce label values to strings."""
    out: dict[str, str] = {}
    for key, value in labels.items():
        if not _LABEL_RE.match(key):
            raise ObservabilityError(f"invalid label name {key!r}")
        out[key] = str(value)
    return out


def log_buckets(start: float, stop: float, base: float = 2.0) -> tuple[float, ...]:
    """Geometric bucket bounds from ``start`` up to and including ``stop``.

    ``log_buckets(1, 1024)`` gives the powers of two 1, 2, …, 1024 —
    the shape every histogram in this repo uses, per the "fixed
    log-scale buckets" design rule.
    """
    if start <= 0 or stop < start or base <= 1.0:
        raise ObservabilityError(
            f"log_buckets needs 0 < start <= stop and base > 1, "
            f"got start={start}, stop={stop}, base={base}"
        )
    count = int(math.floor(math.log(stop / start, base) + 1e-9)) + 1
    bounds = tuple(start * base**i for i in range(count))
    if bounds[-1] < stop:
        bounds = bounds + (stop,)
    return bounds


def format_sample(name: str, labels: dict[str, str]) -> str:
    """Render ``name{k="v",…}`` — the key used by snapshots and deltas."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (>= 0) to the counter; negative amounts raise."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        """Move the gauge up by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Move the gauge down by ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """The current level."""
        return self._value


class Histogram:
    """A distribution over fixed log-scale buckets.

    Observations at or below a bound count into that bucket; anything
    above the last bound lands in the implicit ``+Inf`` overflow bucket.
    Zero and negative observations (a timer's floor) count into the first
    bucket rather than raising — telemetry must never take down the
    instrumented path.  The largest observation is kept beside the
    buckets (:attr:`max`), so quantile estimates can be capped at it.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count",
                 "_max", "_exemplars")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ObservabilityError(
                f"histogram {name} needs ascending, non-empty bucket bounds"
            )
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._max = -math.inf
        # per-bucket (trace_id, value) of the last exemplared observation;
        # lazily allocated so exemplar-free histograms pay nothing
        self._exemplars: dict[int, tuple[str, float]] | None = None

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation.

        ``exemplar`` (a trace id, when a trace is active at the call
        site) is kept per bucket — last writer wins — linking each
        latency bucket to one concrete request that landed in it.
        """
        index = bisect_left(self.bounds, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        if value > self._max:
            self._max = value
        if exemplar is not None:
            if self._exemplars is None:
                self._exemplars = {}
            self._exemplars[index] = (exemplar, value)

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def max(self) -> float | None:
        """The largest observed value (None when empty)."""
        return self._max if self._count else None

    def cumulative_buckets(self) -> list[tuple[float | str, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ending ``+Inf``."""
        out: list[tuple[float | str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append(("+Inf", running + self._counts[-1]))
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram; returns self.

        Merging shard histograms equals recording every observation into
        one (the maximum included), which is what lets a load driver fan
        out over processes.
        ``other``'s exemplars win per bucket (last writer).  Histograms
        over different bucket bounds cannot merge and raise.
        """
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"cannot merge histogram {other.name} into {self.name}: "
                f"bucket bounds differ"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self._sum += other._sum
        self._count += other._count
        self._max = max(self._max, other._max)
        if other._exemplars:
            if self._exemplars is None:
                self._exemplars = {}
            self._exemplars.update(other._exemplars)
        return self

    def exemplars(self) -> list[dict]:
        """Per-bucket exemplars as ``{le, trace_id, value}`` (may be empty)."""
        if not self._exemplars:
            return []
        out = []
        for index in sorted(self._exemplars):
            trace_id, value = self._exemplars[index]
            le: float | str = (
                self.bounds[index] if index < len(self.bounds) else "+Inf"
            )
            out.append({"le": le, "trace_id": trace_id, "value": value})
        return out


def sample_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Per-sample difference between two monotone sample maps.

    Samples absent from ``before`` count from zero; unchanged samples are
    dropped, so the result is exactly "what this interval contributed" —
    the per-round metrics delta :class:`~repro.refinement.loop.RoundReport`
    carries.
    """
    return {
        key: value - before.get(key, 0.0)
        for key, value in after.items()
        if value != before.get(key, 0.0)
    }


def estimate_quantile(
    cumulative: list[tuple[float | str, int]] | list[dict],
    q: float,
    maximum: float | None = None,
) -> float | None:
    """Estimate the ``q``-quantile from cumulative histogram buckets.

    ``cumulative`` is either :meth:`Histogram.cumulative_buckets` output
    or the snapshot form (``[{"le": …, "count": …}, …]``).  Buckets are
    log-scaled in this repo, so interpolation inside a bucket is
    **geometric** — ``lo * (hi/lo)**fraction`` — matching the bucket
    spacing; the first finite bucket interpolates linearly from zero and
    the overflow bucket returns its lower bound.  Interpolation runs up
    to the occupied bucket's upper bound, which can lie a whole bucket
    width above every sample, so pass the histogram's ``maximum``
    (:attr:`Histogram.max`) when it is known: no estimate exceeds it.
    Returns None on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be within [0, 1], got {q}")
    pairs: list[tuple[float | str, int]] = [
        (b["le"], b["count"]) if isinstance(b, dict) else (b[0], b[1])
        for b in cumulative
    ]
    if not pairs:
        return None
    total = pairs[-1][1]
    if total == 0:
        return None
    estimate = _interpolate(pairs, q * total)
    return estimate if maximum is None else min(estimate, maximum)


def _interpolate(pairs: list[tuple[float | str, int]], target: float) -> float:
    """The value at rank ``target`` inside the bucket that holds it."""
    previous_bound = 0.0
    previous_count = 0
    for bound, count in pairs:
        if count >= target and count > previous_count:
            if isinstance(bound, str):  # the +Inf overflow bucket
                return previous_bound
            fraction = (target - previous_count) / (count - previous_count)
            if previous_bound <= 0.0:
                return bound * fraction
            return previous_bound * (bound / previous_bound) ** fraction
        if not isinstance(bound, str):
            previous_bound = bound
        previous_count = count
    return previous_bound
