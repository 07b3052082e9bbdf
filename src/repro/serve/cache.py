"""The interned decision cache behind the PDP's ``decide`` hot path.

One entry caches the *policy verdict* — the frozenset of permitted
categories — for one ``(policy-version, consent-version, role, purpose,
data-categories)`` key.  Compliance auditing is **not** cached: every
served decision writes its audit entries whether the verdict came from
the cache or not, so the trail the refinement loop mines is identical
with the cache on or off.

Keys are interned: each distinct role/purpose/category string is mapped
to a small integer once, so a steady-state key is a tuple of ints —
cheap to hash and free of repeated string hashing.  The version pair in
the key makes staleness structurally impossible (a reload changes the
key, not the entry), and :meth:`invalidate` additionally drops the old
generation's entries so memory stays bounded by live keys; capacity is
bounded by LRU eviction on top.

Telemetry: ``repro_serve_decision_cache_{hits,misses,evictions,
invalidations}_total`` counters and a ``repro_serve_decision_cache_size``
gauge, flushed by a weakly-held collector (the PR 2 hot-path pattern —
the per-request cost is a plain int increment).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from repro.obs.runtime import get_registry


class DecisionCache:
    """A bounded, interned, version-keyed memo of policy verdicts."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, frozenset[str]] = OrderedDict()
        self._atoms: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._reported = (0, 0, 0, 0)
        self._obs = get_registry()
        if self._obs.enabled:
            self._obs.register_collector(self._flush_metrics)

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    def _atom(self, value: str) -> int:
        """The interned id of one string atom (assigned on first sight)."""
        atom = self._atoms.get(value)
        if atom is None:
            atom = self._atoms[value] = len(self._atoms)
        return atom

    def key(
        self,
        policy_version: int,
        consent_version: int,
        role: str,
        purpose: str,
        categories: Iterable[str],
    ) -> tuple:
        """Build the interned cache key for one regular decision."""
        atom = self._atom
        return (
            policy_version,
            consent_version,
            atom(role),
            atom(purpose),
            tuple(atom(category) for category in categories),
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> frozenset[str] | None:
        """The cached permitted-set for ``key``, or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, permitted: frozenset[str]) -> None:
        """Store one verdict, evicting the least-recently-used on overflow."""
        entries = self._entries
        entries[key] = permitted
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (a snapshot swap retired their generation)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _flush_metrics(self) -> None:
        reg = self._obs
        current = (self.hits, self.misses, self.evictions, self.invalidations)
        seen = self._reported
        names = (
            "repro_serve_decision_cache_hits_total",
            "repro_serve_decision_cache_misses_total",
            "repro_serve_decision_cache_evictions_total",
            "repro_serve_decision_cache_invalidations_total",
        )
        for name, now, before in zip(names, current, seen):
            reg.counter(name).inc(now - before)
        self._reported = current
        reg.gauge("repro_serve_decision_cache_size").set(len(self._entries))

    def stats(self) -> dict:
        """JSON-ready counters (the ``stats`` op and health surface)."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
