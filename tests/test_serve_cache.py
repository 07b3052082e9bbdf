"""Unit tests for the interned decision cache."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.serve.cache import DecisionCache


class TestKeying:
    def test_keys_are_interned_ints(self):
        cache = DecisionCache()
        key = cache.key(3, 1, 5, "nurse", "treatment", ("referral", "name"))
        assert key[:3] == (3, 1, 5)
        assert all(isinstance(atom, int) for atom in key[3:5])
        assert all(isinstance(atom, int) for atom in key[5])

    def test_same_inputs_same_key(self):
        cache = DecisionCache()
        a = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
        b = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
        assert a == b

    def test_version_pair_changes_key(self):
        cache = DecisionCache()
        base = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
        assert cache.key(2, 1, 1, "nurse", "treatment", ("referral",)) != base
        assert cache.key(1, 2, 1, "nurse", "treatment", ("referral",)) != base
        assert cache.key(1, 1, 2, "nurse", "treatment", ("referral",)) != base

    def test_distinct_strings_get_distinct_atoms(self):
        cache = DecisionCache()
        a = cache.key(1, 1, 1, "nurse", "treatment", ())
        b = cache.key(1, 1, 1, "physician", "treatment", ())
        assert a[3] != b[3]
        assert a[4] == b[4]  # same purpose atom


class TestLookup:
    def test_miss_then_hit(self):
        cache = DecisionCache()
        key = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
        assert cache.get(key) is None
        cache.put(key, frozenset({"referral"}))
        assert cache.get(key) == frozenset({"referral"})
        assert cache.misses == 1
        assert cache.hits == 1

    def test_stale_version_is_a_miss_not_a_wrong_answer(self):
        cache = DecisionCache()
        old = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
        cache.put(old, frozenset({"referral"}))
        fresh = cache.key(2, 1, 1, "nurse", "treatment", ("referral",))
        assert cache.get(fresh) is None

    def test_lru_eviction_order(self):
        cache = DecisionCache(max_entries=2)
        k1 = cache.key(1, 1, 1, "a", "p", ())
        k2 = cache.key(1, 1, 1, "b", "p", ())
        k3 = cache.key(1, 1, 1, "c", "p", ())
        cache.put(k1, frozenset())
        cache.put(k2, frozenset())
        cache.get(k1)  # k1 now most recently used
        cache.put(k3, frozenset())  # evicts k2
        assert cache.get(k2) is None
        assert cache.get(k1) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_invalidate_clears_and_counts(self):
        cache = DecisionCache()
        cache.put(cache.key(1, 1, 1, "a", "p", ()), frozenset())
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DecisionCache(max_entries=0)


class TestTelemetry:
    def test_collector_flushes_deltas(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = DecisionCache()
            key = cache.key(1, 1, 1, "nurse", "treatment", ("referral",))
            cache.get(key)
            cache.put(key, frozenset({"referral"}))
            cache.get(key)
            cache.invalidate()
            snapshot = registry.snapshot()
        counters = {
            (s["name"]): s["value"] for s in snapshot["counters"]
        }
        assert counters["repro_serve_decision_cache_hits_total"] == 1
        assert counters["repro_serve_decision_cache_misses_total"] == 1
        assert counters["repro_serve_decision_cache_invalidations_total"] == 1
        gauges = {s["name"]: s["value"] for s in snapshot["gauges"]}
        assert gauges["repro_serve_decision_cache_size"] == 0

    def test_stats_dict_is_json_ready(self):
        cache = DecisionCache(max_entries=8)
        stats = cache.stats()
        assert stats == {
            "entries": 0, "max_entries": 8, "hits": 0, "misses": 0,
            "evictions": 0, "invalidations": 0,
        }
