"""Tests for the sharded map-reduce refinement layer (repro.parallel).

The headline property is *equivalence*: serial and sharded ``refine()``
are both the one kernel, so each must also return exactly what the
literal pipeline (``tests/reference.py``: Filter → the miner's own
``mine`` → Prune) returns — patterns in the same order, identical prune
partition, identical coverage ratios and uncovered-entry indices,
identical practice subset — over every source shape and miner the layer
supports.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.audit.classify import ClassifierConfig
from repro.audit.log import AuditLog, make_entry
from repro.audit.schema import AccessStatus
from repro.errors import RefinementError
from repro.mining.patterns import MiningConfig
from repro.mining.sql_patterns import (
    SqlPatternMiner,
    finalize_patterns,
    fold_groups,
)
from repro.parallel.execution import ExecutionPolicy
from repro.parallel.partials import MapTask, map_shard
from repro.parallel.pool import run_sharded
from repro.parallel.refine import TrailAggregate, parallel_refine
from repro.parallel.shards import Shard, iter_shard, shards_of
from repro.policy.grounding import Grounder
from repro.policy.policy import Policy, PolicySource
from repro.policy.rule import Rule
from repro.refinement.engine import RefinementConfig, refine
from repro.store.durable import copy_to_durable
from repro.store.store import StoreConfig
from tests.reference import (
    assert_identical,
    assert_round_identical,
    reference_groups,
    reference_refine,
)


# The ``vocabulary`` fixture comes from conftest (Figure 1 healthcare
# vocabulary); the values below that are not in it ("labs") are treated
# as ground atoms by the non-strict vocabulary.
@pytest.fixture(scope="module")
def policy_store() -> Policy:
    return Policy(
        [
            Rule.from_pairs(
                [("data", "labs"), ("purpose", "treatment"), ("authorized", "doctor")]
            )
        ],
        source=PolicySource.POLICY_STORE,
        name="store",
    )


def build_log(entries: int = 400, name: str = "trail") -> AuditLog:
    """Deterministic mixed workload of exactly ``entries`` entries:
    practice clusters, regulars, a rare echoed combination, and a
    lone-wolf suspected violation (the last four entries)."""
    log = AuditLog(name=name)
    combos = [
        ("referral", "registration", "nurse"),
        ("labs", "treatment", "doctor"),
        ("prescription", "treatment", "nurse"),
        ("labs", "billing", "clerk"),
    ]
    for tick in range(entries - 4):
        data, purpose, role = combos[tick % len(combos)]
        status = AccessStatus.EXCEPTION if tick % 3 != 2 else AccessStatus.REGULAR
        log.append(
            make_entry(tick, f"u{tick % 7}", data, purpose, role, status=status)
        )
    tick = entries - 4
    # a lone-wolf rare combination (1 user, 2 hits, no echo) -> suspected
    for _ in range(2):
        log.append(
            make_entry(tick, "creep", "psychiatry", "telemarketing", "clerk",
                       status=AccessStatus.EXCEPTION)
        )
        tick += 1
    # a rare combination with a regular echo -> rescued under scope="log"
    log.append(
        make_entry(tick, "solo", "psychiatry", "billing", "doctor",
                   status=AccessStatus.EXCEPTION)
    )
    log.append(
        make_entry(tick + 1, "other", "psychiatry", "billing", "doctor",
                   status=AccessStatus.REGULAR)
    )
    return log


CONFIG_CASES = {
    "sql": {},
    "sql-screened": {"exclude_suspected_violations": True},
    "sql-screened-practice-scope": {
        "exclude_suspected_violations": True,
        "classify_scope": "practice",
    },
    "sql-denied": {"include_denied": True},
    "apriori": {"miner": "apriori"},
    "apriori-screened": {
        "miner": "apriori",
        "exclude_suspected_violations": True,
    },
}

# both miners; the ids are part of the suite's recorded test names
MINER_CASES = [pytest.param("sql", id="miner0"), pytest.param("apriori", id="miner1")]


def three_shard_round(policy_store, log, vocabulary, miner: str):
    """Fold the in-process ``map_shard`` partials of ``shards_of(log, 3)``
    and finish them (no candidate is dropped, so no SON recount)."""
    task = MapTask(
        attributes=MiningConfig().attributes,
        include_denied=False,
        exclude_suspected=False,
        collect_regular=False,
        miner=miner,
        local_min_support=1,
    )
    shards = shards_of(log, 3)
    assert len(shards) == 3
    aggregate = TrailAggregate()
    for shard in shards:
        aggregate.fold(map_shard(shard, task))
    return aggregate.finish(
        policy_store, vocabulary, Grounder(vocabulary), MiningConfig(), miner
    )


# ----------------------------------------------------------------------
# serial equivalence
# ----------------------------------------------------------------------
class TestSerialEquivalence:
    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_in_memory_log(self, case, policy_store, vocabulary):
        log = build_log()
        kwargs = CONFIG_CASES[case]
        mining = MiningConfig(min_support=5, min_distinct_users=2)
        serial = refine(
            policy_store, log, vocabulary,
            RefinementConfig(mining=mining, **kwargs), Grounder(vocabulary),
        )
        par = refine(
            policy_store, log, vocabulary,
            RefinementConfig(
                mining=mining, execution=ExecutionPolicy(workers=3), **kwargs
            ),
            Grounder(vocabulary),
        )
        assert serial.patterns  # the workload must actually mine something
        literal = reference_refine(
            policy_store, log, vocabulary,
            RefinementConfig(mining=mining, **kwargs), Grounder(vocabulary),
        )
        assert_identical(literal, serial)
        assert_identical(literal, par)

    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_multi_segment_durable_store(self, case, policy_store, vocabulary, tmp_path):
        log = build_log()
        durable = copy_to_durable(
            log, tmp_path / "store", config=StoreConfig(max_segment_entries=45)
        )
        try:
            assert durable.stats().sealed_segments >= 5
            kwargs = CONFIG_CASES[case]
            mining = MiningConfig(min_support=5, min_distinct_users=2)
            serial = refine(
                policy_store, durable, vocabulary,
                RefinementConfig(mining=mining, **kwargs), Grounder(vocabulary),
            )
            par = refine(
                policy_store, durable, vocabulary,
                RefinementConfig(
                    mining=mining, execution=ExecutionPolicy(workers=3), **kwargs
                ),
                Grounder(vocabulary),
            )
            literal = reference_refine(
                policy_store, durable, vocabulary,
                RefinementConfig(mining=mining, **kwargs), Grounder(vocabulary),
            )
            assert_identical(literal, serial)
            assert_identical(literal, par)
        finally:
            durable.close()

    def test_parallel_run_is_deterministic(self, policy_store, vocabulary):
        log = build_log()
        runs = [
            three_shard_round(policy_store, log, vocabulary, "sql")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        literal = reference_refine(policy_store, log, vocabulary)
        for run in runs:
            assert_round_identical(literal, run, list(log), MiningConfig().attributes)

    def test_shared_grounder_masks_stay_comparable(self, policy_store, vocabulary):
        """Prune with one shared grounder across serial + parallel runs."""
        grounder = Grounder(vocabulary)
        log = build_log()
        serial = refine(policy_store, log, vocabulary, None, grounder)
        par = refine(
            policy_store, log, vocabulary,
            RefinementConfig(execution=ExecutionPolicy(workers=2)), grounder,
        )
        literal = reference_refine(policy_store, log, vocabulary, None, grounder)
        for result in (serial, par):
            assert result.coverage.overlap == literal.coverage.overlap
            assert result.entry_coverage.covering == literal.entry_coverage.covering

    def test_federation_matches_consolidated_serial(self, policy_store, vocabulary, tmp_path):
        from repro.hdb.federation import AuditFederation

        federation = AuditFederation()
        site_a = build_log(120, name="site_a")
        site_b = build_log(80, name="site_b")
        federation.register("alpha", site_a)
        durable = copy_to_durable(
            site_b, tmp_path / "beta", config=StoreConfig(max_segment_entries=30)
        )
        try:
            federation.register("beta", durable)
            par = parallel_refine(
                policy_store, federation, vocabulary,
                RefinementConfig(execution=ExecutionPolicy(workers=3)),
                Grounder(vocabulary),
            )
            serial = refine(
                policy_store, federation.consolidated_log(), vocabulary,
                None, Grounder(vocabulary),
            )
            literal = reference_refine(
                policy_store, federation.consolidated_log(), vocabulary,
                None, Grounder(vocabulary),
            )
            # order-insensitive quantities agree with the time-merged serial
            # run and the literal pipeline; entry indices follow the
            # federation's site-major order so they are not compared.
            for expected in (serial, literal):
                assert par.patterns == expected.patterns
                assert par.coverage.ratio == expected.coverage.ratio
                assert par.entry_coverage.ratio == expected.entry_coverage.ratio
            assert par.entry_coverage.total == len(federation)
        finally:
            durable.close()


# ----------------------------------------------------------------------
# one kernel for every worker count
# ----------------------------------------------------------------------
def _refine_metrics(policy_store, log, vocabulary, workers: int) -> dict:
    """Run one refine() under a private registry; its refinement and
    coverage counters plus the sample counts of their span histograms."""
    config = RefinementConfig(execution=ExecutionPolicy(workers=workers))
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        refine(policy_store, log, vocabulary, config, Grounder(vocabulary))
        snapshot = registry.snapshot()
    prefixes = ("repro_refinement_", "repro_coverage_")
    metrics = {}
    for section, field in (("counters", "value"), ("histograms", "count")):
        for sample in snapshot[section]:
            if sample["name"].startswith(prefixes):
                labels = tuple(sorted(sample["labels"].items()))
                metrics[(section, sample["name"], labels)] = sample[field]
    return metrics


class TestOneKernel:
    def test_serial_refine_decodes_each_entry_once(
        self, policy_store, vocabulary, tmp_path, monkeypatch
    ):
        from repro.store import segment

        durable = copy_to_durable(
            build_log(), tmp_path / "store", config=StoreConfig(max_segment_entries=45)
        )
        decoded = []
        decode = segment.decode_payload

        def counting_decode(payload, *rest):
            decoded.append(1)
            return decode(payload, *rest)

        try:
            assert durable.stats().segments >= 5
            monkeypatch.setattr(segment, "decode_payload", counting_decode)
            refine(policy_store, durable, vocabulary)
            assert len(decoded) == len(durable)
        finally:
            durable.close()

    @pytest.mark.parametrize("miner", MINER_CASES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_screening_drops_a_frequent_suspected_rule(
        self, miner, workers, policy_store, vocabulary
    ):
        """A rule frequent enough to mine but too rare for a strict
        classifier: one shard's map counts it, so the merge must drop it."""
        log = AuditLog(name="screened")
        for tick in range(40):
            combo = ("referral", "registration", "nurse") if tick % 4 else (
                "psychiatry", "billing", "clerk"
            )
            log.append(make_entry(tick, f"u{tick % 3}", *combo,
                                  status=AccessStatus.EXCEPTION))
        config = RefinementConfig(
            miner=miner,
            exclude_suspected_violations=True,
            classifier=ClassifierConfig(min_support=20),
            execution=ExecutionPolicy(workers=workers),
        )
        literal = reference_refine(policy_store, log, vocabulary, config)
        assert [str(p.rule.value_of("data")) for p in literal.patterns] == ["referral"]
        assert_identical(literal, refine(policy_store, log, vocabulary, config))

    @pytest.mark.parametrize("miner", MINER_CASES)
    def test_one_worker_maps_several_shards_in_process(
        self, miner, policy_store, vocabulary
    ):
        log = build_log()
        assert_round_identical(
            reference_refine(
                policy_store, log, vocabulary, RefinementConfig(miner=miner)
            ),
            three_shard_round(policy_store, log, vocabulary, miner),
            list(log),
            MiningConfig().attributes,
        )

    def test_unknown_classify_scope_rejected_by_config(self):
        with pytest.raises(ValueError):
            RefinementConfig(classify_scope="everything")

    def test_metrics_match_across_worker_counts(self, policy_store, vocabulary):
        log = build_log()
        serial = _refine_metrics(policy_store, log, vocabulary, workers=1)
        sharded = _refine_metrics(policy_store, log, vocabulary, workers=2)
        assert serial == sharded
        stages = {
            labels: count
            for (section, name, labels), count in serial.items()
            if name == "repro_refinement_stage_seconds"
        }
        assert stages == {
            (("stage", stage),): 1 for stage in ("coverage", "filter", "extract", "prune")
        }
        for kind in ("set", "entry"):
            key = ("counters", "repro_coverage_computations_total", (("kind", kind),))
            assert sharded[key] == 1
            key = ("histograms", "repro_coverage_compute_seconds", (("kind", kind),))
            assert sharded[key] == 1


# ----------------------------------------------------------------------
# delegation
# ----------------------------------------------------------------------
class TestDelegation:
    def test_workers_1_stays_serial(self, policy_store, vocabulary):
        log = build_log(100)
        result = refine(
            policy_store, log, vocabulary,
            RefinementConfig(execution=ExecutionPolicy(workers=1)),
        )
        assert isinstance(result.practice, AuditLog)

    def test_empty_log_raises(self, policy_store, vocabulary):
        with pytest.raises(RefinementError):
            parallel_refine(
                policy_store, AuditLog(), vocabulary,
                RefinementConfig(execution=ExecutionPolicy(workers=2)),
            )

    def test_execution_policy_validation(self):
        with pytest.raises(RefinementError):
            ExecutionPolicy(workers=0)
        assert ExecutionPolicy().workers == 1


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    def test_in_memory_chunks_are_contiguous_and_balanced(self):
        log = build_log(101)
        shards = shards_of(log, 4)
        assert len(shards) == 4
        sizes = [len(shard.entries) for shard in shards]
        assert sum(sizes) == len(log)
        assert max(sizes) - min(sizes) <= 1
        rebuilt = [e for shard in shards for e in iter_shard(shard)]
        assert [(e.time, e.user) for e in rebuilt] == [
            (e.time, e.user) for e in log
        ]

    def test_durable_shards_are_segment_files(self, tmp_path):
        log = build_log(100)
        durable = copy_to_durable(
            log, tmp_path / "store", config=StoreConfig(max_segment_entries=12)
        )
        try:
            shards = shards_of(durable, 4)
            assert len(shards) == 4
            assert all(shard.kind == "segments" for shard in shards)
            assert all(not shard.entries for shard in shards)  # no pickled data
            rebuilt = [e for shard in shards for e in iter_shard(shard)]
            assert [(e.time, e.user) for e in rebuilt] == [
                (e.time, e.user) for e in log
            ]
            assert sum(shard.planned_entries for shard in shards) == len(log)
        finally:
            durable.close()

    def test_shard_limit_one_gives_single_shard(self, tmp_path):
        durable = copy_to_durable(
            build_log(60), tmp_path / "store",
            config=StoreConfig(max_segment_entries=10),
        )
        try:
            shards = shards_of(durable, 1)
            assert len(shards) == 1
            assert len(list(iter_shard(shards[0]))) == 60
        finally:
            durable.close()

    def test_more_workers_than_segments(self, tmp_path):
        durable = copy_to_durable(
            build_log(30), tmp_path / "store",
            config=StoreConfig(max_segment_entries=20),
        )
        try:
            shards = shards_of(durable, 16)
            # at most one shard per segment file (sealed + active)
            assert 1 <= len(shards) <= durable.stats().segments
        finally:
            durable.close()

    def test_csv_member_shards_lazily(self, tmp_path):
        from repro.audit.io import save_csv
        from repro.hdb.federation import AuditFederation

        log = build_log(40, name="exported")
        path = tmp_path / "site.csv"
        save_csv(log, path)
        federation = AuditFederation()
        federation.register_path("filed", path)
        shards = shards_of(federation, 4)
        assert [shard.kind for shard in shards] == ["csv"]
        assert len(list(iter_shard(shards[0]))) == 40

    def test_unknown_source_rejected(self):
        with pytest.raises(RefinementError):
            shards_of(object(), 2)

    def test_bad_limit_rejected(self):
        with pytest.raises(RefinementError):
            shards_of(build_log(10), 0)


# ----------------------------------------------------------------------
# the mergeable partial-aggregate algebra
# ----------------------------------------------------------------------
class TestPartialAggregates:
    def test_merge_of_split_equals_whole(self):
        log = build_log(200)
        config = MiningConfig(min_support=3, min_distinct_users=2)
        attributes = config.attributes
        practice = log.exceptions()
        whole = reference_groups(practice, attributes)
        half = len(practice) // 2
        left = reference_groups(practice.entries[:half], attributes)
        right = reference_groups(practice.entries[half:], attributes)
        merged = fold_groups({}, left, right)
        assert merged == whole
        assert finalize_patterns(attributes, merged, config) == finalize_patterns(
            attributes, whole, config
        )

    def test_finalize_matches_sql_miner(self):
        log = build_log(300)
        config = MiningConfig(min_support=5, min_distinct_users=2)
        practice = log.exceptions()
        direct = SqlPatternMiner().mine(practice, config)
        via_partial = finalize_patterns(
            config.attributes,
            reference_groups(practice, config.attributes),
            config,
        )
        assert direct == via_partial

    def test_map_shard_counts_and_offsets(self):
        log = build_log(50)
        shard = Shard(index=0, kind="entries", label="t", entries=log.entries)
        partial = map_shard(
            shard,
            MapTask(
                attributes=("data", "purpose", "authorized"),
                include_denied=False,
                exclude_suspected=False,
                collect_regular=False,
                miner="sql",
                local_min_support=1,
            ),
        )
        assert partial.entries == 50
        assert sum(len(v) for v in partial.rule_entries.values()) == 50
        assert partial.practice_entries == sum(
            1 for e in log if e.is_exception and e.is_allowed
        )
        assert partial.cls_stats is None


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class TestPool:
    def test_serial_mode_for_single_worker(self):
        """One shard needs one worker: it maps in-process, whatever the
        worker count."""
        log = build_log(20)
        shards = shards_of(log, 1)
        assert len(shards) == 1
        task = MapTask(
            attributes=("data",), include_denied=False, exclude_suspected=False,
            collect_regular=False, miner="sql", local_min_support=1,
        )
        results, mode = run_sharded(map_shard, shards, task, workers=2)
        assert mode == "serial"
        assert [r.index for r in results] == [0]
        assert results[0].entries == 20

    def test_pool_mode_preserves_shard_order(self):
        log = build_log(40)
        shards = shards_of(log, 4)
        task = MapTask(
            attributes=("data",), include_denied=False, exclude_suspected=False,
            collect_regular=False, miner="sql", local_min_support=1,
        )
        results, mode = run_sharded(map_shard, shards, task, workers=4)
        assert mode in ("pool", "serial")  # pool unless the platform refuses
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert sum(r.entries for r in results) == 40

    def test_unpicklable_worker_falls_back_in_process(self):
        shards = shards_of(build_log(10), 2)

        def local_worker(shard, task):  # local fn: unpicklable on spawn/fork pools
            return sum(1 for _ in iter_shard(shard))

        results, mode = run_sharded(local_worker, shards, None, workers=2)
        assert sum(results) == 10


# ----------------------------------------------------------------------
# loop integration
# ----------------------------------------------------------------------
class TestLoopIntegration:
    def test_loop_with_workers_matches_serial_loop(self):
        from repro.experiments.harness import run_refinement_loop, standard_loop_setup
        from repro.refinement.review import ThresholdReview

        serial = run_refinement_loop(
            standard_loop_setup(accesses_per_round=800, seed=5),
            ThresholdReview(), rounds=2,
        )
        parallel = run_refinement_loop(
            standard_loop_setup(accesses_per_round=800, seed=5),
            ThresholdReview(), rounds=2, workers=2,
        )
        assert serial.coverage_series() == parallel.coverage_series()
        assert [r.rules_accepted for r in serial.rounds] == [
            r.rules_accepted for r in parallel.rounds
        ]
        assert sorted(map(str, serial.store.policy())) == sorted(
            map(str, parallel.store.policy())
        )
