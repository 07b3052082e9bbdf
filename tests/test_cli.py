"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.audit.io import save_csv, save_jsonl
from repro.cli import main
from repro.policy.parser import format_policy
from repro.workload.scenarios import figure3_policy, table1_audit_log


@pytest.fixture()
def store_file(tmp_path):
    path = tmp_path / "store.policy"
    path.write_text(format_policy(figure3_policy()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def log_file(tmp_path):
    return str(save_csv(table1_audit_log(), tmp_path / "audit.csv"))


class TestPaperCommand:
    def test_prints_paper_tables(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Table 1" in out
        assert "50%" in out
        assert "30%" in out


class TestCoverageCommand:
    def test_both_semantics_reported(self, capsys, store_file, log_file):
        assert main(["coverage", "--store", store_file, "--log", log_file]) == 0
        out = capsys.readouterr().out
        assert "set coverage   : 50.0%" in out
        assert "entry coverage : 30.0%" in out
        assert "deviations:" in out

    def test_breakdown_flag(self, capsys, store_file, log_file):
        assert main(
            ["coverage", "--store", store_file, "--log", log_file,
             "--by", "authorized"]
        ) == 0
        out = capsys.readouterr().out
        assert "entry coverage by authorized" in out
        assert "nurse" in out

    def test_missing_file_is_reported_not_raised(self, capsys, store_file):
        assert main(
            ["coverage", "--store", store_file, "--log", "/nope/missing.csv"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_log_format_reported(self, capsys, store_file, tmp_path):
        bogus = tmp_path / "log.xml"
        bogus.write_text("<x/>", encoding="utf-8")
        assert main(
            ["coverage", "--store", store_file, "--log", str(bogus)]
        ) == 1
        assert "unsupported audit log format" in capsys.readouterr().err


class TestRefineCommand:
    def test_finds_table1_pattern(self, capsys, store_file, log_file):
        assert main(["refine", "--store", store_file, "--log", log_file]) == 0
        out = capsys.readouterr().out
        assert "ALLOW nurse TO USE referral FOR registration" in out
        assert "support=5" in out

    def test_threshold_flags(self, capsys, store_file, log_file):
        assert main(
            ["refine", "--store", store_file, "--log", log_file,
             "--min-support", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "patterns mined   : 0" in out

    def test_apriori_miner(self, capsys, store_file, log_file):
        assert main(
            ["refine", "--store", store_file, "--log", log_file,
             "--miner", "apriori"]
        ) == 0
        assert "referral" in capsys.readouterr().out

    def test_temporal_flag(self, capsys, store_file, tmp_path):
        # a night-shift-only practice in jsonl form
        from repro.audit.log import AuditLog, make_entry
        from repro.audit.schema import AccessStatus

        log = AuditLog()
        tick_users = []
        for day in range(3):
            for offset, user in ((22, "a"), (23, "b"), (24, "c")):
                tick_users.append((day * 24 + offset, user))
        tick_users.sort()
        for tick, user in tick_users:
            log.append(
                make_entry(tick, user, "referral", "registration", "nurse",
                           status=AccessStatus.EXCEPTION)
            )
        path = save_jsonl(log, tmp_path / "night.jsonl")
        assert main(
            ["refine", "--store", store_file, "--log", str(path), "--temporal"]
        ) == 0
        out = capsys.readouterr().out
        assert "WHEN HOUR IN" in out


class TestTriageCommand:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("triage") / "corpus"
        assert main(
            ["corpus", "generate", "--out", str(directory), "--departments", "3",
             "--patients", "50", "--rounds", "1", "--accesses", "1500",
             "--protocol-rules", "10"]
        ) == 0
        return directory

    @pytest.mark.parametrize("support,users", [(5, 2), (3, 1), (10, 3)])
    def test_ranks_exactly_the_reference_useful_patterns(
        self, capsys, tmp_path, corpus_dir, support, users
    ):
        import json

        from repro.corpus import load_corpus
        from repro.mining.patterns import MiningConfig
        from repro.policy.parser import format_rule
        from repro.refinement.engine import RefinementConfig
        from tests.reference import reference_refine

        report = tmp_path / "triage.json"
        assert main(
            ["triage", "--corpus", str(corpus_dir), "--min-support", str(support),
             "--min-users", str(users), "--json", str(report)]
        ) == 0
        capsys.readouterr()
        listed = [
            (item["rule"], item["support"], item["distinct_users"])
            for item in json.loads(report.read_text())["candidates"]
        ]
        bundle = load_corpus(corpus_dir)
        expected = reference_refine(
            bundle.store.policy(), bundle.log, bundle.vocabulary,
            RefinementConfig(
                mining=MiningConfig(min_support=support, min_distinct_users=users)
            ),
        ).useful_patterns
        assert expected
        assert sorted(listed) == sorted(
            (format_rule(p.rule), p.support, p.distinct_users) for p in expected
        )


class TestReportCommand:
    def test_full_report(self, capsys, store_file, log_file):
        assert main(
            ["report", "--store", store_file, "--log", log_file, "--window", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "PRIMA compliance report" in out
        assert "coverage trend" in out
        assert "refinement candidates" in out

    def test_accepts_store_json(self, capsys, tmp_path, log_file):
        from repro.policy import store_io
        from repro.workload.scenarios import figure3_policy_store

        path = store_io.save(figure3_policy_store(), tmp_path / "store.json")
        assert main(
            ["coverage", "--store", str(path), "--log", log_file]
        ) == 0
        assert "set coverage   : 50.0%" in capsys.readouterr().out


class TestClassifyCommand:
    def test_triage_summary(self, capsys, log_file):
        assert main(["classify", "--log", log_file]) == 0
        out = capsys.readouterr().out
        assert "exceptions          : 7" in out
        assert "judged practice" in out


class TestSimulateCommand:
    def test_prints_round_table(self, capsys):
        assert main(
            ["simulate", "--rounds", "2", "--accesses", "800", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "refinement loop" in out
        assert "exc-rate" in out
        assert out.count("\n") >= 4

    def test_accept_all_review(self, capsys):
        assert main(
            ["simulate", "--rounds", "1", "--accesses", "500",
             "--review", "accept-all"]
        ) == 0
        assert "accept-all" in capsys.readouterr().out

    def test_enforce_sample_prints_replay_summary(self, capsys):
        assert main(
            ["simulate", "--rounds", "1", "--accesses", "400",
             "--enforce-sample", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "enforcement replay: 40 queries" in out


class TestTelemetryFlags:
    def test_metrics_out_writes_snapshot_with_live_counters(
        self, capsys, tmp_path
    ):
        from repro import obs

        path = tmp_path / "metrics.json"
        with obs.use_registry(obs.MetricsRegistry()):
            assert main(
                ["simulate", "--rounds", "1", "--accesses", "400",
                 "--enforce-sample", "30", "--metrics-out", str(path)]
            ) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snapshot = obs.load_snapshot(path)
        names = {sample["name"] for sample in snapshot["counters"]}
        assert "repro_policy_grounder_cache_hits_total" in names
        assert "repro_hdb_enforcement_decisions_total" in names
        stage_names = {sample["name"] for sample in snapshot["histograms"]}
        assert "repro_refinement_stage_seconds" in stage_names

    def test_metrics_command_renders_prometheus_and_json(
        self, capsys, tmp_path
    ):
        from repro import obs

        reg = obs.MetricsRegistry()
        reg.counter("repro_demo_total").inc(4)
        path = obs.save_snapshot(reg.snapshot(), tmp_path / "m.json")
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_demo_total counter" in out
        assert "repro_demo_total 4" in out
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert '"repro_demo_total"' in capsys.readouterr().out

    def test_metrics_command_rejects_garbage(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not a snapshot", encoding="utf-8")
        assert main(["metrics", str(bogus)]) == 1
        assert "error" in capsys.readouterr().err

    def test_verbose_flag_enables_debug_logging(self, capsys):
        import logging

        from repro.obs.logsetup import configure_logging

        try:
            assert main(["--verbose", "paper"]) == 0
            assert logging.getLogger("repro").isEnabledFor(logging.DEBUG)
        finally:
            configure_logging(verbose=False)


class TestStoreCommands:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.store.durable import copy_to_durable
        from repro.store.store import StoreConfig

        directory = tmp_path / "trail"
        copy_to_durable(
            table1_audit_log(), directory,
            StoreConfig(max_segment_entries=3, fsync="off"),
        ).close()
        return str(directory)

    def test_stats(self, capsys, store_dir):
        assert main(["store", "stats", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 10" in out
        assert "sealed" in out

    def test_verify_clean(self, capsys, store_dir):
        assert main(["store", "verify", store_dir]) == 0
        assert "result           : OK" in capsys.readouterr().out

    def test_verify_corrupt_exits_nonzero(self, capsys, store_dir):
        from pathlib import Path

        victim = sorted(Path(store_dir).glob("seg-*.seg"))[0]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["store", "verify", store_dir]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_tail(self, capsys, store_dir):
        assert main(["store", "tail", store_dir, "-n", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert out[-1].startswith("t10 ")

    def test_compact(self, capsys, store_dir):
        assert main(["store", "compact", store_dir]) == 0
        assert "compaction:" in capsys.readouterr().out
        assert main(["store", "verify", store_dir]) == 0

    def test_missing_directory_reported(self, capsys, tmp_path):
        assert main(["store", "stats", str(tmp_path / "missing")]) == 1
        assert "error" in capsys.readouterr().err


class TestStoreDirFlags:
    def test_simulate_persists_then_refine_reads_back(
        self, capsys, store_file, tmp_path
    ):
        directory = str(tmp_path / "history")
        assert main(
            ["simulate", "--rounds", "2", "--accesses", "500",
             "--enforce-sample", "0", "--store-dir", directory]
        ) == 0
        out = capsys.readouterr().out
        assert "cumulative history persisted" in out
        assert "entries    : 1000" in out
        assert main(
            ["refine", "--store", store_file, "--store-dir", directory]
        ) == 0
        assert "patterns mined" in capsys.readouterr().out

    def test_refine_requires_exactly_one_source(
        self, capsys, store_file, log_file, tmp_path
    ):
        assert main(["refine", "--store", store_file]) == 1
        assert "exactly one audit source" in capsys.readouterr().err
        assert main(
            ["refine", "--store", store_file, "--log", log_file,
             "--store-dir", str(tmp_path)]
        ) == 1
        assert "exactly one audit source" in capsys.readouterr().err

    def test_refine_store_dir_matches_log_file(
        self, capsys, store_file, log_file, tmp_path
    ):
        from repro.audit.io import load_csv
        from repro.store.durable import copy_to_durable

        directory = tmp_path / "trail"
        copy_to_durable(load_csv(log_file), directory).close()
        assert main(["refine", "--store", store_file, "--log", log_file]) == 0
        from_file = capsys.readouterr().out
        assert main(
            ["refine", "--store", store_file, "--store-dir", str(directory)]
        ) == 0
        from_store = capsys.readouterr().out
        assert from_store == from_file


class TestServeCommands:
    @pytest.fixture()
    def server_process(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rows", "20", "--store-dir", str(tmp_path / "trail")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
            env=env,
        )
        banner = process.stdout.readline()
        assert "pdp server listening on" in banner, banner
        port = int(banner.rsplit(":", 1)[1])
        try:
            yield process, port
        finally:
            if process.poll() is None:
                process.terminate()
                process.wait(timeout=10)

    def test_serve_and_decide_round_trip(self, server_process, capsys):
        _, port = server_process
        exit_code = main([
            "decide", "--port", str(port), "--user", "alice",
            "--role", "physician", "--purpose", "treatment",
            "--categories", "prescription",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert '"decision": "allow"' in out
        assert '"snapshot": 1' in out

    def test_decide_denied_exits_nonzero(self, server_process, capsys):
        _, port = server_process
        exit_code = main([
            "decide", "--port", str(port), "--user", "mallory",
            "--role", "clerk", "--purpose", "billing",
            "--categories", "prescription",
        ])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert '"code": "DENIED"' in out

    def test_decide_sql_mode(self, server_process, capsys):
        _, port = server_process
        exit_code = main([
            "decide", "--port", str(port), "--user", "alice",
            "--role", "physician", "--purpose", "treatment",
            "--sql", "SELECT prescription FROM patients LIMIT 1",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert '"rows"' in out

    def test_decide_requires_exactly_one_mode(self, capsys):
        exit_code = main([
            "decide", "--port", "1", "--user", "u", "--role", "r",
            "--purpose", "p",
        ])
        assert exit_code != 0
        assert "exactly one request shape" in capsys.readouterr().err

    def test_graceful_shutdown_flushes_durable_trail(self, server_process,
                                                     tmp_path):
        import signal

        from repro.store.durable import DurableAuditLog

        process, port = server_process
        assert main([
            "decide", "--port", str(port), "--user", "alice",
            "--role", "physician", "--purpose", "treatment",
            "--categories", "prescription",
        ]) == 0
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=15)
        remaining = process.stdout.read()
        assert "pdp server stopped" in remaining
        reopened = DurableAuditLog(tmp_path / "trail", create=False)
        assert len(reopened) == 1
        reopened.close()


class TestRefineDaemonCommand:
    @pytest.fixture()
    def queue_dir(self, tmp_path):
        from repro.refine_daemon import Candidate, DaemonState, save_state

        state = DaemonState()
        state.pending.append(
            Candidate("ALLOW nurse TO USE referral FOR treatment", 12, 4, 0)
        )
        state.pending.append(
            Candidate("ALLOW clerk TO USE insurance FOR billing", 7, 2, 1)
        )
        save_state(tmp_path, state)
        return str(tmp_path)

    def test_status_reports_watermark_and_ledger(self, capsys, queue_dir):
        assert main(["refine-daemon", "status", "--store-dir", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "watermark entries : 0" in out
        assert "2 / 0 / 0" in out

    def test_pending_lists_candidates_with_indices(self, capsys, queue_dir):
        assert main(["refine-daemon", "pending", "--store-dir", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "[0] ALLOW nurse TO USE referral FOR treatment" in out
        assert "[1] ALLOW clerk TO USE insurance FOR billing" in out

    def test_accept_by_index_moves_to_accepted(self, capsys, queue_dir):
        from repro.refine_daemon import load_state

        assert main(["refine-daemon", "accept", "--store-dir", queue_dir,
                     "0", "--note", "looks right"]) == 0
        state = load_state(queue_dir)
        assert len(state.pending) == 1
        assert state.accepted[0].rule == "ALLOW nurse TO USE referral FOR treatment"
        assert state.accepted[0].decided_by == "cli-review"
        assert state.accepted[0].note == "looks right"

    def test_reject_by_dsl_is_a_durable_veto(self, capsys, queue_dir):
        from repro.refine_daemon import load_state

        assert main(["refine-daemon", "reject", "--store-dir", queue_dir,
                     "ALLOW clerk TO USE insurance FOR billing"]) == 0
        state = load_state(queue_dir)
        assert [c.rule for c in state.rejected] == [
            "ALLOW clerk TO USE insurance FOR billing"
        ]

    def test_unknown_candidate_fails_with_pointer(self, capsys, queue_dir):
        assert main(["refine-daemon", "accept", "--store-dir", queue_dir,
                     "17"]) == 1
        assert "no pending candidate" in capsys.readouterr().out

    def test_cli_acceptance_reaches_a_polling_daemon(self, tmp_path, capsys):
        """End-to-end: queue-gated daemon → CLI accept → next poll adopts."""
        from repro.experiments.harness import standard_loop_setup
        from repro.mining.patterns import MiningConfig
        from repro.policy.parser import parse_rule
        from repro.refine_daemon import (
            DaemonConfig,
            QueueForReviewGate,
            RefineDaemon,
            StorePolicyTarget,
            load_state,
        )
        from repro.store.durable import DurableAuditLog

        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(min_support=5, min_distinct_users=2)),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        assert daemon.poll().pended > 0
        directory = str(log.store.directory)
        assert main(["refine-daemon", "accept", "--store-dir", directory, "0"]) == 0
        accepted = load_state(directory).accepted[0]
        report = daemon.poll()
        assert report.reconciled == 1
        assert parse_rule(accepted.rule) in setup.store
        log.close()


    def test_cli_rejection_reaches_a_polling_daemon(self, tmp_path, capsys):
        """Queue-gated daemon → CLI reject → the next poll holds the veto."""
        from repro.experiments.harness import standard_loop_setup
        from repro.mining.patterns import MiningConfig
        from repro.policy.parser import parse_rule
        from repro.refine_daemon import (
            DaemonConfig,
            QueueForReviewGate,
            RefineDaemon,
            StorePolicyTarget,
        )
        from repro.store.durable import DurableAuditLog

        setup = standard_loop_setup(accesses_per_round=800, seed=7)
        log = DurableAuditLog(tmp_path / "trail")
        daemon = RefineDaemon(
            log,
            StorePolicyTarget(setup.store),
            setup.vocabulary,
            QueueForReviewGate(),
            DaemonConfig(mining=MiningConfig(min_support=5, min_distinct_users=2)),
        )
        log.extend(setup.environment.simulate_round(0, setup.store))
        log.seal_active()
        assert daemon.poll().pended > 0
        vetoed = daemon.state.pending[0].rule
        directory = str(log.store.directory)
        assert main(["refine-daemon", "reject", "--store-dir", directory, "0"]) == 0
        daemon.poll(force_mine=True)
        assert vetoed in {c.rule for c in daemon.state.rejected}
        assert vetoed not in {c.rule for c in daemon.state.pending}
        assert parse_rule(vetoed) not in setup.store
        log.close()


class TestSqlCommand:
    def test_explain_renders_plan_with_index_seek(self, capsys, log_file):
        assert main([
            "sql", "explain", "SELECT data FROM audit_log WHERE user = 'ann'",
            "--log", log_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "Project" in out
        assert "IndexSeek audit_log hash(user = 'ann')" in out

    def test_explain_without_log_uses_empty_indexed_table(self, capsys):
        assert main([
            "sql", "explain",
            "SELECT user, COUNT(*) AS n FROM audit_log GROUP BY user "
            "ORDER BY n DESC",
        ]) == 0
        out = capsys.readouterr().out
        assert "Aggregate" in out
        assert "Sort" in out

    def test_query_prints_rows_and_respects_limit(self, capsys, log_file):
        assert main([
            "sql", "query",
            "SELECT user, COUNT(*) AS n FROM audit_log GROUP BY user "
            "ORDER BY n DESC, user",
            "--log", log_file, "-n", "2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "user\tn"
        assert len(lines) <= 4  # header + 2 rows + optional "... more"

    def test_plan_error_is_reported_not_raised(self, capsys, log_file):
        assert main([
            "sql", "query", "SELECT DISTINCT user FROM audit_log ORDER BY time",
            "--log", log_file,
        ]) == 1
        err = capsys.readouterr().err
        assert "ORDER BY expressions must appear in the select list" in err
