"""Command-line interface: ``python -m repro <command>``.

Commands:

``paper``
    Reproduce the paper's worked examples (Figure 3 and Table 1) and
    print paper-vs-measured tables.
``coverage``
    Compute both coverage semantics of a policy file over an audit log,
    with gap explanations and per-attribute breakdown.
``refine``
    Run Algorithm 2 over a policy file and an audit log; print the
    candidate rules (optionally with temporal windows).
``classify``
    Triage an audit log's exceptions into practice vs suspected
    violations.
``simulate``
    Run the closed refinement loop on the synthetic hospital and print
    the round-by-round trajectory (optionally replaying a sample of the
    traffic through active enforcement with ``--enforce-sample``; with
    ``--store-dir`` the cumulative history is persisted in a durable
    segmented store; with
    ``--corpus DIR`` the loop replays a saved corpus bundle's recorded
    trace from the bundle's own documented store).
``corpus``
    Generate (``generate``) and summarise (``stats``) seeded
    HIPAA-derived policy corpora (:mod:`repro.corpus`): hundreds of
    rules, stress scenarios and injected misuse with persisted ground
    truth; ``stats --verify`` regenerates from the manifest spec and
    compares bundle digests.
``triage``
    Mine refinement candidates from a corpus bundle's trace and rank
    them by aggregate explanation strength (:mod:`repro.explain`),
    printing the pre-sorted review queue with verdicts.
``store``
    Inspect and maintain a durable audit store directory:
    ``stats``, ``verify`` (full checksum pass), ``tail`` (newest
    entries), ``compact`` (merge sealed segments).
``metrics``
    Render a telemetry snapshot saved with ``--metrics-out`` as
    Prometheus text or indented JSON.
``serve``
    Run the online policy decision service (NDJSON frames over TCP plus
    ``/healthz``, ``/metrics`` and ``/decide`` over HTTP) on the demo
    clinical database; ``--store-dir`` writes the audit trail through to
    a durable segmented store.
``decide``
    Ask a running decision service for one decision — category-level
    with ``--categories``, or full SQL enforcement with ``--sql``.
``sql``
    Run (``query``) or plan (``explain``) sqlmini statements over an
    audit log materialised as the indexed ``audit_log`` table —
    ``explain`` renders the optimized plan DAG with its index seeks and
    pushed-down predicates.
``trace``
    Inspect a running service's retained request traces: ``list`` /
    ``slow`` summaries, and ``show`` rendering one trace's span tree
    with its decision provenance — or, with ``--store-dir``, an
    accepted refinement candidate's evidence (the concrete exception
    accesses and trace ids that mined it).

Policies are DSL text files (see :mod:`repro.policy.parser`); audit logs
are ``.csv`` or ``.jsonl`` files (see :mod:`repro.audit.io`) or durable
store directories (see :mod:`repro.store`; ``refine --store-dir``); the
vocabulary defaults to the built-in healthcare one and can be overridden
with ``--vocab vocab.json``.

Telemetry: every command runs under the process-wide metrics registry
(:mod:`repro.obs`).  ``--metrics-out PATH`` on ``coverage``, ``refine``
and ``simulate`` saves the end-of-run snapshot as JSON; ``--verbose``
turns on structured DEBUG logging for the ``repro`` logger tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.audit import io as audit_io
from repro.audit.classify import classify_exceptions
from repro.audit.log import AuditLog
from repro.coverage.engine import compute_coverage, compute_entry_coverage
from repro.coverage.gaps import analyse_gaps
from repro.coverage.trends import coverage_by_attribute
from repro.errors import PrimaError
from repro.experiments.reporting import format_table
from repro.obs.exposition import (
    load_snapshot,
    render_prometheus,
    render_summary,
    save_snapshot,
)
from repro.obs.logsetup import configure_logging
from repro.obs.runtime import get_registry
from repro.mining.patterns import MiningConfig
from repro.mining.temporal import hour_extractor, mine_temporal_patterns
from repro.policy.parser import format_rule, parse_policy
from repro.policy.policy import Policy
from repro.refinement.engine import MINERS, RefinementConfig, refine
from repro.refinement.filtering import filter_practice
from repro.vocab import io as vocab_io
from repro.vocab.builtin import healthcare_vocabulary
from repro.vocab.vocabulary import Vocabulary


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.verbose:
        configure_logging(verbose=True)
    try:
        code = arguments.handler(arguments)
        metrics_out = getattr(arguments, "metrics_out", None)
        if code == 0 and metrics_out:
            save_snapshot(get_registry().snapshot(), metrics_out)
            print(f"metrics snapshot written to {metrics_out}")
        return code
    except PrimaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRIMA: privacy policy coverage and refinement for healthcare",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="structured DEBUG logging for the repro logger tree",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    paper = commands.add_parser("paper", help="reproduce the paper's worked examples")
    paper.set_defaults(handler=_cmd_paper)

    coverage = commands.add_parser("coverage", help="coverage of a policy over a log")
    _add_common_inputs(coverage)
    coverage.add_argument(
        "--by", default=None, choices=("authorized", "data", "purpose", "user"),
        help="also break coverage down by this audit attribute",
    )
    _add_metrics_out(coverage)
    coverage.set_defaults(handler=_cmd_coverage)

    refine_cmd = commands.add_parser("refine", help="mine the log for candidate rules")
    _add_common_inputs(refine_cmd, log_required=False)
    refine_cmd.add_argument("--store-dir", default=None, metavar="DIR",
                            help="read the audit log from a durable store "
                                 "directory instead of --log")
    _add_metrics_out(refine_cmd)
    refine_cmd.add_argument("--min-support", type=int, default=5,
                            help="the paper's f threshold (inclusive, default 5)")
    refine_cmd.add_argument("--min-users", type=int, default=2,
                            help="distinct users required (default 2)")
    refine_cmd.add_argument("--miner", choices=MINERS, default="sql")
    refine_cmd.add_argument("--screen-violations", action="store_true",
                            help="drop suspected violations before mining")
    refine_cmd.add_argument("--temporal", action="store_true",
                            help="also propose time-windowed conditional rules")
    refine_cmd.add_argument("--ticks-per-hour", type=int, default=1,
                            help="log ticks per hour for --temporal (default 1)")
    refine_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                            help="shard refinement across N worker processes "
                                 "(results identical to serial; default 1)")
    refine_cmd.set_defaults(handler=_cmd_refine)

    report = commands.add_parser(
        "report", help="full compliance report (coverage, trend, triage, candidates)"
    )
    _add_common_inputs(report)
    report.add_argument("--window", type=int, default=None,
                        help="trend window size in ticks (default: span/10)")
    report.set_defaults(handler=_cmd_report)

    classify = commands.add_parser("classify", help="triage exceptions in a log")
    classify.add_argument("--log", required=True, help="audit log (.csv or .jsonl)")
    classify.set_defaults(handler=_cmd_classify)

    simulate = commands.add_parser("simulate",
                                   help="closed-loop simulation on the synthetic hospital")
    simulate.add_argument("--rounds", type=int, default=6)
    simulate.add_argument("--accesses", type=int, default=5000)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--documented", type=float, default=0.4,
                          help="fraction of the true workflow documented at start")
    simulate.add_argument("--review", choices=("accept-all", "threshold"),
                          default="threshold")
    simulate.add_argument("--enforce-sample", type=int, default=200,
                          help="replay this many simulated accesses through "
                               "active enforcement afterwards (0 disables)")
    simulate.add_argument("--store-dir", default=None, metavar="DIR",
                          help="persist the cumulative audit history in a "
                               "durable segmented store at DIR")
    simulate.add_argument("--corpus", default=None, metavar="DIR",
                          help="replay a saved corpus bundle's recorded trace "
                               "from its own documented store instead of "
                               "simulating fresh traffic (--rounds caps the "
                               "replayed rounds; --accesses/--seed/"
                               "--documented are ignored)")
    _add_metrics_out(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    corpus_cmd = commands.add_parser(
        "corpus", help="generate and inspect HIPAA-derived policy corpora"
    )
    corpus_sub = corpus_cmd.add_subparsers(dest="corpus_command", required=True)
    corpus_generate = corpus_sub.add_parser(
        "generate", help="generate a labelled corpus bundle at a directory"
    )
    corpus_generate.add_argument("--out", required=True, metavar="DIR",
                                 help="bundle directory to write")
    corpus_generate.add_argument("--seed", type=int, default=None)
    corpus_generate.add_argument("--departments", type=int, default=None,
                                 help="clinical departments (default 3)")
    corpus_generate.add_argument("--staff-per-role", type=int, default=None)
    corpus_generate.add_argument("--patients", type=int, default=None)
    corpus_generate.add_argument("--rounds", type=int, default=None)
    corpus_generate.add_argument("--accesses", type=int, default=None,
                                 help="accesses per simulated round")
    corpus_generate.add_argument("--protocol-rules", type=int, default=None,
                                 help="extra ground protocol rules to mint")
    corpus_generate.add_argument("--documented", type=float, default=None,
                                 help="fraction of permits the privacy office "
                                      "documented (default 0.55)")
    corpus_generate.add_argument("--name", default=None)
    corpus_generate.set_defaults(handler=_cmd_corpus_generate)
    corpus_stats = corpus_sub.add_parser(
        "stats", help="summarise a corpus bundle (digest-checked)"
    )
    corpus_stats.add_argument("directory", help="corpus bundle directory")
    corpus_stats.add_argument("--verify", action="store_true",
                              help="regenerate the bundle from its manifest "
                                   "spec and compare digests (exit 1 on "
                                   "mismatch)")
    corpus_stats.set_defaults(handler=_cmd_corpus_stats)

    triage = commands.add_parser(
        "triage",
        help="explanation-ranked triage of mined candidates over a corpus",
    )
    triage.add_argument("--corpus", required=True, metavar="DIR",
                        help="corpus bundle directory (from corpus generate)")
    triage.add_argument("--min-support", type=int, default=5,
                        help="the paper's f threshold (inclusive, default 5)")
    triage.add_argument("--min-users", type=int, default=2,
                        help="distinct users required (default 2)")
    triage.add_argument("--auto-accept", type=float, default=0.75,
                        help="strength at or above which a candidate is "
                             "graded adopt (default 0.75)")
    triage.add_argument("--review-threshold", type=float, default=0.4,
                        help="strength at or above which a candidate is "
                             "graded review rather than investigate "
                             "(default 0.4)")
    triage.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full ranked report as JSON")
    triage.add_argument("-n", "--limit", type=int, default=20,
                        help="print at most N queue rows (default 20)")
    triage.set_defaults(handler=_cmd_triage)

    store_cmd = commands.add_parser(
        "store", help="inspect and maintain a durable audit store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser("stats", help="summarise a store directory")
    store_stats.add_argument("directory", help="durable audit store directory")
    store_stats.set_defaults(handler=_cmd_store_stats)
    store_verify = store_sub.add_parser(
        "verify", help="full checksum pass over every segment"
    )
    store_verify.add_argument("directory", help="durable audit store directory")
    store_verify.set_defaults(handler=_cmd_store_verify)
    store_tail = store_sub.add_parser("tail", help="print the newest entries")
    store_tail.add_argument("directory", help="durable audit store directory")
    store_tail.add_argument("-n", "--count", type=int, default=10,
                            help="how many entries (default 10)")
    store_tail.set_defaults(handler=_cmd_store_tail)
    store_compact = store_sub.add_parser(
        "compact", help="merge sealed segments into full-sized ones"
    )
    store_compact.add_argument("directory", help="durable audit store directory")
    store_compact.set_defaults(handler=_cmd_store_compact)

    serve = commands.add_parser(
        "serve", help="run the online policy decision service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7070,
                       help="TCP port (0 picks an ephemeral one; default 7070)")
    serve.add_argument("--rows", type=int, default=200,
                       help="synthetic patient rows in the demo database")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--rules", default=None, metavar="FILE",
                       help="file of ALLOW rules replacing the demo policy "
                            "(one per line, # comments)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="write the audit trail through to a durable "
                            "segmented store at DIR")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="run a fleet of N worker processes behind one "
                            "shared port (requires --store-dir; default 1 "
                            "serves in-process)")
    serve.add_argument("--listener", choices=("auto", "reuseport", "fd"),
                       default="auto",
                       help="fleet listener mode: SO_REUSEPORT per worker, "
                            "or one supervisor-held fd (default: auto)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the interned decision cache")
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="decision ops executing at once")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="decisions queued before OVERLOADED shedding")
    serve.add_argument("--segment-entries", type=int, default=None, metavar="N",
                       help="seal the durable trail's active segment every N "
                            "entries (rotation cadence; feeds the daemon)")
    serve.add_argument("--refine-daemon", action="store_true",
                       help="embed the online refinement daemon "
                            "(requires --store-dir)")
    serve.add_argument("--refine-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="daemon poll interval (seals wake it early)")
    serve.add_argument("--refine-min-support", type=int, default=5,
                       help="mining threshold frequency f for the daemon")
    serve.add_argument("--refine-min-users", type=int, default=2,
                       help="mining distinct-user floor for the daemon")
    serve.add_argument("--gate", choices=("auto", "queue"), default="auto",
                       help="review gate: auto-accept by thresholds, or "
                            "queue every candidate for `repro refine-daemon`")
    serve.add_argument("--gate-support", type=int, default=10,
                       help="auto gate: minimum support to adopt")
    serve.add_argument("--gate-users", type=int, default=3,
                       help="auto gate: minimum distinct users to adopt")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       help="seconds before an idle connection is dropped")
    serve.add_argument("--deadline", type=float, default=10.0,
                       help="default per-request deadline in seconds")
    serve.add_argument("--trace-sample", type=int, default=64, metavar="N",
                       help="head-sample every N-th request trace "
                            "(errors/shed/slow are always retained)")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable request tracing and decision provenance")
    serve.set_defaults(handler=_cmd_serve)

    daemon_cmd = commands.add_parser(
        "refine-daemon",
        help="inspect the online refinement daemon and review its queue",
    )
    daemon_sub = daemon_cmd.add_subparsers(dest="daemon_command", required=True)
    rd_status = daemon_sub.add_parser(
        "status", help="watermark, rounds and ledger sizes"
    )
    rd_status.add_argument("--store-dir", required=True, metavar="DIR",
                           help="the served durable audit store directory")
    rd_status.set_defaults(handler=_cmd_daemon_status)
    rd_pending = daemon_sub.add_parser(
        "pending", help="list candidates awaiting human review"
    )
    rd_pending.add_argument("--store-dir", required=True, metavar="DIR")
    rd_pending.set_defaults(handler=_cmd_daemon_pending)
    rd_accept = daemon_sub.add_parser(
        "accept", help="accept a pending candidate (adopted at next poll)"
    )
    rd_accept.add_argument("--store-dir", required=True, metavar="DIR")
    rd_accept.add_argument("rule", help="candidate index (from `pending`) or "
                                        "its exact rule DSL")
    rd_accept.add_argument("--note", default="", help="review note")
    rd_accept.set_defaults(handler=_cmd_daemon_accept)
    rd_reject = daemon_sub.add_parser(
        "reject", help="reject a pending candidate (a durable human veto)"
    )
    rd_reject.add_argument("--store-dir", required=True, metavar="DIR")
    rd_reject.add_argument("rule", help="candidate index or exact rule DSL")
    rd_reject.add_argument("--note", default="", help="review note")
    rd_reject.set_defaults(handler=_cmd_daemon_reject)

    fleet_cmd = commands.add_parser(
        "fleet", help="inspect a running multi-worker decision fleet"
    )
    fleet_sub = fleet_cmd.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="per-worker liveness, versions and convergence"
    )
    fleet_status.add_argument("--host", default="127.0.0.1")
    fleet_status.add_argument("--port", type=int, default=7070)
    fleet_status.add_argument("--json", action="store_true",
                              help="print the raw status document")
    fleet_status.set_defaults(handler=_cmd_fleet_status)
    fleet_metrics = fleet_sub.add_parser(
        "metrics", help="merged Prometheus text across every worker"
    )
    fleet_metrics.add_argument("--host", default="127.0.0.1")
    fleet_metrics.add_argument("--port", type=int, default=7070)
    fleet_metrics.set_defaults(handler=_cmd_fleet_metrics)

    decide = commands.add_parser(
        "decide", help="ask a running decision service for one decision"
    )
    decide.add_argument("--host", default="127.0.0.1")
    decide.add_argument("--port", type=int, default=7070)
    decide.add_argument("--user", required=True)
    decide.add_argument("--role", required=True)
    decide.add_argument("--purpose", required=True)
    decide.add_argument("--categories", nargs="+", default=None,
                        help="data categories for a category-level decision")
    decide.add_argument("--sql", default=None,
                        help="run full SQL enforcement instead of --categories")
    decide.add_argument("--exception", action="store_true",
                        help="break-the-glass access (audited as exception)")
    decide.add_argument("--deadline-ms", type=float, default=None)
    decide.set_defaults(handler=_cmd_decide)

    metrics = commands.add_parser("metrics",
                                  help="render a saved telemetry snapshot")
    metrics.add_argument("snapshot",
                         help="snapshot JSON written by --metrics-out")
    metrics.add_argument("--format", choices=("prometheus", "json", "summary"),
                         default="prometheus",
                         help="output format (default: prometheus text; "
                              "'summary' interpolates p50/p90/p99 from the "
                              "log buckets and lists trace exemplars)")
    metrics.set_defaults(handler=_cmd_metrics)

    trace_cmd = commands.add_parser(
        "trace", help="inspect retained request traces on a live server"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    tr_list = trace_sub.add_parser("list", help="newest retained traces")
    tr_list.add_argument("--host", default="127.0.0.1")
    tr_list.add_argument("--port", type=int, default=7070)
    tr_list.add_argument("-n", "--limit", type=int, default=20)
    tr_list.set_defaults(handler=_cmd_trace_list)
    tr_slow = trace_sub.add_parser(
        "slow", help="retained traces by descending duration"
    )
    tr_slow.add_argument("--host", default="127.0.0.1")
    tr_slow.add_argument("--port", type=int, default=7070)
    tr_slow.add_argument("-n", "--limit", type=int, default=20)
    tr_slow.set_defaults(handler=_cmd_trace_slow)
    tr_show = trace_sub.add_parser(
        "show",
        help="span tree of one trace id, or the evidence of a refinement "
             "candidate (with --store-dir)",
    )
    tr_show.add_argument(
        "target",
        help="a 32-hex trace id (fetched from the server), or — with "
             "--store-dir — an accepted/pending candidate's index or rule DSL",
    )
    tr_show.add_argument("--host", default="127.0.0.1")
    tr_show.add_argument("--port", type=int, default=7070)
    tr_show.add_argument("--store-dir", default=None, metavar="DIR",
                         help="resolve the target against this store's "
                              "refinement ledger instead of the trace store")
    tr_show.set_defaults(handler=_cmd_trace_show)

    sql_cmd = commands.add_parser(
        "sql", help="run or explain sqlmini queries over an audit log"
    )
    sql_sub = sql_cmd.add_subparsers(dest="sql_command", required=True)
    sql_explain = sql_sub.add_parser(
        "explain",
        help="render the optimized plan DAG (index seeks, pushed predicates)",
    )
    sql_explain.add_argument("statement", help="a SELECT over the audit_log table")
    sql_explain.add_argument(
        "--log", default=None,
        help="audit log (.csv or .jsonl) to materialise as audit_log; "
             "default: an empty audit_log table",
    )
    sql_explain.set_defaults(handler=_cmd_sql_explain)
    sql_query = sql_sub.add_parser(
        "query", help="execute a SELECT over the audit_log table"
    )
    sql_query.add_argument("statement", help="a SELECT over the audit_log table")
    sql_query.add_argument(
        "--log", default=None,
        help="audit log (.csv or .jsonl) to materialise as audit_log",
    )
    sql_query.add_argument("-n", "--limit", type=int, default=50,
                           help="print at most N rows (default 50)")
    sql_query.set_defaults(handler=_cmd_sql_query)

    return parser


def _add_common_inputs(
    command: argparse.ArgumentParser, log_required: bool = True
) -> None:
    command.add_argument("--store", required=True, help="policy DSL file")
    command.add_argument("--log", required=log_required,
                         help="audit log (.csv or .jsonl)")
    command.add_argument("--vocab", default=None, help="vocabulary JSON (default: built-in)")


def _add_metrics_out(command: argparse.ArgumentParser) -> None:
    command.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="save the telemetry snapshot as JSON on success")


def _load_vocabulary(path: str | None) -> Vocabulary:
    if path is None:
        return healthcare_vocabulary()
    return vocab_io.load(path)


def _load_policy(path: str) -> Policy:
    """Load a policy from DSL text, or from a store JSON (``.json``)."""
    if Path(path).suffix.lower() == ".json":
        from repro.policy import store_io

        return store_io.load(path).policy()
    return parse_policy(Path(path).read_text(encoding="utf-8"), source="PS")


def _load_log(path: str) -> AuditLog:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return audit_io.load_csv(path)
    if suffix in (".jsonl", ".ndjson"):
        return audit_io.load_jsonl(path)
    raise PrimaError(f"unsupported audit log format {suffix!r} (use .csv or .jsonl)")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _cmd_paper(arguments: argparse.Namespace) -> int:
    from repro.experiments.paper import reproduce_figure3, reproduce_table1

    fig3 = reproduce_figure3()
    print(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["#Range(P_PS)", 8, fig3.store_range_size],
                ["#Range(P_AL)", 6, fig3.audit_range_size],
                ["coverage", "50%", f"{fig3.coverage:.0%}"],
            ],
            title="Figure 3 (Section 3.3)",
        )
    )
    print()
    table1 = reproduce_table1()
    print(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ["entry coverage before", "30%",
                 f"{table1.entry_coverage_before.ratio:.0%}"],
                ["patterns mined", 1, len(table1.patterns)],
                ["pattern support", 5, table1.patterns[0].support],
                ["entry coverage after", "80%",
                 f"{table1.entry_coverage_after.ratio:.0%}"],
            ],
            title="Table 1 (Section 5)",
        )
    )
    return 0


def _cmd_coverage(arguments: argparse.Namespace) -> int:
    vocabulary = _load_vocabulary(arguments.vocab)
    store = _load_policy(arguments.store)
    log = _load_log(arguments.log)
    audit_policy = log.to_policy()
    set_report = compute_coverage(store, audit_policy, vocabulary)
    entry_report = compute_entry_coverage(store, iter(audit_policy), vocabulary)
    print(f"set coverage   : {set_report.ratio:.1%} "
          f"({set_report.overlap.cardinality}/{set_report.reference.cardinality})")
    print(f"entry coverage : {entry_report.ratio:.1%} "
          f"({entry_report.matched}/{entry_report.total})")
    gaps = analyse_gaps(set_report, store, vocabulary)
    if gaps.deviations:
        print("\ndeviations:")
        for deviation in gaps.deviations:
            print(f"  - {deviation.describe()}")
    if gaps.unexplained:
        print("\nno near-miss in the store:")
        for rule in gaps.unexplained:
            print(f"  - {rule}")
    if arguments.by:
        print(f"\nentry coverage by {arguments.by}:")
        for item in coverage_by_attribute(store, log, vocabulary, arguments.by):
            print(f"  {item.value:20s} {item.entry_coverage:7.1%} "
                  f"({item.matched}/{item.entries})")
    return 0


def _resolve_refine_log(arguments: argparse.Namespace):
    """Pick the audit source for ``refine``: ``--log`` xor ``--store-dir``."""
    if (arguments.log is None) == (arguments.store_dir is None):
        raise PrimaError(
            "refine needs exactly one audit source: --log FILE or --store-dir DIR"
        )
    if arguments.store_dir is not None:
        from repro.store.durable import DurableAuditLog

        return DurableAuditLog(arguments.store_dir, create=False)
    return _load_log(arguments.log)


def _cmd_refine(arguments: argparse.Namespace) -> int:
    vocabulary = _load_vocabulary(arguments.vocab)
    store = _load_policy(arguments.store)
    log = _resolve_refine_log(arguments)
    execution = None
    if arguments.workers > 1:
        from repro.parallel.execution import ExecutionPolicy

        execution = ExecutionPolicy(workers=arguments.workers)
    config = RefinementConfig(
        mining=MiningConfig(
            min_support=arguments.min_support,
            min_distinct_users=arguments.min_users,
        ),
        miner=arguments.miner,
        exclude_suspected_violations=arguments.screen_violations,
        execution=execution,
    )
    result = refine(store, log, vocabulary, config)
    print(result.summary())
    if result.useful_patterns:
        print("\ncandidate rules (policy DSL):")
        for pattern in result.useful_patterns:
            print(f"  {format_rule(pattern.rule)}"
                  f"   # support={pattern.support}, users={pattern.distinct_users}")
    if arguments.temporal:
        practice = filter_practice(log)
        temporal = mine_temporal_patterns(
            practice,
            config.mining,
            hour_of=hour_extractor(ticks_per_hour=arguments.ticks_per_hour),
        )
        if temporal:
            print("\ntime-windowed candidates:")
            for item in temporal:
                print(f"  {item.to_conditional_rule().to_dsl()}"
                      f"   # concentration={item.concentration:.0%}")
    return 0


def _cmd_report(arguments: argparse.Namespace) -> int:
    from repro.audit.reports import compliance_report

    vocabulary = _load_vocabulary(arguments.vocab)
    store = _load_policy(arguments.store)
    log = _load_log(arguments.log)
    result = compliance_report(store, log, vocabulary, window_size=arguments.window)
    print(result.render())
    return 0


def _cmd_classify(arguments: argparse.Namespace) -> int:
    log = _load_log(arguments.log)
    report = classify_exceptions(log)
    print(f"exceptions          : {len(log.exceptions())}")
    print(f"judged practice     : {len(report.practice)}")
    print(f"suspected violations: {len(report.violations)}")
    flagged = [item for item in report.classified if item.verdict == "violation"]
    if flagged:
        print("\nflagged entries:")
        for item in flagged[:20]:
            print(f"  t{item.entry.time} {item.entry.user} {item.entry.to_rule()} "
                  f"(support={item.support}, users={item.distinct_users})")
        if len(flagged) > 20:
            print(f"  ... and {len(flagged) - 20} more")
    return 0


def _cmd_corpus_generate(arguments: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.corpus import (
        CorpusSpec,
        corpus_stats,
        generate_corpus,
        render_stats,
        save_corpus,
        simulate_corpus_trace,
    )

    overrides = {
        field: value
        for field, value in (
            ("seed", arguments.seed),
            ("departments", arguments.departments),
            ("staff_per_role", arguments.staff_per_role),
            ("patients", arguments.patients),
            ("rounds", arguments.rounds),
            ("accesses_per_round", arguments.accesses),
            ("protocol_rules", arguments.protocol_rules),
            ("documented_fraction", arguments.documented),
            ("name", arguments.name),
        )
        if value is not None
    }
    spec = replace(CorpusSpec(), **overrides)
    corpus = generate_corpus(spec)
    trace = simulate_corpus_trace(corpus)
    digest = save_corpus(corpus, trace, arguments.out)
    print(render_stats(corpus_stats(arguments.out)))
    print(f"bundle written to {arguments.out} (digest {digest[:16]}…)")
    return 0


def _cmd_corpus_stats(arguments: argparse.Namespace) -> int:
    from repro.corpus import (
        corpus_stats,
        load_corpus,
        render_stats,
        verify_determinism,
    )

    bundle = load_corpus(arguments.directory)
    print(render_stats(corpus_stats(bundle)))
    if arguments.verify:
        matches, recorded, regenerated = verify_determinism(bundle)
        if not matches:
            print(f"DETERMINISM VIOLATION: recorded digest {recorded} but "
                  f"regeneration produced {regenerated}", file=sys.stderr)
            return 1
        print(f"determinism verified: regeneration reproduces {recorded[:16]}…")
    return 0


def _cmd_triage(arguments: argparse.Namespace) -> int:
    from repro.corpus import load_corpus
    from repro.explain import (
        ExplanationContext,
        TriageThresholds,
        build_index,
        mine_template_weights,
        triage_patterns,
    )
    from repro.parallel.refine import TrailAggregate, fold_and_finish

    bundle = load_corpus(arguments.corpus)
    context = ExplanationContext(bundle.state, bundle.log)
    weights = mine_template_weights(bundle.log, context)
    index = build_index(bundle.log, context, weights)
    trail = fold_and_finish(
        TrailAggregate(),
        bundle.log,
        bundle.store.policy(),
        bundle.vocabulary,
        RefinementConfig(
            mining=MiningConfig(
                min_support=arguments.min_support,
                min_distinct_users=arguments.min_users,
            )
        ),
    )
    report = triage_patterns(
        trail.prune.useful,
        index,
        TriageThresholds(
            auto_accept=arguments.auto_accept,
            review=arguments.review_threshold,
        ),
    )
    counts = report.counts()
    print(f"candidates: {len(report.candidates)}  "
          f"adopt: {counts['adopt']}  review: {counts['review']}  "
          f"investigate: {counts['investigate']}")
    rows = [
        [rank, f"{candidate.strength:.3f}", candidate.verdict,
         candidate.pattern.support, candidate.pattern.distinct_users,
         format_rule(candidate.pattern.rule)]
        for rank, candidate in enumerate(
            report.candidates[: arguments.limit], start=1
        )
    ]
    if rows:
        print(format_table(
            ["#", "strength", "verdict", "support", "users", "candidate rule"],
            rows,
            title="explanation-ranked review queue",
        ))
    if len(report.candidates) > arguments.limit:
        print(f"... and {len(report.candidates) - arguments.limit} more")
    if arguments.json:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        Path(arguments.json).write_text(payload + "\n", encoding="utf-8")
        print(f"full report written to {arguments.json}")
    return 0


def _cmd_simulate(arguments: argparse.Namespace) -> int:
    from repro.experiments.harness import run_refinement_loop, standard_loop_setup
    from repro.refinement.review import AcceptAll, ThresholdReview

    review = AcceptAll() if arguments.review == "accept-all" else ThresholdReview()
    if arguments.corpus is not None:
        return _simulate_corpus_replay(arguments, review)
    setup = standard_loop_setup(
        documented_fraction=arguments.documented,
        accesses_per_round=arguments.accesses,
        seed=arguments.seed,
    )
    durable = None
    if arguments.store_dir is not None:
        from repro.store.durable import DurableAuditLog

        durable = DurableAuditLog(arguments.store_dir, name="cumulative")
    result = run_refinement_loop(
        setup,
        review,
        rounds=arguments.rounds,
        cumulative_log=durable,
    )
    _print_rounds(result, f"refinement loop ({arguments.review} review)")
    if arguments.enforce_sample > 0:
        from repro.experiments.harness import replay_through_enforcement

        stats = replay_through_enforcement(
            result.cumulative_log,
            sample_size=arguments.enforce_sample,
            seed=arguments.seed,
        )
        print(stats.summary())
    if durable is not None:
        durable.sync()
        print(durable.stats().summary())
        durable.close()
        print(f"cumulative history persisted at {arguments.store_dir}")
    return 0


def _simulate_corpus_replay(arguments: argparse.Namespace, review) -> int:
    """``simulate --corpus``: refinement over a bundle's recorded trace."""
    from repro.corpus import load_corpus
    from repro.experiments.harness import ReplayEnvironment
    from repro.refinement.loop import RefinementLoop

    bundle = load_corpus(arguments.corpus)
    spec = bundle.spec
    per_round = spec.accesses_per_round
    entries = tuple(bundle.log)
    windows = [
        entries[start:start + per_round]
        for start in range(0, len(entries), per_round)
    ]
    rounds = min(arguments.rounds, len(windows))
    loop = RefinementLoop(
        ReplayEnvironment(windows[:rounds]),
        bundle.store.clone(),
        bundle.vocabulary,
        review,
    )
    result = loop.run(rounds)
    _print_rounds(result, f"corpus replay ({spec.name}, {arguments.review} review)")
    return 0


def _print_rounds(result, title: str) -> None:
    """Print a loop run's round-by-round trajectory."""
    print(
        format_table(
            ["round", "entries", "exc-rate", "entry-cov", "accepted", "store"],
            [
                [r.round_index, r.entries, f"{r.exception_rate:.1%}",
                 f"{r.entry_coverage_after:.1%}", r.rules_accepted,
                 r.store_size_after]
                for r in result.rounds
            ],
            title=title,
        )
    )


def _open_store(directory: str):
    """Open an existing durable store directory for a ``store`` subcommand."""
    from repro.store.store import AuditStore

    return AuditStore(directory, create=False)


def _cmd_store_stats(arguments: argparse.Namespace) -> int:
    with _open_store(arguments.directory) as store:
        print(store.stats().summary())
    return 0


def _cmd_store_verify(arguments: argparse.Namespace) -> int:
    with _open_store(arguments.directory) as store:
        report = store.verify()
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_store_tail(arguments: argparse.Namespace) -> int:
    with _open_store(arguments.directory) as store:
        entries = store.tail(arguments.count)
    for entry in entries:
        print(f"t{entry.time} {entry.op.name.lower()} {entry.user} "
              f"{entry.data} {entry.purpose} as {entry.authorized} "
              f"[{entry.status.name.lower()}]")
    if not entries:
        print("(store is empty)")
    return 0


def _cmd_store_compact(arguments: argparse.Namespace) -> int:
    with _open_store(arguments.directory) as store:
        report = store.compact()
    print(report.summary())
    return 0


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.obs import trace as obstrace
    from repro.serve import PdpServer, ServerConfig, build_demo_engine

    # install the tracer before anything captures it (server, daemon)
    if arguments.no_trace:
        obstrace.set_tracer(obstrace.NULL_TRACER)
    elif arguments.trace_sample != obstrace.get_tracer().sample_every:
        obstrace.set_tracer(obstrace.Tracer(sample_every=arguments.trace_sample))
    rules = None
    if arguments.rules is not None:
        rules = [
            line.strip()
            for line in Path(arguments.rules).read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    if arguments.workers > 1:
        return _serve_fleet(arguments, rules)
    audit_log = None
    if arguments.store_dir is not None:
        from repro.store.durable import DurableAuditLog
        from repro.store.store import StoreConfig

        store_config = None
        if arguments.segment_entries is not None:
            store_config = StoreConfig(max_segment_entries=arguments.segment_entries)
        audit_log = DurableAuditLog(
            arguments.store_dir, config=store_config, name="served"
        )
    engine = build_demo_engine(
        rows=arguments.rows,
        seed=arguments.seed,
        rules=rules,
        audit_log=audit_log,
        cache=not arguments.no_cache,
        cache_size=arguments.cache_size,
    )
    if audit_log is not None and not arguments.no_trace:
        # spool decision provenance next to the store manifest so the
        # why-records (and candidate evidence links) survive the process
        from repro.obs.provenance import PROVENANCE_NAME, ProvenanceLedger

        engine.provenance = ProvenanceLedger(
            Path(arguments.store_dir) / PROVENANCE_NAME
        )
    runner = None
    daemon = None
    if arguments.refine_daemon:
        if audit_log is None:
            print("--refine-daemon needs --store-dir (a durable trail to tail)")
            return 2
        from repro.mining.patterns import MiningConfig
        from repro.refine_daemon import (
            AutoAcceptGate,
            DaemonConfig,
            DaemonThread,
            EnginePolicyTarget,
            QueueForReviewGate,
            RefineDaemon,
        )
        from repro.vocab.builtin import healthcare_vocabulary

        gate = (
            AutoAcceptGate(arguments.gate_support, arguments.gate_users)
            if arguments.gate == "auto"
            else QueueForReviewGate()
        )
        daemon = RefineDaemon(
            audit_log,
            EnginePolicyTarget(engine),
            healthcare_vocabulary(),
            gate,
            DaemonConfig(
                mining=MiningConfig(
                    min_support=arguments.refine_min_support,
                    min_distinct_users=arguments.refine_min_users,
                )
            ),
        )
        runner = DaemonThread(daemon, interval=arguments.refine_interval)
    server = PdpServer(
        engine,
        ServerConfig(
            host=arguments.host,
            port=arguments.port,
            max_inflight=arguments.max_inflight,
            max_queue=arguments.max_queue,
            idle_timeout=arguments.idle_timeout,
            default_deadline=arguments.deadline,
        ),
        daemon=daemon,
    )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.shutdown())
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        print(f"pdp server listening on {server.host}:{server.port}", flush=True)
        await server.wait_closed()

    if runner is not None:
        runner.start()
        print(
            f"refinement daemon tailing {arguments.store_dir} "
            f"every {arguments.refine_interval:g}s (gate={arguments.gate})",
            flush=True,
        )
    try:
        asyncio.run(_run())
    finally:
        if runner is not None:
            runner.stop()
        engine.provenance.close()
    print("pdp server stopped (audit trail flushed)")
    if audit_log is not None:
        audit_log.close()
        print(f"durable trail persisted at {arguments.store_dir}")
    return 0


def _serve_fleet(arguments: argparse.Namespace, rules) -> int:
    """The ``repro serve --workers N`` path: a supervised process fleet."""
    import signal

    from repro.fleet import FleetConfig, FleetSupervisor

    if arguments.store_dir is None:
        print("--workers needs --store-dir: each worker writes its own "
              "durable audit segment directory under it")
        return 2
    config = FleetConfig(
        store_dir=arguments.store_dir,
        workers=arguments.workers,
        host=arguments.host,
        port=arguments.port,
        rows=arguments.rows,
        seed=arguments.seed,
        rules=tuple(rules) if rules is not None else None,
        cache=not arguments.no_cache,
        cache_size=arguments.cache_size,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        segment_entries=arguments.segment_entries,
        listener=arguments.listener,
    )
    supervisor = FleetSupervisor(config)
    supervisor.start()
    try:
        if arguments.refine_daemon:
            from repro.mining.patterns import MiningConfig
            from repro.refine_daemon import (
                AutoAcceptGate,
                DaemonConfig,
                QueueForReviewGate,
            )

            gate = (
                AutoAcceptGate(arguments.gate_support, arguments.gate_users)
                if arguments.gate == "auto"
                else QueueForReviewGate()
            )
            supervisor.attach_daemon(
                gate,
                config=DaemonConfig(
                    mining=MiningConfig(
                        min_support=arguments.refine_min_support,
                        min_distinct_users=arguments.refine_min_users,
                    )
                ),
                interval=arguments.refine_interval,
            )
            print(
                f"fleet refinement daemon tailing {arguments.store_dir} "
                f"every {arguments.refine_interval:g}s "
                f"(gate={arguments.gate})",
                flush=True,
            )
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(
                    signum, lambda *_: supervisor.request_shutdown()
                )
            except (ValueError, OSError):
                pass  # non-main thread or platform without signal support
        print(
            f"pdp fleet of {config.workers} workers listening on "
            f"{supervisor.host}:{supervisor.port} "
            f"({supervisor.listener_mode} listener)",
            flush=True,
        )
        supervisor.wait()
    finally:
        supervisor.shutdown()
    print(f"pdp fleet stopped (per-worker trails under {arguments.store_dir})")
    return 0


def _cmd_fleet_status(arguments: argparse.Namespace) -> int:
    from repro.serve import PdpClient

    with PdpClient(arguments.host, arguments.port) as client:
        status = client.fleet_status()
    if not status.get("ok"):
        print(f"fleet status failed: {status.get('error')}")
        return 1
    if arguments.json:
        print(json.dumps({k: v for k, v in status.items() if k != "ok"},
                         indent=2, default=str))
        return 0
    print(f"fleet of {status.get('size')} workers on "
          f"{status.get('host')}:{status.get('port')} "
          f"({status.get('listener')} listener)")
    print(f"  ready / converged : {status.get('ready')} / "
          f"{status.get('converged')}")
    print(f"  control version   : {status.get('control_version')} "
          f"(oplog {status.get('oplog')} ops, "
          f"{status.get('respawns')} respawns)")
    for worker in status.get("workers", ()):
        versions = worker.get("versions") or {}
        print(f"  {worker.get('site')}: pid={worker.get('pid')} "
              f"port={worker.get('port')} ready={worker.get('ready')} "
              f"entries={worker.get('audit_entries', '?')} "
              f"policy=v{versions.get('policy', '?')} "
              f"consent=v{versions.get('consent', '?')}")
    daemon = status.get("refine_daemon")
    if daemon:
        print(f"  refine daemon     : watermark "
              f"{daemon.get('watermark_entries')} "
              f"(lag {daemon.get('lag_entries')}), "
              f"{daemon.get('pending')} pending, "
              f"{daemon.get('accepted')} accepted")
    return 0


def _cmd_fleet_metrics(arguments: argparse.Namespace) -> int:
    from repro.serve import PdpClient

    with PdpClient(arguments.host, arguments.port) as client:
        response = client.fleet_metrics()
    if not response.get("ok"):
        print(f"fleet metrics failed: {response.get('error')}")
        return 1
    print(response.get("metrics", ""), end="")
    return 0


def _resolve_pending(state, token: str):
    """A pending candidate by index (as printed) or exact rule DSL."""
    if token.isdigit():
        index = int(token)
        if 0 <= index < len(state.pending):
            return state.pending[index]
        return None
    return state.find_pending(token)


def _cmd_daemon_status(arguments: argparse.Namespace) -> int:
    from repro.refine_daemon import load_state

    state = load_state(arguments.store_dir)
    print(f"daemon state for {arguments.store_dir}")
    print(f"  watermark entries : {state.watermark}")
    print(f"  segments consumed : {len(state.segments_consumed)}")
    print(f"  polls / rounds    : {state.polls} / {state.rounds}")
    if state.last_set_coverage is not None:
        print(f"  set coverage      : {state.last_set_coverage:.3f}")
        print(f"  entry coverage    : {state.last_entry_coverage:.3f}")
    print(f"  pending / accepted / rejected : "
          f"{len(state.pending)} / {len(state.accepted)} / {len(state.rejected)}")
    return 0


def _cmd_daemon_pending(arguments: argparse.Namespace) -> int:
    from repro.refine_daemon import load_state

    state = load_state(arguments.store_dir)
    if not state.pending:
        print("no candidates pending review")
        return 0
    for index, candidate in enumerate(state.pending):
        print(f"[{index}] {candidate.rule}  "
              f"(support={candidate.support}, "
              f"users={candidate.distinct_users}, "
              f"round={candidate.round_index})")
    print(f"{len(state.pending)} pending; decide with "
          f"`repro refine-daemon accept|reject --store-dir "
          f"{arguments.store_dir} <index|rule>`")
    return 0


def _cmd_daemon_accept(arguments: argparse.Namespace) -> int:
    from repro.refine_daemon import load_state, save_state

    state = load_state(arguments.store_dir)
    candidate = _resolve_pending(state, arguments.rule)
    if candidate is None:
        print(f"no pending candidate matches {arguments.rule!r} "
              f"(see `repro refine-daemon pending`)")
        return 1
    state.pending.remove(candidate)
    candidate.decided_by = "cli-review"
    candidate.note = arguments.note
    state.accepted.append(candidate)
    save_state(arguments.store_dir, state)
    print(f"accepted: {candidate.rule}")
    print("the daemon adopts it into the serving policy at its next poll")
    return 0


def _cmd_daemon_reject(arguments: argparse.Namespace) -> int:
    from repro.refine_daemon import load_state, save_state

    state = load_state(arguments.store_dir)
    candidate = _resolve_pending(state, arguments.rule)
    if candidate is None:
        print(f"no pending candidate matches {arguments.rule!r} "
              f"(see `repro refine-daemon pending`)")
        return 1
    state.pending.remove(candidate)
    candidate.decided_by = "cli-review"
    candidate.note = arguments.note
    state.rejected.append(candidate)
    save_state(arguments.store_dir, state)
    print(f"rejected: {candidate.rule} (a durable veto — it will not be "
          f"re-proposed)")
    return 0


def _cmd_decide(arguments: argparse.Namespace) -> int:
    import json

    from repro.serve import PdpClient

    if (arguments.categories is None) == (arguments.sql is None):
        raise PrimaError(
            "decide needs exactly one request shape: --categories ... or --sql SQL"
        )
    with PdpClient(arguments.host, arguments.port) as client:
        if arguments.sql is not None:
            response = client.query(
                arguments.user, arguments.role, arguments.purpose, arguments.sql,
                exception=arguments.exception, deadline_ms=arguments.deadline_ms,
            )
        else:
            response = client.decide(
                arguments.user, arguments.role, arguments.purpose,
                arguments.categories, exception=arguments.exception,
                deadline_ms=arguments.deadline_ms,
            )
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    import json

    snapshot = load_snapshot(arguments.snapshot)
    if arguments.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif arguments.format == "summary":
        print(render_summary(snapshot), end="")
    else:
        print(render_prometheus(snapshot), end="")
    return 0


# ----------------------------------------------------------------------
# trace inspection
# ----------------------------------------------------------------------


def _http_get_json(host: str, port: int, path: str) -> dict:
    """One HTTP GET against the serve shim, decoded as JSON."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    url = f"http://{host}:{port}{path}"
    try:
        with urlopen(url, timeout=10.0) as response:
            return json.loads(response.read().decode("utf-8"))
    except HTTPError as error:
        try:
            return json.loads(error.read().decode("utf-8"))
        except (ValueError, OSError):
            raise PrimaError(f"{url} answered HTTP {error.code}") from error
    except (URLError, OSError, ValueError) as error:
        raise PrimaError(f"could not reach {url}: {error}") from error


def _print_trace_summaries(traces: list[dict]) -> None:
    for trace in traces:
        keep = ",".join(trace.get("keep", [])) or "-"
        print(f"{trace['trace_id']}  {trace['name']:<28} "
              f"{trace['duration_ms']:>9.3f}ms  spans={trace['spans']:<3} "
              f"keep={keep}")


def _cmd_trace_list(arguments: argparse.Namespace) -> int:
    payload = _http_get_json(
        arguments.host, arguments.port, f"/traces?limit={arguments.limit}"
    )
    traces = payload.get("traces", [])
    if not traces:
        print("no retained traces (send traffic, or lower --trace-sample)")
        return 0
    _print_trace_summaries(traces)
    stats = payload.get("tracer", {})
    print(f"{len(traces)} shown; tracer started={stats.get('started')} "
          f"kept={stats.get('kept')} dropped={stats.get('dropped')}")
    return 0


def _cmd_trace_slow(arguments: argparse.Namespace) -> int:
    payload = _http_get_json(
        arguments.host, arguments.port,
        f"/traces?slow=1&limit={arguments.limit}",
    )
    traces = payload.get("traces", [])
    if not traces:
        print("no retained traces (send traffic, or lower --trace-sample)")
        return 0
    _print_trace_summaries(traces)
    return 0


def _render_span_tree(trace: dict) -> list[str]:
    """Indented span-tree lines for one full trace record."""
    spans = trace.get("spans", [])
    ids = {span["span_id"] for span in spans}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        if span["parent_id"] in ids:
            children.setdefault(span["parent_id"], []).append(span)
        else:
            roots.append(span)
    for group in children.values():
        group.sort(key=lambda s: s["start_ms"])
    roots.sort(key=lambda s: s["start_ms"])
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        labels = "".join(
            f" {key}={value}" for key, value in sorted(span["labels"].items())
        )
        error = f"  ERROR={span['error']}" if span.get("error") else ""
        lines.append(
            f"{'  ' * depth}- {span['name']}{labels}  "
            f"+{span['start_ms']:.3f}ms  {span['duration_ms']:.3f}ms{error}"
        )
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return lines


def _print_full_trace(trace: dict) -> None:
    keep = ",".join(trace.get("keep", [])) or "-"
    print(f"trace {trace['trace_id']}  ({trace['name']}, "
          f"{trace['duration_ms']:.3f}ms, keep={keep})")
    if trace.get("parent_id"):
        print(f"  remote parent span: {trace['parent_id']}")
    annotations = trace.get("annotations") or {}
    for key, value in sorted(annotations.items()):
        print(f"  {key}: {value}")
    for line in _render_span_tree(trace):
        print(f"  {line}")
    for record in trace.get("provenance", []):
        print(f"  provenance: op={record['op']} decision={record['decision']} "
              f"cache={record['cache']} entries={record['entry_ids']} "
              f"matched={record['matched_rules']}")


def _cmd_trace_show(arguments: argparse.Namespace) -> int:
    import re as _re

    if arguments.store_dir is None:
        if not _re.fullmatch(r"[0-9a-f]{32}", arguments.target):
            print(f"{arguments.target!r} is not a 32-hex trace id; to look "
                  f"up a refinement candidate, pass --store-dir DIR")
            return 2
        trace = _http_get_json(
            arguments.host, arguments.port, f"/traces/{arguments.target}"
        )
        if "trace_id" not in trace:
            print(trace.get("error", f"no retained trace {arguments.target}"))
            return 1
        _print_full_trace(trace)
        return 0

    from repro.refine_daemon import load_state

    state = load_state(arguments.store_dir)
    ledger = state.accepted + state.pending
    candidate = None
    if arguments.target.isdigit() and int(arguments.target) < len(ledger):
        candidate = ledger[int(arguments.target)]
    else:
        for entry in ledger:
            if entry.rule == arguments.target:
                candidate = entry
                break
    if candidate is None:
        print(f"no accepted/pending candidate matches {arguments.target!r} "
              f"in {arguments.store_dir}")
        return 1
    print(f"candidate: {candidate.rule}")
    print(f"  support={candidate.support} users={candidate.distinct_users} "
          f"round={candidate.round_index} decided_by={candidate.decided_by or '-'}")
    if candidate.trace_id:
        print(f"  mined by daemon poll trace: {candidate.trace_id}")
    if candidate.evidence_entries:
        print(f"  evidence audit entries: {candidate.evidence_entries}")
    else:
        print("  evidence audit entries: (none recorded — pre-tracing state?)")
    if candidate.evidence_traces:
        print(f"  evidence traces: {candidate.evidence_traces}")
    for trace_id in [candidate.trace_id, *candidate.evidence_traces]:
        if not trace_id:
            continue
        try:
            trace = _http_get_json(
                arguments.host, arguments.port, f"/traces/{trace_id}"
            )
        except PrimaError:
            print(f"  (server unreachable — cannot render trace {trace_id})")
            break
        if "trace_id" in trace:
            _print_full_trace(trace)
        else:
            print(f"  trace {trace_id}: no longer retained on the server")
    return 0


def _sql_database(log_path: str | None):
    from repro.audit.schema import audit_table_schema, create_audit_indexes
    from repro.sqlmini.database import Database

    database = Database("cli")
    if log_path:
        log = _load_log(log_path)
        log.to_table(database, "audit_log", index=True)
    else:
        table = database.create_table(audit_table_schema("audit_log"))
        create_audit_indexes(table)
    return database


def _cmd_sql_explain(arguments: argparse.Namespace) -> int:
    database = _sql_database(arguments.log)
    print(database.explain(arguments.statement))
    return 0


def _cmd_sql_query(arguments: argparse.Namespace) -> int:
    database = _sql_database(arguments.log)
    result = database.query(arguments.statement)
    print("\t".join(result.columns))
    shown = result.rows[: max(arguments.limit, 0)]
    for row in shown:
        print("\t".join("NULL" if value is None else str(value) for value in row))
    if len(result.rows) > len(shown):
        print(f"... and {len(result.rows) - len(shown)} more rows")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
