"""Steadiness check: is every end-to-end metric steady within its bound?

Runs each workload N times (seeds ``base .. base+N-1``) in a *session*,
plus one traced run at :data:`TRACE_SEED`, saves the raw results, and
compares sessions the way the acceptance check does:

* within a session, the spread of each end-to-end metric — the distance
  between the first and third quartile
  (``statistics.quantiles(values, n=4)``) as a share of the median —
  against the metric's bound from ``BENCHMARK.json`` (the target is a
  third of the bound);
* across two sessions, how much the second median is worse than the
  first, against the bound;
* the exact metrics — :data:`metrics.EXACT` over every untraced run and
  every per-layer ``count`` over the traced runs — must read the same in
  every run of a workload.

Every run's ``host.steal_share`` is printed too, to tell a slow host
from a slow program.  A single session can look steady and still drift,
so sessions are taken in separate invocations, at different times, and
compared afterwards::

    python3 perfbench/steady.py run --runs 10 --out s1.json
    python3 perfbench/steady.py run --runs 10 --out s2.json   # later
    python3 perfbench/steady.py compare s1.json s2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
#: the seed of each session's traced run, the same in every session so
#: that counts which depend on the seed's request order compare equal
TRACE_SEED = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    spec = _spec()
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    started = time.perf_counter()
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    info = {}
    if len(lines) > 1 and lines[-2].startswith("# info "):
        info = json.loads(lines[-2][len("# info "):])
    result = json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "steal": info.get("host_steal_share"),
        "info": info,
    }


def session(workloads, runs: int, base: int, seconds: int) -> list[dict]:
    """One session: every workload ``runs`` times, seeds in order, then
    once traced."""
    out = []
    for workload in workloads:
        for seed, trace in [(s, 0) for s in range(base, base + runs)] + [(TRACE_SEED, 1)]:
            record = _one(workload, seed, seconds, trace)
            out.append(record)
            print(
                f"  {workload} seed={seed} trace={trace} wall={record['wall_s']:.1f}s "
                f"correct={record['correct']} steal={record['steal']}",
                flush=True,
            )
    return out


def _records(records, workload, trace=0):
    return [r for r in records if r["workload"] == workload and r.get("trace", 0) == trace]


def _summary(records, workload, name):
    values = [r["metrics"][name] for r in _records(records, workload)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def _exact(sessions, workload) -> bool:
    """Print every exact metric that differs between runs; True if none."""
    checks = [(0, name) for name in metrics.EXACT] + [
        (1, name) for name, (unit, _) in metrics.PER_LAYER.items() if unit == "count"
    ]
    ok = True
    for trace, name in checks:
        values = [
            r["metrics"][name] for records in sessions
            for r in _records(records, workload, trace)
        ]
        if len(set(values)) > 1:
            print(f"  COUNT DIFFERS {name}: " + " ".join(f"{v:.10g}" for v in values))
            ok = False
    traced = sum(len(_records(records, workload, 1)) for records in sessions)
    print(f"  exact metrics: {'identical' if ok else 'DIFFER'} "
          f"({len(metrics.EXACT)} end-to-end, per-layer counts over {traced} traced runs)")
    return ok


def report(sessions: list[list[dict]]) -> bool:
    """Print the per-metric table; True when every check passes."""
    spec = _spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        if not any(r["workload"] == workload for s in sessions for r in s):
            continue
        print(f"\n== {workload}")
        print(f"{'metric':16} {'bound':>6} " + " ".join(
            f"{'s%d median' % (i + 1):>12} {'q1':>10} {'q3':>10} {'spread':>7}"
            for i in range(len(sessions))) + ("   drift  verdict" if len(sessions) > 1 else "   verdict"))
        for name, (bound, better) in bounds.items():
            cells, medians, verdict = [], [], []
            for records in sessions:
                med, q1, q3, spread = _summary(records, workload, name)
                medians.append(med)
                cells.append(f"{med:12.5g} {q1:10.5g} {q3:10.5g} {spread:7.3f}")
                if spread > bound:
                    verdict.append("SPREAD>bound")
                elif spread > bound / 3:
                    verdict.append("spread>bound/3")
            line = f"{name:16} {bound:6.3f} " + " ".join(cells)
            if len(medians) > 1:
                drift = medians[1] / medians[0] - 1
                worse = drift if better == "lower" else -drift
                line += f"  {drift:+7.3f}"
                if worse > bound:
                    verdict.append("DRIFT>bound")
                elif worse > bound / 3:
                    verdict.append("drift>bound/3")
            print(line + "  " + (",".join(verdict) or "ok"))
            ok = ok and not any(v.endswith(">bound") for v in verdict)
        for key in ("p90_ms", "p99_ms", "late_share"):
            series = [
                [r["info"][key] for r in _records(records, workload) if key in r["info"]]
                for records in sessions
            ]
            if all(len(values) > 1 for values in series):
                cells = []
                for values in series:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    med = statistics.median(values)
                    cells.append(f"{med:.4g} (spread {(q3 - q1) / med if med else 0.0:.3f})")
                print(f"  ungated {key}: " + "  ".join(cells))
        ok = _exact(sessions, workload) and ok
        for index, records in enumerate(sessions):
            mine = [r for r in records if r["workload"] == workload]
            failed = sum(r["failed"] for r in mine)
            print(f"  session {index + 1}: failed ops {failed}, host.steal_share per run "
                  + " ".join(f"{r['steal']:.4f}" for r in mine))
            ok = ok and failed == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="take one session")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--base-seed", type=int, default=1)
    run.add_argument("--out", default=None, help="save the session as JSON")
    compare = commands.add_parser("compare", help="compare saved sessions")
    compare.add_argument("files", nargs="+")
    arguments = parser.parse_args(argv)

    if arguments.command == "compare":
        sessions = []
        for name in arguments.files:
            loaded = json.loads(Path(name).read_text(encoding="utf-8"))
            sessions.extend(loaded["sessions"])
        return 0 if report(sessions) else 1

    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sessions = [session(workloads, arguments.runs, arguments.base_seed, seconds)]
    if arguments.out:
        Path(arguments.out).write_text(
            json.dumps({"seconds": seconds, "sessions": sessions}, indent=1),
            encoding="utf-8",
        )
    return 0 if report(sessions) else 1


if __name__ == "__main__":
    sys.exit(main())
