"""Every workload, at smoke size, emits every metric and passes its checks.

Runs the real command line (``perfbench/run.py``) in a subprocess, so
each workload starts in a fresh process exactly as the benchmark runs.
The first ``refine_corpus`` run in a checkout also builds the corpus.
"""

import json
import subprocess
import sys

import pytest

import harness
import metrics
import run


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(harness.ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=str(harness.ROOT),
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_passes(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, (unit, _) in catalogue.items():
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["obs.attributed_pct"]["value"] >= 90.0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (harness.ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "pins.json").write_bytes((harness.ROOT / "perfbench" / "pins.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
