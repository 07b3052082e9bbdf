"""``BENCHMARK.json`` and the benchmark's metric catalogue agree."""

import json

import harness
import metrics
import run


def _benchmark():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_catalogue():
    spec = _benchmark()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        metrics.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quantiles_are_exact():
    assert harness.median([3, 1, 2]) == 2
    assert harness.quantile([0, 10], 0.25) == 2.5
    assert harness.quantile(range(101), 0.99) == 99
