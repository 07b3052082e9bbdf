"""Run one workload of the benchmark and print its result line.

Usage::

    python3 perfbench/run.py --workload {decide_open,refine_corpus,loop_adopt}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it benchmarks the sources under
``src/`` there and keeps its scratch files under ``.bench_build/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The line
before it (``# info {...}``) carries diagnostics that are not gated.
Exit status is 0 when a result was printed, non-zero otherwise.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import harness
import metrics

WORKLOADS = ("decide_open", "refine_corpus", "loop_adopt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    try:
        harness.require_source()
        module = __import__(arguments.workload)
        correct, attempted, failed, values, info, layers = module.run(
            arguments.seed, arguments.seconds, arguments.trace
        )
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crashed run must not print a result
        traceback.print_exc()
        return 3
    missing = [name for name in metrics.END_TO_END if values.get(name, 0.0) <= 0.0]
    if missing:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 4
    if arguments.trace:
        result = metrics.fill(layers, metrics.PER_LAYER)
    else:
        result = metrics.fill(values, metrics.END_TO_END)
    harness.emit(correct, attempted, failed, result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
