"""Recompute the pinned input digests and write ``perfbench/pins.json``.

Usage: ``python3 perfbench/pin.py`` from the root of a checkout.  Run it
only when a workload's input is meant to change; every benchmark run
checks its generated inputs against these digests and refuses to
measure anything else.
"""

from __future__ import annotations

import json
import sys

import harness


def main() -> int:
    harness.require_source()
    import decide_open
    import loop_adopt
    import refine_corpus
    import traffic

    from repro.corpus import bundle_digest
    from repro.mining.patterns import MiningConfig
    from repro.policy import store_io
    from repro.refinement.engine import RefinementConfig, refine
    from repro.store.durable import DurableAuditLog
    from repro.vocab import io as vocab_io

    refine_corpus.prepare()
    log = DurableAuditLog(refine_corpus.STORE, name="corpus")
    try:
        result = refine(
            store_io.load(refine_corpus.BUNDLE / "policy_store.json").policy(),
            log,
            vocab_io.load(refine_corpus.BUNDLE / "vocabulary.json"),
            RefinementConfig(
                mining=MiningConfig(
                    min_support=refine_corpus.MIN_SUPPORT,
                    min_distinct_users=refine_corpus.MIN_USERS,
                )
            ),
        )
    finally:
        log.close()
    rounds, combos = loop_adopt.inputs()
    pins = {
        "decide_traffic": harness.digest(
            traffic.decide_requests(decide_open.PIN_SEED, decide_open.PIN_COUNT)
        ),
        "loop_traffic": harness.digest([rounds[:3], combos]),
        "corpus_bundle": bundle_digest(refine_corpus.BUNDLE),
        "corpus_store": harness.file_digest(
            refine_corpus.store_files(refine_corpus.STORE)
        ),
        "refine_result": refine_corpus.result_digest(result),
    }
    harness.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
