"""Process-pool execution with a guaranteed in-process fallback.

:func:`run_sharded` fans a worker function out over the shards and
returns the results *in shard order* (merge determinism does not depend
on completion order).  Pool-infrastructure failures — no ``fork``/
``spawn`` support, a crashed worker, an unpicklable payload — degrade to
running every shard in-process; genuine domain errors raised by the
worker function propagate unchanged.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence

from repro.obs.runtime import get_registry
from repro.parallel.shards import Shard


def map_in_process(
    worker: Callable, shards: Sequence[Shard], task
) -> tuple[list, str]:
    """Run ``worker(shard, task)`` for every shard here, in shard order."""
    return [worker(shard, task) for shard in shards], "serial"


def run_sharded(
    worker: Callable,
    shards: Sequence[Shard],
    task,
    workers: int,
) -> tuple[list, str]:
    """Run ``worker(shard, task)`` for every shard; results in shard
    order.  Returns ``(results, mode)`` where mode says whether a pool
    was actually used: a single shard maps here, as ``"serial"``.  The
    pool machinery is imported only past that return, so a caller that
    never fans out never loads ``multiprocessing``."""
    if len(shards) <= 1:
        return map_in_process(worker, shards, task)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
            futures = [pool.submit(worker, shard, task) for shard in shards]
            return [future.result() for future in futures], "pool"
    # AttributeError/TypeError are how unpicklable payloads surface from
    # the executor; re-running in-process re-raises any genuine bug.
    except (
        BrokenProcessPool,
        OSError,
        pickle.PicklingError,
        AttributeError,
        TypeError,
    ) as exc:
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                "repro_parallel_fallbacks_total", reason=type(exc).__name__
            ).inc()
        return map_in_process(worker, shards, task)
