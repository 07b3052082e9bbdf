"""The refinement kernel — map-reduce over the audit trail.

The refinement pipeline (Algorithms 3-6) decomposes over any partition
of the log:

- **shard** (:mod:`repro.parallel.shards`): the trail is split into
  contiguous shards — durable-store segment files, in-memory chunks, or
  federation members — that concatenate back to the global append order;
- **map** (:mod:`repro.parallel.partials`): each shard is streamed once,
  computing Filter plus *partial* pattern-mining aggregates (mergeable
  ``group -> (support, user-set)`` state for the SQL miner, SON-style
  local candidates for Apriori) and the per-rule entry positions
  coverage needs;
- **merge** (:mod:`repro.parallel.refine`): the partials are folded
  together deterministically, the global ``HAVING`` thresholds
  re-applied, both coverage semantics reconstructed, and the patterns
  pruned with one shared interned grounder so every mask stays
  comparable.

:func:`repro.refinement.engine.refine` runs this kernel for the built-in
miners at every worker count: one worker maps a single shard in-process
(one pass over the trail), ``RefinementConfig(execution=ExecutionPolicy(
workers=N))`` maps N shards on a process pool.  The result is
*byte-identical* to the paper's literal pipeline over the same log —
same accepted rules in the same order, same prune partition, same
coverage ratios and uncovered-entry indices — because every merge is
over exact counts and the final ordering rules are re-applied globally.
Custom miners run the literal pipeline; a process pool the platform
refuses to give us falls back to in-process mapping.
"""

from repro.parallel.execution import ExecutionPolicy
from repro.parallel.refine import parallel_refine, supports_parallel_miner
from repro.parallel.shards import Shard, iter_shard, shards_of

__all__ = [
    "ExecutionPolicy",
    "Shard",
    "iter_shard",
    "parallel_refine",
    "shards_of",
    "supports_parallel_miner",
]
