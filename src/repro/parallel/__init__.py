"""The refinement kernel — map-reduce over the audit trail.

The refinement pipeline (Algorithms 3-6) decomposes over any contiguous
split of the log:

- **shard** (:mod:`repro.parallel.shards`): the trail splits into
  contiguous shards — durable-store segment files, in-memory chunks, or
  federation members — that concatenate back to the global append order;
- **map** (:mod:`repro.parallel.partials`): each shard streams once into
  a mergeable partial: Filter, the practice groups
  ``key -> (support, user-set)`` (SON-style local candidates for
  Apriori), the entry positions of every lifted rule and the
  violation classifier's signals;
- **fold and finish** (:mod:`repro.parallel.refine`): the partials fold,
  in shard order, into one :class:`~repro.parallel.refine.TrailAggregate`,
  whose ``finish`` lifts the rules, computes coverage, re-applies the
  global ``HAVING`` thresholds and ordering, and prunes — with one shared
  grounder, so every mask stays comparable.  The refinement daemon and
  the fleet daemon keep the same aggregate across polls.

:func:`repro.refinement.engine.refine` runs this kernel for both miners
at every worker count: one worker maps the trail in-process as a
single shard, ``RefinementConfig(execution=ExecutionPolicy(workers=N))``
maps N shards on a process pool.  The result is *byte-identical* to the
paper's literal pipeline over the same log, because every fold is over
exact counts and the final ordering is re-applied globally.  A process
pool the platform refuses to give us falls back to in-process mapping.
"""

from repro.parallel.execution import ExecutionPolicy
from repro.parallel.refine import parallel_refine
from repro.parallel.shards import Shard, iter_shard, shards_of

__all__ = [
    "ExecutionPolicy",
    "Shard",
    "iter_shard",
    "parallel_refine",
    "shards_of",
]
