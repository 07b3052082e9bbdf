"""The execution policy: how many workers, how many shards.

Kept dependency-free so :mod:`repro.refinement.engine` can carry an
``ExecutionPolicy`` on its config without importing the pool machinery.
:func:`repro.parallel.refine.parallel_refine` reads it to plan shards
and decide whether to start a pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RefinementError


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one refinement run is executed.

    ``workers`` is the process count; ``1`` (the default) maps every
    shard in-process.  ``max_shards`` caps how many shards the planner
    produces (default: one per worker); more shards than workers simply
    queue, which can smooth imbalance between segment sizes.
    """

    workers: int = 1
    max_shards: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise RefinementError(
                f"execution workers must be >= 1, got {self.workers}"
            )
        if self.max_shards is not None and self.max_shards < 1:
            raise RefinementError(
                f"execution max_shards must be >= 1, got {self.max_shards}"
            )

    @property
    def shard_limit(self) -> int:
        """The planner's shard cap: ``max_shards`` or one per worker."""
        return self.max_shards if self.max_shards is not None else self.workers

    @property
    def parallel(self) -> bool:
        """True when this policy asks for the sharded execution path."""
        return self.workers > 1
