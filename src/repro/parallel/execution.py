"""The execution policy: how many workers.

Kept dependency-free so :mod:`repro.refinement.engine` can carry an
``ExecutionPolicy`` on its config without importing the pool machinery.
:func:`repro.parallel.refine.parallel_refine` plans one shard per worker
and starts a pool only for more than one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RefinementError


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one refinement run is executed.

    ``workers`` is the process count; ``1`` (the default) maps the trail
    in-process as a single shard.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise RefinementError(
                f"execution workers must be >= 1, got {self.workers}"
            )
