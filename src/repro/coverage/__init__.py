"""Policy coverage (Section 3.2 of the paper).

Public surface:

- :func:`~repro.coverage.engine.compute_coverage` — Algorithm 1 /
  Definition 9 (set semantics).
- :func:`~repro.coverage.engine.compute_entry_coverage` — the
  entry-weighted semantics Section 5 uses on Table 1.
- :func:`~repro.coverage.engine.completely_covers` — Definition 10.
- :func:`~repro.coverage.gaps.analyse_gaps` — paper-style deviation
  explanations for every uncovered access.

The refinement loop's running coverage of a growing trail is
:meth:`repro.parallel.refine.TrailAggregate.cover` over its folded rule
counts.
"""

from repro.coverage.engine import (
    CoverageReport,
    EntryCoverageReport,
    completely_covers,
    compute_coverage,
    compute_entry_coverage,
)
from repro.coverage.gaps import Deviation, GapReport, analyse_gaps
from repro.coverage.trends import (
    AttributeCoverage,
    WindowPoint,
    coverage_by_attribute,
    coverage_series,
)

__all__ = [
    "AttributeCoverage",
    "WindowPoint",
    "coverage_by_attribute",
    "coverage_series",
    "CoverageReport",
    "Deviation",
    "EntryCoverageReport",
    "GapReport",
    "analyse_gaps",
    "completely_covers",
    "compute_coverage",
    "compute_entry_coverage",
]
