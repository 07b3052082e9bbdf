"""Incremental coverage tracking for streaming audit entries.

The PRIMA loop runs "at regular intervals or at the request of the
stakeholders"; recomputing Algorithm 1 from scratch over an ever-growing
audit log is wasteful.  :class:`IncrementalCoverage` maintains both
coverage semantics online:

- entries stream in via :meth:`observe` (a counter per distinct ground
  rule keeps multiset information; a run of entries with one lifted rule
  is one call with a count), or via :meth:`observe_mask` when the caller
  already holds the rule's ground mask;
- policy-store rules stream in via :meth:`add_rule` (newly covered ground
  rules are credited retroactively to all previously observed entries).

Both operations are amortised O(ground-expansion) instead of O(log size).

State is held in the bitset backend's native encoding: the covered set is
one ID bitmask and the per-rule entry counters are keyed by dense
ground-rule IDs from the vocabulary's shared
:class:`~repro.policy.interning.RuleInterner`, so the per-entry coverage
probe is a single bitwise expression rather than a hash lookup per ground
rule.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import CoverageError
from repro.obs.runtime import get_registry
from repro.policy.grounding import Grounder
from repro.policy.interning import iter_bits
from repro.policy.policy import Policy
from repro.policy.rule import Rule
from repro.vocab.vocabulary import Vocabulary


class IncrementalCoverage:
    """Online tracker of set- and entry-coverage of a policy over a trace."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        policy: Policy | None = None,
        grounder: Grounder | None = None,
    ) -> None:
        self.vocabulary = vocabulary
        #: a caller's grounder shares its memo (the daemon lifts every
        #: rule it observes there first); otherwise a private one
        self._grounder = grounder if grounder is not None else Grounder(vocabulary)
        self._interner = self._grounder.interner
        self._covered_mask = 0
        self._entry_counts: Counter[int] = Counter()  # ground-rule ID -> entries
        self._matched_entries = 0
        self._total_entries = 0
        # Per-entry observation is the hot path, so telemetry flushes the
        # plain counters above through a weakly-held collector instead of
        # touching the registry per observe() (see DESIGN.md §8).
        self._rules_applied = 0
        self._obs = get_registry()
        self._reported = (0, 0, 0)  # observations, matched, rules applied
        if self._obs.enabled:
            self._obs.register_collector(self._flush_metrics)
        if policy is not None:
            for rule in policy:
                self.add_rule(rule)

    def _flush_metrics(self) -> None:
        reg = self._obs
        current = (self._total_entries, self._matched_entries, self._rules_applied)
        seen = self._reported
        reg.counter("repro_coverage_incremental_observations_total").inc(
            current[0] - seen[0]
        )
        reg.counter("repro_coverage_incremental_matched_total").inc(
            current[1] - seen[1]
        )
        reg.counter("repro_coverage_delta_apply_total").inc(current[2] - seen[2])
        self._reported = current
        reg.gauge("repro_coverage_incremental_distinct_ground_rules").set(
            len(self._entry_counts)
        )

    # ------------------------------------------------------------------
    # streaming inputs
    # ------------------------------------------------------------------
    def observe(self, entry_rule: Rule, count: int = 1) -> bool:
        """Record ``count`` audit entries that lift to ``entry_rule``;
        returns whether they are covered.

        Composite entries are reduced to their ground expansion; the entry
        counts as covered only when the whole expansion is covered (the
        same convention as :func:`compute_entry_coverage`).  One call with
        ``count=n`` is ``n`` calls with ``count=1``, for one grounding.
        """
        return self.observe_mask(self._grounder.ground_mask(entry_rule), count)

    def observe_mask(self, mask: int, count: int = 1) -> bool:
        """:meth:`observe` for a rule already grounded to ``mask`` by this
        tracker's grounder (as :meth:`Grounder.lift
        <repro.policy.grounding.Grounder.lift>` returns it)."""
        covered = mask & ~self._covered_mask == 0
        for rule_id in iter_bits(mask):
            self._entry_counts[rule_id] += count
        self._total_entries += count
        if covered:
            self._matched_entries += count
        return covered

    def add_rule(self, rule: Rule) -> int:
        """Add one policy rule; returns how many new ground rules it covers.

        Entry-coverage credit is recomputed for the ground rules that flip
        from uncovered to covered, so the ratio reflects the *current*
        policy over the *whole* history — what the refinement loop reports
        after each round.
        """
        self._rules_applied += 1
        newly_covered = self._grounder.ground_mask(rule) & ~self._covered_mask
        if not newly_covered:
            return 0
        self._covered_mask |= newly_covered
        # Retroactive credit: a historical entry flips to matched when its
        # single ground rule became covered.  Entries were observed as
        # ground rules (the overwhelmingly common audit case) or composite;
        # composite history cannot be replayed exactly from the counter, so
        # we only credit the ground entries, which is exact for audit logs.
        counts = self._entry_counts
        for rule_id in iter_bits(newly_covered):
            self._matched_entries += counts.get(rule_id, 0)
        return newly_covered.bit_count()

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """How many entries :meth:`observe` has seen."""
        return self._total_entries

    @property
    def matched_entries(self) -> int:
        """How many observed entries the current policy covers."""
        return self._matched_entries

    @property
    def distinct_ground_entries(self) -> int:
        """How many distinct ground rules the trace has produced."""
        return len(self._entry_counts)

    def entry_coverage(self) -> float:
        """Entry-weighted coverage over everything observed so far."""
        if self._total_entries == 0:
            raise CoverageError("no entries observed yet; entry coverage undefined")
        return self._matched_entries / self._total_entries

    def set_coverage(self) -> float:
        """Definition 9 coverage over the distinct ground entries so far."""
        if not self._entry_counts:
            raise CoverageError("no entries observed yet; set coverage undefined")
        covered_mask = self._covered_mask
        covered = sum(
            1 for rule_id in self._entry_counts if (covered_mask >> rule_id) & 1
        )
        return covered / len(self._entry_counts)

    def uncovered_ground_entries(self) -> tuple[Rule, ...]:
        """Distinct observed ground rules the policy does not cover."""
        covered_mask = self._covered_mask
        rule_for = self._interner.rule_for
        return tuple(
            rule_for(rule_id)
            for rule_id in self._entry_counts
            if not (covered_mask >> rule_id) & 1
        )
