"""The offline loop on its residual aggregate equals the re-reading loop.

``RefinementLoop`` folds each round's window once into one
``TrailAggregate`` (a fresh one per round when ``refine_on_cumulative``
is off), finishes it before review and re-covers it after adoption.
:func:`tests.reference.reference_loop` instead calls ``refine()`` over
the whole target log every round and groups and lifts it again for the
coverage after review.  Every ``RoundReport`` field but ``metrics``, the
final store and E3's coverage series must agree, at 4, 8 and 16 rounds,
for both training periods, with an in-memory and a durable history sink.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.audit.log import AuditLog
from repro.experiments.harness import standard_loop_setup
from repro.parallel.partials import PartialBuilder
from repro.refinement.loop import RefinementLoop, RoundReport
from repro.refinement.review import ThresholdReview
from repro.store.durable import DurableAuditLog
from repro.store.store import StoreConfig
from tests.reference import reference_loop
from tests.test_refine_daemon_feed import counting_decode

ACCESSES = 500
SEED = 7
#: small segments, so a durable history spans many of them
DURABLE = StoreConfig(max_segment_entries=700, fsync="off")
#: the report fields compared as they are (``refinement`` is compared
#: field by field, ``metrics`` is telemetry)
PLAIN_FIELDS = tuple(
    field.name
    for field in fields(RoundReport)
    if field.name not in ("refinement", "metrics")
)


def _loop(rounds, refine_on_cumulative, sink=None):
    setup = standard_loop_setup(accesses_per_round=ACCESSES, seed=SEED)
    loop = RefinementLoop(
        setup.environment,
        setup.store,
        setup.vocabulary,
        ThresholdReview(),
        refine_on_cumulative=refine_on_cumulative,
        cumulative_log=sink,
    )
    return loop.run(rounds)


_ORACLE: dict = {}


def _oracle(rounds, refine_on_cumulative):
    key = (rounds, refine_on_cumulative)
    if key not in _ORACLE:
        setup = standard_loop_setup(accesses_per_round=ACCESSES, seed=SEED)
        _ORACLE[key] = reference_loop(
            setup.environment,
            setup.store,
            setup.vocabulary,
            ThresholdReview(),
            rounds,
            refine_on_cumulative=refine_on_cumulative,
        )
    return _ORACLE[key]


def _refinement(trail) -> tuple:
    return (
        trail.patterns,
        trail.prune.useful,
        trail.prune.pruned,
        trail.coverage.ratio,
        trail.entry_ratio,
    )


def _expected_refinement(result) -> tuple:
    return (
        result.patterns,
        result.useful_patterns,
        result.pruned_patterns,
        result.coverage.ratio,
        result.entry_coverage.ratio,
    )


@pytest.mark.parametrize("sink", ("memory", "durable"))
@pytest.mark.parametrize("refine_on_cumulative", (True, False))
@pytest.mark.parametrize("rounds", (4, 8, 16))
def test_rounds_equal_the_rereading_loop(rounds, refine_on_cumulative, sink, tmp_path):
    durable = None
    if sink == "durable":
        durable = DurableAuditLog(tmp_path / "trail", DURABLE, name="cumulative")
    try:
        got = _loop(rounds, refine_on_cumulative, durable)
        want = _oracle(rounds, refine_on_cumulative)
        assert len(got.rounds) == len(want.rounds) == rounds
        for mine, theirs in zip(got.rounds, want.rounds):
            for name in PLAIN_FIELDS:
                assert getattr(mine, name) == getattr(theirs, name), (
                    f"round {mine.round_index}: {name} differs"
                )
            assert _refinement(mine.refinement) == _expected_refinement(
                theirs.refinement
            ), f"round {mine.round_index}: refinement differs"
        assert got.coverage_series() == want.coverage_series()
        assert got.store.to_dict() == want.store.to_dict()
        assert len(got.cumulative_log) == len(want.cumulative_log)
        # the comparison means something: rules were adopted on the way
        assert sum(report.rules_accepted for report in got.rounds) > 0
    finally:
        if durable is not None:
            durable.close()


class _UnreadLog(AuditLog):
    """An in-memory history sink that counts reads of its entries."""

    reads = 0

    def __iter__(self):
        type(self).reads += 1
        return super().__iter__()

    @property
    def entries(self):
        type(self).reads += 1
        return super().entries


@pytest.fixture
def folded(monkeypatch) -> list:
    """The sizes of the runs of entries and of segment payloads every
    :class:`PartialBuilder` folds."""
    sizes: list = []
    extend = PartialBuilder.extend
    extend_payloads = PartialBuilder.extend_payloads

    def counted(self, entries):
        entries = list(entries)
        sizes.append(len(entries))
        extend(self, entries)

    def counted_payloads(self, payloads):
        payloads = list(payloads)
        sizes.append(len(payloads))
        extend_payloads(self, payloads)

    monkeypatch.setattr(PartialBuilder, "extend", counted)
    monkeypatch.setattr(PartialBuilder, "extend_payloads", counted_payloads)
    return sizes


class TestReadOnce:
    ROUNDS = 16

    def test_each_generated_entry_is_folded_once(self, folded, monkeypatch):
        monkeypatch.setattr(_UnreadLog, "reads", 0)
        result = _loop(self.ROUNDS, True, _UnreadLog(name="cumulative"))
        generated = sum(report.entries for report in result.rounds)
        assert generated == len(result.cumulative_log) == self.ROUNDS * ACCESSES
        assert folded == [report.entries for report in result.rounds]
        assert _UnreadLog.reads == 0  # the history is never read back

    def test_a_durable_sink_is_never_read(self, folded, monkeypatch, tmp_path):
        decoded = counting_decode(monkeypatch)
        durable = DurableAuditLog(tmp_path / "trail", DURABLE, name="cumulative")
        try:
            result = _loop(self.ROUNDS, True, durable)
            assert len(durable.store.sealed_segments()) > 1
        finally:
            durable.close()
        assert decoded == []  # no record read back from a segment file
        assert sum(folded) == sum(report.entries for report in result.rounds)
        assert sum(folded) == self.ROUNDS * ACCESSES
