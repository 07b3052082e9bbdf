"""The literal Algorithm 2 pipeline: the oracle for ``refine()``.

``refine()`` always runs the one shard → map → fold → finish kernel.
:func:`reference_refine` runs the paper's pipeline step by step instead
— lift the log for coverage, Filter, the named miner's own ``mine``
(for the default ``"sql"``, the Algorithm 5 SQL statement on a sqlmini
copy), Prune — sharing none of the kernel's fold or finish code.  The
identity suites, E2 and E17 compare the two with
:func:`assert_identical`; :func:`assert_round_identical` compares it
with one ``TrailAggregate.finish``.

:func:`reference_decode` is the store codec's validating decode: every
record goes through the ``AuditEntry`` constructor.  The codec decodes
through a per-segment record memo instead; ``tests/test_store_codec.py``
holds the two equal.

:func:`reference_groups` is the Algorithm 5 GROUP BY state built the
obvious way, one entry at a time, for the partial-aggregate algebra
tests.

:func:`reference_permit` is the permit check as a scan: the first active
store rule whose ``Rule.covers`` accepts the three-term request.  The
enforcers answer through the store's permit index instead;
``tests/test_properties_permit_index.py`` holds the two equal.
"""

from __future__ import annotations

import struct

from repro.audit.entry import AuditEntry
from repro.audit.schema import AccessOp, AccessStatus
from repro.coverage.engine import compute_coverage, compute_entry_coverage
from repro.errors import AuditError, StoreError
from repro.mining.apriori import AprioriPatternMiner
from repro.mining.sql_patterns import SqlPatternMiner
from repro.policy.grounding import Grounder
from repro.policy.rule import Rule
from repro.refinement.engine import RefinementConfig, RefinementResult
from repro.refinement.filtering import filter_practice
from repro.refinement.prune import prune_patterns

#: each of ``refine()``'s miner names -> the literal miner it stands for
MINER_OBJECTS = {"sql": SqlPatternMiner, "apriori": AprioriPatternMiner}

_FIXED = struct.Struct("<QBB")
_STRLEN = struct.Struct("<I")


def reference_decode(payload: bytes) -> AuditEntry:
    """Rebuild an entry from payload bytes through the validating
    constructor (the codec's ``decode_payload`` before its memos)."""
    try:
        time, op, status = _FIXED.unpack_from(payload, 0)
        offset = _FIXED.size
        strings = []
        for _ in range(5):
            (length,) = _STRLEN.unpack_from(payload, offset)
            offset += _STRLEN.size
            end = offset + length
            if end > len(payload):
                raise StoreError("string field runs past the end of the payload")
            strings.append(payload[offset:end].decode("utf-8"))
            offset = end
        if offset != len(payload):
            raise StoreError(f"{len(payload) - offset} trailing bytes in payload")
        user, data, purpose, authorized, truth = strings
        return AuditEntry(
            time=time,
            op=AccessOp(op),
            user=user,
            data=data,
            purpose=purpose,
            authorized=authorized,
            status=AccessStatus(status),
            truth=truth,
        )
    except StoreError:
        raise
    except (struct.error, UnicodeDecodeError, ValueError, AuditError) as exc:
        raise StoreError(f"undecodable audit record payload: {exc}") from exc


def reference_groups(entries, attributes: tuple[str, ...]) -> dict:
    """``values -> [support, user-set]`` over ``attributes``, one entry
    at a time — the state ``finalize_patterns`` reduces."""
    groups: dict = {}
    for entry in entries:
        values = tuple(str(getattr(entry, a)) for a in attributes)
        slot = groups.setdefault(values, [0, set()])
        slot[0] += 1
        slot[1].add(entry.user)
    return groups


def reference_permit(
    store, vocabulary, category: str, purpose: str, role: str
) -> tuple[bool, int | None]:
    """``(permitted, revision of the first covering rule)`` by scanning
    the store's active rules in order."""
    request = Rule.of(data=category, purpose=purpose, authorized=role)
    for rule in store:
        if rule.covers(request, vocabulary):
            return True, store.record_for(rule).revision
    return False, None


def reference_refine(
    policy_store, log, vocabulary, config=None, grounder=None
) -> RefinementResult:
    """Filter → ``miner.mine`` → Prune, plus both coverages, literally."""
    cfg = config or RefinementConfig()
    grounder = grounder or Grounder(vocabulary)
    audit_policy = log.to_policy(cfg.mining.attributes)
    coverage = compute_coverage(policy_store, audit_policy, vocabulary, grounder)
    practice = filter_practice(
        log,
        include_denied=cfg.include_denied,
        exclude_suspected_violations=cfg.exclude_suspected_violations,
        classifier_config=cfg.classifier,
        classify_scope=cfg.classify_scope,
    )
    patterns = MINER_OBJECTS[cfg.miner]().mine(practice, cfg.mining)
    pruned = prune_patterns(patterns, policy_store, vocabulary, grounder)
    entry_coverage = compute_entry_coverage(
        policy_store, iter(audit_policy), vocabulary, grounder
    )
    return RefinementResult(
        practice=practice,
        patterns=patterns,
        useful_patterns=pruned.useful,
        pruned_patterns=pruned.pruned,
        coverage=coverage,
        entry_coverage=entry_coverage,
    )


def result_fields(result: RefinementResult) -> dict:
    """Every field the identity checks compare (the practice view is
    iterated, which scans the trail again for a durable log)."""
    return {
        "patterns": result.patterns,
        "useful_patterns": result.useful_patterns,
        "pruned_patterns": result.pruned_patterns,
        "coverage.ratio": result.coverage.ratio,
        "coverage.overlap": result.coverage.overlap,
        "coverage.reference": result.coverage.reference,
        "entry_coverage.ratio": result.entry_coverage.ratio,
        "entry_coverage.matched": result.entry_coverage.matched,
        "entry_coverage.total": result.entry_coverage.total,
        "entry_coverage.uncovered_entries": result.entry_coverage.uncovered_entries,
        "practice": [(entry.time, entry.user) for entry in result.practice],
        "practice.name": result.practice.name,
    }


def assert_identical(expected: RefinementResult, actual: RefinementResult) -> None:
    want, got = result_fields(expected), result_fields(actual)
    for name, value in want.items():
        assert got[name] == value, f"{name} differs"


def assert_round_identical(
    expected: RefinementResult, trail, entries, attributes: tuple[str, ...]
) -> None:
    """A ``TrailAggregate.finish`` round against the literal pipeline over
    ``entries``: same patterns, prune partition and coverage, and its
    uncovered rules hold exactly the literal uncovered entries."""
    uncovered: dict = {}
    for index in expected.entry_coverage.uncovered_entries:
        values = tuple(str(getattr(entries[index], a)) for a in attributes)
        uncovered[values] = uncovered.get(values, 0) + 1
    assert trail.patterns == expected.patterns
    assert trail.prune.useful == expected.useful_patterns
    assert trail.prune.pruned == expected.pruned_patterns
    assert trail.coverage.ratio == expected.coverage.ratio
    assert trail.coverage.overlap == expected.coverage.overlap
    assert trail.coverage.reference == expected.coverage.reference
    assert trail.entries == expected.entry_coverage.total
    assert trail.entry_ratio == expected.entry_coverage.ratio
    assert list(trail.uncovered.items()) == list(uncovered.items())
