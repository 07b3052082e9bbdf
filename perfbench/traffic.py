"""Seeded decide traffic over the healthcare vocabulary.

The key universe is every (role, purpose, data set) with one to four
distinct data categories: 5 roles x 8 purposes x (10 + 45 + 120 + 210)
data sets = 15400 keys, nearly four times the decision cache's 4096
entries.  Key popularity is Zipf-skewed (exponent :data:`ZIPF_S`) over
one fixed ranking of the universe, so the hot set fits the cache and the
tail evicts.  About one request in ten is a break-the-glass exception,
which bypasses the cache.  The demo policy permits a small corner of the
universe, so some requests are denied outright and many are partly
masked.

Which keys a stream of ``count`` requests holds is fixed by
:data:`POPULARITY_SEED`; the workload seed shuffles their order and
draws the users, the category order within a frame and the exception
flags.  So every seed sees the same multiset of keys — the coverage and
bytes-per-entry figures do not move with the seed — while the order the
cache sees, and everything else, does.

Everything is a pure function of the seed: the same seed gives the
same frames, byte for byte.
"""

from __future__ import annotations

import itertools
import json
import random

from repro.vocab.builtin import (
    ADMINISTRATIVE_ROLES,
    CLINICAL_ROLES,
    DEMOGRAPHIC_LEAVES,
    FINANCIAL_LEAVES,
    HEALTHCARE_PURPOSES,
    MEDICAL_RECORD_LEAVES,
    OPERATIONS_PURPOSES,
    SECONDARY_PURPOSES,
)

DATA = DEMOGRAPHIC_LEAVES + MEDICAL_RECORD_LEAVES + ("psychiatry",) + FINANCIAL_LEAVES
PURPOSES = HEALTHCARE_PURPOSES + OPERATIONS_PURPOSES + SECONDARY_PURPOSES
ROLES = CLINICAL_ROLES + ADMINISTRATIVE_ROLES

#: share of requests flagged break-the-glass
EXCEPTION_SHARE = 0.10
#: Zipf exponent of key popularity
ZIPF_S = 0.75
#: distinct users issuing requests
USERS = 240
#: seeds the one popularity ranking every workload seed shares
POPULARITY_SEED = 2007


def key_universe() -> list[tuple[str, str, tuple[str, ...]]]:
    """Every ``(role, purpose, sorted data set)`` of one to four items."""
    sets = [
        combo
        for size in (1, 2, 3, 4)
        for combo in itertools.combinations(sorted(DATA), size)
    ]
    return [
        (role, purpose, combo)
        for role in sorted(ROLES)
        for purpose in sorted(PURPOSES)
        for combo in sets
    ]


def _popularity():
    keys = key_universe()
    random.Random(POPULARITY_SEED).shuffle(keys)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    cumulative = list(itertools.accumulate(weights))
    return keys, cumulative


def decide_requests(seed: int, count: int, stream: int = 0) -> list[dict]:
    """``count`` decide request payloads, ids ``0..count-1``.

    ``stream`` selects another fixed key multiset (one per loop round).
    """
    keys, cumulative = _popularity()
    chosen = random.Random(POPULARITY_SEED + stream).choices(
        keys, cum_weights=cumulative, k=count
    )
    rng = random.Random(seed)
    rng.shuffle(chosen)
    requests = []
    for index, (role, purpose, combo) in enumerate(chosen):
        categories = list(combo)
        rng.shuffle(categories)
        requests.append(
            {
                "op": "decide",
                "id": index,
                "user": f"u{rng.randrange(USERS):03d}",
                "role": role,
                "purpose": purpose,
                "categories": categories,
                "exception": rng.random() < EXCEPTION_SHARE,
            }
        )
    return requests


def request_key(request: dict) -> tuple:
    """What a decision depends on (the user does not change it)."""
    return (
        request["role"],
        request["purpose"],
        tuple(sorted(request["categories"])),
        request["exception"],
    )


def encode(requests) -> list[bytes]:
    """NDJSON frames, exactly as the wire protocol wants them."""
    return [
        json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"
        for request in requests
    ]


def uncovered_combos(permits) -> list[tuple[str, str, str]]:
    """Ground ``(data, purpose, role)`` triples ``permits`` rejects, in one
    fixed order — the supply of new practice for the loop workload."""
    combos = [
        (data, purpose, role)
        for data in sorted(DATA)
        for purpose in sorted(PURPOSES)
        for role in sorted(ROLES)
        if not permits(data, purpose, role)
    ]
    random.Random(POPULARITY_SEED).shuffle(combos)
    return combos


def loop_round(
    round_index: int, regular: int, combo, practice: int, users: int
) -> list[dict]:
    """One loop round: ``regular`` non-exception decides from the skewed
    mix plus ``practice`` break-the-glass decides on ``combo`` by
    ``users`` distinct users, spread evenly through the round.

    A round is a function of its index alone, not of a workload seed:
    which rules earlier rounds adopted decides how many clock ticks a
    later round's decides take (a partly masked decide takes two), so
    any seeded reordering would move the trail's bytes."""
    base = decide_requests(round_index, regular, stream=1 + round_index)
    for request in base:
        request["exception"] = False
    data, purpose, role = combo
    stride = max(1, regular // practice)
    for slot in range(practice):
        base.insert(
            min(len(base), slot * (stride + 1)),
            {
                "op": "decide",
                "user": f"p{round_index:03d}-{slot % users}",
                "role": role,
                "purpose": purpose,
                "categories": [data],
                "exception": True,
            },
        )
    return base
