"""Property tests: index sidecars stay a cache under any schedule.

A random schedule of appends, seals, crashes (the store dropped before
``close()``), clean reopens and compactions runs against one store
directory.  After every step ``lookup`` and ``scan_window`` equal a
filter over everything appended so far, and once the store closes every
sidecar on disk is byte-identical to a rebuild from its segment and
names a segment the manifest lists.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.log import make_entry
from repro.store.index import build_index, index_path
from repro.store.manifest import load_manifest
from repro.store.store import AuditStore, StoreConfig

USERS = ("ann", "bob", "eve")
DATA = ("referral", "name")

steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 7)),
        st.sampled_from([("seal",), ("crash",), ("reopen",), ("compact",)]),
    ),
    max_size=14,
)


def _reads_match(store: AuditStore, written, bounds) -> None:
    for user in USERS:
        assert list(store.lookup(user=user)) == [e for e in written if e.user == user]
    for data in DATA:
        assert list(store.lookup(user="ann", data=data)) == [
            e for e in written if e.user == "ann" and e.data == data
        ]
    start, end = bounds
    assert list(store.scan_window(start, end)) == [
        e for e in written if start <= e.time < end
    ]


@settings(max_examples=60, deadline=None)
@given(
    schedule=steps,
    limit=st.sampled_from([2, 3, 7]),
    seed=st.integers(0, 2**16),
    bounds=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
)
def test_sidecars_are_a_cache(tmp_path_factory, schedule, limit, seed, bounds):
    directory = tmp_path_factory.mktemp("store") / "s"
    config = StoreConfig(max_segment_entries=limit, fsync="off")
    store = AuditStore(directory, config)
    written = []
    for step in schedule:
        kind = step[0]
        if kind == "append":
            for _ in range(step[1]):
                tick = len(written) + 1
                entry = make_entry(
                    tick,
                    USERS[(seed + tick) % 3],
                    DATA[(seed // 3 + tick) % 2],
                    "registration",
                    "nurse",
                )
                store.append(entry)
                written.append(entry)
        elif kind == "seal":
            store.seal_active()
        elif kind == "crash":
            store._writer.close(sync=False)  # close() never runs
            store = AuditStore(directory, config, create=False)
        elif kind == "reopen":
            store.close()
            store = AuditStore(directory, config, create=False)
        else:
            store.compact()
        _reads_match(store, written, bounds)
    store.close()

    sealed = {meta.name for meta in load_manifest(directory).sealed}
    on_disk = {path.name for path in directory.glob("*.idx.json")}
    assert on_disk <= {index_path(directory / name).name for name in sealed}
    for name in sealed:
        sidecar = index_path(directory / name)
        if sidecar.exists():
            rebuilt = build_index(directory / name, config.time_index_stride)
            assert sidecar.read_bytes() == (
                json.dumps(rebuilt.to_dict(), sort_keys=True) + "\n"
            ).encode("utf-8")
    with AuditStore(directory, config, create=False) as reopened:
        assert list(reopened) == written
        _reads_match(reopened, written, bounds)
    on_disk = {path.name for path in directory.glob("*.idx.json")}
    assert on_disk == {index_path(directory / name).name for name in sealed}
