"""The index sidecar is a cache: seals skip it, reads verify or rebuild it.

A seal fsyncs the segment and commits the manifest (3 fsyncs); the
sealed segment's index stays in memory and ``close()`` writes its
sidecar.  A store reopened after a crash before ``close()`` — or over a
torn, garbage or stale sidecar — rebuilds the index from the segment
and answers exactly what a full scan does.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.audit.log import make_entry
from repro.store.index import build_index, index_path, load_index, save_index
from repro.store.manifest import load_manifest, manifest_path
from repro.store.store import AuditStore, StoreConfig


def _entry(tick: int):
    return make_entry(
        tick, f"user{tick % 3}", ("referral", "name")[tick % 2], "registration", "nurse"
    )


def _config(**overrides) -> StoreConfig:
    overrides.setdefault("max_segment_entries", 5)
    overrides.setdefault("fsync", "off")
    return StoreConfig(**overrides)


def crash(store: AuditStore) -> None:
    """Drop ``store`` as a process crash would: what it wrote reaches the
    OS, but ``close()`` never runs."""
    store._writer.close(sync=False)


def sidecars(directory) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in sorted(directory.glob("*.idx.json"))
    }


def assert_reads_match(store: AuditStore, written) -> None:
    """``lookup`` and ``scan_window`` equal a filter over ``written``."""
    for user in ("user0", "user1", "user2"):
        assert list(store.lookup(user=user)) == [e for e in written if e.user == user]
    assert list(store.lookup(user="user1", data="name")) == [
        e for e in written if e.user == "user1" and e.data == "name"
    ]
    for start, end in ((0, 100), (3, 9), (7, 8), (12, 30)):
        assert list(store.scan_window(start, end)) == [
            e for e in written if start <= e.time < end
        ]


def _closed_store(directory, count: int = 23):
    written = [_entry(tick) for tick in range(1, count + 1)]
    with AuditStore(directory, _config()) as store:
        store.extend(written)
    return written


class TestSealPath:
    @pytest.mark.parametrize("policy", ("off", "interval", "always"))
    def test_a_seal_makes_three_fsyncs(self, tmp_path, monkeypatch, policy):
        with AuditStore(tmp_path / "s", _config(fsync=policy)) as store:
            store.extend(_entry(tick) for tick in range(1, 4))
            calls = []
            real = os.fsync
            monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
            store.seal_active()
            monkeypatch.undo()
        # segment data, manifest temp file, store directory
        assert len(calls) == 3

    def test_seal_writes_no_sidecar_and_close_writes_it(self, tmp_path):
        directory = tmp_path / "s"
        store = AuditStore(directory, _config())
        store.extend(_entry(tick) for tick in range(1, 12))
        assert len(store.sealed_segments()) == 2
        assert sidecars(directory) == {}
        store.close()
        metas = load_manifest(directory).sealed
        # the bytes save_index has always written, and no temp file left
        assert sidecars(directory) == {
            index_path(directory / meta.name).name: (
                json.dumps(build_index(directory / meta.name).to_dict(), sort_keys=True)
                + "\n"
            ).encode("utf-8")
            for meta in metas
        }
        assert not list(directory.glob("*.tmp"))


class TestCrashBeforeClose:
    def test_reads_after_crash_equal_a_full_scan(self, tmp_path):
        directory = tmp_path / "s"
        written = [_entry(tick) for tick in range(1, 24)]
        store = AuditStore(directory, _config())
        store.extend(written)
        crash(store)
        assert sidecars(directory) == {}
        with AuditStore(directory, create=False) as reopened:
            assert list(reopened) == written
            assert_reads_match(reopened, written)

    def test_rebuilt_sidecars_equal_what_close_writes(self, tmp_path):
        _closed_store(tmp_path / "clean")
        crashed = tmp_path / "crashed"
        store = AuditStore(crashed, _config())
        store.extend(_entry(tick) for tick in range(1, 24))
        crash(store)
        with AuditStore(crashed, create=False) as reopened:
            list(reopened.lookup(user="user0"))  # rebuilds every sidecar
            assert sidecars(crashed) == sidecars(tmp_path / "clean")
        assert sidecars(crashed) == sidecars(tmp_path / "clean")

    def test_orphan_sidecar_under_a_reused_name_is_not_trusted(self, tmp_path):
        # A compaction that crashed before its manifest commit leaves a
        # sidecar under a name the next seal reuses; give it the entry
        # count the reused segment will have, so only the seal's unlink
        # keeps it from being trusted.
        directory = tmp_path / "s"
        written = _closed_store(directory, count=10)
        manifest = load_manifest(directory)
        donor = directory / manifest.sealed[0].name
        active = directory / manifest.active
        foreign = build_index(donor)
        foreign.by["user"] = {"user0": foreign.by["user"]["user1"]}
        save_index(active, foreign)
        store = AuditStore(directory, _config(), create=False)
        more = [_entry(tick) for tick in range(11, 16)]
        store.extend(more)  # seals the reused name with 5 entries
        crash(store)
        with AuditStore(directory, create=False) as reopened:
            assert_reads_match(reopened, written + more)


def _edited(raw: bytes, **fields) -> bytes:
    return json.dumps({**json.loads(raw), **fields}).encode("utf-8")


class TestUntrustedSidecars:
    @pytest.mark.parametrize(
        "damage",
        (
            pytest.param(lambda raw, other: raw[: len(raw) // 2], id="torn"),
            pytest.param(lambda raw, other: b"\x00\xffgarbage", id="garbage"),
            pytest.param(lambda raw, other: b"", id="empty"),
            pytest.param(lambda raw, other: b"[1, 2]\n", id="not-an-object"),
            pytest.param(lambda raw, other: _edited(raw, format=9), id="other-format"),
            pytest.param(lambda raw, other: _edited(raw, by=[]), id="wrong-shape"),
            pytest.param(lambda raw, other: other, id="stale"),
        ),
    )
    def test_rebuilt_and_rewritten(self, tmp_path, damage):
        directory = tmp_path / "s"
        written = _closed_store(directory, count=24)  # 5+5+5+5 sealed, 4 active
        with AuditStore(directory, create=False) as store:
            store.seal_active()  # a last sealed segment of 4 entries
        clean = sidecars(directory)
        first, last = load_manifest(directory).sealed[::4]
        assert first.entries != last.entries
        target = index_path(directory / first.name)
        stale = index_path(directory / last.name).read_bytes()
        target.write_bytes(damage(target.read_bytes(), stale))
        assert load_index(directory / first.name, first.entries) is None
        with AuditStore(directory, create=False) as store:
            assert_reads_match(store, written)
        assert sidecars(directory) == clean

    def test_missing_sidecar_rebuilt(self, tmp_path):
        directory = tmp_path / "s"
        written = _closed_store(directory)
        clean = sidecars(directory)
        for path in directory.glob("*.idx.json"):
            path.unlink()
        with AuditStore(directory, create=False) as store:
            assert_reads_match(store, written)
        assert sidecars(directory) == clean


class TestCompactionWithPendingSidecars:
    def test_compaction_drops_pending_sidecars(self, tmp_path):
        directory = tmp_path / "s"
        written = [_entry(tick) for tick in range(1, 24)]
        store = AuditStore(directory, _config())
        store.extend(written)
        replaced = {meta.name for meta in store.sealed_segments()}
        report = store.compact()
        assert report.changed
        assert_reads_match(store, written)
        more = [_entry(tick) for tick in range(24, 31)]
        store.extend(more)  # seals once more, with a pending sidecar
        store.close()
        names = {meta.name for meta in load_manifest(directory).sealed}
        assert set(sidecars(directory)) == {
            index_path(directory / name).name for name in names
        }
        assert not replaced & names
        with AuditStore(directory, create=False) as reopened:
            assert reopened.verify().ok
            assert_reads_match(reopened, written + more)

    def test_crash_after_compaction_reads_correctly(self, tmp_path):
        directory = tmp_path / "s"
        written = [_entry(tick) for tick in range(1, 24)]
        store = AuditStore(directory, _config())
        store.extend(written)
        store.compact()
        store.extend(_entry(tick) for tick in range(24, 31))
        crash(store)
        with AuditStore(directory, create=False) as reopened:
            assert_reads_match(
                reopened, written + [_entry(tick) for tick in range(24, 31)]
            )


class TestManifestLayout:
    def test_manifest_is_one_line_of_sorted_json(self, tmp_path):
        directory = tmp_path / "s"
        _closed_store(directory)
        raw = manifest_path(directory).read_text(encoding="utf-8")
        assert raw.count("\n") == 1 and raw.endswith("\n")
        payload = json.loads(raw)
        assert raw == json.dumps(payload, sort_keys=True) + "\n"

    def test_indented_manifest_from_older_code_loads(self, tmp_path):
        directory = tmp_path / "s"
        written = _closed_store(directory)
        path = manifest_path(directory)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with AuditStore(directory, create=False) as store:
            assert list(store) == written
            assert_reads_match(store, written)
            store.append(_entry(24))
            store.seal_active()  # rewrites the manifest in today's layout
        assert "\n  " not in path.read_text(encoding="utf-8")
