"""Tests for the persistent result store (repro.serve.store)."""

import multiprocessing
import os
import pickle

import pytest

from repro.serve.store import MISSING, ResultStore


def _value(i):
    return {"rates": [float(i), float(i) + 0.5], "converged": True}


class TestBasics:
    def test_get_put_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("k1") is MISSING
        assert store.put("k1", _value(1))
        assert store.get("k1") == _value(1)

    def test_default_on_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("absent", default=None) is None

    def test_persists_across_store_objects(self, tmp_path):
        ResultStore(tmp_path).put("k1", _value(1))
        fresh = ResultStore(tmp_path)
        assert fresh.get("k1") == _value(1)
        assert fresh.stats.disk_hits == 1

    def test_memory_front_avoids_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _value(1))
        os.unlink(store.path_for("k1"))       # disk gone, memory serves
        assert store.get("k1") == _value(1)
        assert store.stats.memory_hits == 1

    def test_memory_zero_reads_disk_every_time(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=0)
        store.put("k1", _value(1))
        assert store.get("k1") == _value(1)
        assert store.stats.memory_hits == 0
        assert store.stats.disk_hits == 1

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, memory_entries=-1)

    def test_falsy_values_are_hits_not_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = ResultStore(tmp_path)     # same directory, cold memory
        for i, value in enumerate((None, False, 0, [], {})):
            assert store.put(f"k{i}", value)
            for tier in (store, fresh):   # memory hit, then disk hit
                loaded = tier.get(f"k{i}")
                assert loaded is not MISSING
                assert loaded == value
        assert store.stats.memory_hits == fresh.stats.disk_hits == 5
        assert store.stats.misses == fresh.stats.misses == 0

    def test_unpicklable_value_is_not_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.put("k1", lambda: None)
        assert not store.path_for("k1").exists()
        assert store.get("k1") is MISSING

    def test_stats_dict_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _value(1))
        store.get("k1")
        store.get("absent")
        stats = store.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert set(stats) >= {"writes", "corrupt", "disk_hits",
                              "memory_hits"}


class TestCorruptEntries:
    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=0)
        store.put("k1", _value(1))
        path = store.path_for("k1")
        path.write_bytes(path.read_bytes()[:-4])
        assert store.get("k1") is MISSING
        assert store.stats.corrupt == 1
        assert not path.exists()       # recompute lands a clean entry
        assert store.put("k1", _value(1))
        assert store.get("k1") == _value(1)

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=0)
        store.path_for("k1").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("k1").write_bytes(b"definitely not a pickle")
        assert store.get("k1") is MISSING
        assert store.stats.corrupt == 1


class TestEviction:
    def test_memory_lru_bound_holds(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=2)
        for i in range(5):
            store.put(f"k{i}", _value(i))
        assert len(store._memory) == 2
        assert list(store._memory) == ["k3", "k4"]

    def test_no_bound_never_evicts(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(20):
            store.put(f"k{i}", _value(i))
        assert len(list(tmp_path.glob("*.pkl"))) == 20


def _race_writer(directory, worker, n_keys, out_queue):
    """Hammer the same key set from one process; report what was read."""
    store = ResultStore(directory, memory_entries=0)
    bad = 0
    for round_ in range(12):
        for i in range(n_keys):
            key = f"shared{i}"
            store.put(key, _value(i))
            value = store.get(key, MISSING)
            # Concurrent writers only ever write _value(i) under this
            # key, so a reader must see exactly that or (transiently,
            # never on POSIX) a miss — a torn/mixed entry is the bug
            # the atomic rename exists to prevent.
            if value is not MISSING and value != _value(i):
                bad += 1
    out_queue.put((worker, bad))


class TestConcurrency:
    def test_multiprocess_writers_race_same_keys(self, tmp_path):
        ctx = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_writer,
                        args=(str(tmp_path), w, 8, queue))
            for w in range(4)]
        for proc in workers:
            proc.start()
        reports = [queue.get(timeout=60) for _ in workers]
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert all(bad == 0 for _, bad in reports), reports
        # Every surviving entry is complete and correct.
        store = ResultStore(tmp_path, memory_entries=0)
        for i in range(8):
            assert store.get(f"shared{i}") == _value(i)
        assert store.stats.corrupt == 0

    def test_reader_never_sees_tmpfiles_as_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", _value(1))
        # A stray in-progress temporary must not count as an entry.
        (tmp_path / "someone-else.tmp").write_bytes(b"partial")
        fresh = ResultStore(tmp_path, memory_entries=0)
        fresh.put("k2", _value(2))
        assert fresh.get("k1") == _value(1)
        assert fresh.get("k2") == _value(2)


class TestSweepInterop:
    def test_sweep_cache_and_serve_store_share_entries(self, tmp_path):
        """SweepRunner reads/writes through ResultStore: an entry put
        by either side is visible to the other under the same key."""
        store = ResultStore(tmp_path, memory_entries=0)
        payload = {"answer": 42}
        key = "deadbeef" * 8
        assert store.put(key, payload)
        raw = pickle.loads(store.path_for(key).read_bytes())
        assert raw == payload
