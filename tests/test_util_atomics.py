"""Tests for the shared filesystem atomics (repro.util.atomics)."""

import pickle

import pytest

from repro.util.atomics import (
    MISSING,
    atomic_pickle,
    atomic_write_bytes,
    load_pickle,
)


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "entry.bin"
        atomic_write_bytes(path, b"x")
        assert path.read_bytes() == b"x"

    def test_overwrite_replaces_whole_entry(self, tmp_path):
        path = tmp_path / "entry.bin"
        atomic_write_bytes(path, b"old-and-longer")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_no_temporaries_left_behind(self, tmp_path):
        path = tmp_path / "entry.bin"
        for _ in range(3):
            atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]

    def test_failure_cleans_tmpfile_and_raises(self, tmp_path):
        # The destination's parent is a *file*, so mkstemp-in-dir fails.
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        with pytest.raises(OSError):
            atomic_write_bytes(blocker / "entry.bin", b"data")


class TestPickleRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "value.pkl"
        assert atomic_pickle(path, {"rates": [1.0, 2.0]})
        assert load_pickle(path) == {"rates": [1.0, 2.0]}

    def test_falsy_values_distinguished_from_missing(self, tmp_path):
        path = tmp_path / "value.pkl"
        for value in (None, False, 0, [], {}):
            assert atomic_pickle(path, value)
            loaded = load_pickle(path)
            assert loaded is not MISSING
            assert loaded == value

    def test_missing_entry_returns_default(self, tmp_path):
        assert load_pickle(tmp_path / "absent.pkl") is MISSING
        assert load_pickle(tmp_path / "absent.pkl", default=42) == 42

    def test_truncated_entry_reads_as_default(self, tmp_path):
        path = tmp_path / "torn.pkl"
        path.write_bytes(pickle.dumps({"k": 1})[:-4])
        assert load_pickle(path) is MISSING

    def test_garbage_entry_reads_as_default(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle at all")
        assert load_pickle(path) is MISSING

    def test_unpicklable_value_returns_false(self, tmp_path):
        path = tmp_path / "value.pkl"
        assert not atomic_pickle(path, lambda: None)
        assert not path.exists()
