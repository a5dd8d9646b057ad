"""Tests for the shared filesystem atomics (repro.util.atomics)."""

import pytest

from repro.util.atomics import atomic_write_bytes


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

