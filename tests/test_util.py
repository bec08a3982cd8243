"""Atomic writes: the whole text or nothing, written in bounded slices,
with the mode the umask gives."""
import os
import stat
import tracemalloc

import pytest

from borg_spectra import util
from borg_spectra.util import atomic_write_text


def test_writes_the_text_across_slices(tmp_path):
    text = "".join(f"{i},{i * 0.1!r}\n" for i in range(60_000))
    assert len(text) > 3 * util._WRITE_SLICE
    atomic_write_text(tmp_path / "rows.csv", text)
    assert (tmp_path / "rows.csv").read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_holds_one_slice_at_a_time(tmp_path):
    # a slice of the str and its encoding, however long the text
    text = "x" * (64 * util._WRITE_SLICE)
    tracemalloc.start()
    try:
        atomic_write_text(tmp_path / "big.txt", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * util._WRITE_SLICE
    assert (tmp_path / "big.txt").stat().st_size == len(text)


def test_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "bad.txt", ["not", "a", "str"])
    assert not list(tmp_path.iterdir())


def test_failed_rename_reaches_the_caller(tmp_path, monkeypatch):
    # the rename takes the temp file with it and fails: the cleanup's own
    # OSError is dropped, and the caller sees the rename's
    def vanish_then_fail(src, dst):
        os.unlink(src)
        raise PermissionError(13, "rename refused")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", vanish_then_fail)
        with pytest.raises(PermissionError, match="rename refused"):
            atomic_write_text(tmp_path / "out.txt", "text\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_file_mode_follows_the_umask(tmp_path, umask, mode):
    # the mode open(path, "w") would give, not the temp file's 0o600
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "text\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode


def test_never_sets_the_umask(tmp_path, monkeypatch):
    # the kernel applies the umask to the temp file; nothing reads or sets it
    def refuse(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        atomic_write_text(tmp_path / "out.txt", "text\n")
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o644
    assert (tmp_path / "out.txt").read_text() == "text\n"
