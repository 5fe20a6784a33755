"""Atomic writes: the bytes land whole, with the mode a plain open() would give."""

import os
import stat

import pytest

from daptlab.fileio import atomic_write_bytes


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out" / "a.bin", b"abc")
    finally:
        os.umask(old)
    path = tmp_path / "out" / "a.bin"
    assert path.read_bytes() == b"abc"
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert [p.name for p in path.parent.iterdir()] == ["a.bin"]  # no temp file left


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_write_closes_its_temp_file(tmp_path, monkeypatch):
    def refuse(*args):
        raise PermissionError("mode change refused")

    monkeypatch.setattr(os, "chmod", refuse)
    monkeypatch.setattr(os, "fchmod", refuse)
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with pytest.raises(PermissionError):
            atomic_write_bytes(tmp_path / "a.bin", b"abc")
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert list(tmp_path.iterdir()) == []
