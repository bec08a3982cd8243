"""Atomic file writes."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

_WRITE_SLICE = 1 << 18  # characters encoded and written at a time


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The text goes out in slices, so no encoded copy of the whole of it exists.
    The file gets the mode `open(path, "w")` would give it, not mkstemp's 0o600."""
    path = Path(path)
    # reading the umask sets it for the whole process; no other thread creates
    # files meanwhile (`main` writes after every worker thread is joined)
    umask = os.umask(0o077)
    os.umask(umask)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        os.chmod(tmp_name, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            for start in range(0, len(text), _WRITE_SLICE):
                handle.write(text[start : start + _WRITE_SLICE])
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
