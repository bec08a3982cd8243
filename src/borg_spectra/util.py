"""Atomic file writes."""
from __future__ import annotations

import os
from pathlib import Path

_WRITE_SLICE = 1 << 18  # characters encoded and written at a time


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    The text goes out in slices, so no encoded copy of the whole of it exists.
    The temp file is created as `open(path, "w")` creates a file, mode 0o666
    less the umask, and O_EXCL never opens one that is already there."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            for start in range(0, len(text), _WRITE_SLICE):
                handle.write(text[start : start + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
