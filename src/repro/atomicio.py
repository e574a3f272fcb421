"""The one atomic file writer: same-directory temp file + ``os.replace``.

A reader of ``path`` sees the previous bytes or the new ones, never a
mixture; a write that raises (a full disk, a failing writer) leaves the
previous file untouched and removes its temp file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["atomic_write", "temp_path"]


def temp_path(path: str | Path) -> Path:
    """Where :func:`atomic_write` stages ``path`` (hidden, per process)."""
    path = Path(path)
    return path.with_name(f".{path.name}.tmp-{os.getpid()}")


def atomic_write(
    path: str | Path, data: str | bytes | Callable[[BinaryIO], object]
) -> Path:
    """Replace ``path`` with ``data``: text, bytes, or a writer that is
    handed the open binary temp file.  Creates the parent directory."""
    path, tmp = Path(path), temp_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
