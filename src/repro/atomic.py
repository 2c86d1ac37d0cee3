"""Atomic file replacement for the on-disk stores.

The stage cache, resume manifests, segments, the run ledger and an
epoch bundle's history all replace files the same way: write a temp
file beside the target, then ``os.replace`` it over the target.  A
reader sees the old bytes or the new bytes, never a torn mix, and a
process killed mid-write leaves the old file as it was.  No ``fsync``:
the guarantee covers a killed process, not a power loss.

This module imports nothing from ``repro``, so every store can use it
without an import cycle.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace ``path`` on a clean exit.

    The temp file lives in the target's directory, so the rename never
    crosses a filesystem.  Any exception — raised by the caller's writes
    or by the rename — removes the temp file and leaves ``path``
    untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


__all__ = ["atomic_write"]
