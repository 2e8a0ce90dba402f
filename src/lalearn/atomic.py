"""Files that appear whole or not at all.

Every artifact writer opens its target through :func:`atomic_open`: the
text goes to ``<path>.tmp`` next to the target, which replaces the target
only once the writer has finished.  A writer that fails leaves neither a
truncated file nor the temp file behind, and a target that existed before
keeps its old bytes.  This module imports nothing from ``lalearn``, so every
module that writes a file can use it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path):
    """A UTF-8 text file for writing whose contents become ``path`` on a clean exit."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
