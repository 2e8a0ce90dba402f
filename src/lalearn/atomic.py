"""lalearn's text files: the one module that opens them.

Every writer opens its target through :func:`atomic_open`: the text goes to
``<path>.tmp``, which replaces the target only once the writer has finished,
so a writer that fails leaves no truncated file or temp file behind, and an
old target keeps its bytes.  :func:`write_csv` renders a cell by its type: a
``str`` as it is, an integer in decimal, any other number as
``repr(float(v))``, the shortest text that reads back to the same float.
:func:`write_json` writes a document as one line with sorted keys, and
:func:`read_json` decodes one; every reader names the file in its errors.
This module imports nothing from ``lalearn``, so any module can use it.
"""

from __future__ import annotations

import json
import operator
import os
from contextlib import contextmanager, suppress
from numbers import Integral


def temp_path(path) -> str:
    """The temp file ``atomic_open`` writes before it replaces ``path``."""
    return f"{os.fspath(path)}.tmp"


@contextmanager
def atomic_open(path):
    """A UTF-8 text file for writing whose contents become ``path`` on a clean exit."""
    tmp = temp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write the ``header`` names and then each row of cells, through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_json(path, doc) -> None:
    """Write ``json.dumps(doc, sort_keys=True)`` through ``atomic_open``.

    A numpy integer is written as an integer.  ``json.dumps`` runs the C
    encoder, several times faster than ``json.dump`` to a file.
    """
    text = json.dumps(doc, sort_keys=True, default=operator.index)
    with atomic_open(path) as fh:
        fh.write(text)


def read_text(path) -> str:
    """The UTF-8 text at ``path``, a leading byte-order mark dropped; else ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path):
    """The JSON document at ``path``; ``ValueError`` naming the file when it does not decode."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # RecursionError: deep nesting
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def read_csv(path):
    """The header cells at ``path`` and a lazy iterator of ``(line number, cells)`` rows.

    Blank lines are skipped.  A row whose cell count differs from the
    header's raises only when it is reached, so a caller checks the header first.
    """
    lines = read_text(path).split("\n")
    if not lines[0].strip():
        raise ValueError(f"{path}: missing header row")
    header = lines[0].split(",")

    def rows():
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path} line {lineno}: expected {len(header)} cells, "
                                 f"got {len(cells)}")
            yield lineno, cells

    return header, rows()
