"""Plain-text report documents and atomic file output.

All floating-point values are printed with 17 significant digits so that
rerunning a command reproduces its output byte for byte.
"""

from __future__ import annotations

import itertools
import operator
import os
import tempfile

import numpy as np

from .errors import IOFailure

FLOAT_FMT = "%.17g"
CSV_BLOCK_ROWS = 1024  # rows that write_csv formats together


def fmt(value) -> str:
    """Render a scalar for reports and CSV cells."""
    if type(value) is float:  # the common case; numpy scalars take the branches below
        return FLOAT_FMT % value
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return "%s%s%sj" % (
            FLOAT_FMT % value.real,
            "+" if value.imag >= 0 else "-",
            FLOAT_FMT % abs(value.imag),
        )
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % float(value)
    return str(value)


def fmt_seq(values) -> str:
    return " ".join(fmt(v) for v in values)


class ReportDocument:
    """Accumulates ``[section]`` headers with ``key: value`` lines."""

    def __init__(self):
        self._lines = []

    def section(self, name: str) -> "ReportDocument":
        if self._lines:
            self._lines.append("")
        self._lines.append("[%s]" % name)
        return self

    def line(self, key: str, value) -> "ReportDocument":
        if isinstance(value, (list, tuple, np.ndarray)):
            rendered = fmt_seq(value)
        else:
            rendered = fmt(value)
        self._lines.append("%s: %s" % (key, rendered))
        return self

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


class ChunkedText:
    """Text that ``atomic_write_text`` streams chunk by chunk from ``produce()``;
    ``encode`` joins it like ``str.encode`` (the traced benchmark counts bytes so)."""

    def __init__(self, produce):
        self._produce = produce

    def __iter__(self):
        return iter(self._produce())

    def encode(self, encoding: str = "utf-8") -> bytes:
        return "".join(self).encode(encoding)


def atomic_write_text(path: str, text):
    """Write text, a string or an iterable of string chunks, through a sibling
    temporary file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise IOFailure("cannot write %s: %s" % (path, exc)) from exc


def _column_texts(column) -> list:
    """The CSV texts of one column: an object repeated throughout is formatted
    once, a column of exact floats by one ``%``, any other cell by ``fmt``."""
    first = column[0]
    if all(map(operator.is_, column, itertools.repeat(first))):
        return [fmt(first)] * len(column)
    if set(map(type, column)) == {float}:
        return ((FLOAT_FMT + "\n") * len(column) % column).split()
    return list(map(fmt, column))


def write_csv(path: str, header, rows):
    """Write rows of scalars as CSV with a header line, atomically.

    The rows are formatted by columns (``_column_texts``), ``CSV_BLOCK_ROWS``
    at a time so that one block's cell texts are held at once, and joined
    back with ``","``.  A row of another length than the first raises
    ValueError.
    """
    lines = [",".join(header)]
    rows = iter(rows)
    width = None
    while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
        columns = [_column_texts(column) for column in zip(*block, strict=True)]
        if width not in (None, len(columns)):
            raise ValueError("a row of %d cells after rows of %d" % (len(columns), width))
        width = len(columns)
        lines += map(",".join, zip(*columns))
    atomic_write_text(path, "\n".join(lines) + "\n")
