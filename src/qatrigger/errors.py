"""Exception types shared across the package; the text reader, the
tab-separated row reader and the numeric-field parser that turn an
undecodable file, a wrong column count or a bad number into an
IngestionError; numpy's C reader for a block of number rows; the writer
that leaves no cut output file; and the finiteness check of the library's
parameters."""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np


class QaTriggerError(Exception):
    """Base class for errors raised by this package."""


class IngestionError(QaTriggerError):
    """A corpus, parse, score, or resource file could not be ingested.

    Messages include the offending file and line number where known.
    """


class ConfigError(QaTriggerError):
    """A run configuration is invalid or a required resource is missing."""


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text for reading, with universal newlines (LF,
    CRLF or a lone CR ends a line); a leading byte order mark is dropped.

    A byte that is not UTF-8, met anywhere while the block reads the file,
    raises IngestionError naming the file; an OSError passes through.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc.reason}") from exc


@contextmanager
def open_output(path: str | Path) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text for writing, with LF line ends.  When the
    block fails, the file is closed and removed: a feature file or DF table
    cut at a line boundary would read as a whole one.  A device, pipe or
    link is left in place; an error opening the file removes nothing."""
    path = Path(path)
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
    except BaseException:
        if path.is_file() and not path.is_symlink():
            path.unlink()
        raise


def tsv_rows(path: str | Path, width: int | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, columns) of each non-empty line of the
    tab-separated file `path`, read with open_text: a line ends in LF, CRLF
    or a lone CR, and line numbers count lines that way, blank ones too.
    With `width`, a line of another column count raises IngestionError
    `line N: expected K columns, got M`.  CoNLL-U (a blank line ends a
    block), embeddings (split on whitespace) and the model file
    (whitespace-only lines skipped too) keep their own readers; so do DF
    tables, the largest TSV input, whose loop keeps these rules inline, with
    no generator step or strip per line, for speed, and valid feature files,
    which are split once per line and checked column by column; any other
    feature file is read again through this function.
    """
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if width is not None and len(columns) != width:
                raise IngestionError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(columns)}"
                )
            yield lineno, columns


def parse_number(raw: str, path: str | Path, lineno: int, kind: type = float):
    """Parse one numeric field read from line `lineno` of `path`.

    `kind` is float or int.  A value that does not parse, or is nan or
    infinite, raises IngestionError naming the file and line.
    """
    try:
        value = kind(raw)
    except ValueError as exc:
        raise IngestionError(f"{path}: line {lineno}: not a number: {raw!r}") from exc
    # An int is finite at any size, and math.isfinite cannot take a large one.
    if kind is float and not math.isfinite(value):
        raise IngestionError(f"{path}: line {lineno}: not a finite number: {raw!r}")
    return value


def parse_block(
    lines: Sequence[str], width: int | None, delimiter: str | None = None
) -> np.ndarray | None:
    """The numbers of `lines`, one row per line, split on `delimiter` (None:
    whitespace), as a (len(lines) x width) matrix of finite floats parsed by
    numpy's C text reader; `width` None takes the first row's.

    None when the reader rejects a value or warns, when a row is missing
    (a blank line), of another width or holds nan or an infinity, or when a
    delimited block holds a character of _STRIPPED.  A value the reader
    takes has float()'s bits; float() also takes spellings the reader
    rejects, such as `1_0` or non-ASCII digits, so a caller parses a
    rejected block again with float(), which names its first bad line.
    """
    if delimiter is not None:
        text = "".join(lines)
        if any(sep in text for sep in _STRIPPED):
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if block.shape != (len(lines), width or block.shape[1]) or not np.isfinite(block).all():
        return None
    return block


# ASCII separators that numpy's reader strips around a field and float() does
# not; a whitespace split cuts at them, so only a set delimiter leaves them
# inside a field.
_STRIPPED = "\x1c\x1d\x1e\x1f"


def check_finite(owner: object, *names: str) -> None:
    """Raise ValueError naming the first of `owner`'s fields `names` that
    holds nan or an infinity, a tuple field value by value; unlike
    math.isfinite, comparing with the infinities takes an int of any size."""
    for name in names:
        value = getattr(owner, name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(-math.inf < v < math.inf for v in values):
            raise ValueError(f"{name} must be finite, got {value!r}")
