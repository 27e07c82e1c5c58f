"""Exception types shared across the package, the text reader that turns an
undecodable input file into an IngestionError, and the numeric-field parser
that does the same for a bad number."""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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
    """Open `path` as UTF-8 text for reading; a leading byte order mark is
    dropped.

    A byte that is not UTF-8, met anywhere while the block reads the file,
    raises IngestionError naming the file; an OSError passes through.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def parse_number(raw: str, path: str | Path, lineno: int, kind: type = float):
    """Parse one numeric field read from line `lineno` of `path`.

    `kind` is float or int.  A value that does not parse, or is nan or
    infinite, raises IngestionError naming the file and line.
    """
    try:
        value = kind(raw)
    except ValueError as exc:
        raise IngestionError(f"{path}: line {lineno}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise IngestionError(f"{path}: line {lineno}: not a finite number: {raw!r}")
    return value
