"""Exception types shared across the package, and the numeric-field parser
that turns a bad number in an input file into an IngestionError."""

from __future__ import annotations

import math
from pathlib import Path


class QaTriggerError(Exception):
    """Base class for errors raised by this package."""


class IngestionError(QaTriggerError):
    """A corpus, parse, score, or resource file could not be ingested.

    Messages include the offending file and line number where known.
    """


class ConfigError(QaTriggerError):
    """A run configuration is invalid or a required resource is missing."""


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
