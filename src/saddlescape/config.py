"""Tiny key/value config-file parser used for problem and experiment specs.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Values stay strings here; callers coerce per key.
"""

from __future__ import annotations

import math
import operator
import os

from .errors import ConfigurationError


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file; a file that does not decode raises ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def parse_kv_file(path: str | os.PathLike) -> dict[str, str]:
    return parse_kv_text(read_text(path))


def as_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"key {key!r}: expected boolean, got {raw!r}")


def as_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: expected number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def as_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: expected integer, got {raw!r}") from exc


def as_count(value, key: str) -> int:
    """``value`` as an int: a Python or numpy integer, but not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


def check_finite(values: dict) -> None:
    """Reject the first of ``values`` (name -> number, None skipped) that is
    NaN or infinite.  NaN passes every range check and infinity every lower
    bound, so such a constant would fail far from its cause (a bare
    ValueError where a schedule rounds it to a count) or run every step to
    a non-finite iterate."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def as_float_list(raw: str, key: str) -> list[float]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigurationError(f"key {key!r}: expected comma-separated numbers")
    return [as_float(s, key) for s in items]


def as_int_list(raw: str, key: str) -> list[int]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigurationError(f"key {key!r}: expected comma-separated integers")
    return [as_int(s, key) for s in items]
