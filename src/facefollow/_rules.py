"""Input rules: the number rules of every setting, and the strict readers of
JSON documents (cascades and run configs).

This module imports no other facefollow module, so every module, ``imaging``
at the bottom of the import graph included, takes its rules from here
without an import cycle, and each rule has this one implementation.
"""

from __future__ import annotations

import json
import math
import numbers


class CascadeError(ValueError):
    pass


class CascadeFormatError(CascadeError):
    """Syntax or semantic problem in a cascade document; message carries the path.

    The strict document checks raise it for run configs too."""


def _round_half_up(v: float) -> int:
    """The rounding rule for scan and scene geometry: halves round toward
    +infinity, on negative values too (-2.5 -> -2, -0.6 -> -1)."""
    return math.floor(v + 0.5)


# --- number rules -------------------------------------------------------------

def _is_int(v, minimum: int) -> bool:
    """Every int rule: an int or numpy integer, not a bool, of at least ``minimum``."""
    return ((type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool))
            and v >= minimum)


def _is_finite(v) -> bool:
    """The rule of every finite setting: a real number that is not a bool (an
    int, a float or a numpy number) and not NaN, +-inf or an int beyond float range."""
    try:  # a float skips the slow abstract-class test
        return ((type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
                and math.isfinite(v))
    except OverflowError:  # an int beyond float range (abs(v) <= max passes np.float32 inf)
        return False


# keyed by the wording of each rule's message; each takes numbers only
_RULES = {"finite": _is_finite,
          "finite and positive": lambda v: _is_finite(v) and v > 0,
          "finite and non-negative": lambda v: _is_finite(v) and v >= 0,
          "an int of at least 0": lambda v: _is_int(v, 0),
          "an int of at least 1": lambda v: _is_int(v, 1),
          "None or an int of at least 0": lambda v: v is None or _is_int(v, 0),
          "None or an int of at least 1": lambda v: v is None or _is_int(v, 1)}


def _check(rule: str, obj, *names: str) -> None:
    """Raise ValueError "{name} must be {rule}, got {value!r}" for the first field
    ``names`` of ``obj`` (or key of a dict ``obj``) that breaks ``rule``."""
    for k in names or obj:
        v = obj[k] if isinstance(obj, dict) else getattr(obj, k)
        if not _RULES[rule](v):
            raise ValueError(f"{k} must be {rule}, got {v!r}")


def _within(name: str, v, lo: int, hi: int):
    """``v`` if it is an int in ``lo..hi``; else ValueError
    "{name} must lie in {lo}..{hi}, got {value!r}"."""
    if not (_is_int(v, lo) and v <= hi):
        raise ValueError(f"{name} must lie in {lo}..{hi}, got {v!r}")
    return v


# --- strict document readers --------------------------------------------------
# Shared by the cascade parsers and the run-config loader; ``path`` is the key
# path of ``v``, e.g. "$.stages[0].weak[1].feature", and starts every message.

def _obj(v, path: str, required=(), optional=()) -> dict:
    if not isinstance(v, dict):
        raise CascadeFormatError(f"{path}: expected object, got {v!r}")
    unknown = set(v) - set(required) - set(optional)
    if unknown:
        raise CascadeFormatError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(v)
    if missing:
        raise CascadeFormatError(f"{path}: missing key(s) {sorted(missing)}")
    return v


def _array(v, path: str, min_len: int = 0, max_len: int | None = None) -> list:
    if (isinstance(v, list) and min_len <= len(v)
            and (max_len is None or len(v) <= max_len)):
        return v
    size = (f"{min_len} or more" if max_len is None else str(min_len)
            if min_len == max_len else f"{min_len}..{max_len}")
    raise CascadeFormatError(f"{path}: expected array of {size} items")


def _int(v, path: str, minimum: int) -> int:
    if not _is_int(v, minimum):
        raise CascadeFormatError(f"{path}: expected an int of at least {minimum}, got {v!r}")
    return v


def _real(v, path: str) -> float:
    # json.loads accepts NaN and +-Infinity literals; they end here
    if not _is_finite(v):
        raise CascadeFormatError(f"{path}: expected finite number, got {v!r}")
    return float(v)


def _bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise CascadeFormatError(f"{path}: expected true or false, got {v!r}")
    return v


def _str(v, path: str) -> str:
    if not isinstance(v, str):
        raise CascadeFormatError(f"{path}: expected string, got {v!r}")
    return v


def _build(path: str, cls, /, *args, **kw):
    """``cls(*args, **kw)``; the ValueError of a rule the model checks itself,
    or the OSError of a file it reads, is re-raised at the document path
    ``path`` of the object built."""
    try:
        return cls(*args, **kw)
    except (OSError, ValueError) as e:
        raise CascadeFormatError(f"{path}: {e}") from e


def _load_json(text: str):
    """``json.loads`` whose errors are CascadeFormatErrors at path ``$``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CascadeFormatError(
            f"$: syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # over the interpreter's digit or depth limit
        raise CascadeFormatError(f"$: {e}") from e
