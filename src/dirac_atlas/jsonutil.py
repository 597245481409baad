"""Rational <-> "p/q" string helpers used by every JSON surface, the
one reader of JSON input files, and the one writer of JSON output.

Classification outputs never pass through floats: rationals are
rendered as "p/q" (or "p" when integral) and parsed back exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

from .errors import ValidationError


def load_json_file(path: str, what: str):
    """Parse a JSON input file; unreadable files and bad JSON are validation errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def render_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    The text is built as one list of strings and joined once. Strings are
    quoted by json's C quoter, floats written by float.__repr__ (NaN and
    the infinities as json writes them), and a list of strings is quoted
    and joined in one step.
    """
    out: list[str] = []
    _render(obj, "\n", out)
    return "".join(out)


def _render(obj, newline: str, out: list[str]) -> None:
    """Append obj's text to out; newline is the line break and indent obj's own lines start with."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if isinstance(obj[0], str):
            try:  # the C quoter refuses anything but a string
                out.append("[" + inner + ("," + inner).join(map(_quote, obj)) + newline + "]")
                return
            except TypeError:
                pass
        sep, next_sep = "[" + inner, "," + inner
        for item in obj:
            if isinstance(item, (list, tuple, dict)):
                out.append(sep)
                _render(item, inner, out)
            else:
                out.append(sep + _leaf(item))
            sep = next_sep
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, next_sep = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            head = sep + _quote(key if isinstance(key, str) else _leaf(key)) + ": "
            if isinstance(value, (list, tuple, dict)):
                out.append(head)
                _render(value, inner, out)
            else:
                out.append(head + _leaf(value))
            sep = next_sep
        out.append(newline + "}")
    else:
        out.append(_leaf(obj))


def _leaf(x) -> str:
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def finite_number(x, what: str) -> float:
    """x, an int, float or Fraction (not a bool), as a finite float."""
    try:
        val = float(x) if type(x) in (int, float, Fraction) else math.nan
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ValidationError(f"{what} must be a finite number, got {x!r}")
    return val


def fr_str(x: Fraction) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


def parse_fr(s: str) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational: {s!r}") from exc


def vec_str(v: Iterable[Fraction]) -> list[str]:
    return [fr_str(x) for x in v]


def parse_vec(items: Sequence[str]) -> tuple[Fraction, ...]:
    return tuple(parse_fr(s) for s in items)


def parse_coords(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated coordinate string like "1,-3/2"."""
    parts = [p for p in str(text).split(",") if p.strip() != ""]
    if not parts:
        raise ValidationError(f"empty coordinate string: {text!r}")
    return tuple(parse_fr(p) for p in parts)


def mat_str(m: Iterable[Iterable[Fraction]]) -> list[list[str]]:
    return [vec_str(row) for row in m]
