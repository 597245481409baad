"""Rational <-> "p/q" string helpers used by every JSON surface, and
the one reader of JSON input files.

Classification outputs never pass through floats: rationals are
rendered as "p/q" (or "p" when integral) and parsed back exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
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
    return str(Fraction(x))


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
