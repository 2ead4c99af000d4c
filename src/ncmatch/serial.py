"""JSON wire format for instances and run reports.

Rationals travel as "p/q" strings so files round-trip bit exactly; the
optional "angle" field is the turn fraction of circle points, and the
optional "annotations" block carries generator-private data (coins,
permutations, interval choices).

On circles the angles are the points: the loader still parses x/y, so a
malformed one is an error, but keeps only the angles' ticks, and the
writer derives x/y from each angle again, one point at a time.  Files
that ``generate`` wrote round-trip to identical bytes.

The loader parses each literal to its two integers, in the terms written,
and hands the rows of pairs to ``Instance.from_rows``, so it builds no
``Point`` and no ``Fraction`` and ``geometry`` alone decides how they
become the grid.  What remains of a large load is the decimal-to-int
conversion of the literals.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .adversaries import AnnotatedInstance
from .errors import InvalidInstance, RationalTooLarge, quoted
from .geometry import CIRCLE, Instance, Point

SCHEMA_VERSION = 1


def format_rational(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # Python's int-to-string digit limit
        raise RationalTooLarge(
            f"a rational with {q.denominator.bit_length()}-bit denominator "
            f"exceeds the interpreter's integer string limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: Any) -> Fraction:
    """An int, or a string as ``format_rational`` writes it: a signed ASCII
    integer, optionally ``/`` and digits; no exponent, point or space.  The
    value equals ``Fraction(s)``."""
    return Fraction(*_parse_pair(s))


def _parse_pair(s: Any) -> tuple[int, int]:
    """The numerator and denominator of a ``parse_rational`` literal, as written."""
    if isinstance(s, int) and not isinstance(s, bool):  # JSON true is not 1
        return s, 1
    if not isinstance(s, str):
        raise InvalidInstance(f"bad rational value {quoted(s)}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise InvalidInstance(f"bad rational literal {quoted(s)}")
    num, den = match[1], match[2] or "1"
    try:
        p, q = int(num), int(den)
    except ValueError as exc:  # Python's string-to-int digit limit
        digits = max(len(num.lstrip("+-")), len(den))
        raise RationalTooLarge(
            f"a rational literal with {digits} digits exceeds the interpreter's "
            f"integer string limit of {sys.get_int_max_str_digits()} digits"
        ) from exc
    if q == 0:
        raise InvalidInstance(f"bad rational literal {quoted(s)}")
    return p, q


def point_to_json(p: Point) -> dict:
    out = {"x": format_rational(p.x), "y": format_rational(p.y), "color": p.color}
    if p.angle is not None:
        out["angle"] = format_rational(p.angle)
    return out


def instance_to_json(
    instance: Instance, annotations: dict | None = None, meta: dict | None = None
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": instance.kind,
        "geometry": instance.geometry,
        "n": instance.n,
        "points": [point_to_json(p) for p in instance.iter_points()],
        "annotations": annotations or {},
        "meta": meta or {},
    }


def annotated_to_json(ai: AnnotatedInstance) -> dict:
    ann: dict[str, Any] = {}
    if ai.parent is not None:
        ann["parent"] = list(ai.parent)
        ann["fake"] = list(ai.fake)
        ann["coins_f"] = list(ai.coins_f)
        ann["coins_r"] = list(ai.coins_r)
    if ai.hidden_perm is not None:
        ann["sigma"] = list(ai.hidden_perm)
    if ai.hidden_choice is not None:
        ann["j"] = ai.hidden_choice[0]
        ann["intervals"] = list(ai.hidden_choice[1])
    return instance_to_json(ai.instance, annotations=ann, meta=ai.meta)


def _row_from_json(rp: Any, idx: int, circle: bool) -> tuple:
    """The ``Instance.from_rows`` row of a point entry; circles' x/y are parsed, not kept."""
    if not isinstance(rp, dict):
        raise InvalidInstance(f"point {idx} is not an object")
    try:
        x, y = rp["x"], rp["y"]
    except KeyError as exc:
        raise InvalidInstance(f"point {idx} has no {exc} field") from exc
    x, y = _parse_pair(x), _parse_pair(y)
    angle = _parse_pair(rp["angle"]) if "angle" in rp else None
    return (None, None, angle, rp.get("color")) if circle else (x, y, angle, rp.get("color"))


def instance_from_json(data: dict) -> AnnotatedInstance:
    kind, geometry_, raw_points = _fields(data)
    return _annotated(data, kind, geometry_, list(raw_points))  # parsing empties its list


def _fields(data: Any) -> tuple[str, str, list]:
    try:
        kind, geometry_, raw_points = data["kind"], data["geometry"], data["points"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"missing instance field: {exc}") from exc
    if not isinstance(raw_points, list):
        raise InvalidInstance("points must be a list")
    return kind, geometry_, raw_points


def _annotated(data: dict, kind: str, geometry_: str, raw_points: list) -> AnnotatedInstance:
    circle, rows = geometry_ == CIRCLE, []
    for i, rp in enumerate(raw_points):
        rows.append(_row_from_json(rp, i + 1, circle))
        raw_points[i] = None  # its literals are freed while the rest are parsed
    instance = Instance.from_rows(rows, kind, geometry_)
    # an exact int: JSON true and 1.0 both compare equal to 1
    if "n" in data and (type(data["n"]) is not int or data["n"] != instance.n):
        raise InvalidInstance(f"declared n={quoted(data['n'])} but instance has n={instance.n}")
    ann = data.get("annotations") or {}
    try:
        return AnnotatedInstance(
            instance=instance,
            parent=tuple(ann["parent"]) if "parent" in ann else None,
            fake=tuple(ann["fake"]) if "fake" in ann else None,
            coins_f=tuple(ann["coins_f"]) if "coins_f" in ann else None,
            coins_r=tuple(ann["coins_r"]) if "coins_r" in ann else None,
            hidden_perm=tuple(ann["sigma"]) if "sigma" in ann else None,
            hidden_choice=(ann["j"], tuple(ann["intervals"])) if "j" in ann else None,
            meta=data.get("meta") or {},
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"malformed annotations: {exc!r}") from exc


def dump_instance(path, ai_or_instance, meta: dict | None = None) -> None:
    if isinstance(ai_or_instance, AnnotatedInstance):
        doc = annotated_to_json(ai_or_instance)
        if meta:
            doc["meta"].update(meta)
    else:
        doc = instance_to_json(ai_or_instance, meta=meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_instance(path) -> AnnotatedInstance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8
            raise InvalidInstance(f"not valid JSON: {exc}") from exc
    fields = _fields(data)
    del data["points"]  # the list is the loader's own: parsing frees it entry by entry
    return _annotated(data, *fields)
