"""JSON wire format for instances and run reports.

Rationals travel as "p/q" strings so files round-trip bit exactly; the
optional "angle" field is the turn fraction of circle points, and the
optional "annotations" block carries generator-private data (coins,
permutations, interval choices).
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .adversaries import AnnotatedInstance
from .errors import InvalidInstance, RationalTooLarge
from .geometry import Instance, Point

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


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(s: Any) -> Fraction:
    """An int, or a string as ``format_rational`` writes it: a signed ASCII
    integer, optionally ``/`` and digits (``Fraction`` expands exponents)."""
    if isinstance(s, int) and not isinstance(s, bool):  # JSON true is not 1
        return Fraction(s)
    if isinstance(s, str):
        try:
            if not _RATIONAL.fullmatch(s):
                raise ValueError
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"bad rational literal {s!r}") from exc
    raise InvalidInstance(f"bad rational value {s!r}")


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
        "points": [point_to_json(p) for p in instance.points],
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


def _point_from_json(rp: Any, idx: int) -> Point:
    if not isinstance(rp, dict):
        raise InvalidInstance(f"point {idx} is not an object")
    try:
        x, y = rp["x"], rp["y"]
    except KeyError as exc:
        raise InvalidInstance(f"point {idx} has no {exc} field") from exc
    return Point(
        x=parse_rational(x),
        y=parse_rational(y),
        arrival_index=idx,
        color=rp.get("color"),
        angle=parse_rational(rp["angle"]) if "angle" in rp else None,
    )


def instance_from_json(data: dict) -> AnnotatedInstance:
    return _annotated(data, *_parsed_fields(data))


def _parsed_fields(data: Any) -> tuple[str, str, list[Point]]:
    try:
        kind, geometry_, raw_points = data["kind"], data["geometry"], data["points"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"missing instance field: {exc}") from exc
    if not isinstance(raw_points, list):
        raise InvalidInstance("points must be a list")
    return kind, geometry_, [_point_from_json(rp, i) for i, rp in enumerate(raw_points, 1)]


def _annotated(data: dict, kind: str, geometry_: str, points: list[Point]) -> AnnotatedInstance:
    instance = Instance.build(points, kind, geometry_)
    # an exact int: JSON true and 1.0 both compare equal to 1
    if "n" in data and (type(data["n"]) is not int or data["n"] != instance.n):
        raise InvalidInstance(f"declared n={data['n']!r} but instance has n={instance.n}")
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
    fields = _parsed_fields(data)
    del data["points"]  # free the raw strings before validation ranks the points
    return _annotated(data, *fields)
