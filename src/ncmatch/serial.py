"""JSON wire format for instances and run reports.

Rationals travel as "p/q" strings so files round-trip bit exactly; the
optional "angle" field is the turn fraction of circle points, and the
optional "annotations" block carries generator-private data (coins,
permutations, interval choices).

On circles the angles are the points: the loader still parses x/y, so a
malformed one is an error, but keeps only the angles' ticks, and the
writer derives x/y from each angle again.  Files that ``generate`` wrote
round-trip to identical bytes.

``instance_to_json`` and ``annotated_to_json`` return the document as a
dict; ``dump_instance`` writes the bytes ``json.dump`` writes of that
dict with ``indent=2``, plus a newline, but streams the points: it
formats and writes a few at a time from the grid, so it never holds the
points list, and the memory it needs does not grow with the file.  It
checks the interpreter's int-to-str digit limit before it opens the
file, so an instance with a literal past the limit raises
``RationalTooLarge`` and leaves the path as it was.

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
from itertools import chain, islice
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


def _document(instance: Instance, annotations: dict | None, meta: dict | None) -> dict:
    """The file's fields in the order written, the one layout of both
    forms: "points" is an iterator of ``point_to_json`` dicts, each built
    from the grid when reached."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": instance.kind,
        "geometry": instance.geometry,
        "n": instance.n,
        "points": map(point_to_json, instance.iter_points()),
        "annotations": annotations or {},
        "meta": meta or {},
    }


def _listed(doc: dict) -> dict:
    doc["points"] = list(doc["points"])
    return doc


def instance_to_json(
    instance: Instance, annotations: dict | None = None, meta: dict | None = None
) -> dict:
    return _listed(_document(instance, annotations, meta))


def _annotations(ai: AnnotatedInstance) -> dict:
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
    return ann


def annotated_to_json(ai: AnnotatedInstance) -> dict:
    return _listed(_document(ai.instance, _annotations(ai), dict(ai.meta)))


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


def _check_digit_limit(instance: Instance) -> None:
    """Raise ``RationalTooLarge`` if any literal of ``instance`` would pass
    the interpreter's int-to-str digit limit.  The limit grows with
    magnitude and ignores the sign, and every literal's integers are at most
    the widest integer on the grid (a circle's angle reduces mod 1 to terms
    no larger than the unit, and its float x/y have at most 324 digits,
    under the limit's 640-digit floor), so one conversion of that integer
    settles it.  Only past it are the points formatted, to raise for the
    first literal that fails, as the dict form does."""
    values, widest = instance.grid
    if instance.geometry != CIRCLE:
        widest = max(widest, max(map(abs, chain.from_iterable(values)), default=0))
    try:
        str(widest)
    except ValueError:
        for p in instance.iter_points():
            point_to_json(p)


_ENCODER = json.JSONEncoder(indent=2)
_POINTS_PER_WRITE = 16  # an encoder call costs about as much as encoding a point


def _write_document(fh, doc: dict) -> None:
    """``json.dump(doc, fh, indent=2)`` of a ``_document``, its points
    encoded and written a few at a time.  A value one level down is its own
    encoding with every line break indented two more spaces, since no JSON
    string holds a raw line break."""
    sep = "{"
    for key, value in doc.items():
        fh.write(f"{sep}\n  {_ENCODER.encode(key)}: ")
        sep = ","
        if key != "points":
            for chunk in _ENCODER.iterencode(value):
                fh.write(chunk.replace("\n", "\n  "))
            continue
        item_sep = "["
        for batch in iter(lambda: list(islice(value, _POINTS_PER_WRITE)), []):
            # the batch encoded as a list, less its brackets, one level down
            fh.write(item_sep + _ENCODER.encode(batch)[1:-2].replace("\n", "\n  "))
            item_sep = ","
        fh.write("[]" if item_sep == "[" else "\n  ]")
    fh.write("\n}")


def dump_instance(path, ai_or_instance, meta: dict | None = None) -> None:
    """Write the instance file: the bytes of ``json.dump`` of its dict form
    with ``indent=2``, and a newline, a few points at a time.  An
    ``AnnotatedInstance``'s meta is merged with ``meta`` into a new dict."""
    if isinstance(ai_or_instance, AnnotatedInstance):
        ai = ai_or_instance
        instance, ann, meta = ai.instance, _annotations(ai), {**ai.meta, **(meta or {})}
    else:
        instance, ann = ai_or_instance, None
    _check_digit_limit(instance)
    with open(path, "w") as fh:
        _write_document(fh, _document(instance, ann, meta))
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
