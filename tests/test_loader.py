"""The instance loader: ``serial.parse_rational`` against ``Fraction``, the
digit limit, the unit cap, literals out of lowest terms, loads that build
no ``Point`` and no ``Fraction``, round trips of every ``ncmatch generate``
family, and a mutation fuzz of ``ncmatch run``."""
import copy
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from ncmatch import adversaries, errors, generators, geometry, serial
from ncmatch.cli import FAMILIES, main
from ncmatch.engine import ALGORITHMS
from ncmatch.errors import RationalTooLarge
from ncmatch.geometry import BNM, CIRCLE, GENERAL, MNM, Instance, Point, plane_point

# ---------------------------------------------------------------------------
# parse_rational is Fraction(s) on every literal the gate admits


def _digits(rng, p: int) -> str:
    return "0" * rng.choice((0, 0, 1, 3)) + str(p)


def _random_literal(rng) -> str:
    bits = rng.choice((0, 1, 8, 64, 700, 6000, 12000))  # up to about 4000 digits
    shift = rng.choice((0, 0, 1, 5, 64, 900))
    p = rng.getrandbits(bits) << shift if bits else 0
    den = rng.choice(("none", "two", "odd", "mixed"))
    dbits = rng.randint(0, 12000 - bits)
    if den == "none":
        return rng.choice(("", "+", "-")) + _digits(rng, p)
    if den == "two":
        q = 1 << dbits
    elif den == "odd":
        q = rng.getrandbits(dbits) | 1
    else:
        q = (rng.getrandbits(max(dbits // 2, 1)) | 1) << rng.randint(1, max(dbits // 2, 1))
    return rng.choice(("", "+", "-")) + _digits(rng, p) + "/" + _digits(rng, q)


_EDGE_LITERALS = [
    "0", "+0", "-0", "-0/8", "+0/3", "0000/0001", "7", "-7", "+007",
    "1/1", "4/2", "-12/8", "3/6", "-6/9", "1/1024", "1024/1", "3072/1024",
    "-0005/0010", "1/" + str(2**12000), str(2**12000) + "/" + str(2**11999),
]


def _same(a: Fraction, b: Fraction) -> bool:
    return (type(a), a.numerator, a.denominator, hash(a)) == (
        type(b), b.numerator, b.denominator, hash(b),
    )


def test_parse_rational_matches_fraction_on_seeded_literals():
    rng = random.Random(17)
    literals = _EDGE_LITERALS + [_random_literal(rng) for _ in range(1500)]
    assert max(len(s) for s in literals) > 3500
    for s in literals:
        assert _same(serial.parse_rational(s), Fraction(s)), s
    for v in (0, 1, -5, 2**80):
        assert _same(serial.parse_rational(v), Fraction(v))


def test_a_literal_past_the_digit_limit_names_the_limit_not_the_literal():
    limit = sys.get_int_max_str_digits()
    for s, digits in [("1/" + "1" * 5000, 5000), ("-" + "7" * 4500 + "/3", 4500)]:
        with pytest.raises(RationalTooLarge) as info:
            serial.parse_rational(s)
        message = str(info.value)
        assert f"{digits} digits" in message and f"limit of {limit} digits" in message
        assert len(message) < 120


def test_run_on_a_literal_past_the_digit_limit_exits_2_with_a_short_error(tmp_path):
    doc = serial.instance_to_json(generators.random_general_instance(2, 0))
    doc["points"][0]["x"] = "1/" + "1" * 5000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {
        "error": "RationalTooLarge: a rational literal with 5000 digits exceeds the "
        f"interpreter's integer string limit of {sys.get_int_max_str_digits()} digits"
    }
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# a bad value of any length is echoed in a short message

_LONG_BAD = {
    "literal": (("points", 0, "x"), "x" * 5000),
    "zero-denominator": (("points", 1, "y"), "1/" + "0" * 4000),
    "list-rational": (("points", 2, "y"), [0] * 10000),
    "kind": (("kind",), [0] * 5000),
    "geometry": (("geometry",), "g" * 5000),
    "n": (("n",), [0] * 5000),
}


@pytest.mark.parametrize("name", sorted(_LONG_BAD))
def test_a_long_bad_value_is_echoed_in_a_short_error(tmp_path, name):
    path, value = _LONG_BAD[name]
    if path[0] == "points":
        with pytest.raises(errors.InvalidInstance) as info:
            serial.parse_rational(value)
        assert len(str(info.value)) < 100
    doc = serial.instance_to_json(generators.random_general_instance(2, 0))
    _parent(doc, path)[path[-1]] = value
    with pytest.raises(errors.InvalidInstance) as info:
        serial.instance_from_json(copy.deepcopy(doc))
    assert len(str(info.value)) < 150
    file = tmp_path / "long.json"
    file.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "greedy", str(file)])
    assert res.exit_code == 2 and res.stdout == ""
    assert len(res.stderr) < 200 and res.stderr.count("\n") == 1
    (error,) = json.loads(res.stderr).values()
    assert error.startswith("InvalidInstance: ") and "characters)" in error


# ---------------------------------------------------------------------------
# one cap on the common denominator, on every geometry


def test_unrelated_wide_coordinate_denominators_raise_rational_too_large(tmp_path):
    # the lcm of 20 unrelated 3000-bit odd denominators would have about
    # 60 000 bits: every coordinate would be scaled to it
    rng = random.Random(5)
    dens = [rng.getrandbits(3000) | 1 << 2999 | 1 for _ in range(20)]
    points = [plane_point(Fraction(i, d), i * i, i) for i, d in enumerate(dens, start=1)]
    cap = "^the common denominator of the angles or coordinates exceeds 32768 bits$"
    with pytest.raises(RationalTooLarge, match=cap):
        Instance.build(points, MNM, GENERAL)
    path = tmp_path / "wide.json"
    doc = {"kind": MNM, "geometry": GENERAL, "points": [serial.point_to_json(p) for p in points]}
    path.write_text(json.dumps(doc))
    with pytest.raises(RationalTooLarge, match=cap):
        serial.load_instance(path)
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "RationalTooLarge: " + cap[1:-1]}


# ---------------------------------------------------------------------------
# literals out of lowest terms load to the instance of the reduced file


def _circle_doc(angles):
    points = [{"x": "0", "y": "0", "angle": a} for a in angles]
    return {"kind": MNM, "geometry": CIRCLE, "points": points}


_UNREDUCED = {
    # dyadic: shifts reduce the grid
    "dyadic-circle": (
        _circle_doc(["2/4", "0/8", "6/16", "12/16"]), _circle_doc(["1/2", "0", "3/8", "3/4"]),
    ),
    # lcm(8, 12, 6, 12) = 24 over ticks 0, 8, 12, 20: only the gcd 4 reduces it to 6
    "non-dyadic-circle": (
        _circle_doc(["0/8", "4/12", "3/6", "10/12"]), _circle_doc(["0", "1/3", "1/2", "5/6"]),
    ),
    "general": tuple(
        {"kind": MNM, "geometry": GENERAL, "points": [{"x": x, "y": y} for x, y in pts]}
        for pts in (
            [("-6/8", "3/6"), ("2/4", "0/8"), ("4/12", "10/2"), ("4", "-14/6")],
            [("-3/4", "1/2"), ("1/2", "0"), ("1/3", "5"), ("4", "-7/3")],
        )
    ),
}


@pytest.mark.parametrize("name", sorted(_UNREDUCED))
def test_unreduced_literals_load_to_the_instance_of_the_reduced_file(tmp_path, name):
    loaded = []
    for i, doc in enumerate(_UNREDUCED[name]):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        loaded.append(serial.load_instance(path).instance)
    unreduced, reduced = loaded
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert unreduced.grid == reduced.grid
    assert unreduced.grid[1] == {"dyadic-circle": 8, "non-dyadic-circle": 6, "general": 12}[name]


# ---------------------------------------------------------------------------
# loading a dyadic file builds no Fraction through its constructor


def test_loading_a_markov_file_constructs_no_fraction(tmp_path, monkeypatch):
    path = tmp_path / "markov.json"
    ai = adversaries.markov_instance(500, 3)
    serial.dump_instance(path, ai)
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    back = serial.load_instance(path)
    assert calls == []
    assert back.instance.ranks == ai.instance.ranks
    Fraction(1, 2)  # the counter is live
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# every `ncmatch generate` family survives a round trip

_SIGMAS = [(1,), (2, 1, 4, 3), (3, 2, 1, 5, 4)]


def _mnm_member(seed):
    rng = random.Random(seed)
    j = rng.randint(0, 4)
    return adversaries.mnm_family_instance(2, j, rng.sample(range(1, 8), j))


_SMALL = {
    "bnm-perm": lambda seed: adversaries.bnm_red_instance(_SIGMAS[seed]),
    "mnm-family": _mnm_member,
    "markov": lambda seed: adversaries.markov_instance(9, seed),
    "random-convex": lambda seed: generators.random_convex_instance(5, BNM if seed else MNM, seed),
    "random-general": lambda seed: generators.random_general_instance(4, seed),
}


def test_loading_any_family_file_builds_no_point_and_no_fraction(tmp_path, monkeypatch):
    paths = []
    for family, build in sorted(_SMALL.items()):
        paths.append(tmp_path / f"{family}.json")
        serial.dump_instance(paths[-1], build(1))
    paths.append(tmp_path / "polygon.json")
    serial.dump_instance(paths[-1], generators.random_convex_polygon_instance(6, BNM, 1))
    calls = []
    point_init, fraction_new, raw_fraction = Point.__init__, Fraction.__new__, geometry._raw_fraction

    def counting(original):
        return lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)

    monkeypatch.setattr(Point, "__init__", counting(point_init))
    monkeypatch.setattr(Fraction, "__new__", counting(fraction_new))
    monkeypatch.setattr(geometry, "_raw_fraction", counting(raw_fraction))
    for path in paths:
        serial.load_instance(path)
        assert calls == [], path.name
    Fraction(1, 2), Point(0, 0, 1), geometry._raw_fraction(1, 2)  # the counters are live
    assert len(calls) == 3


@pytest.mark.parametrize("family", sorted(_SMALL))
def test_every_family_round_trips_to_equal_instances_and_bytes(tmp_path, family):
    assert set(_SMALL) == set(FAMILIES)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for seed in range(3):
        built = _SMALL[family](seed)
        serial.dump_instance(first, built)
        back = serial.load_instance(first)
        assert back.instance == getattr(built, "instance", built)
        serial.dump_instance(second, back)
        assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# mutated family files: `ncmatch run` exits 0-3, errors as JSON, no traceback

_LONG = "9" * 5000
_VALUES = [
    None, True, False, 0, -1, 7, 2**70, 1.5, -0.0, "", "x", "1/0", "1/2", "-3/8",
    "1e400", " 3/4", _LONG, "1/" + _LONG, "-" + _LONG + "/2", "1" * 4000,
    [], [1, 2], ["1/2", "1/3"], {}, {"x": "1/2", "y": "1/3"}, MNM, BNM, CIRCLE, GENERAL,
    "blue", "red",
]


def _paths(node, prefix=()):
    """The key path of every value below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(doc, rng) -> None:
    paths = list(_paths(doc))
    path = rng.choice(paths)
    parent, key = _parent(doc, path), path[-1]
    op = rng.choice(("delete", "replace", "duplicate", "swap"))
    if op == "delete":
        del parent[key]
    elif op == "replace":
        parent[key] = copy.deepcopy(rng.choice(_VALUES))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "duplicate":  # copy the value under a sibling's or a new key
        other = rng.choice([*parent, "x", "y", "angle", "n", "sigma", "parent"])
        parent[other] = copy.deepcopy(parent[key])
    else:
        path2 = rng.choice(paths)
        if path2[: len(path)] == path or path[: len(path2)] == path2:
            return  # one encloses the other
        parent2, key2 = _parent(doc, path2), path2[-1]
        parent[key], parent2[key2] = parent2[key2], parent[key]


def test_run_on_mutated_family_files_exits_with_json_errors_only(tmp_path):
    rng = random.Random(2024)
    path = tmp_path / "mutant.json"
    docs = {}
    for family, build in _SMALL.items():
        serial.dump_instance(path, build(1))
        docs[family] = json.loads(path.read_text())
    runner = CliRunner()
    codes = set()
    for trial in range(1000):
        doc = copy.deepcopy(docs[rng.choice(sorted(docs))])
        for _ in range(rng.randint(1, 3)):
            if doc:
                _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        alg = rng.choice(sorted(ALGORITHMS))
        res = runner.invoke(main, ["run", alg, str(path)])
        assert res.exception is None or isinstance(res.exception, SystemExit), (trial, res.exception)
        assert res.exit_code in (0, 1, 2, 3) and "Traceback" not in res.output
        if res.exit_code:
            assert len(res.stderr) < 200 and res.stderr.count("\n") == 1, (trial, res.stderr)
            (error,) = json.loads(res.stderr).values()
            assert issubclass(getattr(errors, error.split(":")[0]), errors.NcmatchError)
        codes.add(res.exit_code)
    assert codes == {0, 2, 3}
