"""Circle points carry x/y placeholders derived from their angles, circle
instances keep only ticks over a unit and rank them once, and a circle
file is its angles: every output stays bit-identical.

The first ``circle_point``, which computed the placeholders from the
normalised ``Fraction``, is kept here as the reference, and the digests
below were taken with it.
"""
import dataclasses
import functools
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from helpers import count_hull_computations

from ncmatch import adversaries, campaigns, engine, generators, geometry, offline, serial, svg
from ncmatch.cli import main
from ncmatch.errors import InvalidInstance, RationalTooLarge
from ncmatch.geometry import BNM, CIRCLE, MNM, Instance, Point, circle_point


def eager_circle_point(angle, arrival_index, color=None):
    """The reference: placeholders computed when the point is built."""
    if not isinstance(angle, Fraction):
        angle = Fraction(angle) % 1
    num, den = angle.numerator, angle.denominator
    if not 0 <= num < den:
        angle = angle % 1
        num, den = angle.numerator, angle.denominator
    rad = 2.0 * math.pi * (num / den)
    return Point(
        x=Fraction(*math.cos(rad).as_integer_ratio()),
        y=Fraction(*math.sin(rad).as_integer_ratio()),
        arrival_index=arrival_index,
        color=color,
        angle=angle,
    )


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sim_digest(res) -> str:
    v = res.violations
    return _sha({
        "matching": sorted(res.matching.edges),
        # the digests were taken over the former per-arrival log and
        # per-match events; both are rebuilt here from the steps
        "log": [(i, j, a) for i, a, j, _l, _r in res.steps],
        "events": [(i, j, lt, rt) for i, _a, j, lt, rt in res.steps if j is not None],
        "violations": [
            v.matched_count, v.crossings, v.color_violations,
            v.duplicate_endpoints, v.out_of_range, v.perfect,
        ],
        "bits": [res.bits_written, res.bits_read],
    })


def _angles():
    rng = random.Random(3)
    yield from (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, -1, Fraction(5, 4))
    yield from (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 6), Fraction(10**30 + 1, 3 * 10**30))
    for _ in range(200):
        k = rng.randrange(1, 420)
        yield Fraction(rng.randrange(1 << k), 1 << k)
    for _ in range(100):
        den = rng.randrange(2, 10**6)
        yield Fraction(rng.randrange(-den, 2 * den), den)


# ---------------------------------------------------------------------------
# the points themselves


def test_lazy_placeholders_equal_the_eager_reference():
    for angle in _angles():
        lazy, eager = circle_point(angle, 7, "red"), eager_circle_point(angle, 7, "red")
        assert lazy.angle == eager.angle
        assert (lazy.x, lazy.y) == (eager.x, eager.y)
        assert type(lazy.x) is Fraction and type(lazy.y) is Fraction
        assert lazy.x is lazy.x and lazy.y is lazy.y


def test_lazy_point_equality_hash_and_repr_match_explicit_coordinates():
    for angle in (0, Fraction(1, 4), Fraction(3, 8), Fraction(2, 7)):
        ref = eager_circle_point(angle, 3)
        explicit = Point(ref.x, ref.y, 3, "blue", ref.angle)
        assert hash(circle_point(angle, 3, "blue")) == hash(explicit)
        assert circle_point(angle, 3, "blue") == explicit
        assert repr(circle_point(angle, 3, "blue")) == repr(explicit)
        lazy = circle_point(angle, 3, "blue")
        assert lazy == explicit and repr(lazy) == repr(explicit)
        assert lazy != circle_point(angle, 4, "blue")
        assert dataclasses.astuple(lazy) == dataclasses.astuple(explicit)
        assert dataclasses.replace(lazy) == explicit


def test_points_stay_frozen():
    p = circle_point(Fraction(1, 8), 1)
    for name, value in (("x", Fraction(1)), ("y", Fraction(0)), ("angle", Fraction(0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        p.z  # noqa: B018 - a slots dataclass has its fields only


def test_explicit_coordinates_are_kept():
    # direct construction and plane_point keep what they are given
    assert Point(Fraction(1, 3), Fraction(2, 3), 1, None, Fraction(1, 8)).x == Fraction(1, 3)
    assert Point(None, None, 1).x is None
    q = geometry.plane_point(2, 5, 1)
    assert (q.x, q.y, q.angle) == (2, 5, None)


def _run(algorithm, path):
    return CliRunner().invoke(main, ["run", algorithm, str(path)])


def test_a_circle_file_is_its_angles(tmp_path):
    # x/y of circle points are placeholders: a file whose x/y differ from
    # its angles loads as the canonical instance and is written back as such
    inst = generators.random_circle_instance(3, MNM, 5)
    canonical, edited, back = tmp_path / "c.json", tmp_path / "e.json", tmp_path / "b.json"
    serial.dump_instance(canonical, inst)
    doc = json.loads(canonical.read_text())
    for k, p in enumerate(doc["points"]):
        p["x"], p["y"] = f"{k}/7", f"-{k + 1}/9"
    edited.write_text(json.dumps(doc))
    loaded = serial.load_instance(edited).instance
    assert loaded == inst and loaded.grid == inst.grid
    serial.dump_instance(back, loaded)
    assert back.read_bytes() == canonical.read_bytes()
    for algorithm in ("asap", "greedy"):
        want = _run(algorithm, canonical)
        assert want.exit_code == 0
        assert _run(algorithm, edited).stdout == want.stdout
    # the placeholders are still parsed: a malformed one is a typed error
    for bad in ("1/0", "abc"):
        doc["points"][1]["x"] = bad
        edited.write_text(json.dumps(doc))
        res = _run("greedy", edited)
        assert res.exit_code == 2 and "InvalidInstance" in res.stderr


@pytest.mark.parametrize("bits", [1, 20, 402, 10002])
def test_grid_points_equal_circle_points_of_the_same_fractions(bits):
    rng = random.Random(bits)
    top = (1 << bits) - 1
    ticks = [0, 1, top] + [rng.randrange(top + 1) for _ in range(40)]
    ticks += [rng.randrange(1, top + 1) << rng.randrange(bits) & top for _ in range(20)]
    colors = [rng.choice(("blue", "red", None)) for _ in ticks]
    grid = list(geometry.grid_points(ticks, 1 << bits, colors))
    assert len(grid) == len(ticks)
    for idx, (t, color, p) in enumerate(zip(ticks, colors, grid), start=1):
        ref = circle_point(Fraction(t, 1 << bits), idx, color)
        assert p.angle.as_integer_ratio() == ref.angle.as_integer_ratio()
        assert p == ref and repr(p) == repr(ref) and hash(p) == hash(ref)
        if t & 1:  # an odd tick is the angle's numerator, not a copy of it
            assert p.angle.numerator is t
    assert [p.color for p in geometry.grid_points(ticks[:3], 1 << bits)] == [None] * 3


def test_markov_and_random_circles_build_through_grid_points(monkeypatch):
    # they keep ticks; their points view is built through grid_points when
    # it is first read, and not before
    calls, grid_points = [], geometry.grid_points

    def recording(ticks, unit, colors=None):
        calls.append(unit)
        return grid_points(ticks, unit, colors)

    monkeypatch.setattr(geometry, "grid_points", recording)
    instances = [
        generators.random_circle_instance(5, BNM, 1),
        generators.random_convex_instance(5, MNM, 2),
        adversaries.markov_instance(5, 1).instance,
    ]
    assert calls == []
    for inst in instances:
        assert len(inst.points) == 10
    # each unit is the least: the Markov walk's 2^12 halves down to 2^7
    assert calls == [1 << 20, 1 << 20, 1 << 7]


def test_markov_points_are_circle_points():
    # markov_instance builds through grid_points: its angles are reduced
    # dyadics in [0, 1)
    ai = adversaries.markov_instance(60, 11)
    for p in ai.instance.points:
        assert 0 <= p.angle < 1
        assert p.angle.denominator & (p.angle.denominator - 1) == 0
        ref = eager_circle_point(p.angle, p.arrival_index)
        assert p == ref and repr(p) == repr(ref)
    geometry.validate_instance(ai.instance)


def _angle_ranks(points):
    """Counterclockwise position of each point, by a sort of its angle."""
    order = sorted(range(len(points)), key=lambda i: points[i].angle)
    return sorted(range(len(order)), key=order.__getitem__)


def _polygon_ranks(points):
    """Counterclockwise position of each point of a convex polygon, counted
    from its leftmost (then lowest) point, by a sort of the exact directions
    from the centroid: upper half-plane first, then by cross product."""
    m = len(points)
    cx, cy = sum(p.x for p in points) / m, sum(p.y for p in points) / m

    def before(i, j):
        (px, py), (qx, qy) = ((points[k].x - cx, points[k].y - cy) for k in (i, j))
        lower_p, lower_q = py < 0 or (py == 0 and px < 0), qy < 0 or (qy == 0 and qx < 0)
        if lower_p != lower_q:
            return 1 if lower_p else -1
        return -1 if px * qy - py * qx > 0 else 1

    order = sorted(range(m), key=functools.cmp_to_key(before))
    start = order.index(min(range(m), key=lambda i: (points[i].x, points[i].y)))
    order = order[start:] + order[:start]
    return sorted(range(m), key=order.__getitem__)


def _reference_ranks(inst):
    if inst.geometry == CIRCLE:
        return _angle_ranks(inst.points)
    return _polygon_ranks(inst.points)


def _convex_instances():
    yield adversaries.markov_instance(40, 2).instance
    yield generators.random_circle_instance(30, BNM, 4)
    yield generators.random_convex_polygon_instance(12, MNM, 1)
    yield generators.random_convex_polygon_instance(9, BNM, 3)
    yield adversaries.bnm_red_instance((2, 1, 3)).instance


def test_instance_ranks_are_cached_cyclic_ranks():
    for inst in _convex_instances():
        # the cyclic ranks of a sort of the angles, or of the directions
        # from a polygon's centroid
        assert inst.ranks == _reference_ranks(inst)
        assert inst.ranks is inst.ranks and inst.hull is inst.hull
    inst = generators.random_circle_instance(20, MNM, 9)
    eng = engine.make_engine(inst)
    assert eng.rank_of is inst.ranks and eng.arrival_at_rank is inst.hull


def test_hull_and_ranks_are_inverse_and_give_the_hull_order():
    for inst in _convex_instances():
        hull, ranks, m = inst.hull, inst.ranks, inst.size
        # two permutations, one the other's inverse
        assert sorted(hull) == list(range(1, m + 1)) and sorted(ranks) == list(range(m))
        assert all(ranks[i - 1] == r for r, i in enumerate(hull))
        # hull order and parity as computed from the reference ranks: walk
        # clockwise from p_1, and the parity of each rank's distance from p_1's
        ref = _reference_ranks(inst)
        ccw = sorted(range(1, m + 1), key=lambda i: ref[i - 1])
        r0 = ref[0]
        assert geometry.hull_order(inst) == [ccw[(r0 - t) % m] for t in range(m)]
        assert geometry.parity(inst) == [(r - r0) & 1 for r in ref]


def test_a_circle_is_ranked_once_from_build_to_asap(monkeypatch):
    # a generated circle sorts its ticks once, when its hull order is first read
    calls = count_hull_computations(monkeypatch)
    inst = generators.random_circle_instance(50, MNM, 3)
    geometry.validate_instance(inst)
    assert inst.ranks is inst.ranks
    assert engine.simulate(engine.asap_matching(), inst).violations.perfect
    assert calls == [100]


# ---------------------------------------------------------------------------
# one representation: ticks over the least unit


_QUARTERS = [circle_point(Fraction(k, 4), k + 1) for k in range(4)]
_MALFORMED = {
    "empty": ([], "instances need a positive even number of points"),
    "odd": (_QUARTERS[:3], "instances need a positive even number of points"),
    "no-angle": (
        [*_QUARTERS[:3], Point(Fraction(1), Fraction(0), 4)],
        "circle instances need an angle on every point",
    ),
    "arrival-index": (
        [*_QUARTERS[:3], circle_point(Fraction(7, 8), 5)],
        "point at position 3 has arrival_index 5",
    ),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_circle_points_raise_typed_errors(case):
    points, message = _MALFORMED[case]
    with pytest.raises(InvalidInstance, match=f"^{message}$"):
        Instance.build(points, MNM, CIRCLE)


@pytest.mark.parametrize("case", ["empty", "odd", "no-angle"])  # files number their points
def test_run_on_malformed_circle_files_exits_2(tmp_path, case):
    points, message = _MALFORMED[case]
    path = tmp_path / "bad.json"
    doc = {"kind": MNM, "geometry": CIRCLE, "points": [serial.point_to_json(p) for p in points]}
    path.write_text(json.dumps(doc))
    res = _run("greedy", path)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": f"InvalidInstance: {message}"}


def test_a_unit_past_the_cap_raises_rational_too_large(tmp_path):
    # lcm(2, ..., 24001) has about 34 600 bits: the unit would hold every tick
    points = [circle_point(Fraction(1, d), i) for i, d in enumerate(range(2, 24002), start=1)]
    cap = "^the common denominator of the angles or coordinates exceeds"
    with pytest.raises(RationalTooLarge, match=cap):
        Instance.build(points, MNM, CIRCLE)
    path = tmp_path / "wide.json"
    doc = {"kind": MNM, "geometry": CIRCLE, "points": [serial.point_to_json(p) for p in points]}
    path.write_text(json.dumps(doc))
    res = _run("greedy", path)
    assert res.exit_code == 2 and "RationalTooLarge" in res.stderr and len(res.stderr) < 200


def _angle_family_members():
    yield from (ai for n in range(1, 7) for ai in adversaries.bnm_family(n))
    yield from (ai for k in (1, 2) for ai in adversaries.mnm_family(k))


def test_family_circles_are_ticks_over_the_lcm_of_their_denominators(monkeypatch):
    made = []  # the angles the member under construction hands to the grid
    rational_grid = geometry.rational_grid

    def recording(pairs):
        made.append([Fraction(*pair) for pair in pairs])
        return rational_grid(pairs)

    monkeypatch.setattr(geometry, "rational_grid", recording)
    units = set()
    for ai in _angle_family_members():
        (angles,), inst = made, ai.instance
        made.clear()
        points = [circle_point(a, i, c) for i, (a, c) in enumerate(zip(angles, inst.colors), 1)]
        ticks, unit = inst.grid
        assert unit == math.lcm(*(p.angle.denominator for p in points))
        assert [t * p.angle.denominator for t, p in zip(ticks, points)] == [
            p.angle.numerator * unit for p in points
        ]
        assert inst.points == tuple(points)  # angles and placeholders alike
        assert inst.ranks == _angle_ranks(points)
        units.add(unit)
    assert len(units) > 1 and any(u & (u - 1) for u in units)  # not only powers of two


def test_generated_circles_load_back_to_the_same_ticks(tmp_path):
    path = tmp_path / "c.json"
    for n in (1, 2, 3, 50, 200):
        for seed in range(4):
            for built in (
                adversaries.markov_instance(n, seed).instance,
                generators.random_circle_instance(n, MNM, seed),
                generators.random_circle_instance(n, BNM, seed),
            ):
                serial.dump_instance(path, built)
                back = serial.load_instance(path).instance
                assert back.grid == built.grid and back.colors == built.colors


def test_writing_a_markov_file_at_n_5000_peaks_under_37_mib(tmp_path):
    # the walk's ticks shrink to the least unit in place, and the writer
    # builds each point from its tick and keeps none
    tracemalloc.start()
    try:
        serial.dump_instance(tmp_path / "m.json", adversaries.markov_instance(5000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 37 * 2**20, f"{peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# outputs pinned with the eager points


PINNED = {
    "markov200_0": "65c3413d54e0b10d6b7917110fd01fd4c754ca0938ea51ee4e297cfee79d8067",
    "markov200_1": "ae9ccc82d47f523c3935cf9924f986b356d2ef67de4efa6602784604f2d0180f",
    "markov200_7": "89b1b94ddf59d24419499ac274bc8475195267c6a6f39b1dc942d9e48464a32e",
    "markov1_0": "13e6386be2ef5ac0daba7d2f5599783bec70af478193e24a608b26a8e3a8ee87",
    "markov1_1": "3017d2abbbef91e72a87dabbb417543da71195aa6b24c77063c04d38b663019a",
    "markov1_2": "73f789eea0c986874c022bdb1d9c857ffe2607a9493cb2cab578aec6a63e09d5",
    "markov1_3": "b9306a1bfedd94a697e2fc0c17879b5afb81110eb9caf8c54edbac5d28301547",
    "markov2_0": "43425a9b037397c105fbecd889c28e4dc5b4ef92efa8acea3a6e67730f067db6",
    "markov2_1": "469d037fc6d01f7b9487303a76704e0e66c254e477ac2b091ca6470c28957761",
    "markov2_2": "d10f8fe1f558c5975e72ab786d91d1d4d10d6e61add3928f897a4995d8617aa8",
    "markov2_3": "f1200e0dc2f38133e8c1e07aa18f2cb381fb9adc109536ee6555616b849273cd",
    "markov3_0": "8ffe6d4cc683e7dfe6c2f1966cd8605149247bf35306719f86ae86e415b5791d",
    "markov3_1": "1974ca6d4e02f110ce36b27012544302f79eb7b2b0ee92d3b70861ee187ea1cf",
    "markov3_2": "78d15ff304223d51c94308c53502667fe6125dc4fbb47f2fbb45f9db1982589e",
    "markov3_3": "4eb3cd4c964e26520802bee43a3eba8d509aafa5bcd4ebf928d7d8d2804269d2",
    "markov5000_1": "a23e4f79ad5ac6fcaac870665e4503be0f5201d9ae11e8835c50ff786a7eb6a0",
    "circle50_MNM_0": "bb811a2d34ac7a47073f1a8a4c8301648a3a704ee15236ab95a30f9d337dcc6b",
    "circle50_MNM_3": "202c1b1c148a18a25e2ea673adef5d5da97a88e447cb32603acef3e093e1eeeb",
    "circle50_BNM_0": "7537d6ea72f59d544130b13b70b40e9705f0ecc4c32572bd0bbdffeab5521b9b",
    "circle50_BNM_3": "b4433053201877a675b1295e7368691a16037e7761f485e46066c0c21e0493f5",
    "bnm_1": "d05eac23a3d1bb2c80ecd95f0fb976828c031f75cf346cff77e73dc8f779285d",
    "bnm_2-1-3": "c7d1687f2d98326a11e603e7fd5d45a2a7a383b47084554d4bd78c2a64f4ee1e",
    "bnm_3-1-2-5-4": "68b96e054d69f0b13043334e3aeb2803466ba9030733378e81ef135ba3e3b12b",
    "bnm_1-2-3-4-5-6-7-8-9-10-11-12": "9af6555b0faeb0cd3ca3d589c6f753a471919c6179d77274c209926dfc823fbd",
    "mnm_family_2_2": "7c7bd42e652ca90a7fa036569e2b0727cd0e2a43857b0648b67b5eb5617e5b9e",
    "svg_markov30": "a7b3f87767543ae83b7b3e6dd6f4ebfd527ed8a93f41b659580611e0c2935e03",
    "svg_general20": "9fc137e8d2d74640ab175bf9476af5f95aaf08b675463f8e74acd478cf05c45b",
    "sim_greedy_markov200_3": "9aa4d61b1ef7cbb8bbb56c5f1561e43c45269948b2544bfb3c0bb08f4262b3f8",
    "sim_bt_circle60": "cece8538d8d1917192f54c39b604f884323de8e745a9f62f9c7326aea60aa924",
    "tape_bt_circle60": "12dcb038f9f3c8b3e2764fbbf36b8455744af9e4cf0e0b8b308bfe2373c882f9",
    "sim_asap_circle60": "ec75b8f2c87ab5563a9dae5eada9741809a171ec01177760fd6fd2eef0b47467",
    "tape_asap_circle60": "966bc8bdf728fd5ff8c51d9aea7dd1beeb3584237dd21a5204b896c7e15807a7",
    "sim_sorted_circle60": "4ac97e63bddfd39f5e817a29314d4ca4d0103b24128f748a81d9114378ca0ca6",
    "minlen_circle4": "bd19a443ae2587412c200479944434d1e1c25dc5da0e7cd10e8e9eb041e90efe",
    "coupling_150": "01715fa4367e1e6434aa396ea33d04485c8a86ce455398b899090676aa1687fa",
    "diag_greedy_markov200_0": "0b4909e45ae9c23a3c6a17d33010251e94e1784a8a91dcef5ca3e11d7411df82",
    "diag_greedy_markov200_1": "baa79205525b0b1a1dfe62c64c4ba842e4fd7c5c9609ea8905a4cebd399aece9",
    "diag_greedy_markov200_2": "a7c8cdad575e2ea5462f232d137e11c5d4012a6c9f05a0ad46b27169843d4df1",
}


def test_instance_json_digests():
    got = {}
    for s in (0, 1, 7):
        got[f"markov200_{s}"] = _sha(serial.annotated_to_json(adversaries.markov_instance(200, s)))
    for kind in (MNM, BNM):
        for s in (0, 3):
            inst = generators.random_circle_instance(50, kind, s)
            got[f"circle50_{kind}_{s}"] = _sha(serial.instance_to_json(inst))
    for sigma in ((1,), (2, 1, 3), (3, 1, 2, 5, 4), tuple(range(1, 13))):
        ai = adversaries.bnm_red_instance(sigma)
        got[f"bnm_{'-'.join(map(str, sigma))}"] = _sha(serial.annotated_to_json(ai))
    ai = adversaries.mnm_family_instance(2, 2, (1, 5))
    got["mnm_family_2_2"] = _sha(serial.annotated_to_json(ai))
    assert got == {k: PINNED[k] for k in got}


def test_markov_edge_case_digests():
    # a tiny walk wraps past rank 0 within its first arrivals, and n = 5000
    # is the size of the Markov file the benchmark writes
    got = {}
    for n in (1, 2, 3):
        for s in range(4):
            got[f"markov{n}_{s}"] = _sha(serial.annotated_to_json(adversaries.markov_instance(n, s)))
    got["markov5000_1"] = _sha(serial.annotated_to_json(adversaries.markov_instance(5000, 1)))
    assert got == {k: PINNED[k] for k in got}


def test_svg_digests():
    ai = adversaries.markov_instance(30, 4)
    matching = engine.simulate(engine.greedy(), ai.instance).matching
    rendered = svg.render_svg(ai.instance, matching)
    assert hashlib.sha256(rendered.encode()).hexdigest() == PINNED["svg_markov30"]
    gi = generators.random_general_instance(20, 5)
    matching = engine.simulate(engine.sorted_matching(), gi).matching
    rendered = svg.render_svg(gi, matching)
    assert hashlib.sha256(rendered.encode()).hexdigest() == PINNED["svg_general20"]


def test_simulation_and_tape_digests():
    got = {}
    inst = adversaries.markov_instance(200, 3).instance
    got["sim_greedy_markov200_3"] = _sim_digest(engine.simulate(engine.greedy(), inst))
    c = generators.random_circle_instance(60, BNM, 11)
    got["sim_bt_circle60"] = _sim_digest(engine.simulate(engine.bt_matching(), c))
    got["tape_bt_circle60"] = _sha(engine.bt_matching().oracle(c))
    m = generators.random_circle_instance(60, MNM, 12)
    got["sim_asap_circle60"] = _sim_digest(engine.simulate(engine.asap_matching(), m))
    got["tape_asap_circle60"] = _sha(engine.asap_matching().oracle(m))
    # the x-sorted player reads the placeholders of circle points
    got["sim_sorted_circle60"] = _sim_digest(engine.simulate(engine.sorted_matching(), m))
    # and the minimum-length oracle's length surrogate reads both
    small = generators.random_circle_instance(4, MNM, 2)
    got["minlen_circle4"] = _sha(sorted(offline.min_length_pm(small).edges))
    assert got == {k: PINNED[k] for k in got}


def test_coupling_campaign_digest():
    summary = campaigns.check_coupling(n=200, trials=150, seed=1_000_000, workers=1)
    assert summary["ok"]
    assert _sha(summary) == PINNED["coupling_150"]


def test_coupling_diagnostics_digests():
    # times, cases, x, y and isolated_count of greedy traces, where the
    # campaign digest sees only their aggregates
    got = {}
    for s in (0, 1, 2):
        ai = adversaries.markov_instance(200, s)
        diag = adversaries.coupling_diagnostics(ai, engine.simulate(engine.greedy(), ai.instance))
        got[f"diag_greedy_markov200_{s}"] = _sha(dataclasses.asdict(diag))
    assert got == {k: PINNED[k] for k in got}


def test_eager_reference_instances_give_the_same_outputs():
    # rebuild instances from eager points: JSON and simulations agree
    for kind, s in ((MNM, 21), (BNM, 22)):
        inst = generators.random_circle_instance(25, kind, s)
        eager = Instance.build(
            [eager_circle_point(p.angle, p.arrival_index, p.color) for p in inst.points],
            kind, CIRCLE,
        )
        assert serial.instance_to_json(eager) == serial.instance_to_json(inst)
        alg = engine.bt_matching() if kind == BNM else engine.greedy()
        assert _sim_digest(engine.simulate(alg, eager)) == _sim_digest(engine.simulate(alg, inst))
        assert eager == inst
