"""Circle points derive their x/y placeholders on first read, and circle
instances rank their points once: every output stays bit-identical.

The eager ``circle_point`` that computed the placeholders up front is kept
here as the reference, and the digests below were taken with it.
"""
import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from ncmatch import adversaries, campaigns, engine, generators, geometry, offline, serial, svg
from ncmatch.geometry import BNM, CIRCLE, MNM, Instance, Point, circle_point, cyclic_ranks


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
        # a second read returns the stored value
        assert lazy.x is lazy.x and lazy.y is lazy.y


def test_lazy_point_equality_hash_and_repr_match_explicit_coordinates():
    for angle in (0, Fraction(1, 4), Fraction(3, 8), Fraction(2, 7)):
        ref = eager_circle_point(angle, 3)
        explicit = Point(ref.x, ref.y, 3, "blue", ref.angle)
        # each fresh lazy point derives its x/y inside hash, == and repr
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
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = Fraction(2)  # after the placeholder was derived too
    with pytest.raises(AttributeError):
        p.z  # noqa: B018 - only x/y are derived


def test_explicit_coordinates_are_kept():
    # the loader, plane_point and direct construction never derive anything
    assert Point(Fraction(1, 3), Fraction(2, 3), 1, None, Fraction(1, 8)).x == Fraction(1, 3)
    assert Point(None, None, 1).x is None
    q = geometry.plane_point(2, 5, 1)
    assert (q.x, q.y, q.angle) == (2, 5, None)


def test_loaded_circle_file_keeps_its_coordinates(tmp_path):
    inst = generators.random_circle_instance(3, MNM, 5)
    doc = serial.instance_to_json(inst)
    for k, p in enumerate(doc["points"]):
        p["x"], p["y"] = f"{k}/7", f"-{k + 1}/9"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    loaded = serial.load_instance(path).instance
    for k, p in enumerate(loaded.points):
        assert (p.x, p.y) == (Fraction(k, 7), Fraction(-(k + 1), 9))
        assert p.angle == inst.points[k].angle
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.y = Fraction(0)


@pytest.mark.parametrize("bits", [1, 20, 402, 10002])
def test_grid_points_equal_circle_points_of_the_same_fractions(bits):
    rng = random.Random(bits)
    top = (1 << bits) - 1
    ticks = [0, 1, top] + [rng.randrange(top + 1) for _ in range(40)]
    ticks += [rng.randrange(1, top + 1) << rng.randrange(bits) & top for _ in range(20)]
    colors = [rng.choice(("blue", "red", None)) for _ in ticks]
    grid = geometry.grid_points(ticks, bits, colors)
    for idx, (t, color, p) in enumerate(zip(ticks, colors, grid), start=1):
        ref = circle_point(Fraction(t, 1 << bits), idx, color)
        assert p.angle.as_integer_ratio() == ref.angle.as_integer_ratio()
        assert p == ref and repr(p) == repr(ref) and hash(p) == hash(ref)
    assert [p.color for p in geometry.grid_points(ticks[:3], bits)] == [None] * 3


def test_markov_and_random_circles_build_through_grid_points(monkeypatch):
    # they keep ticks; their points view is built through grid_points when
    # it is first read, and not before
    calls, grid_points = [], geometry.grid_points

    def recording(ticks, bits, colors=None):
        calls.append(bits)
        return grid_points(ticks, bits, colors)

    monkeypatch.setattr(geometry, "grid_points", recording)
    instances = [
        generators.random_circle_instance(5, BNM, 1),
        generators.random_convex_instance(5, MNM, 2),
        adversaries.markov_instance(5, 1).instance,
    ]
    assert calls == []
    for inst in instances:
        assert len(inst.points) == 10
    assert calls == [20, 20, 12]


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


def test_instance_ranks_are_cached_cyclic_ranks():
    for inst in (
        adversaries.markov_instance(40, 2).instance,
        generators.random_circle_instance(30, BNM, 4),
        generators.random_convex_polygon_instance(12, MNM, 1),
        adversaries.bnm_red_instance((2, 1, 3)).instance,
    ):
        assert inst.ranks == cyclic_ranks(inst.points)
        assert inst.ranks is inst.ranks
    inst = generators.random_circle_instance(20, MNM, 9)
    assert engine.make_engine(inst, "region").rank_of is inst.ranks


def test_a_circle_is_ranked_once_from_build_to_asap(monkeypatch):
    # a generated circle ranks its ticks, with the sort angles go through too
    calls, key_ranks = [], geometry._key_ranks

    def counting(keys):
        calls.append(len(keys))
        return key_ranks(keys)

    monkeypatch.setattr(geometry, "_key_ranks", counting)
    inst = generators.random_circle_instance(50, MNM, 3)
    geometry.validate_instance(inst)
    assert inst.ranks is inst.ranks
    assert engine.simulate(engine.asap_matching(), inst).violations.perfect
    assert calls == [100]


# ---------------------------------------------------------------------------
# outputs pinned with the eager points


PINNED = {
    "markov200_0": "65c3413d54e0b10d6b7917110fd01fd4c754ca0938ea51ee4e297cfee79d8067",
    "markov200_1": "ae9ccc82d47f523c3935cf9924f986b356d2ef67de4efa6602784604f2d0180f",
    "markov200_7": "89b1b94ddf59d24419499ac274bc8475195267c6a6f39b1dc942d9e48464a32e",
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
