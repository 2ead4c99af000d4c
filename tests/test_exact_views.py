"""Each geometry runs on its one exact view: convex position on hull ranks,
general position on integer coordinates.  No ``Point`` predicate and no
``Fraction`` comparison or arithmetic runs in a simulation, a polygon
builds its hull once, the brute engine's planar left/right split equals
the ``half_plane_side`` reference, and the coupling campaign gives the same
results in one process or two."""
from fractions import Fraction

import pytest
from bt_reference import brute_simulate
from helpers import available_set, with_edge

from ncmatch import adversaries, generators, geometry
from ncmatch.adversaries import (
    bnm_family,
    consistent,
    min_strategy_cover,
    mnm_family,
    noncrossing_priors,
)
from ncmatch.campaigns import check_coupling
from ncmatch.engine import (
    ALGORITHMS,
    asap_matching,
    bt_matching,
    greedy,
    simulate,
    sorted_matching,
)
from ncmatch.errors import DuplicateX, InvalidInstance, NotConvex
from ncmatch.geometry import BNM, CONVEX, GENERAL, LEFT, MNM, RIGHT, Instance, Matching
from ncmatch.offline import min_length_pm, validate_matching

POINT_PREDICATES = ("orientation", "half_plane_side", "segments_cross")


def _rebuilt(inst):
    """The instance built and validated afresh from its points."""
    return Instance.build(list(inst.points), inst.kind, inst.geometry)


def test_no_point_predicate_runs_in_the_package(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Point predicate ran")

    for name in POINT_PREDICATES:
        monkeypatch.setattr(geometry, name, forbidden)

    convex_generators = (
        generators.random_circle_instance,
        generators.random_convex_polygon_instance,
    )
    convex = {
        (gen.__name__, kind): _rebuilt(gen(6, kind, 1))
        for gen in convex_generators
        for kind in (MNM, BNM)
    }
    general = _rebuilt(generators.random_general_instance(6, 1))
    for inst in convex.values():
        assert sorted(inst.ranks) == list(range(12))
        geometry.parity(inst)
    every = [*convex.values(), general]

    for (_gen, kind), inst in convex.items():
        alg = bt_matching() if kind == BNM else asap_matching()
        assert simulate(alg, inst).violations.perfect
    assert simulate(sorted_matching(), general).violations.perfect
    for inst in every:
        for run in (simulate, brute_simulate):
            assert run(greedy(), inst).violations.valid
        # every pair of consecutive arrivals: crossings on either view
        pairs = [(i, i + 1) for i in range(1, inst.size, 2)]
        assert validate_matching(inst, pairs).matched_count == inst.size

    small = [gen(4, kind, 2) for gen in convex_generators for kind in (MNM, BNM)]
    for inst in small + [generators.random_general_instance(4, 2)]:
        assert len(min_length_pm(inst)) == 4
    for ai in mnm_family(1):
        for prior in noncrossing_priors(ai):
            consistent(prior, ai)
    assert min_strategy_cover(list(bnm_family(3))) == 5


# comparison, hash and arithmetic: everything a Fraction decision would call
FRACTION_DUNDERS = (
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__pos__", "__neg__", "__abs__",
)

# every generator family; min_length_pm, which sums placeholder lengths,
# is no algorithm of the registry and stays outside this gate
EXACT_FAMILIES = {
    "markov": lambda: adversaries.markov_instance(30, 1).instance,
    "circle-MNM": lambda: generators.random_circle_instance(20, MNM, 1),
    "circle-BNM": lambda: generators.random_circle_instance(20, BNM, 1),
    "polygon-MNM": lambda: generators.random_convex_polygon_instance(10, MNM, 1),
    "polygon-BNM": lambda: generators.random_convex_polygon_instance(10, BNM, 1),
    "general": lambda: generators.random_general_instance(10, 1),
    "bnm-perm": lambda: adversaries.bnm_red_instance((3, 1, 2, 5, 4)).instance,
    "mnm-family": lambda: adversaries.mnm_family_instance(2, 2, (1, 5)).instance,
}


# the Markov walk and generator draws hand integers to the instance: they
# are built inside the window too
BUILT_IN_WINDOW = {
    "markov", "circle-MNM", "circle-BNM", "polygon-MNM", "polygon-BNM", "general",
}


def _count_fraction_calls(monkeypatch) -> list[str]:
    """The names of the Fraction dunders called from now on, in order."""
    calls = []
    for name in FRACTION_DUNDERS:
        original = getattr(Fraction, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_no_fraction_comparison_or_arithmetic_runs_in_a_simulation(monkeypatch, family):
    # the others are built before the patch, from Fraction angles
    inst = None if family in BUILT_IN_WINDOW else EXACT_FAMILIES[family]()
    calls = _count_fraction_calls(monkeypatch)
    if inst is None:
        inst = EXACT_FAMILIES[family]()
        assert calls == [], calls[:5]
    ran = []
    for name, make in ALGORITHMS.items():
        try:
            simulate(make(), inst)
            ran.append(name)
        except (NotConvex, DuplicateX, InvalidInstance):
            pass  # the precondition refused the instance, and made no call either
        assert calls == [], (name, calls[:5])
    assert "greedy" in ran and len(ran) >= 2
    assert Fraction(1, 3) < Fraction(1, 2) and calls == ["__lt__"]  # the patch is live


def test_the_cover_search_makes_no_fraction_call_and_builds_no_point(monkeypatch):
    # the family is built before the patch, from Fraction angles; the search
    # keys every arrival on one integer grid
    family = list(bnm_family(5))

    def forbidden(*args, **kwargs):
        raise AssertionError("a Point was built")

    calls = _count_fraction_calls(monkeypatch)
    monkeypatch.setattr(geometry.Point, "__init__", forbidden)
    assert min_strategy_cover(family) == 42
    assert calls == [], calls[:5]
    assert Fraction(1, 3) < Fraction(1, 2) and calls == ["__lt__"]  # the patch is live


def test_a_polygon_builds_its_hull_once(monkeypatch):
    points = list(generators.random_convex_polygon_instance(30, BNM, 2).points)
    calls = []
    real = geometry._convex_hull_ccw
    monkeypatch.setattr(geometry, "_convex_hull_ccw", lambda xy: calls.append(xy) or real(xy))
    inst = Instance.build(points, BNM, CONVEX)
    geometry.validate_instance(inst)
    inst.ranks, inst.crossing_view, geometry.parity(inst)
    assert simulate(bt_matching(), inst).violations.perfect
    assert len(calls) == 1


def _planar_instances():
    for seed in range(12):
        yield generators.random_general_instance(1 + seed % 7, seed)


@pytest.mark.parametrize("make", [sorted_matching, greedy], ids=["sorted", "greedy"])
def test_planar_left_right_are_the_half_plane_counts(make):
    seen = set()
    for inst in _planar_instances():
        assert inst.geometry == GENERAL
        pts = inst.points
        m = Matching()
        for i, available, j, left, right in simulate(make(), inst).steps:
            avail = available_set(inst, m, i)
            assert available == len(avail)
            if j is None:
                continue
            edge = (pts[i - 1], pts[j - 1])
            sides = [geometry.half_plane_side(edge, pts[t - 1]) for t in avail - {j}]
            assert (left, right) == (sides.count(LEFT), sides.count(RIGHT))
            seen.update(side for side, count in ((LEFT, left), (RIGHT, right)) if count)
            m = with_edge(m, i, j)
    assert seen == {LEFT, RIGHT}


def test_coupling_results_do_not_depend_on_the_worker_count():
    one = check_coupling(n=50, trials=40, seed=3, workers=1)
    two = check_coupling(n=50, trials=40, seed=3, workers=2)
    assert two["params"]["workers"] == 2
    assert two["results"] == one["results"]
