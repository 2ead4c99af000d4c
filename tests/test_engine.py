import copy
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from bt_reference import available, brute_simulate, descent_bt
from click.testing import CliRunner
from helpers import available_set, with_edge

from ncmatch import engine, generators, geometry, offline, serial
from ncmatch.adversaries import markov_instance
from ncmatch.cli import main
from ncmatch.codecs import DyckWord, bits_for_universe, catalan, elias_delta_encode
from ncmatch.engine import (
    _BruteEngine,
    _RegionEngine,
    asap_matching,
    bt_matching,
    greedy,
    simulate,
    sorted_matching,
)
from ncmatch.errors import (
    Degenerate,
    DuplicateX,
    IllegalMatch,
    InvalidInstance,
    NotConvex,
    TapeExhausted,
)
from ncmatch.geometry import (
    BLUE,
    BNM,
    CIRCLE,
    CONVEX,
    GENERAL,
    MNM,
    RED,
    Instance,
    Matching,
    circle_point,
    cross_int,
    cyclic_turn,
    plane_point,
    scan_available,
)


def width(n: int) -> int:
    return bits_for_universe(catalan(n))


# ---------------------------------------------------------------------------
# harness fundamentals


def _bnm_general_instance(n: int, seed: int) -> Instance:
    """A BNM instance in general position, built from rows with its colours."""
    xy = generators.random_general_instance(n, seed).int_xy
    colors = [BLUE] * n + [RED] * n
    rows = [((x, 1), (y, 1), None, c) for (x, y), c in zip(xy, colors)]
    return Instance.from_rows(rows, BNM, GENERAL)


@pytest.mark.parametrize(
    "alg, make",
    [
        (bt_matching, lambda: generators.random_circle_instance(7, BNM, 3)),
        (bt_matching, lambda: generators.random_convex_polygon_instance(7, BNM, 3)),
        (greedy, lambda: generators.random_circle_instance(7, BNM, 3)),
        (greedy, lambda: generators.random_convex_polygon_instance(7, BNM, 3)),
        (greedy, lambda: _bnm_general_instance(7, 3)),
    ],
    ids=["bt-circle", "bt-polygon", "greedy-circle", "greedy-polygon", "greedy-general"],
)
def test_bnm_engines_see_exactly_the_red_arrivals(monkeypatch, alg, make):
    # the blue batch is free from the start: simulate hands the engine the
    # reds n + 1..2n and nothing else, on either engine
    inst = make()
    arrivals, make_engine = [], engine.make_engine

    def recording(instance):
        eng = make_engine(instance)
        on_arrival = eng.on_arrival

        def arrive(i):
            arrivals.append(i)
            return on_arrival(i)

        eng.on_arrival = arrive
        return eng

    monkeypatch.setattr(engine, "make_engine", recording)
    sim = simulate(alg(), inst)
    assert arrivals == list(range(inst.n + 1, 2 * inst.n + 1))
    assert [step[0] for step in sim.steps] == arrivals
    assert sim.violations.valid


def test_greedy_two_points():
    inst = Instance.build([plane_point(0, 0, 1), plane_point(1, 2, 2)], MNM, GENERAL)
    sim = simulate(greedy(), inst)
    assert sorted(sim.matching.edges) == [(1, 2)]
    assert sim.bits_written == sim.bits_read == 0
    assert sim.steps == [(1, 0, None, None, None), (2, 1, 1, 0, 0)]


def test_greedy_can_strand_points_but_never_crosses():
    # diagonal pair first: greedy matches it and strands the second pair
    pts = [
        plane_point(0, 0, 1),
        plane_point(1, 1, 2),
        plane_point(1, 0, 3),
        plane_point(0, 1, 4),
    ]
    inst = Instance.build(pts, MNM, CONVEX)
    sim = simulate(greedy(), inst)
    assert sorted(sim.matching.edges) == [(1, 2)]
    assert sim.violations.valid
    assert not sim.violations.perfect


def test_greedy_never_crosses_randomized():
    for seed in range(25):
        inst = generators.random_circle_instance(8, MNM, seed)
        sim = simulate(greedy(), inst)
        assert sim.violations.valid


def test_illegal_match_aborts():
    from ncmatch.engine import OnlineAlgorithm

    pts = [
        plane_point(0, 0, 1),
        plane_point(1, 1, 2),
        plane_point(1, 0, 3),
        plane_point(0, 1, 4),
    ]
    inst = Instance.build(pts, MNM, CONVEX)
    # match the diagonal 1-2 first; the 4->3 segment would cross it
    class Setup:
        def begin(self, ctx, tape):
            pass

        def decide(self, i, view, tape):
            if i == 2:
                return 1
            if i == 4:
                return 3
            return None

    alg = OnlineAlgorithm("cheat", None, Setup, lambda inst: None)
    with pytest.raises(IllegalMatch):
        simulate(alg, inst)


def test_player_cannot_read_unwritten_tape():
    class Reader:
        def begin(self, ctx, tape):
            pass

        def decide(self, i, view, tape):
            tape.read_bit()
            return None

    from ncmatch.engine import OnlineAlgorithm

    inst = generators.random_circle_instance(2, MNM, 0)
    alg = OnlineAlgorithm("reader", None, Reader, lambda inst: None)
    with pytest.raises(TapeExhausted):
        simulate(alg, inst)


# ---------------------------------------------------------------------------
# region engine vs brute engine


CONVEX_GENERATORS = (
    generators.random_circle_instance,
    generators.random_convex_polygon_instance,
)


def _convex_instances(n: int, kind: str, seed: int):
    """The same draw as a circle instance and as a convex polygon."""
    return [gen(n, kind, seed) for gen in CONVEX_GENERATORS]


def _first_arrival(inst) -> int:
    """An engine's first arrival: n + 1 on BNM, whose engines start with
    the blues (arrivals 1..n) free, else 1."""
    return inst.n + 1 if inst.kind == BNM else 1


def test_engines_agree_step_by_step():
    rng = random.Random(17)
    runs = []
    for _ in range(40):
        kind = rng.choice([MNM, BNM])
        runs += _convex_instances(rng.randrange(2, 7), kind, rng.randrange(10**6))
    for inst in runs:
        # bt reads region ids, so the brute engine runs the descent player
        alg = bt_matching() if inst.kind == BNM else greedy()
        ref = descent_bt() if inst.kind == BNM else greedy()
        s1 = simulate(alg, inst)
        s2 = brute_simulate(ref, inst)
        assert s1.matching == s2.matching
        assert s1.steps == s2.steps


def test_engines_agree_under_random_play():
    # drive both engines with the same random decision stream and compare
    # every count, membership answer and split they produce
    rng = random.Random(99)
    runs = [
        (trial, inst)
        for trial in range(30)
        for inst in _convex_instances(8, MNM, rng.randrange(10**6))
    ]
    for trial, inst in runs:
        moves = random.Random(trial)
        e1, e2 = _RegionEngine(inst), _BruteEngine(inst)
        for i in range(1, 17):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            idx1, idx2 = available(e1, i), available(e2, i)
            assert c1 == c2 == len(idx1) and idx1 == idx2
            assert e1.min_arrival() == e2.min_arrival()
            assert e1.max_arrival() == e2.max_arrival()
            if idx1 and moves.random() < 0.6:
                j = moves.choice(idx1)
                assert e1.commit(j) == e2.commit(j)
            else:
                e1.commit(None)
                e2.commit(None)


def test_engines_agree_under_random_play_on_bnm():
    # the region engine keeps each BNM arrival's available list; every
    # query and split must still match the brute engine after every commit
    rng = random.Random(101)
    runs = []
    for trial in range(30):
        n = rng.randrange(1, 9)
        runs += [(trial, inst) for inst in _convex_instances(n, BNM, rng.randrange(10**6))]
    for trial, inst in runs:
        n = inst.n
        moves = random.Random(trial)
        e1, e2 = _RegionEngine(inst), _BruteEngine(inst)
        # both engines start with the blues free; the reds arrive
        for i in range(n + 1, 2 * n + 1):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            idx1, idx2 = available(e1, i), available(e2, i)
            assert c1 == c2 == len(idx1) and idx1 == idx2
            assert e1.min_arrival() == e2.min_arrival()
            assert e1.max_arrival() == e2.max_arrival()
            if idx1 and moves.random() < 0.7:
                j = moves.choice(idx1)
                assert e1.commit(j) == e2.commit(j)
            else:
                e1.commit(None)
                e2.commit(None)


def test_engines_agree_under_random_play_at_up_to_forty_pairs():
    # larger instances, so that many chords have their ccw side wrap past
    # rank 0 and regions are cut into cyclic slices
    rng = random.Random(103)
    runs = []
    for trial in range(6):
        for kind in (MNM, BNM):
            n = rng.randrange(20, 41)
            runs += [(trial, inst) for inst in _convex_instances(n, kind, rng.randrange(10**6))]
    wrapped = set()
    for trial, inst in runs:
        n = inst.n
        ranks = inst.ranks
        moves = random.Random(trial)
        e1, e2 = _RegionEngine(inst), _BruteEngine(inst)
        for i in range(_first_arrival(inst), 2 * n + 1):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            idx1, idx2 = available(e1, i), available(e2, i)
            assert c1 == c2 == len(idx1) and idx1 == idx2
            assert e1.min_arrival() == e2.min_arrival()
            assert e1.max_arrival() == e2.max_arrival()
            for probe in range(0, i + 2):
                assert e1.has(probe) == e2.has(probe)
            if idx1 and moves.random() < 0.5:
                j = moves.choice(idx1)
                wrapped.add(ranks[i - 1] > ranks[j - 1])
                assert e1.commit(j) == e2.commit(j)
            else:
                e1.commit(None)
                e2.commit(None)
    assert wrapped == {True, False}


def test_view_count_agrees_with_indices_on_both_engines():
    inst = generators.random_circle_instance(4, MNM, 8)
    for eng in (_RegionEngine(inst), _BruteEngine(inst)):
        for i in range(1, 9):
            assert eng.on_arrival(i) == len(available(eng, i))
            eng.commit(None)


def test_brute_engine_integer_path_matches_available_set():
    # the plain-int crossing routine must answer exactly like the generic
    # exact predicates behind available_set
    rng = random.Random(41)
    for trial in range(20):
        if trial % 2:
            inst = generators.random_general_instance(5, rng.randrange(10**6))
        else:
            inst = generators.random_convex_polygon_instance(5, MNM, rng.randrange(10**6))
        eng = _BruteEngine(inst)
        if inst.geometry == GENERAL:
            assert eng.ends is inst.int_xy
        else:
            assert eng.ends == [(r, r * r) for r in inst.ranks]
        m = Matching()
        for i in range(1, 11):
            cnt = eng.on_arrival(i)
            expected = available_set(inst, m, i)
            assert cnt == len(expected)
            assert available(eng, i) == sorted(expected)
            if expected and rng.random() < 0.6:
                j = rng.choice(sorted(expected))
                eng.commit(j)
                m = with_edge(m, i, j)
            else:
                eng.commit(None)


def test_lifted_ranks_turn_like_cyclic_turn():
    # rank r lifted to (r, r^2): the cross product of ranks a, b, c is
    # (b - a)(c - a)(c - b), never zero, with the sign of cyclic_turn
    lift = {r: (r, r * r) for r in range(10)}
    for a, b, c in itertools.permutations(range(10), 3):
        turn = cross_int(lift[a], lift[b], lift[c])
        assert turn == (b - a) * (c - a) * (c - b)
        assert (turn > 0) - (turn < 0) == cyclic_turn(a, b, c) != 0


def _grid_instance(rng, kind, side):
    """Distinct points of a side x side grid, unvalidated: collinear
    triples occur and points sit on edge lines."""
    m = 2 * rng.randrange(1, 9)
    colors = [BLUE] * (m // 2) + [RED] * (m // 2) if kind == BNM else [None] * m
    cells = rng.sample([(x, y) for x in range(side) for y in range(side)], m)
    pts = [plane_point(x, y, t + 1, c) for t, ((x, y), c) in enumerate(zip(cells, colors))]
    return Instance.build(pts, kind, GENERAL, validate=False)


def _refused(eng, inst, matched, i, j) -> bool:
    """Whether a live point (unmatched and joinable, or yet to arrive) lies
    on the line of i and j; if so, committing j must raise Degenerate and
    leave the engine's masks, free points and edges as they were, and the
    arrival is skipped instead.  On BNM a skipped red can never be joined,
    so it is not live."""
    ends, n = inst.int_xy, inst.n
    dead = range(n + 1, i) if inst.kind == BNM else ()
    live = [
        t
        for t in range(1, inst.size + 1)
        if t not in matched and t not in (i, j) and t not in dead
    ]
    if all(cross_int(ends[i - 1], ends[j - 1], ends[t - 1]) for t in live):
        return False
    before = (list(eng.side), list(eng.last), list(eng.free), list(eng.edges))
    with pytest.raises(Degenerate):
        eng.commit(j)
    assert (eng.side, eng.last, eng.free, eng.edges) == before
    eng.commit(None)
    return True


@pytest.mark.parametrize("source", ["grid", "general"])
def test_brute_engine_with_its_blocker_cache_agrees_with_the_scan_at_every_step(source):
    # every count and every has answer equals scan_available's, also where a
    # candidate's cached blocker is no longer in its mask (the new arrival
    # lies on the same side of that edge); on grids, matches whose line
    # passes through a live point are refused with Degenerate
    rng = random.Random(59)
    left_mask = refused = cached = matches = 0
    for trial in range(150):
        kind = rng.choice([MNM, BNM])
        if source == "grid":
            inst = _grid_instance(rng, kind, 5)
        else:
            inst = generators.random_general_instance(1 + trial % 12, rng.randrange(10**6))
        eng = _BruteEngine(inst)
        matched, edges = set(), []
        for i in range(_first_arrival(inst), inst.size + 1):
            si = eng.side[i]
            for j in eng.free:
                if eng.last[j]:
                    cached += 1
                    left_mask += not eng.last[j] & (si ^ eng.side[j])
            expected = scan_available(inst, i, matched, edges)
            assert eng.on_arrival(i) == len(expected)
            assert [j for j in range(i + 2) if eng.has(j)] == expected
            if not expected or rng.random() < 0.4:
                eng.commit(None)
                continue
            j = rng.choice(expected)
            if _refused(eng, inst, matched, i, j):
                refused += 1
                continue
            eng.commit(j)
            matched |= {i, j}
            edges.append((inst.int_xy[i - 1], inst.int_xy[j - 1]))
            matches += 1
    assert matches > 250 and cached > 600 and left_mask > 200
    assert (refused > 100) == (source == "grid")


def _brute_play_against_available_set(inst, rng) -> int:
    """Drive the brute engine with a random legal player (skip, or a random
    available partner) and check every arrival's count and ``has`` against
    ``available_set``; return the matches made."""
    eng = _BruteEngine(inst)
    m = Matching()
    for i in range(_first_arrival(inst), inst.size + 1):
        cnt = eng.on_arrival(i)
        expected = sorted(available_set(inst, m, i))
        assert cnt == len(expected)
        assert available(eng, i) == expected
        if expected and rng.random() < 0.6:
            j = rng.choice(expected)
            eng.commit(j)
            m = with_edge(m, i, j)
        else:
            eng.commit(None)
    return len(m)


def test_brute_engine_masks_agree_with_available_set_on_general_instances():
    rng = random.Random(43)
    matches = 0
    for trial in range(120):
        n = 1 + trial % 12
        inst = generators.random_general_instance(n, rng.randrange(10**6))
        matches += _brute_play_against_available_set(inst, rng)
    assert matches > 300


@pytest.mark.parametrize("kind", [MNM, BNM])
@pytest.mark.parametrize("gen", CONVEX_GENERATORS, ids=["circle", "polygon"])
def test_brute_engine_masks_agree_with_available_set_in_convex_position(gen, kind):
    rng = random.Random(47)
    for trial in range(40):
        inst = gen(1 + trial % 9, kind, rng.randrange(10**6))
        _brute_play_against_available_set(inst, rng)


def test_brute_engine_refuses_a_match_with_a_later_point_on_its_line():
    # 3 and 5 lie on the line of (2, 1), off the segment, and arrive later:
    # no available point is on that line, but the match would leave live
    # points on it, so it raises Degenerate and changes nothing
    xy = [(0, 0), (2, 0), (4, 0), (3, 1), (-1, 0), (1, 5)]
    pts = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(xy)]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    eng = _BruteEngine(inst)
    eng.on_arrival(1)
    eng.commit(None)
    assert eng.on_arrival(2) == 1 and eng.has(1)
    with pytest.raises(Degenerate, match=r"edge \(2, 1\)"):
        eng.commit(1)
    assert eng.side == [0] * 7 and eng.free == [1] and eng.edges == []
    eng.commit(None)
    for i in range(3, 6):
        assert eng.on_arrival(i) == i - 1
        eng.commit(None)
    # no live point is on the line of (6, 4): 3 lies left, 1, 2 and 5 right
    assert eng.on_arrival(6) == 5
    assert eng.commit(4) == (1, 3)
    assert eng.free == [1, 2, 3, 5]


def test_brute_engine_rejects_a_match_with_an_available_point_on_its_line():
    pts = [plane_point(x, 0, i + 1) for i, x in enumerate((0, 1, 2, 5))]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    eng = _BruteEngine(inst)
    for i in (1, 2):
        eng.on_arrival(i)
        eng.commit(None)
    assert eng.on_arrival(3) == 2
    with pytest.raises(Degenerate):
        eng.commit(1)


@pytest.mark.parametrize("kind", [MNM, BNM])
def test_brute_engine_on_degenerate_grid_points_agrees_with_the_scan(kind):
    # distinct points of a 4 x 4 grid, unvalidated: points sit on chord lines
    # and collinear triples occur, so matches with a live point on their
    # line raise Degenerate, after which the arrival is skipped instead
    rng = random.Random(53)
    degenerate = matches = 0
    for trial in range(150):
        inst = _grid_instance(rng, kind, 4)
        m, ends = inst.size, inst.int_xy
        eng = _BruteEngine(inst)
        matched, edges = set(), []
        for i in range(_first_arrival(inst), m + 1):
            expected = scan_available(inst, i, matched, edges)
            assert eng.on_arrival(i) == len(expected)
            assert available(eng, i) == expected
            if not expected or rng.random() < 0.3:
                eng.commit(None)
                continue
            j = rng.choice(expected)
            if _refused(eng, inst, matched, i, j):
                degenerate += 1
                continue
            p, q = ends[i - 1], ends[j - 1]
            signs = [cross_int(p, q, ends[t - 1]) for t in expected if t != j]
            left = sum(s > 0 for s in signs)
            assert eng.commit(j) == (left, len(signs) - left)
            matched |= {i, j}
            edges.append((p, q))
            matches += 1
    assert degenerate > 150 and matches > 200


def test_region_engine_counts_match_available_set():
    rng = random.Random(29)
    for gen in [g for g in CONVEX_GENERATORS for _ in range(25)]:
        inst = gen(6, MNM, rng.randrange(10**6))
        eng = _RegionEngine(inst)
        m = Matching()
        for i in range(1, 13):
            cnt = eng.on_arrival(i)
            expected = available_set(inst, m, i)
            assert cnt == len(expected)
            assert available(eng, i) == sorted(expected)
            if expected and rng.random() < 0.6:
                j = rng.choice(sorted(expected))
                assert eng.has(j)
                eng.commit(j)
                m = with_edge(m, i, j)
            else:
                eng.commit(None)


def _region_state(eng):
    return copy.deepcopy({k: v for k, v in vars(eng).items() if k != "instance"})


def test_an_illegal_commit_leaves_the_region_engine_untouched():
    # commit tests availability on its own bisect of the region's free
    # list; every refusal must come before any list, id or counter changes,
    # and the next legal commit must still give the brute engine's split
    rng = random.Random(107)
    seen = set()
    for trial in range(40):
        kind = (MNM, BNM)[trial % 2]
        n = rng.randrange(2, 9)
        for inst in _convex_instances(n, kind, rng.randrange(10**6)):
            moves = random.Random(trial)
            e1, e2 = _RegionEngine(inst), _BruteEngine(inst)
            matched = set()
            for i in range(_first_arrival(inst), 2 * n + 1):
                assert e1.on_arrival(i) == e2.on_arrival(i)
                refused = {0: "zero", i: "late", i + 1: "late"}
                for j in range(1, i):
                    if kind == BNM and j > n:
                        refused[j] = "red"
                    elif j in matched:
                        refused[j] = "matched"
                    elif not e2.has(j):
                        refused[j] = "other region"
                for j, why in refused.items():
                    before = _region_state(e1)
                    with pytest.raises(IllegalMatch):
                        e1.commit(j)
                    assert _region_state(e1) == before, (why, i, j)
                    seen.add(why)
                idx = available(e2, i)
                j = moves.choice(idx) if idx and moves.random() < 0.6 else None
                assert e1.commit(j) == e2.commit(j)
                if j is not None:
                    matched |= {i, j}
    assert seen == {"zero", "late", "red", "matched", "other region"}


# ---------------------------------------------------------------------------
# tree-advice matching


def test_bt_figure_instance_matches_sigma_and_bit_count():
    from ncmatch.adversaries import bnm_red_instance

    ai = bnm_red_instance((2, 1, 4, 3))
    sim = simulate(bt_matching(), ai.instance)
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == 4 == width(4)
    assert sorted(sim.matching.edges) == [(1, 6), (2, 5), (3, 8), (4, 7)]


def test_bt_single_pair_uses_zero_bits():
    from ncmatch.adversaries import bnm_red_instance

    ai = bnm_red_instance((1,))
    sim = simulate(bt_matching(), ai.instance)
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == 0


def test_bt_replays_oracle_matching_exactly():
    for seed in range(40):
        n = 1 + seed % 8
        inst = generators.random_convex_instance(n, BNM, seed)
        m = offline.convex_noncrossing_pm(inst)
        sim = simulate(bt_matching(), inst)
        assert sim.matching == m, (seed, n)
        assert sim.bits_read == sim.bits_written == width(n)
        assert sim.violations.perfect


def test_bt_oracle_tree_survives_the_rank_roundtrip_at_full_scale():
    # exhaustive roundtrips stop at n = 8; cover the oracle's actual trees
    # at n = 9 and 10 as well
    from ncmatch.codecs import tree_rank, tree_unrank

    for n in (9, 10):
        for seed in range(10):
            inst = generators.random_convex_instance(n, BNM, seed)
            m = offline.convex_noncrossing_pm(inst)
            tree = offline.matching_to_bt(inst, m)
            assert tree_unrank(n, tree_rank(tree)) == tree


def test_asap_at_600_pairs_in_a_fresh_process():
    # the balanced-word rank used to recurse 2n deep, so whether it failed
    # depended on what the process had cached before
    code = (
        "from ncmatch.engine import asap_matching, simulate\n"
        "from ncmatch.generators import random_circle_instance\n"
        "sim = simulate(asap_matching(), random_circle_instance(600, 'MNM', 0))\n"
        "print(sim.violations.perfect, sim.bits_read, sim.bits_written)\n"
    )
    src = Path(geometry.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", str(width(600)), str(width(600))]


def test_bt_rejects_wrong_inputs():
    with pytest.raises(InvalidInstance):
        simulate(bt_matching(), generators.random_circle_instance(3, MNM, 0))
    with pytest.raises(NotConvex):
        pts = [
            plane_point(0, 0, 1, "blue"),
            plane_point(9, 1, 2, "blue"),
            plane_point(2, 1, 3, "red"),
            plane_point(5, 9, 4, "red"),
        ]
        simulate(bt_matching(), Instance.build(pts, BNM, GENERAL))


# ---------------------------------------------------------------------------
# x-sorted matching


def test_sorted_two_points_three_bits():
    inst = Instance.build([plane_point(0, 0, 1), plane_point(1, 2, 2)], MNM, GENERAL)
    sim = simulate(sorted_matching(), inst)
    assert sorted(sim.matching.edges) == [(1, 2)]
    assert sim.bits_written == sim.bits_read == 3


def test_sorted_replays_consecutive_x_pairing():
    for seed in range(30):
        n = 1 + seed % 6
        inst = generators.random_general_instance(n, seed)
        sim = simulate(sorted_matching(), inst)
        assert sim.violations.perfect
        assert sim.bits_written == sim.bits_read == 3 * n
        order = sorted(range(1, 2 * n + 1), key=lambda i: inst.points[i - 1].x)
        expected = Matching.from_pairs(zip(order[0::2], order[1::2]))
        assert sim.matching == expected


def test_sorted_rejects_duplicate_x():
    pts = [
        plane_point(0, 0, 1),
        plane_point(0, 5, 2),
        plane_point(1, 3, 3),
        plane_point(2, 2, 4),
    ]
    inst = Instance.build(pts, MNM, GENERAL)
    with pytest.raises(DuplicateX):
        simulate(sorted_matching(), inst)


@pytest.mark.parametrize("seed", range(3))
def test_sorted_rejects_the_exact_x_tie_of_a_markov_instance(tmp_path, seed):
    # points 1 and 2 sit at turns 1/4 and 3/4, where x = 0 for both; their
    # float placeholders differ
    ai = markov_instance(30, seed)
    assert [p.angle for p in ai.instance.points[:2]] == [Fraction(1, 4), Fraction(3, 4)]
    with pytest.raises(DuplicateX):
        simulate(sorted_matching(), ai.instance)
    path = tmp_path / "markov.json"
    serial.dump_instance(path, ai)
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 3 and "DuplicateX" in res.stderr


def test_sorted_rejects_mirror_ticks():
    # ticks t and 2^20 - t have the same x, though not the same placeholder
    inst = Instance.from_ticks([102, 7, (1 << 20) - 102, 5000], 1 << 20, MNM)
    with pytest.raises(DuplicateX):
        simulate(sorted_matching(), inst)


def _order(keys):
    return sorted(range(len(keys)), key=keys.__getitem__)


def test_x_keys_order_circles_as_the_placeholders_do():
    compared = 0
    for seed in range(100):
        inst = generators.random_circle_instance(300, MNM, seed)
        keys = inst.x_keys
        if len(set(keys)) < len(keys):
            continue  # an exact tie, which sorted rejects
        compared += 1
        assert _order(keys) == _order([p.x for p in inst.points])
        # the angle path of a circle built from points orders them alike
        assert _order(Instance.build(inst.points, MNM, CIRCLE).x_keys) == _order(keys)
    assert compared == 81


def test_x_keys_order_polygons_and_the_plane_by_exact_x():
    for seed in range(40):
        n = 1 + seed % 8
        for inst in (
            generators.random_convex_polygon_instance(n, MNM, seed),
            generators.random_convex_polygon_instance(n, BNM, seed),
            generators.random_general_instance(n, seed),
        ):
            assert _order(inst.x_keys) == _order([p.x for p in inst.points])


def test_the_engines_offer_exactly_the_protocol():
    def public(cls):
        return {name for name, v in vars(cls).items() if callable(v) and name[0] != "_"}

    assert public(_BruteEngine) == {"on_arrival", "commit", "has", "min_arrival", "max_arrival"}
    assert public(_RegionEngine) == public(_BruteEngine) | {"region", "kth_clockwise"}


def test_kth_clockwise_past_the_available_count_is_an_illegal_match():
    eng = _RegionEngine(generators.random_circle_instance(2, BNM, 0))
    for i in (1, 2):
        eng.on_arrival(i)
        eng.commit(None)
    assert eng.on_arrival(3) == 2
    with pytest.raises(IllegalMatch, match=r"^red 3 wants blue #3 but only 2 available$"):
        eng.kth_clockwise(3)
    assert {eng.kth_clockwise(1), eng.kth_clockwise(2)} == {1, 2}


# ---------------------------------------------------------------------------
# match-asap


def test_asap_two_points_word_is_01():
    from ncmatch.engine import _asap_word

    inst = generators.random_circle_instance(1, MNM, 5)
    assert _asap_word(inst, "min").bits == (0, 1)
    sim = simulate(asap_matching(), inst)
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == 0  # catalan(1) = 1


def test_asap_known_n_bit_count_and_perfection():
    for seed in range(30):
        n = 2 + seed % 7
        inst = generators.random_convex_instance(n, MNM, seed)
        sim = simulate(asap_matching(), inst)
        assert sim.violations.perfect, (seed, n)
        assert sim.bits_read == sim.bits_written == width(n)


def test_asap_unknown_n_pays_for_the_length_prefix():
    for seed in range(10):
        n = 2 + seed % 5
        inst = generators.random_convex_instance(n, MNM, seed)
        sim = simulate(asap_matching(known_n=False), inst)
        assert sim.violations.perfect
        assert sim.bits_read == sim.bits_written == width(n) + len(elias_delta_encode(n))


@pytest.mark.parametrize("known_n", [True, False], ids=["known-n", "unknown-n"])
@pytest.mark.parametrize("tie_break", ["min", "max"])
def test_asap_at_ten_thousand_pairs_on_a_random_circle(tie_break, known_n):
    # about 1.5 s each on a 2-core box, generation included; the balanced
    # word's rank and unrank took 26 s and 144 s with one closed-form
    # ballot number per step
    n = 10**4
    budget = 15
    started = time.perf_counter()
    inst = generators.random_circle_instance(n, MNM, 0)
    sim = simulate(asap_matching(known_n=known_n, tie_break=tie_break), inst)
    elapsed = time.perf_counter() - started
    assert sim.violations.perfect
    prefix = 0 if known_n else len(elias_delta_encode(n))
    assert sim.bits_read == sim.bits_written == width(n) + prefix
    assert elapsed < budget, f"asap took {elapsed:.1f}s, budget {budget}s"


def test_asap_tie_break_independent():
    for seed in range(20):
        n = 2 + seed % 6
        inst = generators.random_convex_instance(n, MNM, seed)
        for tb in ("min", "max"):
            sim = simulate(asap_matching(tie_break=tb), inst)
            assert sim.violations.perfect, (seed, tb)


def test_asap_oracle_word_is_balanced_and_opposite_parity_rule_holds():
    from ncmatch.engine import _asap_word

    for seed in range(20):
        n = 2 + seed % 6
        inst = generators.random_convex_instance(n, MNM, seed)
        word = _asap_word(inst, "min")
        assert isinstance(word, DyckWord)
        # replay: whenever the word says match, every available point has
        # opposite parity to the arrival
        chi = geometry.parity(inst)
        m = Matching()
        for i, bit in enumerate(word.bits, start=1):
            avail = available_set(inst, m, i)
            opp = {j for j in avail if chi[j - 1] != chi[i - 1]}
            assert (bit == 1) == bool(opp)
            if bit == 1:
                assert avail == opp  # parity homogeneity of available sets
                j = min(avail)
                m = with_edge(m, i, j)


def test_asap_rejects_general_position():
    inst = generators.random_general_instance(3, 1)
    with pytest.raises(NotConvex):
        simulate(asap_matching(), inst)


# ---------------------------------------------------------------------------
# bits accounting


def test_every_paper_algorithm_reads_exactly_what_it_writes():
    inst_bnm = generators.random_convex_instance(5, BNM, 2)
    inst_mnm = generators.random_convex_instance(5, MNM, 2)
    inst_gen = generators.random_general_instance(5, 2)
    for alg, inst in [
        (bt_matching(), inst_bnm),
        (asap_matching(), inst_mnm),
        (asap_matching(known_n=False), inst_mnm),
        (sorted_matching(), inst_gen),
    ]:
        sim = simulate(alg, inst)
        assert sim.bits_read == sim.bits_written


def test_simulation_reports_its_engines_work_counters(monkeypatch):
    # relabels from the region engine, arrival and commit turns from the
    # brute engine: the counters of the engine that simulate ran
    engines = []
    make_engine = engine.make_engine

    def recording(instance):
        engines.append(make_engine(instance))
        return engines[-1]

    monkeypatch.setattr(engine, "make_engine", recording)
    sim = simulate(greedy(), markov_instance(50, 3).instance)
    assert sim.work == {"relabels": engines[-1].relabels}
    assert sim.work["relabels"] > 0
    sim = simulate(sorted_matching(), generators.random_general_instance(20, 5))
    eng = engines[-1]
    assert sim.work == {"arrival_turns": eng.arrival_turns, "commit_turns": eng.commit_turns}
    assert min(sim.work.values()) > 0
