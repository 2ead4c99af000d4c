import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from bt_reference import descent_bt

from ncmatch import generators, geometry, offline
from ncmatch.codecs import DyckWord, bits_for_universe, catalan, elias_delta_encode
from ncmatch.engine import (
    asap_matching,
    bt_matching,
    greedy,
    make_engine,
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
    BNM,
    CIRCLE,
    CONVEX,
    GENERAL,
    MNM,
    Instance,
    Matching,
    available_set,
    circle_point,
    plane_point,
)


def width(n: int) -> int:
    return bits_for_universe(catalan(n))


# ---------------------------------------------------------------------------
# harness fundamentals


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
        s1 = simulate(alg, inst, engine="region")
        s2 = simulate(ref, inst, engine="brute")
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
        e1 = make_engine(inst, "region")
        e2 = make_engine(inst, "brute")
        for i in range(1, 17):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            assert c1 == c2
            idx1, idx2 = sorted(e1.indices()), sorted(e2.indices())
            assert idx1 == idx2
            assert e1.min_arrival() == e2.min_arrival()
            assert e1.max_arrival() == e2.max_arrival()
            for probe in range(1, i):
                assert e1.has(probe) == e2.has(probe)
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
        e1 = make_engine(inst, "region")
        e2 = make_engine(inst, "brute")
        for i in range(1, 2 * n + 1):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            assert c1 == c2 == e1.count() == e2.count()
            idx1, idx2 = e1.indices(), e2.indices()
            assert sorted(idx1) == sorted(idx2) and len(idx1) == c1
            e1.indices().clear()  # a caller's copy: the engine keeps its own
            assert e1.min_arrival() == e2.min_arrival()
            assert e1.max_arrival() == e2.max_arrival()
            for probe in range(1, i):
                assert e1.has(probe) == e2.has(probe)
            if i > n and idx1 and moves.random() < 0.7:
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
        e1 = make_engine(inst, "region")
        e2 = make_engine(inst, "brute")
        for i in range(1, 2 * n + 1):
            c1, c2 = e1.on_arrival(i), e2.on_arrival(i)
            assert c1 == c2 == e1.count() == e2.count()
            idx1, idx2 = e1.indices(), sorted(e2.indices())
            assert idx1 == idx2
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
    for mode in ("region", "brute"):
        eng = make_engine(inst, mode)
        for i in range(1, 9):
            eng.on_arrival(i)
            assert eng.count() == len(eng.indices())
            eng.commit(None)


def test_brute_engine_integer_path_matches_available_set():
    # the plain-int crossing routine must answer exactly like the generic
    # exact predicates behind geometry.available_set
    rng = random.Random(41)
    for trial in range(20):
        if trial % 2:
            inst = generators.random_general_instance(5, rng.randrange(10**6))
        else:
            inst = generators.random_convex_polygon_instance(5, MNM, rng.randrange(10**6))
        eng = make_engine(inst, "brute")
        assert eng.ends is (inst.int_xy if inst.geometry == GENERAL else inst.ranks)
        m = Matching()
        for i in range(1, 11):
            cnt = eng.on_arrival(i)
            expected = available_set(inst, m, i)
            assert cnt == len(expected)
            assert sorted(eng.indices()) == sorted(expected)
            if expected and rng.random() < 0.6:
                j = rng.choice(sorted(expected))
                eng.commit(j)
                m = m.with_edge(i, j)
            else:
                eng.commit(None)


def _brute_play_against_available_set(inst, rng) -> int:
    """Drive the brute engine with a random legal player (skip, or a random
    available partner) and check every arrival's count, ``indices`` and
    ``has`` against ``geometry.available_set``; return the matches made."""
    eng = make_engine(inst, "brute")
    m = Matching()
    for i in range(1, inst.size + 1):
        cnt = eng.on_arrival(i)
        expected = sorted(available_set(inst, m, i))
        assert cnt == eng.count() == len(expected)
        assert eng.indices() == expected
        assert [j for j in range(1, i) if eng.has(j)] == expected
        if expected and rng.random() < 0.6:
            j = rng.choice(expected)
            eng.commit(j)
            m = m.with_edge(i, j)
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


def test_brute_engine_tests_a_point_on_an_edge_line_beyond_the_segment():
    # 3 and 5 lie on the line of edge (1, 2) but off the segment: a segment
    # from either is tested against that edge; 3-4 misses it, 3-5 covers it
    xy = [(0, 0), (2, 0), (4, 0), (3, 1), (-1, 0), (1, 5)]
    pts = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(xy)]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    eng = make_engine(inst, "brute")
    m = Matching()
    for i, partner in enumerate([None, 1, None, None, 4, 3], start=1):
        cnt = eng.on_arrival(i)
        expected = sorted(available_set(inst, m, i))
        assert cnt == len(expected) and eng.indices() == expected
        assert [j for j in range(1, i) if eng.has(j)] == expected
        if partner is None:
            eng.commit(None)
        else:
            eng.commit(partner)
            m = m.with_edge(i, partner)
        if i == 4:
            assert expected == [3]
        if i == 5:
            assert expected == [4]  # 3-5 runs along the edge
    assert eng.on[3] == eng.on[5] == 1  # only edge 0's line
    assert len(m) == 3


def test_brute_engine_rejects_a_match_with_an_available_point_on_its_line():
    pts = [plane_point(x, 0, i + 1) for i, x in enumerate((0, 1, 2, 5))]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    eng = make_engine(inst, "brute")
    for i in (1, 2):
        eng.on_arrival(i)
        eng.commit(None)
    assert eng.on_arrival(3) == 2
    with pytest.raises(Degenerate):
        eng.commit(1)


def test_region_engine_counts_match_available_set():
    rng = random.Random(29)
    for gen in [g for g in CONVEX_GENERATORS for _ in range(25)]:
        inst = gen(6, MNM, rng.randrange(10**6))
        eng = make_engine(inst, "region")
        m = Matching()
        for i in range(1, 13):
            cnt = eng.on_arrival(i)
            expected = available_set(inst, m, i)
            assert cnt == len(expected)
            assert sorted(eng.indices()) == sorted(expected)
            if expected and rng.random() < 0.6:
                j = rng.choice(sorted(expected))
                assert eng.has(j)
                eng.commit(j)
                m = m.with_edge(i, j)
            else:
                eng.commit(None)


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
                m = m.with_edge(i, j)


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
