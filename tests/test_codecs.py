import random
import time
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncmatch.codecs import (
    AdviceTape,
    BinaryTree,
    DyckWord,
    Permutation,
    bits_for_universe,
    catalan,
    dyck_rank,
    dyck_to_tree,
    dyck_unrank,
    elias_delta_decode,
    elias_delta_encode,
    enumerate_231_avoiding,
    enumerate_dyck,
    enumerate_trees,
    is_231_avoiding,
    perm_to_tree,
    read_ranked,
    tree_rank,
    tree_size,
    tree_to_dyck,
    tree_to_perm,
    tree_unrank,
    write_ranked,
)
from ncmatch.errors import (
    CapExceeded,
    InvalidDyck,
    Not231Avoiding,
    RankOutOfRange,
    TapeExhausted,
    TruncatedCode,
)


# ---------------------------------------------------------------------------
# catalan numbers


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796


def test_catalan_recursion_matches_closed_form():
    # independent oracle: build the convolution recursion from scratch
    table = [1]
    for n in range(1, 31):
        table.append(sum(table[i] * table[n - 1 - i] for i in range(n)))
    for n in range(31):
        assert catalan(n) == table[n]


def test_catalan_log_stays_below_2n():
    for n in range(1, 65):
        assert bits_for_universe(catalan(n)) <= 2 * n


# ---------------------------------------------------------------------------
# trees


def test_tree_counts_match_catalan():
    for n in range(11):
        assert sum(1 for _ in enumerate_trees(n)) == catalan(n)


def _canonical_key(t):
    if t is None:
        return ()
    return (tree_size(t.left), _canonical_key(t.left), _canonical_key(t.right))


def test_tree_rank_matches_canonical_sort():
    # oracle: enumerate, sort by the declared order, compare positions
    for n in range(7):
        trees = sorted(enumerate_trees(n), key=_canonical_key)
        for pos, t in enumerate(trees):
            assert tree_rank(t) == pos
            assert tree_unrank(n, pos) == t


def test_tree_roundtrip_exhaustive():
    for n in range(9):
        seen = set()
        for t in enumerate_trees(n):
            r = tree_rank(t)
            assert 0 <= r < catalan(n)
            assert r not in seen
            seen.add(r)
            assert tree_unrank(n, r) == t
        assert len(seen) == catalan(n)


def test_tree_unrank_range_checked():
    with pytest.raises(RankOutOfRange):
        tree_unrank(3, 5)
    with pytest.raises(RankOutOfRange):
        tree_unrank(2, -1)


def test_tree_rank_roundtrips_on_deep_paths():
    # a right path has rank 0 and a left path the top rank; both are far
    # deeper than the interpreter's recursion limit
    n = 3000
    assert tree_rank(tree_unrank(n, 0)) == 0
    assert tree_rank(tree_unrank(n, catalan(n) - 1)) == catalan(n) - 1


def test_tree_rank_roundtrips_on_random_ranks():
    rng = random.Random(5)
    for n in (11, 37, 200):
        for _ in range(30):
            r = rng.randrange(catalan(n))
            assert tree_rank(tree_unrank(n, r)) == r


def test_single_node_tree_has_rank_zero():
    assert tree_rank(BinaryTree()) == 0


# ---------------------------------------------------------------------------
# balanced words


def test_dyck_validation():
    with pytest.raises(InvalidDyck):
        DyckWord((1, 0))
    with pytest.raises(InvalidDyck):
        DyckWord((0, 1, 0))
    with pytest.raises(InvalidDyck):
        DyckWord((0, 0, 1, 1, 1, 0))


def _ballot(slots, open_):
    """Completions of a prefix with `open_` unmatched 0s and `slots` left.

    By reflection: of the C(s, k) paths with k = (s - h) / 2 up-steps that
    end at height 0, the C(s, k - 1) that dip below 0 are cut off.
    """
    if open_ < 0 or open_ > slots or (slots - open_) % 2:
        return 0
    k = (slots - open_) // 2
    return comb(slots, k) - (comb(slots, k - 1) if k else 0)


def _reference_rank(bits):
    """Lexicographic rank of a balanced word, one closed-form ballot
    number per 1."""
    rank = 0
    open_ = 0
    slots = len(bits)
    for b in bits:
        slots -= 1
        if b == 1:
            rank += _ballot(slots, open_ + 1)
            open_ -= 1
        else:
            open_ += 1
    return rank


def _reference_unrank(n, r):
    bits = []
    open_ = 0
    for slots in range(2 * n - 1, -1, -1):
        zero_block = _ballot(slots, open_ + 1)
        if r < zero_block:
            bits.append(0)
            open_ += 1
        else:
            r -= zero_block
            bits.append(1)
            open_ -= 1
    return tuple(bits)


def test_ballot_closed_form_matches_the_recurrence():
    memo = {}

    def recurrence(slots, open_):
        if open_ < 0 or open_ > slots:
            return 0
        if slots == 0:
            return 1
        if (slots, open_) not in memo:
            memo[slots, open_] = recurrence(slots - 1, open_ + 1) + recurrence(
                slots - 1, open_ - 1
            )
        return memo[slots, open_]

    for slots in range(40):
        for open_ in range(-2, slots + 3):
            assert _ballot(slots, open_) == recurrence(slots, open_), (slots, open_)


def test_dyck_rank_small():
    assert dyck_rank(DyckWord((0, 1))) == 0
    assert dyck_rank(DyckWord((0, 0, 1, 1))) == 0
    assert dyck_rank(DyckWord((0, 1, 0, 1))) == 1


def test_dyck_rank_matches_lexicographic_enumeration():
    for n in range(8):
        words = sorted(enumerate_dyck(n), key=lambda w: w.bits)
        assert len(words) == catalan(n)
        for pos, w in enumerate(words):
            assert dyck_rank(w) == pos
            assert dyck_unrank(n, pos) == w


@given(st.integers(1, 8), st.data())
def test_dyck_unrank_always_valid(n, data):
    r = data.draw(st.integers(0, catalan(n) - 1))
    w = dyck_unrank(n, r)
    assert len(w.bits) == 2 * n
    assert dyck_rank(w) == r


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_dyck_walk_matches_the_closed_form_reference(n):
    rng = random.Random(n)
    ranks = [0, catalan(n) - 1] + [rng.randrange(catalan(n)) for _ in range(3)]
    for r in ranks:
        bits = _reference_unrank(n, r)
        assert dyck_unrank(n, r).bits == bits
        assert dyck_rank(DyckWord(bits)) == _reference_rank(bits) == r


def test_dyck_round_trip_at_ten_thousand_pairs():
    # about 0.6 s on a 2-core box; one ballot number recomputed per step
    # took over 150 s
    n = 10**4
    budget = 10
    r = random.Random(0).randrange(catalan(n))
    started = time.perf_counter()
    w = dyck_unrank(n, r)
    assert dyck_rank(w) == r
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"round trip took {elapsed:.1f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# 231-avoiding permutations


def test_is_231_avoiding_examples():
    ok, witness = is_231_avoiding((1, 4, 2, 3, 5))
    assert ok and witness is None
    ok, witness = is_231_avoiding((3, 1, 5, 4, 2))
    assert not ok
    i, j, k = witness
    v = (3, 1, 5, 4, 2)
    assert (v[i], v[j], v[k]) == (3, 5, 2)
    assert v[k] < v[i] < v[j]
    ok, _ = is_231_avoiding(tuple(range(1, 9)))
    assert ok


def test_is_231_avoiding_witness_ends_at_the_first_completing_index():
    rng = random.Random(231)
    seen = 0
    for _ in range(300):
        v = list(range(1, rng.randrange(3, 40)))
        rng.shuffle(v)
        ok, witness = is_231_avoiding(v)
        if ok:
            continue
        seen += 1
        i, j, k = witness
        assert i < j < k and v[k] < v[i] < v[j]
        # no earlier index completes a 231: the prefix before k avoids it
        assert is_231_avoiding(v[:k])[0]
    assert seen > 250
    # one pass: the identity at n = 10^5 took about 0.03 s on a 2-core box
    start = time.perf_counter()
    assert is_231_avoiding(range(1, 10**5 + 1)) == (True, None)
    assert time.perf_counter() - start < 2


def test_enumerate_231_avoiding_matches_filter():
    for n in range(1, 7):
        structural = {tuple(p) for p in enumerate_231_avoiding(n)}
        filtered = {
            p for p in permutations(range(1, n + 1)) if is_231_avoiding(p)[0]
        }
        assert structural == filtered
        assert len(structural) == catalan(n)


def test_enumerate_231_avoiding_excludes_231_itself():
    perms = {tuple(p) for p in enumerate_231_avoiding(3)}
    assert (2, 3, 1) not in perms
    assert len(perms) == 5


def test_enumerate_231_avoiding_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_231_avoiding(11))


# ---------------------------------------------------------------------------
# bijections


def test_bijections_size_one():
    t = perm_to_tree((1,))
    assert tree_size(t) == 1
    assert tree_to_dyck(t) == DyckWord((0, 1))
    assert tuple(tree_to_perm(t)) == (1,)


def test_bijections_are_one_to_one_for_n3():
    trees = list(enumerate_trees(3))
    dycks = {tree_to_dyck(t) for t in trees}
    perms = {tuple(tree_to_perm(t)) for t in trees}
    assert len(dycks) == len(perms) == len(trees) == 5


def test_bijection_roundtrips_exhaustive():
    for n in range(9):
        for t in enumerate_trees(n):
            w = tree_to_dyck(t)
            assert dyck_to_tree(w) == t
            p = tree_to_perm(t)
            assert perm_to_tree(p) == t
            assert is_231_avoiding(p)[0]


def test_perm_to_tree_rejects_non_avoiding():
    with pytest.raises(Not231Avoiding):
        perm_to_tree((2, 3, 1))


# ---------------------------------------------------------------------------
# advice tape


def test_tape_read_past_end_is_hard_error():
    tape = AdviceTape([1, 0])
    assert tape.read_bits(2) == [1, 0]
    with pytest.raises(TapeExhausted):
        tape.read_bit()
    assert tape.bits_written == 2
    assert tape.cursor == 2
    # a word read past the end fails as reading bit by bit did: the cursor
    # stops at the end and the message names it
    tape = AdviceTape([1, 0, 1])
    assert tape.read_bits(1) == [1]
    with pytest.raises(TapeExhausted, match=r"^read at 3 but only 3 bits written$"):
        tape.read_bits(3)
    assert tape.cursor == 3


def test_tape_rejects_non_bits():
    with pytest.raises(ValueError):
        AdviceTape([2])
    # a rejected write leaves nothing on the tape
    tape = AdviceTape([1])
    with pytest.raises(ValueError):
        tape.write_bits([1, 0, 2])
    assert tape.bits == (1,) and tape.bits_written == 1


def test_tape_stores_bools_as_ints():
    tape = AdviceTape([True, False])
    tape.write_bits([True])
    assert tape.bits == (1, 0, 1)
    assert {type(b) for b in tape.bits} == {int}
    assert read_ranked(tape, 8) == 5


# ---------------------------------------------------------------------------
# Elias delta


def test_elias_delta_one_is_single_bit():
    assert elias_delta_encode(1) == [1]


def test_elias_delta_17_is_nine_bits():
    code = elias_delta_encode(17)
    assert len(code) == 9
    tape = AdviceTape(code)
    assert elias_delta_decode(tape) == 17
    assert tape.cursor == 9


def test_elias_delta_length_formula_and_roundtrip():
    import math

    for m in range(1, 10_001):
        code = elias_delta_encode(m)
        lg = int(math.log2(m))
        assert len(code) == lg + 2 * int(math.log2(lg + 1)) + 1
        tape = AdviceTape(code + [1, 1, 0])  # trailing garbage must be left alone
        assert elias_delta_decode(tape) == m
        assert tape.cursor == len(code)


def test_elias_delta_prefix_free():
    codes = sorted("".join(map(str, elias_delta_encode(m))) for m in range(1, 10_001))
    # a prefix pair must appear adjacently in sorted order
    for a, b in zip(codes, codes[1:]):
        assert not b.startswith(a)


def test_elias_delta_truncation_detected():
    code = elias_delta_encode(17)
    tape = AdviceTape(code[:-1])
    with pytest.raises(TruncatedCode):
        elias_delta_decode(tape)


# ---------------------------------------------------------------------------
# fixed-width ranks


def test_write_ranked_single_universe_writes_nothing():
    tape = AdviceTape()
    assert write_ranked(tape, 0, 1) == 0
    assert tape.bits_written == 0
    assert read_ranked(tape, 1) == 0
    assert tape.cursor == 0
    tape = AdviceTape([1, 1])
    assert write_ranked(tape, 0, 1) == 0
    assert read_ranked(tape, 1) == 0
    assert tape.bits == (1, 1) and tape.cursor == 0


def test_write_ranked_catalan4_uses_four_bits():
    tape = AdviceTape()
    assert write_ranked(tape, 13, catalan(4)) == 4
    assert tape.bits_written == 4
    assert read_ranked(tape, catalan(4)) == 13


def test_write_ranked_roundtrip_all_universes_up_to_1024():
    for universe in range(1, 1025):
        width = bits_for_universe(universe)
        for rank in range(universe):
            tape = AdviceTape()
            assert write_ranked(tape, rank, universe) == width
            assert read_ranked(tape, universe) == rank


def test_write_ranked_range_check():
    tape = AdviceTape()
    with pytest.raises(RankOutOfRange):
        write_ranked(tape, 14, catalan(4))
