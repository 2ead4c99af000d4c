"""The tree codecs without recursion: the recursive versions they replaced
are kept here as references, and deep paths run in a fresh interpreter."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ncmatch import codecs
from ncmatch.codecs import (
    BinaryTree,
    DyckWord,
    Permutation,
    dyck_to_tree,
    perm_to_tree,
    tree_size,
    tree_to_dyck,
    tree_to_perm,
    tree_unrank,
)
from ncmatch.errors import InvalidDyck, Not231Avoiding


# ---------------------------------------------------------------------------
# the recursive references


def ref_tree_size(t):
    if t is None:
        return 0
    return 1 + ref_tree_size(t.left) + ref_tree_size(t.right)


def ref_tree_to_perm(t):
    def rec(node, lo):
        if node is None:
            return ()
        ls = ref_tree_size(node.left)
        rs = ref_tree_size(node.right)
        return rec(node.left, lo) + (lo + ls + rs,) + rec(node.right, lo + ls)

    return Permutation(rec(t, 1))


def ref_tree_to_dyck(t):
    def rec(node):
        if node is None:
            return ()
        return (0,) + rec(node.left) + (1,) + rec(node.right)

    return DyckWord(rec(t))


def ref_dyck_to_tree(w):
    bits = w.bits

    def rec(pos):
        if pos >= len(bits) or bits[pos] == 1:
            return None, pos
        left, pos = rec(pos + 1)
        right, pos = rec(pos + 1)
        return BinaryTree(left, right), pos

    tree, end = rec(0)
    if end != len(bits):
        raise InvalidDyck("trailing bits after parse")
    return tree


def ref_perm_to_tree(perm):
    values = tuple(perm)

    def rec(vals, lo):
        if not vals:
            return None
        pos = vals.index(max(vals))
        before, after = vals[:pos], vals[pos + 1 :]
        if sorted(before) != list(range(lo, lo + pos)):
            raise Not231Avoiding(f"{values} contains a 231 pattern")
        return BinaryTree(rec(before, lo), rec(after, lo + pos))

    return rec(values, 1)


def ref_eq(a, b):
    """The dataclass-generated equality: children compared recursively."""
    if a is None or b is None:
        return a is b
    return ref_eq(a.left, b.left) and ref_eq(a.right, b.right)


def ref_shape(t):
    """A tree as nested tuples, built by the recursive references only."""
    if t is None:
        return None
    return (ref_shape(t.left), ref_shape(t.right))


def _random_trees(rng, count, max_n):
    for _ in range(count):
        n = rng.randrange(max_n + 1)
        yield tree_unrank(n, rng.randrange(codecs.catalan(n)))


# ---------------------------------------------------------------------------
# same outputs as the references


def test_codecs_match_the_recursive_references_on_random_trees():
    rng = random.Random(5)
    for t in _random_trees(rng, 600, 12):
        assert tree_size(t) == ref_tree_size(t)
        if t is not None:
            assert t.size == ref_tree_size(t)
        perm = tree_to_perm(t)
        assert perm == ref_tree_to_perm(t)
        word = tree_to_dyck(t)
        assert word == ref_tree_to_dyck(t)
        back = dyck_to_tree(word)
        assert ref_shape(back) == ref_shape(ref_dyck_to_tree(word)) == ref_shape(t)
        again = perm_to_tree(perm)
        assert ref_shape(again) == ref_shape(ref_perm_to_tree(perm)) == ref_shape(t)


def test_equality_and_hash_match_the_recursive_equality():
    rng = random.Random(6)
    trees = list(_random_trees(rng, 300, 7))
    for a, b in zip(trees, trees[1:] + trees[:1]):
        assert (a == b) == ref_eq(a, b)
        copy = dyck_to_tree(tree_to_dyck(a))
        assert (a == copy) and ref_eq(a, copy)
        if a is not None:
            assert hash(a) == hash(copy)
            assert a != None  # noqa: E711 - a tree never equals None
            assert a != 3
    leaf = BinaryTree()
    assert BinaryTree(leaf, None) != BinaryTree(None, leaf)
    assert BinaryTree(leaf, leaf) == BinaryTree(BinaryTree(), BinaryTree())
    assert len({BinaryTree(leaf, None), BinaryTree(BinaryTree(), None)}) == 1


def test_perm_to_tree_rejects_exactly_what_the_reference_rejects():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(1, 8)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        try:
            expected = ref_shape(ref_perm_to_tree(values))
        except Not231Avoiding as exc:
            with pytest.raises(Not231Avoiding) as got:
                perm_to_tree(values)
            assert str(got.value) == str(exc)
        else:
            assert ref_shape(perm_to_tree(values)) == expected


def test_dyck_to_tree_rejects_unparsed_bits():
    class Raw:  # a word that skipped DyckWord's own validation
        def __init__(self, bits):
            self.bits = bits

    for bits in ((1,), (0,), (0, 1, 1), (0, 0, 1)):
        with pytest.raises(InvalidDyck):
            ref_dyck_to_tree(Raw(bits))
        with pytest.raises(InvalidDyck):
            dyck_to_tree(Raw(bits))


# ---------------------------------------------------------------------------
# deep trees


def test_3000_node_paths_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "from ncmatch.codecs import (BinaryTree, dyck_to_tree, perm_to_tree,\n"
        "    tree_size, tree_to_dyck, tree_to_perm)\n"
        "n = 3000\n"
        "for side in ('left', 'right'):\n"
        "    t = u = None\n"
        "    for _ in range(n):\n"
        "        t = BinaryTree(t, None) if side == 'left' else BinaryTree(None, t)\n"
        "        u = BinaryTree(u, None) if side == 'left' else BinaryTree(None, u)\n"
        "    assert tree_size(t) == t.size == n\n"
        "    perm = tree_to_perm(t)\n"
        "    expected = range(1, n + 1) if side == 'left' else range(n, 0, -1)\n"
        "    assert tuple(perm) == tuple(expected)\n"
        "    word = tree_to_dyck(t)\n"
        "    assert word.bits == ((0,) * n + (1,) * n if side == 'left' else (0, 1) * n)\n"
        "    assert dyck_to_tree(word) == t == u == perm_to_tree(perm)\n"
        "    assert hash(t) == hash(u)\n"
        "    assert t != BinaryTree(t, None)\n"
        "print('ok')\n"
    )
    src = Path(codecs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]
