"""Catalan-family combinatorics and advice-tape bit plumbing.

Binary trees, balanced (Dyck) words and 231-avoiding permutations are
interconvertible and countable; objects are shipped over the advice tape
as fixed-width ranks, with Elias delta available when the length is not
known to the reader.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    InvalidDyck,
    InvalidInstance,
    Not231Avoiding,
    RankOutOfRange,
    TapeExhausted,
    TruncatedCode,
)


_CATALAN = [1]


def _catalan_table(n: int) -> list[int]:
    """The shared table of Catalan numbers, grown to hold index n."""
    table = _CATALAN
    for k in range(len(table) - 1, n):
        table.append(table[k] * (4 * k + 2) // (k + 2))
    return table


def catalan(n: int) -> int:
    """The n-th Catalan number, exactly."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return _catalan_table(n)[n]


def bits_for_universe(universe_size: int) -> int:
    """ceil(log2(universe_size)); 0 for a single-element universe."""
    if universe_size < 1:
        raise ValueError("universe must be nonempty")
    return (universe_size - 1).bit_length()


# ---------------------------------------------------------------------------
# binary trees


@dataclass(frozen=True)
class BinaryTree:
    """An ordered rooted binary tree node; children may be None.

    Equality and hashing compare preorder balanced words, one per shape,
    built without recursion, so they work on trees of any depth.
    """

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _dyck_bits(self) == _dyck_bits(other)

    def __hash__(self):
        return hash(tuple(_dyck_bits(self)))

    @property
    def size(self) -> int:
        return tree_size(self)


def tree_size(t: BinaryTree | None) -> int:
    return len(tree_children(t)[0])


def tree_children(t: BinaryTree | None) -> tuple[list[int], list[int]]:
    """Child arrays of t: node k has children lefts[k] and rights[k] (-1
    for none), nodes numbered in preorder, so node 0 is the root and every
    child has a larger number than its parent."""
    return _dyck_children(_dyck_bits(t))


def _assemble(lefts: Sequence[int], rights: Sequence[int]) -> BinaryTree | None:
    """The tree of child arrays numbered as in tree_children."""
    built: list[BinaryTree | None] = [None] * len(lefts)
    for k in range(len(lefts) - 1, -1, -1):
        left, right = lefts[k], rights[k]
        built[k] = BinaryTree(
            built[left] if left >= 0 else None,
            built[right] if right >= 0 else None,
        )
    return built[0] if built else None


def enumerate_trees(n: int) -> Iterator[BinaryTree | None]:
    """All ordered rooted binary trees with n nodes (None for n = 0)."""
    if n == 0:
        yield None
        return
    for ls in range(n):
        for left in enumerate_trees(ls):
            for right in enumerate_trees(n - 1 - ls):
                yield BinaryTree(left, right)


def tree_rank(t: BinaryTree | None) -> int:
    """Rank of t in the canonical order of trees of its size."""
    return rank_children(*tree_children(t))


def rank_children(lefts: Sequence[int], rights: Sequence[int]) -> int:
    """Rank of the tree with these child arrays (numbered as in
    tree_children) among trees of its size: they sort by left-subtree size,
    then left rank (major), then right rank (minor).  One pass from the last
    node to the root computes every subtree's size and rank.  A node's
    offset among trees of its size is a sum of Catalan products taken from
    the shorter end, O(min(left, right)) terms, so the whole rank costs
    O(n log n) multiplications."""
    n = len(lefts)
    c = _catalan_table(n)
    # one extra slot, read through index -1, holds the empty tree
    size, rank = [0] * (n + 1), [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        left, right = lefts[k], rights[k]
        ls = size[left]
        s = 1 + ls + size[right]
        if 2 * ls < s:
            prefix = sum(c[j] * c[s - 1 - j] for j in range(ls))
        else:
            prefix = c[s] - sum(c[j] * c[s - 1 - j] for j in range(ls, s))
        size[k] = s
        rank[k] = prefix + rank[left] * c[s - 1 - ls] + rank[right]
    return rank[0]


def tree_unrank(n: int, r: int) -> BinaryTree | None:
    """Inverse of tree_rank over trees with n nodes."""
    return _assemble(*unrank_children(n, r)[:2])


def unrank_children(n: int, r: int) -> tuple[list[int], list[int], list[int]]:
    """Inverse of rank_children over trees with n nodes: the child arrays
    and each node's left-subtree size."""
    c = _catalan_table(n)
    if not 0 <= r < c[n]:
        raise RankOutOfRange(f"rank {r} out of range for {n}-node trees")
    lefts: list[int] = []
    rights: list[int] = []
    lsizes: list[int] = []
    # (size, rank, the parent's child links, parent); the root's are a dummy
    todo = [(n, r, [0], 0)] if n else []
    while todo:
        size, rank, links, parent = todo.pop()
        links[parent] = k = len(lefts)
        lefts.append(-1)
        rights.append(-1)
        # find the left size ls scanning from both ends at once;
        # below = trees with left size < lo, upto_hi = with left size < hi
        lo, hi = 0, size - 1
        below, upto_hi = 0, c[size] - c[hi]
        while True:
            block = c[lo] * c[size - 1 - lo]
            if rank < below + block:
                ls, rank = lo, rank - below
                break
            below += block
            lo += 1
            if rank >= upto_hi:
                ls, rank = hi, rank - upto_hi
                break
            hi -= 1
            upto_hi -= c[hi] * c[size - 1 - hi]
        lsizes.append(ls)
        left_rank, right_rank = divmod(rank, c[size - 1 - ls])
        if size - 1 - ls:
            todo.append((size - 1 - ls, right_rank, rights, k))
        if ls:
            todo.append((ls, left_rank, lefts, k))
    return lefts, rights, lsizes


# ---------------------------------------------------------------------------
# balanced words


@dataclass(frozen=True)
class DyckWord:
    """A balanced word over {0, 1}: equal counts, no prefix with more 1s."""

    bits: tuple[int, ...]

    def __post_init__(self):
        depth = 0
        for b in self.bits:
            if b not in (0, 1):
                raise InvalidDyck("bits must be 0 or 1")
            depth += 1 if b == 0 else -1
            if depth < 0:
                raise InvalidDyck("prefix with more 1s than 0s")
        if depth != 0:
            raise InvalidDyck("unbalanced word")

    @property
    def n(self) -> int:
        return len(self.bits) // 2

    def __iter__(self):
        return iter(self.bits)


def enumerate_dyck(n: int) -> Iterator[DyckWord]:
    """All balanced words of length 2n, in lexicographic order (0 < 1)."""

    def rec(slots: int, open_: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            yield ()
            return
        if open_ < slots:
            for rest in rec(slots - 1, open_ + 1):
                yield (0,) + rest
        if open_ > 0:
            for rest in rec(slots - 1, open_ - 1):
                yield (1,) + rest

    for bits in rec(2 * n, 0):
        yield DyckWord(bits)


def dyck_rank(w: DyckWord) -> int:
    """Lexicographic rank among balanced words of the same length.

    c = C(u + d, u) counts the arrangements of the u 0s and d 1s left; by
    reflection, C(u + d - 1, u - 1) * (d - u + 2) / (d + 1) of them are
    balanced and put a 0 next.  Every division is exact left to right."""
    rank = 0
    u = d = w.n
    c = comb(2 * u, u)
    for b in w.bits:
        s = u + d
        if b == 1:
            # every word continuing with 0 here comes first
            rank += c * u // s * (d - u + 2) // (d + 1)
            c = c * d // s
            d -= 1
        else:
            c = c * u // s
            u -= 1
    return rank


def dyck_unrank(n: int, r: int) -> DyckWord:
    """Inverse of dyck_rank, walking the same binomial."""
    if not 0 <= r < catalan(n):
        raise RankOutOfRange(f"rank {r} out of range for balanced words of length {2 * n}")
    bits = []
    u = d = n
    c = comb(2 * n, n)
    for _ in range(2 * n):
        s = u + d
        after_zero = c * u // s
        zero_block = after_zero * (d - u + 2) // (d + 1)
        if r < zero_block:
            bits.append(0)
            c = after_zero
            u -= 1
        else:
            r -= zero_block
            bits.append(1)
            c = c * d // s
            d -= 1
    return DyckWord(tuple(bits))


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n stored one-line as a tuple of values."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise InvalidInstance(f"not a permutation of 1..{n}: {self.values}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def is_231_avoiding(perm: Permutation | Sequence[int]) -> tuple[bool, tuple[int, int, int] | None]:
    """Check for a 231 pattern: indices i < j < k with v[k] < v[i] < v[j].

    Returns (True, None) when avoiding, else (False, (i, j, k)): 0-based, k
    the first index that completes a 231.  One pass, O(n): a stack holds the
    indices of values not yet exceeded; v[i] is the largest value popped so
    far, by v[j], and a later value completes a 231 iff it lies below v[i].
    """
    v = list(perm)
    stack: list[int] = []
    low = 0  # v[i], below every value of 1..n until something is popped
    for k, x in enumerate(v):
        if x < low:
            return False, (i, j, k)
        while stack and v[stack[-1]] < x:
            i, j = stack.pop(), k
            low = v[i]
        stack.append(k)
    return True, None


_ENUM_CAP = 10


def enumerate_231_avoiding(n: int) -> Iterator[Permutation]:
    """All 231-avoiding permutations of 1..n; there are catalan(n) of them.

    Generated structurally from the before-max/after-max decomposition, so
    no filtering over n! objects happens.
    """
    if n > _ENUM_CAP:
        raise CapExceeded(f"enumeration capped at n <= {_ENUM_CAP}")

    def rec(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # values is an increasing run; in a 231-avoiding permutation every
        # value before the maximum is smaller than every value after it
        if not values:
            yield ()
            return
        m = len(values)
        for split in range(m):
            for before in rec(values[:split]):
                for after in rec(values[split : m - 1]):
                    yield before + (values[-1],) + after

    for vals in rec(tuple(range(1, n + 1))):
        yield Permutation(vals)


def perm_to_tree(perm: Permutation | Sequence[int]) -> BinaryTree | None:
    """Bijection from 231-avoiding permutations to binary trees.

    The maximum splits the one-line word; everything before it must be the
    smallest values, which is exactly 231-avoidance, applied to both parts
    in turn (on an explicit stack, nodes numbered in preorder).
    """
    values = tuple(perm)
    lefts: list[int] = []
    rights: list[int] = []
    todo = [(0, len(values), 1, None, -1)]  # (start, end, lo, links, parent)
    while todo:
        start, end, lo, links, parent = todo.pop()
        if start == end:
            continue
        k = len(lefts)
        lefts.append(-1)
        rights.append(-1)
        if links is not None:
            links[parent] = k
        vals = values[start:end]
        pos = vals.index(max(vals))
        if sorted(vals[:pos]) != list(range(lo, lo + pos)):
            raise Not231Avoiding(f"{values} contains a 231 pattern")
        todo.append((start + pos + 1, end, lo + pos, rights, k))
        todo.append((start, start + pos, lo, lefts, k))
    return _assemble(lefts, rights)


def tree_to_perm(t: BinaryTree | None) -> Permutation:
    """Inverse of perm_to_tree: in order, a node takes the largest value of
    its subtree's range, its left subtree the smallest.  O(n)."""
    lefts, rights = tree_children(t)
    n = len(lefts)
    size = [0] * (n + 1)  # slot -1 is the empty tree, as in rank_children
    for k in range(n - 1, -1, -1):
        size[k] = 1 + size[lefts[k]] + size[rights[k]]
    lo = [1] * (n + 1)  # smallest value of each subtree
    at = [0] * (n + 1)  # first in-order position of each subtree
    values = [0] * n
    for k in range(n):  # parents first
        left, right, ls = lefts[k], rights[k], size[lefts[k]]
        lo[left], lo[right] = lo[k], lo[k] + ls
        at[left], at[right] = at[k], at[k] + ls + 1
        values[at[k] + ls] = lo[k] + size[k] - 1
    return Permutation(tuple(values))


_CLOSE = object()  # marks where tree_to_dyck writes a node's 1


def _dyck_bits(t: BinaryTree | None) -> list[int]:
    bits: list[int] = []
    todo = [t]
    while todo:
        node = todo.pop()
        if node is None:
            continue
        if node is _CLOSE:
            bits.append(1)
            continue
        bits.append(0)
        todo.append(node.right)
        todo.append(_CLOSE)
        todo.append(node.left)
    return bits


def tree_to_dyck(t: BinaryTree | None) -> DyckWord:
    """Preorder encoding: node -> 0 <left> 1 <right>; single node is 01."""
    return DyckWord(tuple(_dyck_bits(t)))


def dyck_to_tree(w: DyckWord) -> BinaryTree | None:
    """Inverse of tree_to_dyck."""
    return _assemble(*_dyck_children(w.bits))


def _dyck_children(bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """Child arrays of the tree of a balanced word.  Each 0 opens the next
    node in preorder, hung where the previous bit left off: as the left
    child of the node a 0 opened, or as the right child of the node a 1
    closed."""
    lefts: list[int] = []
    rights: list[int] = []
    open_nodes: list[int] = []
    links, parent = [0], 0  # where the next node hangs; the root's are a dummy
    for b in bits:
        if b == 0:
            links[parent] = k = len(lefts)
            lefts.append(-1)
            rights.append(-1)
            open_nodes.append(k)
            links, parent = lefts, k
        elif open_nodes:
            links, parent = rights, open_nodes.pop()
        else:
            raise InvalidDyck("trailing bits after parse")
    if open_nodes:
        raise InvalidDyck("trailing bits after parse")
    return lefts, rights


# ---------------------------------------------------------------------------
# advice tape


class AdviceTape:
    """A finite bit tape: the oracle appends, the algorithm reads forward.

    Reading past the written portion is a hard error so advice-length
    miscounts surface immediately instead of being zero-filled away.
    """

    def __init__(self, bits: Iterable[int] = ()):
        self._bits: list[int] = []
        self.cursor = 0
        self.write_bits(bits)

    @property
    def bits_written(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._bits)

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append the bits as ints, all or none: ValueError unless each is 0 or 1."""
        new = list(bits)
        if not {*new} <= {0, 1}:
            raise ValueError("tape bits must be 0 or 1")
        self._bits += bytes(new)

    def read_bit(self) -> int:
        if self.cursor >= len(self._bits):
            raise TapeExhausted(
                f"read at {self.cursor} but only {len(self._bits)} bits written"
            )
        b = self._bits[self.cursor]
        self.cursor += 1
        return b

    def read_bits(self, k: int) -> list[int]:
        """The next k bits; TapeExhausted, the cursor at the end, past it."""
        start, self.cursor = self.cursor, min(self.cursor + k, len(self._bits))
        if self.cursor - start < k:
            raise TapeExhausted(
                f"read at {self.cursor} but only {len(self._bits)} bits written"
            )
        return self._bits[start : self.cursor]


def elias_delta_encode(m: int) -> list[int]:
    """Standard Elias delta code of a positive integer."""
    if m < 1:
        raise ValueError("Elias delta encodes integers >= 1")
    n_bits = m.bit_length()
    l_bits = n_bits.bit_length() - 1
    code = [0] * l_bits
    code += [int(c) for c in bin(n_bits)[2:]]
    code += [(m >> k) & 1 for k in range(n_bits - 2, -1, -1)]
    return code


def elias_delta_decode(tape: AdviceTape) -> int:
    """Read one Elias delta codeword off the tape."""
    try:
        l_bits = 0
        while tape.read_bit() == 0:
            l_bits += 1
        n_bits = 1
        for _ in range(l_bits):
            n_bits = (n_bits << 1) | tape.read_bit()
        m = 1
        for _ in range(n_bits - 1):
            m = (m << 1) | tape.read_bit()
        return m
    except TapeExhausted as exc:
        raise TruncatedCode("tape ended inside an Elias delta codeword") from exc


# a field's binary digits, as characters and as bits, one table each way
_CHARS_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_BITS_TO_CHARS = bytes.maketrans(b"\0\1", b"01")


def write_ranked(tape: AdviceTape, rank: int, universe_size: int) -> int:
    """Write a rank as a fixed-width big-endian field; returns bits used."""
    if not 0 <= rank < universe_size:
        raise RankOutOfRange(f"rank {rank} outside universe of {universe_size}")
    width = bits_for_universe(universe_size)
    digits = bin(rank | 1 << width)[3:]  # the low width bits, past "0b1"
    tape.write_bits(digits.encode().translate(_CHARS_TO_BITS))
    return width


def read_ranked(tape: AdviceTape, universe_size: int) -> int:
    """Read a fixed-width rank written by write_ranked."""
    bits = bytes(tape.read_bits(bits_for_universe(universe_size)))
    rank = int(b"0" + bits.translate(_BITS_TO_CHARS), 2)
    if rank >= universe_size:
        raise RankOutOfRange(f"decoded rank {rank} outside universe of {universe_size}")
    return rank
