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

    Equality and hashing walk the shape without recursion, so they work on
    trees of any depth.
    """

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a is None or b is None or a.__class__ is not b.__class__:
                return False
            todo.append((a.right, b.right))
            todo.append((a.left, b.left))
        return True

    def __hash__(self):
        return hash(tuple(_dyck_bits(self)))

    @property
    def size(self) -> int:
        return tree_size(self)


def tree_size(t: BinaryTree | None) -> int:
    return len(_preorder(t)) if t is not None else 0


def _assemble(lefts: Sequence[int], rights: Sequence[int]) -> BinaryTree | None:
    """The tree whose node k has children lefts[k] and rights[k] (-1 for
    none), where every child has a larger number than its parent and node 0
    is the root; built children first."""
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


def _preorder(t: BinaryTree) -> list[BinaryTree]:
    """Nodes of t with every parent before its children."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return out


def tree_rank(t: BinaryTree | None) -> int:
    """Rank of t in the canonical order of trees of its size.

    Trees sort by left-subtree size, then left rank (major), then right
    rank (minor).  One bottom-up pass computes every subtree's size and
    rank.  A node's offset among trees of its size is a sum of Catalan
    products taken from the shorter end, O(min(left, right)) terms, so the
    whole rank costs O(n log n) multiplications.
    """
    if t is None:
        return 0
    nodes = _preorder(t)
    c = _catalan_table(len(nodes))
    size: dict[int, int] = {id(None): 0}
    rank: dict[int, int] = {id(None): 0}
    for node in reversed(nodes):
        ls = size[id(node.left)]
        n = 1 + ls + size[id(node.right)]
        if 2 * ls < n:
            prefix = sum(c[k] * c[n - 1 - k] for k in range(ls))
        else:
            prefix = c[n] - sum(c[k] * c[n - 1 - k] for k in range(ls, n))
        size[id(node)] = n
        rank[id(node)] = (
            prefix + rank[id(node.left)] * c[n - 1 - ls] + rank[id(node.right)]
        )
    return rank[id(t)]


def tree_unrank(n: int, r: int) -> BinaryTree | None:
    """Inverse of tree_rank over trees with n nodes."""
    c = _catalan_table(n)
    if not 0 <= r < c[n]:
        raise RankOutOfRange(f"rank {r} out of range for {n}-node trees")
    if n == 0:
        return None
    # split top-down into child slots, then build bottom-up: a node's
    # children always get larger slot numbers than the node itself
    children: tuple[list[int], list[int]] = ([], [])  # left, right slots
    todo = [(n, r, -1, 0)]  # (size, rank, parent slot, 0 left / 1 right)
    while todo:
        size, rank, parent, side = todo.pop()
        slot = len(children[0])
        children[0].append(-1)
        children[1].append(-1)
        if parent >= 0:
            children[side][parent] = slot
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
        left_rank, right_rank = divmod(rank, c[size - 1 - ls])
        if size - 1 - ls:
            todo.append((size - 1 - ls, right_rank, slot, 1))
        if ls:
            todo.append((ls, left_rank, slot, 0))
    return _assemble(*children)


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


def enumerate_231_avoiding(n: int, cap: int = _ENUM_CAP) -> Iterator[Permutation]:
    """All 231-avoiding permutations of 1..n; there are catalan(n) of them.

    Generated structurally from the before-max/after-max decomposition, so
    no filtering over n! objects happens.
    """
    if n > cap:
        raise CapExceeded(f"enumeration capped at n <= {cap}")

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
    if t is None:
        return Permutation(())
    size: dict[int, int] = {id(None): 0}
    for node in reversed(_preorder(t)):
        size[id(node)] = 1 + size[id(node.left)] + size[id(node.right)]
    values: list[int] = []
    stack: list[tuple[BinaryTree, int]] = []
    node, lo = t, 1  # lo: smallest value of node's subtree
    while stack or node is not None:
        while node is not None:
            stack.append((node, lo))
            node = node.left
        node, lo = stack.pop()
        values.append(lo + size[id(node)] - 1)
        node, lo = node.right, lo + size[id(node.left)]
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
    """Inverse of tree_to_dyck.  Each 0 opens the next node in preorder,
    hung where the previous bit left off: as the left child of the node a
    0 opened, or as the right child of the node a 1 closed."""
    lefts: list[int] = []
    rights: list[int] = []
    open_nodes: list[int] = []
    links, parent = None, -1  # where the next node hangs; None: the root
    for b in w.bits:
        if b == 0:
            k = len(lefts)
            lefts.append(-1)
            rights.append(-1)
            if links is not None:
                links[parent] = k
            open_nodes.append(k)
            links, parent = lefts, k
        elif open_nodes:
            links, parent = rights, open_nodes.pop()
        else:
            raise InvalidDyck("trailing bits after parse")
    if open_nodes:
        raise InvalidDyck("trailing bits after parse")
    return _assemble(lefts, rights)


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

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError("tape bits must be 0 or 1")
        self._bits.append(bit)

    def write_bits(self, bits: Iterable[int]) -> None:
        for b in bits:
            self.write_bit(b)

    def read_bit(self) -> int:
        if self.cursor >= len(self._bits):
            raise TapeExhausted(
                f"read at {self.cursor} but only {len(self._bits)} bits written"
            )
        b = self._bits[self.cursor]
        self.cursor += 1
        return b

    def read_bits(self, k: int) -> list[int]:
        return [self.read_bit() for _ in range(k)]


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


def write_ranked(tape: AdviceTape, rank: int, universe_size: int) -> int:
    """Write a rank as a fixed-width big-endian field; returns bits used."""
    if not 0 <= rank < universe_size:
        raise RankOutOfRange(f"rank {rank} outside universe of {universe_size}")
    width = bits_for_universe(universe_size)
    tape.write_bits((rank >> k) & 1 for k in range(width - 1, -1, -1))
    return width


def read_ranked(tape: AdviceTape, universe_size: int) -> int:
    """Read a fixed-width rank written by write_ranked."""
    width = bits_for_universe(universe_size)
    rank = 0
    for b in tape.read_bits(width):
        rank = (rank << 1) | b
    if rank >= universe_size:
        raise RankOutOfRange(f"decoded rank {rank} outside universe of {universe_size}")
    return rank
