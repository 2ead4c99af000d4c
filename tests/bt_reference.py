"""References for the engine tests: ``brute_simulate`` runs a whole
algorithm on the brute engine, which stays the reference for the region
engine in convex position; ``descent_bt`` is the tree-descent `bt`
player that the region-slot player replaced: each red descends the advice
tree by half-plane tests against the labeled edges, then sorts its
available blues clockwise; and ``replay_matching_to_bt`` is the tree build
that the offline union-find build replaced: it replays the region engine
to label the tree slots."""
from unittest import mock

from helpers import point

from ncmatch import engine, geometry
from ncmatch.codecs import _assemble, catalan, read_ranked, tree_unrank
from ncmatch.engine import OnlineAlgorithm, _bt_oracle, bt_matching
from ncmatch.errors import CrossingDetected, IllegalMatch, NotConvex, NotPerfect
from ncmatch.geometry import LEFT


def available(view, i):
    """The arrival indices j < i that the engine's ``has`` admits."""
    return [j for j in range(1, i) if view.has(j)]


def brute_simulate(alg, instance):
    """``simulate(alg, instance)`` with the brute engine in place of the
    one ``make_engine`` picks, the asap oracle's replay included."""
    with mock.patch.object(engine, "make_engine", engine._BruteEngine):
        return engine.simulate(alg, instance)


def clockwise_from(anchor, others):
    """Points of a convex-position set in clockwise order starting just
    after the anchor."""
    if anchor.angle is not None and all(p.angle is not None for p in others):
        # clockwise is decreasing angle: the nearest turn below the anchor first
        return sorted(others, key=lambda p: (anchor.angle - p.angle) % 1)
    pts = [anchor, *others]
    hull = geometry._convex_hull_ccw(geometry.integer_grid(pts)[0])
    if len(hull) != len(pts):
        raise NotConvex("clockwise ordering needs convex position")
    hull.reverse()
    k = hull.index(0)
    return [pts[t] for t in hull[k + 1 :] + hull[:k]]


class _LabeledNode:
    __slots__ = ("left", "right", "size", "label")

    def __init__(self, left, right, size):
        self.left = left
        self.right = right
        self.size = size
        self.label = None


def _labeled_copy(t):
    nodes, todo = [], [t]  # preorder: every parent before its children
    while todo:
        node = todo.pop()
        if node is not None:
            nodes.append(node)
            todo += (node.right, node.left)
    copy = {id(None): None}
    for node in reversed(nodes):
        left, right = copy[id(node.left)], copy[id(node.right)]
        size = 1 + (left.size if left else 0) + (right.size if right else 0)
        copy[id(node)] = _LabeledNode(left, right, size)
    return copy[id(t)]


class DescentBTPlayer:
    def begin(self, n, tape):
        self.root = _labeled_copy(tree_unrank(n, read_ranked(tape, catalan(n))))

    def decide(self, i, view, tape):
        here = point(view.instance, i)
        node = self.root
        while node is not None and node.label is not None:
            side = geometry.half_plane_side(node.label, here)
            node = node.left if side == LEFT else node.right
        if node is None:
            raise IllegalMatch(f"tree descent fell off at red {i}")
        k = (node.left.size if node.left else 0) + 1
        avail = [point(view.instance, j) for j in available(view, i)]
        ordered = clockwise_from(here, avail)
        if k > len(ordered):
            raise IllegalMatch(f"red {i} wants blue #{k} but only {len(ordered)} available")
        partner = ordered[k - 1]
        node.label = (here, partner)
        return partner.arrival_index


def descent_bt():
    """`bt` with the descent player; runs on either engine."""
    return OnlineAlgorithm("bt", _bt_oracle, DescentBTPlayer, bt_matching().check, needs_n=True)


def replay_matching_to_bt(instance, matching):
    """Tree of a perfect non-crossing red-blue matching in convex position,
    by replaying the region engine the bt player runs on: node k is the
    k-th red's edge, it fills the slot of the region that red arrives in,
    and its children become the slots of the regions left and right of it.
    A red whose partner lies in another region raises CrossingDetected."""
    n = instance.n
    if not n or len(matching) != n:
        raise NotPerfect("matching_to_bt needs a perfect red-blue matching")
    partner = {}
    for b, r in matching:  # blues arrive first and edges are (min, max)
        if not 0 < b <= n < r <= 2 * n:
            raise NotPerfect(f"edge {(b, r)} is not red-blue")
        partner[r] = b

    eng = engine._RegionEngine(instance)
    for i in range(1, n + 1):
        eng.on_arrival(i)
        eng.commit(None)
    lefts, rights = [-1] * n, [-1] * n
    # region id -> (child links, parent node); the root fills a dummy link
    slot = {0: ([-1], 0)}
    for k, i in enumerate(range(n + 1, 2 * n + 1)):
        eng.on_arrival(i)
        links, parent = slot.pop(eng.region())
        links[parent] = k
        j = partner[i]
        try:
            eng.commit(j)
        except IllegalMatch:
            raise CrossingDetected(f"edge {i}-{j} crosses the edge of an earlier red") from None
        left, right = eng.split
        slot[left], slot[right] = (lefts, k), (rights, k)
    return _assemble(lefts, rights)
