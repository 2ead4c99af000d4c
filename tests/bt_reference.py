"""References for the engine tests: ``brute_simulate`` runs a whole
algorithm on the brute engine, which stays the reference for the region
engine in convex position, and ``descent_bt`` is the tree-descent `bt`
player that the region-slot player replaced: each red descends the advice
tree by half-plane tests against the labeled edges, then sorts its
available blues clockwise."""
from unittest import mock

from ncmatch import engine, geometry
from ncmatch.codecs import _preorder, catalan, read_ranked, tree_unrank
from ncmatch.engine import OnlineAlgorithm, _bt_oracle, bt_matching
from ncmatch.errors import IllegalMatch, NotConvex
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
    copy = {id(None): None}
    for node in reversed(_preorder(t) if t is not None else []):
        left, right = copy[id(node.left)], copy[id(node.right)]
        size = 1 + (left.size if left else 0) + (right.size if right else 0)
        copy[id(node)] = _LabeledNode(left, right, size)
    return copy[id(t)]


class DescentBTPlayer:
    def begin(self, ctx, tape):
        n = ctx.n
        self.root = _labeled_copy(tree_unrank(n, read_ranked(tape, catalan(n))))

    def decide(self, i, view, tape):
        point = view.instance.point(i)
        node = self.root
        while node is not None and node.label is not None:
            side = geometry.half_plane_side(node.label, point)
            node = node.left if side == LEFT else node.right
        if node is None:
            raise IllegalMatch(f"tree descent fell off at red {i}")
        k = (node.left.size if node.left else 0) + 1
        avail = [view.instance.point(j) for j in available(view, i)]
        ordered = clockwise_from(point, avail)
        if k > len(ordered):
            raise IllegalMatch(f"red {i} wants blue #{k} but only {len(ordered)} available")
        partner = ordered[k - 1]
        node.label = (point, partner)
        return partner.arrival_index


def descent_bt():
    """`bt` with the descent player; runs on either engine."""
    return OnlineAlgorithm("bt", _bt_oracle, DescentBTPlayer, bt_matching().check)

