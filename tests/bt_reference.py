"""The tree-descent `bt` player that the region-slot player replaced, kept
as a reference: each red descends the advice tree by half-plane tests
against the labeled edges, then sorts its available blues clockwise."""
from ncmatch import geometry
from ncmatch.codecs import _preorder, catalan, read_ranked, tree_unrank
from ncmatch.engine import OnlineAlgorithm, _bt_oracle, bt_matching
from ncmatch.errors import IllegalMatch, NotConvex
from ncmatch.geometry import LEFT


def clockwise_from(anchor, others):
    """Points of a convex-position set in clockwise order starting just
    after the anchor."""
    if anchor.angle is not None and all(p.angle is not None for p in others):
        keys = geometry.angle_sort_keys([*others, anchor])
        start = keys.pop()
        # clockwise is decreasing angle; rotate to just below the anchor
        order = sorted(range(len(others)), key=keys.__getitem__, reverse=True)
        k = next((t for t, i in enumerate(order) if keys[i] < start), len(order))
        return [others[i] for i in order[k:] + order[:k]]
    pts = [anchor, *others]
    hull = geometry._convex_hull_ccw(geometry.integer_coords(pts))
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
        self.blue_by_index = {p.arrival_index: p for p in ctx.blues}
        n = len(ctx.blues)
        self.root = _labeled_copy(tree_unrank(n, read_ranked(tape, catalan(n))))

    def decide(self, i, view, tape):
        point = view.point()
        node = self.root
        while node is not None and node.label is not None:
            side = geometry.half_plane_side(node.label, point)
            node = node.left if side == LEFT else node.right
        if node is None:
            raise IllegalMatch(f"tree descent fell off at red {i}")
        k = (node.left.size if node.left else 0) + 1
        avail = [self.blue_by_index[j] for j in view.indices()]
        ordered = clockwise_from(point, avail)
        if k > len(ordered):
            raise IllegalMatch(f"red {i} wants blue #{k} but only {len(ordered)} available")
        partner = ordered[k - 1]
        node.label = (point, partner)
        return partner.arrival_index


def descent_bt():
    """`bt` with the descent player; runs on either engine."""
    return OnlineAlgorithm("bt", _bt_oracle, DescentBTPlayer, bt_matching().check)

