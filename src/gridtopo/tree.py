"""Contour tree assembly from join and split trees.

``combine`` runs the classic serial leaf transfer over the fully
augmented merge trees; the result is contracted to a superstructure
whose superarcs are indexed by their outer-end supernode (the end
farther from the root, which is the highest-ranked supernode).
``augment`` assigns every regular vertex to its superarc.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import InternalError, UsageError
from .grid import ScalarGrid, VertexOrder
from .sweep import MergeTree, sweep


@dataclass
class ContourTree:
    """Contour tree over an arbitrary vertex subset with global ids.

    ``parent`` is the vertex-level tree rooted at the highest-ranked
    vertex.  ``arc_inner[outer]`` maps each non-root supernode to the
    supernode at the other (root-facing) end of its superarc.
    ``superparent[v]`` is the outer end of the superarc a vertex lies
    on; supernodes map to their own id.

    ``ranks`` is the shared rank table indexed by vertex id (for a grid,
    ``VertexOrder.ranks``), held by reference, not a per-tree copy.
    """

    verts: list[int] = field(repr=False)
    ranks: Sequence[int] = field(repr=False)
    parent: dict[int, int] = field(repr=False)
    root: int = -1
    supernodes: list[int] = field(default_factory=list, repr=False)
    arc_inner: dict[int, int] = field(default_factory=dict, repr=False)
    superparent: dict[int, int] = field(default_factory=dict, repr=False)
    arc_regulars: dict[int, list[int]] = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.verts)

    @property
    def is_augmented(self) -> bool:
        return bool(self.superparent) or self.n <= 1

    def children_index(self) -> dict[int, list[int]]:
        """Superstructure children: inner end -> outer ends, rank-sorted."""
        kids: dict[int, list[int]] = {s: [] for s in self.supernodes}
        for outer, inner in self.arc_inner.items():
            kids[inner].append(outer)
        for lst in kids.values():
            lst.sort(key=lambda v: self.ranks[v])
        return kids

    def arc_degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per supernode, its superarcs leading up (to a higher rank) and down."""
        ranks = self.ranks
        up = dict.fromkeys(self.supernodes, 0)
        down = dict.fromkeys(self.supernodes, 0)
        for outer, inner in self.arc_inner.items():
            lo, hi = (outer, inner) if ranks[outer] < ranks[inner] else (inner, outer)
            up[lo] += 1
            down[hi] += 1
        return up, down

    def straddling_arcs(self, gap: int) -> int:
        """Number of superarcs whose endpoint ranks straddle rank gap ``gap``."""
        count = 0
        for outer, inner in self.arc_inner.items():
            a, b = self.ranks[outer], self.ranks[inner]
            if min(a, b) <= gap < max(a, b):
                count += 1
        return count

    def dump(self, values: dict[int, float] | None = None) -> str:
        """Debug text: supernodes (id, value, rank) and superarcs, stable order."""
        lines = ["supernodes:"]
        for s in sorted(self.supernodes):
            val = "" if values is None else f" value={values[s]!r}"
            lines.append(f"  {s}{val} rank={self.ranks[s]}")
        lines.append("superarcs:")
        for outer in sorted(self.arc_inner):
            lines.append(f"  {outer} -> {self.arc_inner[outer]}")
        return "\n".join(lines)


def combine(join: MergeTree, split: MergeTree, ranks: Sequence[int]) -> ContourTree:
    """Merge the two trees by repeated leaf transfer.

    A vertex transfers as an upper leaf when it has no join children and
    exactly one split child (mirror condition for lower leaves); its
    merge-tree arc becomes a contour tree edge and the vertex is deleted
    from both trees.  The resulting edge set is unique, so any valid
    processing order yields the same tree.

    Each tree's state is three lists over the dense ids: parent (-1 for
    none), child count and the sum of child ids, which names the child
    of a vertex that has exactly one.
    """
    if join.n != split.n:
        raise UsageError("join and split trees cover different vertex sets")
    n = join.n
    if n == 0:
        raise UsageError("empty vertex set")
    verts = list(range(n))
    if n == 1:
        tree = ContourTree(verts=verts, ranks=ranks, parent={}, root=0)
        tree.supernodes = [0]
        tree.superparent = {0: 0}
        return tree

    def state(mt: MergeTree) -> tuple[list[int], list[int], list[int]]:
        parent = [-1] * n
        count = [0] * n
        total = [0] * n
        for src, dst in mt.arc_to.items():
            parent[src] = dst
            count[dst] += 1
            total[dst] += src
        return parent, count, total

    j_parent, j_count, j_sum = state(join)
    s_parent, s_count, s_sum = state(split)

    def ready(v: int) -> bool:
        return (j_count[v] == 0 and s_count[v] == 1) or (s_count[v] == 0 and j_count[v] == 1)

    # A vertex is queued at most once at a time and leaves the trees only
    # when popped, so every queued vertex is alive and so is its parent.
    queue = deque(v for v in verts if ready(v))
    queued = bytearray(n)
    for v in queue:
        queued[v] = 1
    edges: list[tuple[int, int]] = []

    while len(edges) < n - 1:
        if not queue:
            raise InternalError("leaf transfer stalled with vertices remaining")
        v = queue.popleft()
        queued[v] = 0
        if j_count[v] == 0 and s_count[v] == 1:
            # v is a join-tree leaf and regular in the split tree.
            leaf_parent, leaf_count, leaf_sum = j_parent, j_count, j_sum
            reg_parent, reg_sum = s_parent, s_sum
        elif s_count[v] == 0 and j_count[v] == 1:
            leaf_parent, leaf_count, leaf_sum = s_parent, s_count, s_sum
            reg_parent, reg_sum = j_parent, j_sum
        else:
            continue
        other = leaf_parent[v]
        leaf_count[other] -= 1
        leaf_sum[other] -= v
        # Splice v out of the other tree: its one child takes its parent.
        child = reg_sum[v]
        up = reg_parent[v]
        reg_parent[child] = up
        if up != -1:
            reg_sum[up] += child - v
        edges.append((v, other))
        if not queued[other] and ready(other):
            queue.append(other)
            queued[other] = 1

    return _from_edges(verts, ranks, edges)


def _from_edges(
    verts: list[int], ranks: Sequence[int], edges: list[tuple[int, int]]
) -> ContourTree:
    """Build the rooted tree and contracted superstructure from CT edges."""
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    up_deg = {v: 0 for v in verts}
    down_deg = {v: 0 for v in verts}
    for a, b in edges:
        lo, hi = (a, b) if ranks[a] < ranks[b] else (b, a)
        up_deg[lo] += 1
        down_deg[hi] += 1

    root = max(verts, key=lambda v: ranks[v])
    parent: dict[int, int] = {}
    stack = [root]
    seen = {root}
    order_out = []
    while stack:
        v = stack.pop()
        order_out.append(v)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    if len(seen) != len(verts):
        raise InternalError("contour tree is not connected")

    supernodes = sorted(
        v for v in verts if not (up_deg[v] == 1 and down_deg[v] == 1)
    )
    tree = ContourTree(
        verts=list(verts),
        ranks=ranks,
        parent=parent,
        root=root,
        supernodes=supernodes,
    )
    superset = set(supernodes)
    arc_inner: dict[int, int] = {}
    for s in supernodes:
        if s == root:
            continue
        cur = parent[s]
        while cur not in superset:
            cur = parent[cur]
        arc_inner[s] = cur
    tree.arc_inner = arc_inner
    return tree


def augment(ct: ContourTree) -> ContourTree:
    """Fill ``superparent`` and per-arc regular vertex lists in place."""
    superset = set(ct.supernodes)
    superparent = {s: s for s in ct.supernodes}
    arc_regulars: dict[int, list[int]] = {s: [] for s in ct.arc_inner}
    for s in ct.arc_inner:
        cur = ct.parent[s]
        while cur not in superset:
            superparent[cur] = s
            arc_regulars[s].append(cur)
            cur = ct.parent[cur]
    if len(superparent) != ct.n:
        raise InternalError("augmentation missed vertices")
    ct.superparent = superparent
    ct.arc_regulars = arc_regulars
    return ct


def contour_tree(grid: ScalarGrid, order: VertexOrder) -> ContourTree:
    """Convenience: join + split sweep, combine, and augment a full grid."""
    from .sweep import compute_join_tree, compute_split_tree

    join = compute_join_tree(grid, order)
    split = compute_split_tree(grid, order)
    return augment(combine(join, split, order.ranks))


def tree_from_graph(
    verts: Iterable[int], ranks: Sequence[int], edges: Iterable[tuple[int, int]]
) -> ContourTree:
    """Contour tree of a connected graph on ``verts`` (used by the merge).

    The vertices are numbered in rank order, so each local id is its own
    rank; the tree is built over those ids and mapped back with ``relabel``.
    """
    gid = sorted(verts, key=ranks.__getitem__)
    local = {v: i for i, v in enumerate(gid)}
    n = len(gid)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        a, b = local[u], local[v]
        adjacency[a].append(b)
        adjacency[b].append(a)
    join = sweep(range(n - 1, -1, -1), adjacency.__getitem__, n, "join")
    split = sweep(range(n), adjacency.__getitem__, n, "split")
    return relabel(augment(combine(join, split, range(n))), gid, ranks)


def relabel(ct: ContourTree, gid: Sequence[int], ranks: Sequence[int]) -> ContourTree:
    """The same tree with local vertex ids replaced by ``gid[local]``, ranked by ``ranks``."""
    return ContourTree(
        verts=[gid[v] for v in ct.verts],
        ranks=ranks,
        parent={gid[v]: gid[p] for v, p in ct.parent.items()},
        root=gid[ct.root],
        supernodes=sorted(gid[s] for s in ct.supernodes),
        arc_inner={gid[o]: gid[i] for o, i in ct.arc_inner.items()},
        superparent={gid[v]: gid[s] for v, s in ct.superparent.items()},
        arc_regulars={gid[o]: [gid[v] for v in r] for o, r in ct.arc_regulars.items()},
    )
