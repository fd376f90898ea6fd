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

    j_parent = dict(join.arc_to)
    s_parent = dict(split.arc_to)
    j_children: dict[int, set[int]] = {v: set() for v in verts}
    s_children: dict[int, set[int]] = {v: set() for v in verts}
    for src, dst in j_parent.items():
        j_children[dst].add(src)
    for src, dst in s_parent.items():
        s_children[dst].add(src)

    def upper_ready(v: int) -> bool:
        return len(j_children[v]) == 0 and len(s_children[v]) == 1

    def lower_ready(v: int) -> bool:
        return len(s_children[v]) == 0 and len(j_children[v]) == 1

    queue = deque(v for v in verts if upper_ready(v) or lower_ready(v))
    queued = set(queue)
    edges: list[tuple[int, int]] = []
    alive = set(verts)

    while len(alive) > 1:
        if not queue:
            raise InternalError("leaf transfer stalled with vertices remaining")
        v = queue.popleft()
        queued.discard(v)
        if v not in alive:
            continue
        if upper_ready(v):
            other = j_parent[v]
            # Remove v from the join tree (it is a leaf there).
            j_children[other].discard(v)
            del j_parent[v]
            # Remove v from the split tree, where it is regular.
            (child,) = s_children[v]
            sp = s_parent.get(v)
            if sp is not None:
                s_parent[child] = sp
                s_children[sp].discard(v)
                s_children[sp].add(child)
            else:
                s_parent.pop(child, None)
            del s_children[v]
        elif lower_ready(v):
            other = s_parent[v]
            s_children[other].discard(v)
            del s_parent[v]
            (child,) = j_children[v]
            jp = j_parent.get(v)
            if jp is not None:
                j_parent[child] = jp
                j_children[jp].discard(v)
                j_children[jp].add(child)
            else:
                j_parent.pop(child, None)
            del j_children[v]
        else:
            continue
        edges.append((v, other))
        alive.discard(v)
        if len(alive) == 1:
            break
        for w in (v, other):
            if w in alive and w not in queued and (upper_ready(w) or lower_ready(w)):
                queue.append(w)
                queued.add(w)

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
