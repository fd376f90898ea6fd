"""Contour tree assembly from join and split trees.

``combine`` merges the two trees on their critical vertices only: those
whose join-child or split-child count is not 1, which are exactly the
contour tree's supernodes.  Each merge tree is contracted onto them by
pointer jumping up its chains of single-child vertices, leaf transfer
(Carr, Snoeyink & Axen, Computational Geometry 2003) runs on that
contracted pair, and every regular vertex is then placed on its
superarc.  A regular vertex w lies on the tree path from the first
critical vertex up its chain of single join children to the first one
down its chain of single split children; ranks along that path stay
above w's rank until w's own superarc and below it after, so binary
lifting over the superarcs finds the arc where they cross.  The
superstructure is indexed by each superarc's outer-end supernode (the
end farther from the root, which is the highest-ranked supernode).

Leaf transfer runs in batched rounds, after the data-parallel assembly
of Carr, Weber, Sewell & Ahrens (LDAV 2016) and Carr, Rübel, Weber &
Ahrens (IEEE TVCG 2021): a round transfers every upper leaf in one numpy
pass and every lower leaf in another, and one level function
(``_assemble``) serves ``combine`` and each smaller level the rounds
leave.  A level whose round transfers less than half of its vertices
goes to the serial queue (``_leaf_transfer``) instead, so levels at
least halve.

Everything but that queue runs as numpy passes over vertex positions.
Every builder works in positions 0..n-1 and returns ``ids`` equal to
them.  A caller whose vertices have other ids, the distributed pipeline,
lists them in ascending order and sets them as labels, so position order
is id order and no tree is re-sorted.  ``_from_edges`` roots an edge
list at the highest-ranked vertex by turning one path around, counts
degrees with ``bincount`` and finds each vertex's outer end by one
pointer jumping down regular chains, so it returns an augmented tree, as
``combine`` does.  Each tree ranks its own vertices by (value, id) in
``ranks``.  ``ids``, ``ranks``, ``up``, ``outer`` and the superstructure
are the whole state of a tree, and callers read them directly.
``arc_inner`` and ``arc_regulars`` are read-only mappings keyed by
supernode id: ``len`` counts the superarcs, and the first lookup or
iteration builds one plain dict (``arc_regulars`` sorts the walk then).
``supernodes`` is a list built on first use.  No function keeps state
between calls, so trees can be built on several threads at once.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import sweep
from .errors import InternalError, UsageError
from .grid import ScalarGrid, VertexOrder, value_order
from .sweep import MergeTree, _chain_ends, _link_chains, index_dtype

_EMPTY = np.empty(0, dtype=np.int64)


class _ArcView(Mapping):
    """Read-only ``{outer-end id: entry}`` over a tree's superarcs, one dict built when read.

    ``entries(arcs)`` lists the entries of the superarcs at supernode
    positions ``arcs`` (see ``Superstructure``).  The first lookup or
    iteration builds the dict, in ascending id order; ``len`` counts the
    superarcs without building it.
    """

    def __init__(self, ids: np.ndarray, st: Superstructure, entries):
        self._ids, self._st, self._entries = ids, st, entries

    @cached_property
    def _dict(self) -> dict:
        arcs = np.flatnonzero(self._st.inner >= 0)
        return dict(zip(self._ids[self._st.vertex[arcs]].tolist(), self._entries(arcs)))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._st.inner >= 0))


@dataclass(frozen=True)
class Superstructure:
    """A contour tree's superarcs as arrays over supernode positions.

    Position ``i`` is ``ContourTree.supernodes[i]``, the vertex at
    position ``vertex[i]``; ``vertex`` ascends, so the supernode ids do
    too.  Arc ``i`` is the superarc whose outer end is supernode ``i``.
    ``inner[i]`` is the position of its inner end (-1 at the root),
    ``rank[i]`` the supernode's rank and ``root`` the root's position.
    """

    vertex: np.ndarray = field(repr=False)
    inner: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)
    root: int


@dataclass(eq=False)
class ContourTree:
    """Contour tree over vertex positions, labelled with vertex ids.

    The state is int64 arrays over vertex positions: ``ids``, which
    strictly ascend; ``up``, the parent in the tree rooted at the
    highest-ranked vertex (-1 at the root); and ``outer``, the outer end
    of each vertex's superarc (a supernode is its own), so every tree is
    augmented.  Two read-only mappings keyed by supernode id
    (``_ArcView``) build their dict on first read: ``arc_inner`` maps
    each non-root supernode to the other, root-facing end of its
    superarc, and ``arc_regulars`` to that superarc's regular vertices
    from the outer end inward, sorted by rank on that first read.
    ``ranks[p]`` ranks position p among the tree's own vertices by (value, id);
    a grid tree's positions are its ids, so it is ``VertexOrder.rank_of``.
    Every builder sets ``ids`` to the positions 0..n-1; the distributed
    pipeline labels its trees with global ids through ``dataclasses.replace``.
    """

    ids: np.ndarray = field(repr=False)
    ranks: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    superstructure: Superstructure = field(repr=False)
    outer: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.ids.size

    @property
    def root(self) -> int:
        st = self.superstructure
        return self.ids.item(st.vertex[st.root])

    @cached_property
    def supernodes(self) -> list[int]:
        return self.ids[self.superstructure.vertex].tolist()

    @cached_property
    def arc_inner(self) -> _ArcView:
        ids, st = self.ids, self.superstructure
        return _ArcView(ids, st, lambda arcs: ids[st.vertex[st.inner[arcs]]].tolist())

    @cached_property
    def arc_regulars(self) -> _ArcView:
        ids, ranks, up, outer, st = self.ids, self.ranks, self.up, self.outer, self.superstructure

        def regulars(arcs):
            regular = np.flatnonzero(outer != np.arange(outer.size))
            # A regular vertex ranks below its parent exactly when its arc rises inward.
            rises = ranks[regular] < ranks[up[regular]]
            walk = regular[_walk_order(outer[regular], ranks[regular], rises)]
            start = np.r_[0, np.cumsum(np.bincount(outer[walk], minlength=outer.size))]
            names, ends = ids[walk].tolist(), st.vertex[arcs]
            return [names[a:b] for a, b in zip(start[ends].tolist(), start[ends + 1].tolist())]

        return _ArcView(ids, st, regulars)

    def arc_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per supernode position, its superarcs leading up (to a higher rank) and down."""
        st = self.superstructure
        arcs = np.flatnonzero(st.inner >= 0)
        inner = st.inner[arcs]
        rises = st.rank[inner] > st.rank[arcs]
        k = st.inner.size
        up = np.bincount(np.where(rises, arcs, inner), minlength=k)
        down = np.bincount(np.where(rises, inner, arcs), minlength=k)
        return up, down

    def straddling_arcs(self, gap: int) -> int:
        """Number of superarcs whose endpoint ranks straddle rank gap ``gap``."""
        st = self.superstructure
        arcs = st.inner >= 0
        a, b = st.rank[arcs], st.rank[st.inner[arcs]]
        return int(np.count_nonzero((np.minimum(a, b) <= gap) & (gap < np.maximum(a, b))))


def combine(join: MergeTree, split: MergeTree, ranks) -> ContourTree:
    """Merge the two trees by leaf transfer on their critical vertices.

    ``ranks[p]`` ranks vertex p, which is also its position (for a grid,
    ``VertexOrder.rank_of``); any int sequence, converted once to int64.

    The critical set C holds every vertex whose join-child or split-child
    count is not 1; both roots are in it, as the minimum has no split
    children and the maximum no join children.  Those counts are the up-
    and down-degrees in the contour tree, so C is its supernode set.  Each
    merge tree is contracted onto C (its chains of single-child vertices
    become one arc), and leaf transfer runs on the contracted pair: a
    vertex transfers as an upper leaf when it has no join children and
    exactly one split child (mirror condition for lower leaves); its arc
    becomes a superarc and the vertex is deleted from both trees.  The
    resulting arc set is unique, so any valid processing order yields
    the same tree (Carr, Snoeyink & Axen, Computational Geometry 2003).

    The transfer runs in batched rounds (``_transfer``).  A round
    transfers every upper leaf at once, then every lower leaf, and
    recurses on the vertices left through ``_assemble``: the same
    contraction, transfer and placement steps as here, one level down.
    The vertices that level contracts are placed like the regular
    vertices below, and that is exact: each is regular in the remaining
    contour tree, so the path between its join child and its split child
    crosses its rank once.  A round that transfers less than half of its
    level's vertices hands the level to the serial queue instead, which
    keeps the work linear and the depth at most log2(k) + 1.

    A regular vertex w is then placed on its superarc.  JU(w), the first
    critical vertex up w's chain of single join children, lies in the
    component of the superlevel set above w that w's upward arc enters;
    SD(w), down its chain of single split children, lies in the sublevel
    component below.  So the tree path from JU(w) to SD(w) runs through
    w, ranks above w before it and below w after it: among superarcs, it
    crosses w's rank exactly once, on w's own superarc.  Binary lifting
    climbs from JU(w) while ancestors rank above w and from SD(w) while
    they rank below; the deeper stopping node is the outer end of that
    arc.  That placement, ``outer``, is the augmentation: the tree comes back augmented.
    """
    if join.n != split.n:
        raise UsageError("join and split trees cover different vertex sets")
    n = join.n
    if n == 0:
        raise UsageError("empty vertex set")
    ranks = np.asarray(ranks, dtype=np.int64)
    up, st, outer = _assemble(join.arcs, split.arcs, ranks)
    return ContourTree(np.arange(n), ranks, up, st, outer)


def _assemble(j_arcs: np.ndarray, s_arcs: np.ndarray, rank: np.ndarray):
    """The contour tree of a join/split pair over positions 0..m-1, ``combine``'s steps.

    ``j_arcs`` and ``s_arcs`` are parent arrays (-1 at the roots) and
    ``rank[p]`` ranks position p.  Returns ``up``, the parent of each
    position in the tree rooted at the highest rank; the superstructure,
    whose ``vertex`` holds the supernodes' positions; and ``outer``, the
    outer end of each position's superarc.
    """
    m = j_arcs.size
    j_count, j_one = _child_state(j_arcs)
    s_count, s_one = _child_state(s_arcs)
    crit = (j_count != 1) | (s_count != 1)
    crit_ids = np.flatnonzero(crit)
    slot = np.full(m, -1, dtype=np.int64)
    slot[crit_ids] = np.arange(crit_ids.size)
    ju, j_tree = _contract(j_arcs, j_count, j_one, crit_ids, slot)
    sd, s_tree = _contract(s_arcs, s_count, s_one, crit_ids, slot)
    # Free the per-vertex child state before the lifting tables are built.
    del j_count, j_one, s_count, s_one, slot
    child, parent = _transfer(j_tree, s_tree, rank[crit_ids])
    st = _from_pairs(rank[crit_ids], child, parent)[2]
    if st.vertex.size != crit_ids.size:
        raise InternalError("a critical vertex is regular in the contracted tree")

    up = np.empty(m, dtype=np.int64)
    up[crit_ids] = inner = np.where(st.inner >= 0, crit_ids[st.inner], -1)
    regular = np.flatnonzero(~crit)
    arc = _EMPTY
    if regular.size:
        rank = rank[regular]
        arc = _lift(st, ju[regular], sd[regular], rank)
        lo, hi = st.rank[arc], st.rank[st.inner[arc]]
        if ((rank < np.minimum(lo, hi)) | (rank > np.maximum(lo, hi))).any():
            raise InternalError("regular vertex outside its superarc's rank range")
        order = _walk_order(arc, rank, hi > lo)
        # Each arc's walk runs from its outer end inward.
        _link_chains(up, regular[order], arc[order], crit_ids, inner)
    outer = np.arange(m)
    outer[regular] = crit_ids[arc]
    return up, dataclasses.replace(st, vertex=crit_ids), outer


def _child_state(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child count per vertex of a parent array (-1 at roots), and one child of each.

    ``one[v]`` is one of v's children (-1 if it has none), so it names
    the child of a vertex that has exactly one; it is read only there.
    """
    (src,) = np.nonzero(arcs >= 0)
    dst = arcs[src]
    one = np.full(arcs.size, -1, dtype=np.int64)
    one[dst] = src
    return np.bincount(dst, minlength=arcs.size), one


def _contract(
    arcs: np.ndarray, count: np.ndarray, one: np.ndarray, crit_ids: np.ndarray, slot: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A merge tree contracted onto its critical vertices ``crit_ids`` (``slot`` numbers them).

    ``count`` and ``one`` are ``_child_state(arcs)``.  Returns the slot
    of each vertex's first critical vertex up its chain of single
    children (its own if critical), and the contracted tree over slots as
    (parent, child count, child-slot sum) arrays: the sums name a single
    child as ``_leaf_transfer`` splices vertices out.
    """
    crit = slot >= 0
    # A regular vertex has exactly one child, named by ``one``.
    top = _chain_ends(np.where(crit, np.arange(arcs.size), one))
    # The bottom vertex of each chain carries the arc to the next critical one.
    (tail,) = np.nonzero((arcs >= 0) & crit[arcs])
    parent = np.full(crit_ids.size, -1, dtype=np.int64)
    parent[slot[top[tail]]] = slot[arcs[tail]]
    (src,) = np.nonzero(parent >= 0)
    # Float sums of slots are exact: they stay far below 2**53.
    total = np.bincount(parent[src], weights=src, minlength=parent.size).astype(np.int64)
    return slot[top], (parent, count[crit_ids], total)


def _transfer(join, split, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leaf transfer over slots 0..k-1 in batched rounds; ``rank`` ranks the slots.

    Each tree is given as (parent, child count, child-slot sum) arrays.
    Returns the k - 1 contour tree edges as (child, parent) arrays.  A
    round takes two numpy passes.  The first transfers every upper leaf
    (no join children, one split child) at once: its edge goes to its
    join parent, and it is spliced out of the split tree.  The second
    does the mirror for every lower leaf of the updated trees.  Leaves of
    one kind are never each other's parents, and splicing keeps the
    other vertices' child counts, so each pass equals the serial queue
    run in some order.  The vertices left and their trees are the
    contour tree without those leaves and its join and split trees, and
    ``_assemble`` builds that tree one level down.  A leaf without a
    parent only occurs in a malformed pair; it is left to the queue.

    A level whose round transfers less than half of its vertices goes to
    the ``_leaf_transfer`` queue instead.  Each deeper level is then at
    most half as large, so the work stays linear and the recursion depth
    is at most log2(k) + 1.
    """
    (j_parent, j_count, _), (s_parent, s_count, _) = join, split
    k = rank.size
    upper = (j_count == 0) & (s_count == 1) & (j_parent >= 0)
    upper_to = j_parent[upper]
    s_parent = _splice(s_parent, upper)
    j_count = j_count - np.bincount(upper_to, minlength=k)
    lower = ~upper & (s_count == 0) & (j_count == 1) & (s_parent >= 0)
    lower_to = s_parent[lower]
    j_parent = _splice(j_parent, lower)
    keep = np.flatnonzero(~(upper | lower))
    if 2 * keep.size > k:
        return _leaf_transfer(k, join, split)
    child = np.r_[np.flatnonzero(upper), np.flatnonzero(lower)]
    parent = np.r_[upper_to, lower_to]
    if keep.size > 1:
        pos = np.full(k, -1, dtype=np.int64)
        pos[keep] = np.arange(keep.size)
        j_keep, s_keep = j_parent[keep], s_parent[keep]
        up = _assemble(
            np.where(j_keep >= 0, pos[j_keep], -1),
            np.where(s_keep >= 0, pos[s_keep], -1),
            rank[keep],
        )[0]
        has = up >= 0
        child = np.r_[child, keep[has]]
        parent = np.r_[parent, keep[up[has]]]
    return child, parent


def _splice(parent: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``parent`` with the single-child vertices marked in ``out`` spliced out.

    Each other vertex's parent becomes its first ancestor not in ``out``
    (-1 past the root); pointer jumping skips runs of them.
    """
    k = parent.size
    up = np.where(parent >= 0, parent, k)
    end = _chain_ends(np.append(np.where(out, up, np.arange(k)), k))[up]
    return np.where(end < k, end, -1)


def _leaf_transfer(n: int, join, split) -> tuple[np.ndarray, np.ndarray]:
    """The serial leaf-transfer queue over vertices 0..n-1 of a join and a split tree.

    Each tree is given as (parent, child count, child-id sum) arrays.
    Returns the n - 1 contour tree edges as (child, parent) arrays: each
    transferred vertex and its parent in the tree it was a leaf of.  The
    queue loop runs on lists.  It finishes the degenerate levels of
    ``_transfer``, those where a batched round would transfer less than
    half of the vertices (on a zigzag path, one round transfers only the
    leaves near its two ends).  A pair whose leaves run out before one
    vertex is left is not a contour tree's (its graph's Reeb graph has a
    loop, say), and the queue raises ``InternalError`` for it.
    """
    (j_parent, j_count, j_sum), (s_parent, s_count, s_sum) = join, split
    ready = ((j_count == 0) & (s_count == 1)) | ((s_count == 0) & (j_count == 1))
    # A vertex is queued at most once at a time and leaves the trees only
    # when popped, so every queued vertex is alive and so is its parent.
    queue = deque(np.flatnonzero(ready).tolist())
    queued = bytearray(ready.tobytes())
    j_parent, j_count, j_sum = j_parent.tolist(), j_count.tolist(), j_sum.tolist()
    s_parent, s_count, s_sum = s_parent.tolist(), s_count.tolist(), s_sum.tolist()

    def ready_now(v: int) -> bool:
        return (j_count[v] == 0 and s_count[v] == 1) or (s_count[v] == 0 and j_count[v] == 1)

    child: list[int] = []
    parent: list[int] = []
    while len(child) < n - 1:
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
        below = reg_sum[v]
        above = reg_parent[v]
        reg_parent[below] = above
        if above != -1:
            reg_sum[above] += below - v
        child.append(v)
        parent.append(other)
        if not queued[other] and ready_now(other):
            queue.append(other)
            queued[other] = 1
    return np.array(child, dtype=np.int64), np.array(parent, dtype=np.int64)


def _lift(st: Superstructure, ju: np.ndarray, sd: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Outer end of the superarc where the path from ``ju`` to ``sd`` crosses ``rank``.

    ``ju`` and ``sd`` are supernode positions ranked above and below each
    entry of ``rank``, and ranks along the path fall below it once.  When
    they are the two ends of one superarc, that arc is the crossing.
    Every other entry is lifted: binary lifting over tables of the least
    and greatest rank among each supernode's 2**l nearest ancestors climbs
    from ``ju`` while ancestors rank above and from ``sd`` while they rank
    below; the deeper of the two stops is the crossing arc's outer end.
    The tables are int32 when ``index_dtype`` allows, with one row per
    bit of the tree's depth.
    """
    found = np.where(st.inner[ju] == sd, ju, np.where(st.inner[sd] == ju, sd, -1))
    far = np.flatnonzero(found < 0)
    if not far.size:
        return found
    dt = index_dtype(int(st.rank.max()))
    has = st.inner >= 0
    # The root is its own parent, so a climb past it stays there.
    step = np.where(has, st.inner, st.root).astype(dt)
    depth = has.astype(dt)
    hop = step
    while (hop != st.root).any():
        depth += np.take(depth, hop)
        hop = np.take(hop, hop)
    levels = int(depth.max()).bit_length()
    anc, lo, hi = [step], [st.rank[step].astype(dt)], [st.rank[step].astype(dt)]
    for _ in range(1, levels):
        a = anc[-1]
        anc.append(np.take(a, a))
        lo.append(np.minimum(lo[-1], np.take(lo[-1], a)))
        hi.append(np.maximum(hi[-1], np.take(hi[-1], a)))
    x, y, r = ju[far].astype(dt), sd[far].astype(dt), rank[far]
    for lv in reversed(range(levels)):
        x = np.where(np.take(lo[lv], x) > r, np.take(anc[lv], x), x)
        y = np.where(np.take(hi[lv], y) < r, np.take(anc[lv], y), y)
    found[far] = np.where(np.take(depth, x) > np.take(depth, y), x, y)
    return found


def _walk_order(arc: np.ndarray, rank: np.ndarray, rises: np.ndarray) -> np.ndarray:
    """Order grouping regular vertices by superarc, each arc from its outer end inward.

    ``arc`` names each vertex's superarc, ``rank`` its rank and ``rises``
    whether that arc rises from its outer end.  Ranks are monotone along
    a superarc, so one sort on (superarc, signed rank) gives the order.
    """
    span = int(rank.max(initial=0)) + 1
    signed = np.where(rises, rank, -rank)
    return np.argsort(_pair_key(arc, signed + span, 2 * span))


def _edge_rows(edges, n: int) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array; an endpoint outside 0..n-1 raises ``InternalError``."""
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise InternalError("edge endpoint outside the vertex set")
    return rows


def _pair_key(major: np.ndarray, minor: np.ndarray, span: int) -> np.ndarray:
    """One int64 sort key ordering by ``major``, then ``minor`` (``0 <= minor < span``).

    An ``argsort`` of it is several times faster than ``lexsort`` on the pair.
    """
    if (int(major.max(initial=0)) + 1) * span >= 2**63:
        raise UsageError("too many vertices for 64-bit sort keys")
    return major * span + minor


def _from_edges(values, edges) -> ContourTree:
    """The augmented contour tree with the given edges, over positions 0..n-1.

    ``values[p]`` is position p's scalar, and positions rank by (value,
    position).  ``edges`` is an (n - 1, 2) array-like of ``(child,
    parent)`` rows of positions from some rooting of the tree: every
    position but one is a child exactly once.  ``_from_pairs`` turns
    the path from the highest-ranked vertex to the old root around and
    places every vertex on its superarc.  Malformed input (a wrong edge
    count, two parents, an endpoint outside 0..n-1, a cycle or a
    disconnected graph) raises ``InternalError``.
    """
    rank = value_order(np.asarray(values)).rank_of
    n = rank.size
    edges = _edge_rows(edges, n)
    if n == 0 or len(edges) != n - 1:
        raise InternalError(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    up, outer, st = _from_pairs(rank, edges[:, 0], edges[:, 1])
    return ContourTree(np.arange(n), rank, up, st, outer)


def _from_pairs(
    rank: np.ndarray, child: np.ndarray, par: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Superstructure]:
    """``_from_edges``'s ``up``, ``outer`` and superstructure, for positions ranked ``rank``.

    The walk up from the highest-ranked vertex to the old root turns
    around.  A regular vertex has one child, so jumping down child
    pointers ends at its superarc's outer end; the parent of an arc's
    topmost vertex is its inner end.  A cycle on the walk makes it longer
    than n; one off it has supernodes whose superarc chain misses the root.
    """
    n = rank.size
    if (np.bincount(child, minlength=n) > 1).any():
        raise InternalError("contour tree vertex with two parents")
    parent = np.full(n, -1, dtype=np.int64)
    parent[child] = par
    root = int(np.argmax(rank))
    hop, path = memoryview(parent), [root]
    while (v := hop[path[-1]]) >= 0:
        if len(path) == n:
            raise InternalError("contour tree is not connected")
        path.append(v)
    path = np.array(path)
    parent[path[1:]] = path[:-1]
    parent[root] = -1

    lo_is_child = rank[child] < rank[par]
    up_deg = np.bincount(np.where(lo_is_child, child, par), minlength=n)
    down_deg = np.bincount(np.where(lo_is_child, par, child), minlength=n)
    is_super = (up_deg != 1) | (down_deg != 1)
    kid = np.flatnonzero(parent >= 0)
    down = np.arange(n)
    down[parent[kid]] = kid  # only read at regular vertices, which have one child
    outer = _chain_ends(np.where(is_super, np.arange(n), down))
    if not is_super[outer].all():
        raise InternalError("augmentation missed vertices")
    vertex = np.flatnonzero(is_super)
    slot = np.cumsum(is_super) - 1  # read only at supernodes
    inner = np.full(vertex.size, -1, dtype=np.int64)
    top = kid[is_super[parent[kid]]]
    inner[slot[outer[top]]] = slot[parent[top]]
    if (_chain_ends(np.where(inner >= 0, inner, np.arange(vertex.size))) != slot[root]).any():
        raise InternalError("contour tree is not connected")
    return parent, outer, Superstructure(vertex, inner, rank[vertex], root=int(slot[root]))


def augment(ct: ContourTree) -> ContourTree:
    """``ct`` itself: ``combine`` and ``_from_edges`` build every tree augmented."""
    return ct


def contour_tree(grid: ScalarGrid, order: VertexOrder) -> ContourTree:
    """Convenience: join + split sweep, combine, and augment a full grid."""
    from .sweep import compute_join_tree, compute_split_tree

    join = compute_join_tree(grid, order)
    split = compute_split_tree(grid, order)
    return augment(combine(join, split, order.rank_of))


def tree_from_graph(values, edges) -> ContourTree:
    """Contour tree of a connected graph on positions 0..n-1 (used by the merge).

    Precondition: the graph's Reeb graph is a tree.  The fan-in glue
    graphs meet it because they come from simply connected regions.  On
    other graphs the result is not a contour tree, and it is not checked.
    ``values[p]`` is position p's scalar, and positions rank by (value,
    position); ``edges`` is an (m, 2) array-like of position pairs.  The
    tree's ``ids`` are its positions.  Self-loops are dropped, repeated
    edges are harmless, and an endpoint outside 0..n-1 raises
    ``InternalError``.

    Each sweep lists an edge at its end swept later and builds
    ``_sweep``'s input from the edges, with no CSR: a vertex listing one
    edge points at its other end, and one stable argsort orders the
    edges of the vertices listing two or more.
    """
    order = value_order(np.asarray(values))
    rank, rising = order.rank_of, order.vertex_at
    n = rank.size
    a, b = _edge_rows(edges, n).T
    a_low, keep = rank[a] < rank[b], a != b
    lo, hi = np.where(a_low, a, b)[keep], np.where(a_low, b, a)[keep]
    trees = []
    for at, other, seq, direction in (
        (lo, hi, rising[::-1], "join"),
        (hi, lo, rising, "split"),
    ):
        count = np.bincount(at, minlength=n)
        one = count[at] == 1
        hop = np.arange(n)
        hop[at[one]] = other[one]
        many = np.flatnonzero(~one)
        many = many[np.argsort(at[many], kind="stable")]
        width = count[count > 1]
        offsets = np.cumsum(width) - width
        trees.append(sweep._sweep(seq, hop, count, offsets, other[many], direction))
    return combine(*trees, rank)
