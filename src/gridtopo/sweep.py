"""Join and split tree construction by a peak-pruned union-find sweep over dense ids.

A graph's ``n`` vertices are numbered 0..n-1.  The join tree is built
sweeping vertices in decreasing rank while merging superlevel-set
components; the split tree mirrors it upward.  ``_sweep`` is the only
sweep kernel.  Its input is each vertex's ascent pointer, ``hop[v]``,
plus the link lists of the candidates: a vertex with exactly one
neighbour swept strictly before it points at that neighbour, every other
vertex at itself, and only the vertices with two or more list theirs.
Grids build that input straight from their link masks (below).
``sweep_csr`` is the graph entry point: it takes CSR arrays, where
``nbrs[starts[v]:starts[v + 1]]`` holds the neighbours of ``v`` swept
strictly before ``v``, never ``v`` itself, and derives the kernel's
input from them.  ``tree.tree_from_graph``, whose graphs come over
positions 0..n-1, sweeps them in rank order and lists each edge at one
end.  A ``MergeTree`` stores its arcs as one int64 array (-1 at the
root), and callers read that array directly.

The kernel prunes the sweep to the vertices that can merge components,
after parallel peak pruning (Carr, Weber, Sewell & Ahrens, LDAV 2016;
in data-parallel form, Carr, Rübel, Weber & Ahrens, IEEE TVCG 2021).
A candidate is a vertex with zero listed neighbours or two or more; a
regular vertex has exactly one, its ascent pointer.  Pointer jumping
along ascent pointers takes every vertex to its peak, the candidate
where its chain ends.  Find and union then run over the candidates
only, each listed neighbour replaced by its peak, and build the reduced
tree of arcs between candidates.  That is one Python loop over a flat
list of (candidate slot, peak slot) entries in sweep order, with union
by size and path compression (Tarjan, JACM 1975), so it costs per
entry: a candidate without entries is never visited.  Each regular
vertex is placed trunk first up the reduced tree from its peak: a climb
whose path meets the trunk, the root path of the first swept candidate,
ends at the trunk's last candidate swept before the vertex, read from
one running maximum; only the other climbs lift over the tree's powers.
This answers most climbs with one path, the one-path form of a
heavy-path decomposition (Sleator & Tarjan, JCSS 1983).  One stable sort
links the regular vertices into chains between a candidate and its
reduced parent.  This is exact.  Components merge only at candidates: a
regular vertex joins the one component of its single neighbour.  The
ascent chain from a vertex u to its peak runs over vertices swept before
u, so by the time any later vertex lists u, u and its peak share a
component, and the reduced sweep sees the same merges.  A regular
vertex w extends the component of its peak; that component's last swept
candidate is the farthest ancestor of the peak in the reduced tree
swept before w, and w follows it and the regular vertices placed there
before w.

A grid sweep lists one neighbour per connected component of a vertex's
upper link (join) or lower link (split), not the whole stencil: two link
neighbours are linked when their offset difference is itself a stencil
offset.  Each vertex's 14-bit mask of upper (or lower) stencil slots
indexes tables cached per process: the number of link components, and
for a mask with one component, the lowest slot, which represents it.  A
per-call table of that slot's stencil delta per mask (0 for the other
masks) gives every ascent pointer in one gather, so a regular vertex
gets no list.  Only vertices with two or more components, a minority
even on noise, expand their row of ``link_representatives``.  This is
exact.  A link path between two upper neighbours runs over stencil edges
whose endpoints all rank above the vertex, so by the time the vertex is swept
its whole upper-link component is already one union-find component; one
representative finds the same root as any other member, and the merge
trees do not change.  It also makes most grid vertices regular: on
smooth fields only the extrema and the saddles are candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InternalError, UsageError
from .grid import _ALL_OFFSETS, ScalarGrid, VertexOrder


@dataclass(eq=False)
class MergeTree:
    """Fully augmented merge tree over vertices 0..n-1, one arc per vertex but the root.

    ``arcs[v]`` is the vertex v connects to in sweep direction: a
    lower-ranked vertex for join trees, higher for split trees; -1 at
    the root.  Trees compare by identity; compare ``arcs`` for equality.
    """

    direction: str  # "join" or "split"
    n: int
    arcs: np.ndarray = field(repr=False)
    root: int = -1

    def leaves(self) -> list[int]:
        counts = np.bincount(self.arcs[self.arcs >= 0], minlength=self.n)
        return np.flatnonzero(counts == 0).tolist()


def _chain_ends(hop: np.ndarray) -> np.ndarray:
    """Pointer jumping to the fixpoint: each entry's chain end (``hop[e] == e``).

    Each round jumps twice and then checks for the fixpoint once.  Rounds
    are capped at bit_length(size) // 2 + 1, at least log2(size) + 1
    jumps: enough for the longest chain, size - 1 steps, to reach its end
    and for the check to see it.  So a cycle raises instead of looping.
    A cycle whose length is a power of two jumps onto itself, so the ends
    found are checked against ``hop`` too.
    """
    end = hop
    for _ in range(hop.size.bit_length() // 2 + 1):
        end = np.take(end, end)
        far = np.take(end, end)
        if np.array_equal(far, end):
            if (hop[end] != end).any():
                break
            return end
        end = far
    raise InternalError("pointer chain has a cycle")


def sweep_csr(seq, nbrs, starts, n: int, direction: str) -> MergeTree:
    """The union-find sweep over vertices 0..n-1 of a graph given as CSR arrays.

    This is the graph entry point to the kernel, ``_sweep``.
    ``nbrs[starts[v]:starts[v + 1]]`` lists v's neighbours that ``seq``
    visits strictly before v (so never v itself); repeats are allowed.  ``seq`` runs by decreasing rank for a
    join tree and by increasing rank for a split tree.  All three are
    array-likes of ints.  The kernel's input comes from the rows: a
    vertex with one entry points at it, and the rows of the vertices
    with two or more are read in place, from their ``starts``.
    """
    nbrs = np.asarray(nbrs, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    count = np.diff(starts)
    hop = np.arange(n)
    at = np.flatnonzero(count == 1)
    hop[at] = nbrs[starts[at]]
    del at
    return _sweep(seq, hop, count, starts[np.flatnonzero(count > 1)], nbrs, direction)


def _sweep(
    seq, hop: np.ndarray, count: np.ndarray, offsets: np.ndarray, nbrs: np.ndarray, direction: str
) -> MergeTree:
    """The peak-pruned sweep over vertices 0..hop.size-1, visited in the order ``seq``.

    Each vertex lists ``count[v]`` neighbours that ``seq`` visits strictly
    before it.  A regular vertex (one listed neighbour) is given by its
    ascent pointer ``hop[v]``, that neighbour; every other vertex has
    ``hop[v] == v``.  The vertices with two or more, in increasing id
    order, list theirs in ``nbrs``, the i-th of them from ``offsets[i]``
    on.  ``seq`` runs by decreasing rank for a join tree and by
    increasing rank for a split tree.

    Components merge only at candidates, the vertices with zero listed
    neighbours or two or more.  Pointer jumping along ``hop`` takes each
    regular vertex to its peak, the candidate where its chain ends.  The
    chain runs over vertices swept earlier, so a vertex and its peak
    share a component by the time any later vertex lists it.  The
    find/union loop therefore runs on the candidates alone, over one
    flat list of (candidate slot, peak slot) entries in sweep order, and
    builds the reduced tree: the arcs between candidates.  A regular
    vertex w extends the component of its peak, whose last swept
    candidate c is the farthest ancestor of the peak in the reduced tree
    swept before w.  When the path from the peak meets the trunk, the
    root path of slot 0, before w is swept, c is the trunk's last slot
    swept before w, one gather from a running maximum; any other climb
    lifts over the reduced tree's powers.  The sweep positions of the
    regular vertices and of the candidates come from one ``flatnonzero``
    each, and the candidates swept before the regular vertex at position
    p number p less its own index among the regular ones.  One stable
    sort by c lists each candidate's regular vertices in sweep order,
    and the merge tree runs from c through them to c's reduced parent.
    """
    seq = np.asarray(seq, dtype=np.int64)
    n = hop.size
    arcs = np.full(n, -1, dtype=np.int64)
    peak = _chain_ends(hop)

    # Candidates in sweep order; slot s is the s-th one swept.
    swept_regular = count[seq] == 1
    cand = seq[np.flatnonzero(~swept_regular)]
    k = cand.size
    slot = np.full(n, -1, dtype=np.int64)
    slot[cand] = np.arange(k)
    width = count[cand].astype(np.int64, copy=False)
    # Each listing candidate's first entry in ``nbrs``, by slot.
    first = np.zeros(k, dtype=np.int64)
    first[slot[np.flatnonzero(count > 1)]] = offsets
    # One entry per listed neighbour of a candidate: its owner's slot and
    # the slot of the neighbour's peak, owners in sweep order.
    owner = np.repeat(np.arange(k), width)
    entry = np.repeat(first - np.cumsum(width) + width, width) + np.arange(owner.size)
    found = slot[peak[nbrs[entry]]]
    del first, entry, width
    up = _reduced_arcs(owner, found, k)
    del owner, found

    above = np.where(up >= 0, cand[up], -1)
    arcs[cand] = above
    at_reg = np.flatnonzero(swept_regular)
    if at_reg.size:
        reg = seq[at_reg]
        # The number of candidates swept before each regular vertex.
        before = at_reg - np.arange(at_reg.size)
        c = _climb(np.where(up >= 0, up, np.arange(k)), slot[peak[reg]], before)
        if ((c >= before) | ((up[c] >= 0) & (up[c] < before))).any():
            raise InternalError("regular vertex outside its candidate's reduced arc")
        order = np.argsort(c, kind="stable")
        # Each chain runs from its candidate to the candidate's reduced parent.
        _link_chains(arcs, reg[order], c[order], cand, above)
    arcs.flags.writeable = False
    root = int(seq[-1]) if seq.size else -1
    return MergeTree(direction=direction, n=n, arcs=arcs, root=root)


def _reduced_arcs(owner: np.ndarray, found: np.ndarray, k: int) -> np.ndarray:
    """Find and union over the candidate slots 0..k-1, in sweep order: the reduced tree.

    Entry i says that slot ``owner[i]`` lists a vertex whose peak is slot
    ``found[i]``; owners never decrease, and every entry must name an
    earlier slot (``InternalError`` otherwise).  Returns each slot's
    reduced arc, the slot it attaches to, or -1 at the root.  One loop
    runs over the entries, so a slot without entries costs nothing.  A
    slot's first entry hangs the slot, still a singleton, under the root
    that entry finds, as union by size would; each later entry in another
    component unions it by size.  The entries are read through
    memoryviews, not copied to lists; the per-slot Python lists are freed
    when it returns.
    """
    if ((found < 0) | (found >= owner)).any():
        raise InternalError("a candidate lists a neighbour whose peak is not an earlier slot")
    parent = list(range(k))
    size = [1] * k
    # Per component root, the slot the next arc must attach from: the
    # last candidate swept into the component.
    extreme = list(range(k))
    up = [-1] * k
    v = root = -1
    for w, u in zip(memoryview(owner), memoryview(found)):
        r = parent[u]
        if parent[r] != r:
            while parent[r] != r:
                r = parent[r]
            while parent[u] != r:
                parent[u], u = r, parent[u]
        if w != v:
            v = w
            up[extreme[r]] = v
            parent[v] = r
            size[r] += 1
            extreme[r] = v
            root = r
        elif r != root:
            up[extreme[r]] = v
            if size[root] < size[r]:
                root, r = r, root
            parent[r] = root
            size[root] += size[r]
            extreme[root] = v
    return np.array(up, dtype=np.int64)


def _link_chains(
    parent: np.ndarray, walk: np.ndarray, arc: np.ndarray, outer: np.ndarray, inner: np.ndarray
) -> None:
    """Link a non-empty ``walk`` grouped by ``arc`` into one chain per arc, in ``parent``.

    Arc ``a``'s chain runs from vertex ``outer[a]`` through its stretch of
    ``walk`` to ``inner[a]``: ``outer[a]`` points at the stretch's first
    vertex, each vertex at the next, and the last at ``inner[a]``.
    """
    breaks = np.flatnonzero(arc[1:] != arc[:-1])
    parent[walk[:-1]] = walk[1:]
    last = np.r_[breaks, walk.size - 1]
    parent[walk[last]] = inner[arc[last]]
    heads = np.r_[0, breaks + 1]
    parent[outer[arc[heads]]] = walk[heads]


def _climb(step: np.ndarray, x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The farthest ancestor of each slot ``x`` whose slot is below ``bound``.

    ``step`` is the parent of each of its k >= 1 slots, itself at a root;
    a parent's slot exceeds its child's, and each ``x`` is below its
    ``bound``, at most k.  Most paths meet the trunk, slot 0 and its
    ancestors, which ``step``'s powers mark by doubling.  A query whose
    path meets the trunk below its bound ends at the highest trunk slot
    below the bound, read from a running maximum; the rest lift over the
    powers, binary lifting.
    """
    hops = [step]
    while not np.array_equal(far := np.take(hops[-1], hops[-1]), hops[-1]):
        hops.append(far)
    slots = np.arange(step.size)
    trunk = slots == 0
    for hop in hops:
        trunk[np.take(hop, np.flatnonzero(trunk))] = True
    # Each query's first trunk ancestor, or its root off the trunk.
    meet = np.take(_chain_ends(np.where(trunk, slots, step)), x)
    lift = np.flatnonzero(~np.take(trunk, meet) | (meet >= bound))
    del meet
    # Entry b: the highest trunk slot below b.
    top = np.maximum.accumulate(np.r_[-1, np.where(trunk, slots, -1)])
    out = np.take(top, bound)
    x, bound = np.take(x, lift), np.take(bound, lift)
    for hop in reversed(hops):
        to = np.take(hop, x)
        x = np.where(to < bound, to, x)
    out[lift] = x
    return out


def _check_order(grid: ScalarGrid, order: VertexOrder) -> None:
    if order.n != grid.n:
        raise UsageError("vertex order does not match grid size")


@cache
def link_representatives() -> np.ndarray:
    """Representative slots of every set of present stencil slots.

    Slot ``i`` is ``_ALL_OFFSETS[i]``, and two present slots are linked
    when their offset difference is itself a stencil offset.  Row ``mask``
    of the (2^14, 14) result marks the lowest slot of each connected
    component of the slots set in ``mask``.  Built once per process by a
    dynamic program over the masks: ``comp[mask, i]`` is the bitmask of
    slot i's component (0 if i is absent).  Step h fills the masks whose
    highest slot is h from those without it: the components of h's
    linked slots merge with h into one mask, which every slot meeting it
    takes.  A slot represents its component when it is that mask's
    lowest set bit.
    """
    offsets = np.array(_ALL_OFFSETS)
    k = len(offsets)
    diff = offsets[:, None, None, :] - offsets[None, :, None, :]
    linked = (diff == offsets[None, None, :, :]).all(-1).any(-1)
    comp = np.zeros((1 << k, k), dtype=np.uint16)
    for h in range(k):
        low, high = comp[: 1 << h], comp[1 << h : 2 << h]
        merged = np.bitwise_or.reduce(low[:, linked[h]], axis=1) | np.uint16(1 << h)
        high[:] = np.where(low & merged[:, None], merged[:, None], low)
        high[:, h] = merged
    below = (np.uint16(1) << np.arange(k, dtype=np.uint16)) - np.uint16(1)
    table = (comp != 0) & (comp & below == 0)
    table.flags.writeable = False  # shared by every caller in the process
    return table


@cache
def link_representative_counts() -> np.ndarray:
    """The number of representatives in each row of ``link_representatives`` (uint8)."""
    counts = link_representatives().sum(axis=1, dtype=np.uint8)
    counts.flags.writeable = False
    return counts


@cache
def link_first_representative() -> np.ndarray:
    """The lowest representative slot of each row of ``link_representatives`` (uint8).

    The lowest slot set in a mask always represents its component, so
    this is the mask's lowest set slot; 0 for the empty mask, which has
    none.
    """
    first = link_representatives().argmax(axis=1).astype(np.uint8)
    first.flags.writeable = False
    return first


def index_dtype(top: int) -> type[np.signedinteger]:
    """``np.int32`` when every integer from -1 to ``top`` fits in it, else ``np.int64``."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _link_neighbors(
    grid: ScalarGrid, order: VertexOrder, upper: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_sweep``'s input for a grid: one upper (or lower) neighbour per link component.

    Returns (``hop``, ``count``, ``offsets``, ``nbrs``).  Each vertex's
    14-bit mask of neighbours ranked on the sweep's processed side is
    built from rank keys, int32 when ``index_dtype`` allows.  ``count``
    is the mask's row of ``link_representative_counts`` (uint8).  A
    vertex with one representative gets its ascent pointer from a
    per-call table over the masks, that slot's stencil delta (0 for the
    other masks), so it gets no list.  Only vertices with two or more
    expand their ``link_representatives`` rows, in id order, into
    ``nbrs``; ``offsets`` holds where each row starts.  ``hop``,
    ``offsets`` and ``nbrs`` are int64.
    """
    nx, ny, nz = grid.dims
    n = grid.n
    # Rank the sweep's processed side high; slots outside the domain rank -1.
    key = order.rank_of.astype(index_dtype(n - 1), copy=False)
    key = (key if upper else n - 1 - key).reshape(nz, ny, nx)
    padded = np.pad(key, 1, constant_values=-1)
    mask = np.zeros(key.shape, dtype=np.uint16)
    # One comparison and one shift buffer, reused for every slot.
    above = np.empty(key.shape, dtype=bool)
    bit = np.empty(key.shape, dtype=np.uint16)
    deltas = []
    for slot, (dx, dy, dz) in enumerate(_ALL_OFFSETS):
        nbr = padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        np.greater(nbr, key, out=above)
        mask |= np.left_shift(above, np.uint16(slot), out=bit)
        deltas.append(dx + nx * (dy + ny * dz))
    del key, padded, above, bit
    mask = mask.ravel()
    deltas = np.array(deltas, dtype=np.int64)
    per_mask = link_representative_counts()
    step = np.where(per_mask == 1, deltas[link_first_representative()], 0)
    hop = np.arange(n) + step[mask]
    count = per_mask[mask]
    multi = np.flatnonzero(count > 1)
    # Row-major flat positions of the representatives name (row, slot).
    rows, slots = np.divmod(
        np.flatnonzero(link_representatives()[mask[multi]]), len(_ALL_OFFSETS)
    )
    del mask
    nbrs = multi[rows] + deltas[slots]
    width = count[multi].astype(np.int64)
    return hop, count, np.cumsum(width) - width, nbrs


def compute_join_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep downward: tracks superlevel-set components merging at saddles."""
    _check_order(grid, order)
    return _sweep(order.vertex_at[::-1], *_link_neighbors(grid, order, True), "join")


def compute_split_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep upward: tracks sublevel-set components merging at saddles."""
    _check_order(grid, order)
    return _sweep(order.vertex_at, *_link_neighbors(grid, order, False), "split")
