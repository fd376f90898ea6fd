"""Join and split tree construction by one union-find sweep over dense ids.

A graph's ``n`` vertices are numbered 0..n-1.  The join tree is built
sweeping vertices in decreasing rank while merging superlevel-set
components; the split tree mirrors it upward.  ``sweep`` is the only
sweep: grids pass their vertex order, and ``tree.tree_from_graph``
numbers a graph's vertices in rank order and passes its edges.

A grid sweep visits one neighbour per connected component of a vertex's
upper link (join) or lower link (split), not the whole stencil: two link
neighbours are linked when their offset difference is itself a stencil
offset.  This is exact.  A link path between two upper neighbours runs
over stencil edges whose endpoints all rank above the vertex, so by the
time the vertex is swept its whole upper-link component is already one
union-find component; one representative finds the same root as any
other member, and the merge trees do not change.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import UsageError
from .grid import _ALL_OFFSETS, ScalarGrid, VertexOrder


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i: int, j: int) -> int:
        i, j = self.find(i), self.find(j)
        if i == j:
            return i
        if self.size[i] < self.size[j]:
            i, j = j, i
        self.parent[j] = i
        self.size[i] += self.size[j]
        return i


@dataclass
class MergeTree:
    """Fully augmented merge tree over vertices 0..n-1, one arc per vertex but the root.

    ``arc_to[v]`` is the vertex v connects to in sweep direction: a
    lower-ranked vertex for join trees, higher for split trees.
    """

    direction: str  # "join" or "split"
    n: int
    arc_to: dict[int, int] = field(repr=False)
    root: int = -1

    def child_counts(self) -> list[int]:
        counts = [0] * self.n
        for dst in self.arc_to.values():
            counts[dst] += 1
        return counts

    def leaves(self) -> list[int]:
        counts = self.child_counts()
        return [v for v in range(self.n) if counts[v] == 0]

    def superarcs(self) -> set[tuple[int, int]]:
        """Arcs of the contracted tree, as (from, to) pairs in sweep direction.

        Supernodes are vertices whose child count differs from one,
        plus the root; chains of single-child vertices contract away.
        """
        counts = self.child_counts()
        supers = {v for v in range(self.n) if counts[v] != 1 or v == self.root}
        arcs = set()
        for s in supers:
            if s == self.root:
                continue
            cur = self.arc_to[s]
            while cur not in supers:
                cur = self.arc_to[cur]
            arcs.add((s, cur))
        return arcs


def sweep(
    seq: Iterable[int], neighbors: Callable[[int], Iterable[int]], n: int, direction: str
) -> MergeTree:
    """Union-find sweep over vertices 0..n-1, visited in the order ``seq``.

    ``seq`` runs by decreasing rank for a join tree and by increasing
    rank for a split tree; ``neighbors(v)`` gives v's adjacent vertices.
    """
    ds = DisjointSet(n)
    # Per component, the vertex the next arc must attach from: the lowest
    # vertex seen so far for join sweeps, the highest for split.
    extreme = list(range(n))
    arc_to: dict[int, int] = {}
    processed = bytearray(n)
    find = ds.find
    union = ds.union
    v = -1
    for v in seq:
        v = int(v)
        roots = []
        for u in neighbors(v):
            if processed[u]:
                r = find(u)
                if r not in roots:
                    roots.append(r)
        for r in roots:
            arc_to[extreme[r]] = v
        root = v
        for r in roots:
            root = union(root, r)
        extreme[root] = v
        processed[v] = True
    return MergeTree(direction=direction, n=n, arc_to=arc_to, root=v)


def _check_order(grid: ScalarGrid, order: VertexOrder) -> None:
    if order.n != grid.n:
        raise UsageError("vertex order does not match grid size")


@cache
def link_representatives() -> np.ndarray:
    """Representative slots of every set of present stencil slots.

    Slot ``i`` is ``_ALL_OFFSETS[i]``, and two present slots are linked
    when their offset difference is itself a stencil offset.  Row ``mask``
    of the (2^14, 14) result marks the lowest slot of each connected
    component of the slots set in ``mask``.  Built once per process by
    min-label propagation over all masks at once.
    """
    offsets = np.array(_ALL_OFFSETS)
    k = len(offsets)
    diff = offsets[:, None, None, :] - offsets[None, :, None, :]
    linked = np.argwhere((diff == offsets[None, None, :, :]).all(-1).any(-1))
    slots = np.arange(k, dtype=np.uint8)[:, None]
    present = (np.arange(1 << k) >> slots) & 1 == 1
    label = np.where(present, slots, k).astype(np.uint8)
    while True:
        before = label.copy()
        for i, j in linked:
            np.minimum(label[i], label[j], out=label[i], where=present[i])
        if np.array_equal(before, label):
            break
    table = (present & (label == slots)).T.copy()
    table.flags.writeable = False  # shared by every caller in the process
    return table


def _link_neighbors(grid: ScalarGrid, order: VertexOrder, upper: bool):
    """``neighbors(v)``: one upper (or lower) neighbour per link component of v."""
    nx, ny, nz = grid.dims
    # Rank the sweep's processed side high; slots outside the domain rank -1.
    key = order.rank_of if upper else grid.n - 1 - order.rank_of
    key = key.reshape(nz, ny, nx)
    padded = np.pad(key, 1, constant_values=-1)
    mask = np.zeros(key.shape, dtype=np.uint16)
    deltas = []
    for slot, (dx, dy, dz) in enumerate(_ALL_OFFSETS):
        nbr = padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        mask |= (nbr > key).astype(np.uint16) << slot
        deltas.append(dx + nx * (dy + ny * dz))
    verts, slots = np.nonzero(link_representatives()[mask.ravel()])
    starts = np.searchsorted(verts, np.arange(grid.n + 1)).tolist()
    nbrs = (verts + np.array(deltas)[slots]).tolist()
    return lambda v: nbrs[starts[v] : starts[v + 1]]


def compute_join_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep downward: tracks superlevel-set components merging at saddles."""
    _check_order(grid, order)
    return sweep(order.vertex_at[::-1], _link_neighbors(grid, order, True), grid.n, "join")


def compute_split_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep upward: tracks sublevel-set components merging at saddles."""
    _check_order(grid, order)
    return sweep(order.vertex_at, _link_neighbors(grid, order, False), grid.n, "split")
