"""Join and split tree construction by one union-find sweep over dense ids.

A graph's ``n`` vertices are numbered 0..n-1.  The join tree is built
sweeping vertices in decreasing rank while merging superlevel-set
components; the split tree mirrors it upward.  ``sweep`` is the only
sweep: grids pass their stencil and their vertex order, and
``tree.tree_from_graph`` numbers a graph's vertices in rank order and
passes its edges.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .errors import UsageError
from .grid import ScalarGrid, VertexOrder


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


def compute_join_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep downward: tracks superlevel-set components merging at saddles."""
    _check_order(grid, order)
    return sweep(order.vertex_at[::-1], grid.neighbors, grid.n, "join")


def compute_split_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep upward: tracks sublevel-set components merging at saddles."""
    _check_order(grid, order)
    return sweep(order.vertex_at, grid.neighbors, grid.n, "split")
