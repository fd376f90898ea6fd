"""Brute-force reference computations, independent of the tree code.

These deliberately share only the grid stencil with the main library:
contour counting works directly on crossed mesh edges and simplices,
and subtree volumes come from severing the tree and flood-filling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .grid import ScalarGrid, VertexOrder
from .tree import ContourTree


@dataclass
class LevelSetCensus:
    """Contour counts per rank gap; gap g sits between ranks g and g+1."""

    counts: np.ndarray = field(repr=False)

    def __getitem__(self, gap: int) -> int:
        return int(self.counts[gap])


class _EdgeSet:
    """Union-find over dynamically registered edge ids."""

    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, x: int):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _join_crossed(ds: _EdgeSet, simplex, rank, gap: int, n: int) -> None:
    """Add the edges of ``simplex`` whose endpoint ranks straddle ``gap`` to ``ds``, joined.

    Crossed edges that share a simplex lie on one contour.  An edge
    ``(u, v)`` with ``u < v`` has the id ``u * n + v``.
    """
    cross_edges = []
    k = len(simplex)
    for i in range(k):
        for j in range(i + 1, k):
            u, v = simplex[i], simplex[j]
            a, b = rank[u], rank[v]
            if min(a, b) <= gap < max(a, b):
                key = (u, v) if u < v else (v, u)
                eid = key[0] * n + key[1]
                ds.add(eid)
                cross_edges.append(eid)
    for i in range(1, len(cross_edges)):
        ds.union(cross_edges[0], cross_edges[i])


def count_contours(grid: ScalarGrid, order: VertexOrder, gap: int) -> int:
    """Number of contours crossing the given rank gap.

    Collects the mesh edges whose endpoint ranks straddle the gap and
    connects two crossed edges when they share a simplex of the
    triangulation.  Everything is rank-based, consistent with the
    symbolic perturbation used by the tree construction.
    """
    if not 0 <= gap < grid.n - 1:
        raise UsageError(f"gap index {gap} out of range [0, {grid.n - 1})")
    ds = _EdgeSet()
    for simplex in grid.simplices():
        _join_crossed(ds, simplex, order.rank_of, gap, grid.n)
    roots = {ds.find(e) for e in ds.parent}
    return len(roots)


def level_set_census(grid: ScalarGrid, order: VertexOrder) -> LevelSetCensus:
    """Contour counts at every rank gap, computed incrementally.

    Same crossed-edge/shared-simplex definition as ``count_contours``
    but sweeps the gap index once, touching only simplices whose rank
    span contains the gap.
    """
    n = grid.n
    rank = order.rank_of
    simplex_list = []
    for simplex in grid.simplices():
        rs = [int(rank[v]) for v in simplex]
        simplex_list.append((min(rs), max(rs), simplex))
    # Activate a simplex while min_rank <= gap < max_rank.
    starts: dict[int, list[int]] = {}
    ends: dict[int, list[int]] = {}
    for idx, (lo, hi, _) in enumerate(simplex_list):
        starts.setdefault(lo, []).append(idx)
        ends.setdefault(hi, []).append(idx)

    counts = np.zeros(max(n - 1, 0), dtype=np.int64)
    active: set[int] = set()
    for gap in range(n - 1):
        for idx in starts.get(gap, ()):
            active.add(idx)
        ds = _EdgeSet()
        for idx in active:
            _join_crossed(ds, simplex_list[idx][2], rank, gap, n)
        counts[gap] = len({ds.find(e) for e in ds.parent})
        for idx in ends.get(gap + 1, ()):
            active.discard(idx)
    return LevelSetCensus(counts=counts)


def brute_subtree_volume(ct: ContourTree, arc_outer: int) -> int:
    """Outward volume of a superarc by severing it and flood-filling.

    Counts the vertices whose superparent lies in the severed outer
    component, plus the component's supernodes; regular vertices of the
    severed arc itself are on the outer side by the counting convention.
    """
    if not ct.is_augmented:
        raise UsageError("tree must be augmented")
    if arc_outer not in ct.arc_inner:
        raise UsageError(f"no superarc indexed by {arc_outer}")
    inner = ct.arc_inner[arc_outer]
    adj: dict[int, list[int]] = {s: [] for s in ct.supernodes}
    for o, i in ct.arc_inner.items():
        if o == arc_outer and i == inner:
            continue
        adj[o].append(i)
        adj[i].append(o)
    component = {arc_outer}
    stack = [arc_outer]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in component:
                component.add(w)
                stack.append(w)
    inside = np.zeros(ct.n, dtype=bool)
    inside[ct.superstructure.vertex] = [s in component for s in ct.supernodes]
    return int(np.count_nonzero(inside[ct.outer]))
