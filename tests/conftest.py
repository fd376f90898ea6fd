"""Shared helpers: small independent oracles and pipeline shortcuts."""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import pytest

from gridtopo import (
    ScalarGrid,
    branch_decomposition,
    contour_tree,
    hypersweep,
    sos_order,
    superarc_counts,
)
from gridtopo import tree as gtree
from gridtopo.errors import UsageError
from gridtopo.grid import _ALL_OFFSETS, _coords


def make_grid(dims, values):
    return ScalarGrid(dims=tuple(dims), values=np.asarray(values, dtype=float))


def grid_1d(values):
    return make_grid((len(values), 1, 1), values)


def random_grid(dims, seed):
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    return make_grid(dims, rng.integers(0, max(4, n // 2), size=n))


@pytest.fixture
def combine_calls(monkeypatch):
    """Record each ``tree.combine``'s merge trees, ranks and the tree it returns."""
    calls = []
    real = gtree.combine

    def recording(join, split, ranks):
        tree = real(join, split, ranks)
        calls.append({"join": join, "split": split, "ranks": ranks, "tree": tree})
        return tree

    monkeypatch.setattr(gtree, "combine", recording)
    return calls


def serial_pipeline(grid):
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    ann = hypersweep(ct, superarc_counts(ct))
    bd = branch_decomposition(ct, ann)
    return order, ct, ann, bd


Rec = namedtuple("Rec", "attach verts edges measure rank")


def record_list(records):
    """``Records`` as ``Rec`` tuples of ints, one per record in order.

    ``verts`` ascend, and ``edges`` are ``(child, parent)`` pairs: the
    head edge first, then the other rows in ``verts`` order.
    """
    out = []
    for i in range(len(records)):
        lo, hi = records.start[i], records.start[i + 1]
        verts, parent = records.verts[lo:hi].tolist(), records.parent[lo:hi].tolist()
        head, attach = int(records.head[i]), int(records.attach[i])
        edges = [(head, attach)] + [(v, p) for v, p in zip(verts, parent) if v != head]
        out.append(Rec(attach, verts, edges, int(records.measure[i]), int(records.rank[i])))
    return out


def neighbors(grid, vid):
    """Freudenthal stencil neighbors of ``vid``, clipped to the domain."""
    nx, ny, nz = grid.dims
    if not 0 <= vid < grid.n:
        raise UsageError(f"vertex id {vid} out of range [0, {grid.n})")
    x, y, z = _coords(vid, grid.dims)
    out = []
    for dx, dy, dz in _ALL_OFFSETS:
        px, py, pz = x + dx, y + dy, z + dz
        if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz:
            out.append(px + nx * (py + ny * pz))
    return out


def dump(ct, values=None):
    """Debug text: supernodes (id, value, rank) and superarcs, stable order."""
    lines = ["supernodes:"]
    for s in sorted(ct.supernodes):
        val = "" if values is None else f" value={values[s]!r}"
        lines.append(f"  {s}{val} rank={ct.ranks[s]}")
    lines.append("superarcs:")
    for outer in sorted(ct.arc_inner):
        lines.append(f"  {outer} -> {ct.arc_inner[outer]}")
    return "\n".join(lines)


def children_index(ct):
    """Superstructure children: inner end -> outer ends, rank-sorted."""
    kids = {s: [] for s in ct.supernodes}
    for outer, inner in ct.arc_inner.items():
        kids[inner].append(outer)
    for lst in kids.values():
        lst.sort(key=lambda v: ct.ranks[v])
    return kids


def branch_keys(bd):
    """Multiset of (saddle, volume, parent) triples, leaf-independent."""
    return sorted((b.key() for b in bd.branches), key=repr)


def branch_keys_with_leaves(bd):
    return sorted(((b.key(), b.leaf) for b in bd.branches), key=repr)


def local_extrema(grid, order):
    """Vertices with no higher (maxima) or no lower (minima) neighbor.

    Independent rank-comparison scan; used as the leaf-count oracle.
    """
    rank = order.rank_of
    maxima, minima = [], []
    for v in range(grid.n):
        nbr_ranks = [rank[u] for u in neighbors(grid, v)]
        if all(r < rank[v] for r in nbr_ranks):
            maxima.append(v)
        if all(r > rank[v] for r in nbr_ranks):
            minima.append(v)
    return maxima, minima


class TinyDSU:
    def __init__(self):
        self.p = {}

    def find(self, x):
        self.p.setdefault(x, x)
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def superlevel_components(grid, order, gap):
    """Components of {rank > gap} under the stencil; sweep-independent."""
    rank = order.rank_of
    dsu = TinyDSU()
    members = [v for v in range(grid.n) if rank[v] > gap]
    for v in members:
        dsu.find(v)
        for u in neighbors(grid, v):
            if rank[u] > gap:
                dsu.union(v, u)
    return len({dsu.find(v) for v in members})


def sublevel_components(grid, order, gap):
    rank = order.rank_of
    dsu = TinyDSU()
    members = [v for v in range(grid.n) if rank[v] <= gap]
    for v in members:
        dsu.find(v)
        for u in neighbors(grid, v):
            if rank[u] <= gap:
                dsu.union(v, u)
    return len({dsu.find(v) for v in members})
