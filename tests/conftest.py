"""Shared helpers: small independent oracles and pipeline shortcuts."""

from __future__ import annotations

import dataclasses
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
from gridtopo.sweep import _chain_ends


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


def over_ids(build, verts, values, edges):
    """``build(values, edges)`` for vertices with distinct ids ``verts``, in any order.

    ``build`` is an edge-list builder, which works over positions.  The
    ids are sorted, ``values`` and the id pairs in ``edges`` move to
    positions in that order, and the tree is labelled with the ids.
    """
    verts = np.asarray(verts, dtype=np.int64)
    by_id = np.argsort(verts)
    ids = verts[by_id]
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    at = np.searchsorted(ids, rows)
    assert (ids[np.minimum(at, ids.size - 1)] == rows).all(), "edge endpoint is not a vertex"
    ct = build(np.asarray(values)[by_id], at)
    assert np.array_equal(ct.ids, np.arange(ids.size))
    return dataclasses.replace(ct, ids=ids)


def rank_by_id(ct):
    """A tree's ``{id: rank}``; its ``ranks`` are indexed by position."""
    return dict(zip(ct.ids.tolist(), ct.ranks.tolist()))


def dump(ct, values=None):
    """Debug text: supernodes (id, value, rank) and superarcs, stable order."""
    rank = rank_by_id(ct)
    lines = ["supernodes:"]
    for s in sorted(ct.supernodes):
        val = "" if values is None else f" value={values[s]!r}"
        lines.append(f"  {s}{val} rank={rank[s]}")
    lines.append("superarcs:")
    for outer in sorted(ct.arc_inner):
        lines.append(f"  {outer} -> {ct.arc_inner[outer]}")
    return "\n".join(lines)


def parent_map(ct):
    """A contour tree's ``{id: parent id}`` over every vertex but the root."""
    child = np.flatnonzero(ct.up >= 0)
    return dict(zip(ct.ids[child].tolist(), ct.ids[ct.up[child]].tolist()))


def superparent(ct):
    """``{id: id of the outer end of its superarc}``; a supernode maps to itself."""
    return dict(zip(ct.ids.tolist(), ct.ids[ct.outer].tolist()))


def tree_arrays(ct):
    """Every array of a contour tree's state as lists, for whole-tree equality."""
    st = ct.superstructure
    return {
        "ids": ct.ids.tolist(), "up": ct.up.tolist(), "outer": ct.outer.tolist(),
        "vertex": st.vertex.tolist(), "inner": st.inner.tolist(),
        "rank": st.rank.tolist(), "root": st.root,
    }


def arc_to(tree):
    """A merge tree's ``{vertex: vertex its arc leads to}`` over every vertex but the root."""
    src = np.flatnonzero(tree.arcs >= 0)
    return dict(zip(src.tolist(), tree.arcs[src].tolist()))


def child_counts(tree):
    """A merge tree's child count per vertex, as a list."""
    return np.bincount(tree.arcs[tree.arcs >= 0], minlength=tree.n).tolist()


def superarcs(tree):
    """Arcs of a merge tree's contracted tree, as (from, to) pairs in sweep direction.

    Supernodes are vertices whose child count differs from one, plus the
    root; chains of single-child vertices contract away.
    """
    arcs = tree.arcs
    has_arc = arcs >= 0
    ends = (np.array(child_counts(tree)) != 1) | ~has_arc
    end_of = _chain_ends(np.where(ends, np.arange(tree.n), arcs))
    supers = np.flatnonzero(ends & has_arc)
    return set(zip(supers.tolist(), end_of[arcs[supers]].tolist()))


def _by_supernode(ann, values, live):
    """``{supernode id: value}`` over the supernode positions where ``live`` holds."""
    if values is None:
        return {}
    live = np.broadcast_to(live, values.shape)
    return dict(zip(ann.ids[live].tolist(), values[live].tolist()))


def counts(ann):
    """``{outer end id: vertex count}`` over the superarcs with a nonzero count."""
    return _by_supernode(ann, ann.count, ann.count > 0)


def at_node(ann):
    """``{supernode id: mass hanging there}`` over the nonzero hanging mass."""
    return _by_supernode(ann, ann.hang, ann.hang > 0)


def outward(ann):
    """``{outer end id: outward volume}`` over the arcs; empty before ``hypersweep``."""
    return _by_supernode(ann, ann.out_volume, np.arange(ann.ids.size) != ann.root)


def inward_count(ct, ann, outer):
    """Vertices on the inner side of the arc with outer end ``outer``, apart from ``hypersweep``.

    Floods the superarcs from the arc's inner end without crossing the
    arc, sums ``ann.count`` over the supernodes reached and adds 1 for
    the root, whose own vertex no arc counts.
    """
    adj = {s: [] for s in ct.supernodes}
    for a, b in ct.arc_inner.items():
        if a != outer:
            adj[a].append(b)
            adj[b].append(a)
    seen = {ct.arc_inner[outer]}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    count = counts(ann)
    return sum(count.get(s, 0) for s in seen) + 1


def closed(ann):
    """``{supernode id: closed volume}`` over every supernode; empty before ``hypersweep``."""
    return _by_supernode(ann, ann.closed_volume, True)


def trunk(bd):
    """The decomposition's one parentless branch."""
    return bd.branches[int(np.argmin(bd.parent))]


def sorted_branches(bd, ranks):
    """Every branch of ``bd``, in ``bd.order(ranks)``."""
    return [bd.branches[r] for r in bd.order(ranks).tolist()]


def children_index(ct):
    """Superstructure children: inner end -> outer ends, rank-sorted."""
    rank = rank_by_id(ct)
    kids = {s: [] for s in ct.supernodes}
    for outer, inner in ct.arc_inner.items():
        kids[inner].append(outer)
    for lst in kids.values():
        lst.sort(key=rank.__getitem__)
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
