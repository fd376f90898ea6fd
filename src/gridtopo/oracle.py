"""Reference computations, independent of the tree code.

These deliberately share only the grid stencil with the main library.
The level-set census counts contours straight from the triangulation:
an edge is crossed at a rank gap when its endpoint ranks straddle it,
and the crossed edges of one simplex lie on one contour.  The maximal
simplices are one int64 array; at each gap the crossed edges of the
simplices whose rank span contains it are joined by hooking and pointer
jumping.  ``level_set_census`` returns the int64 counts at the gaps it
is given, every gap by default, and ``count_contours`` is its one-gap
case.  The count at a gap equals the number of contour-tree superarcs
that cross it (Carr, Snoeyink & Axen, Computational Geometry 2003), so
the census is the arbiter of ``--oracle-check``.  Subtree volumes come
from severing the tree and flood-filling.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import UsageError
from .grid import _POS_OFFSETS, ScalarGrid, VertexOrder
from .tree import ContourTree


def _simplices(dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Maximal simplices as columns of vertex ids, and the stencil slots of their edges.

    1D: segments; 2D: two triangles per cell along the (+1,+1) diagonal;
    3D: six tetrahedra per cube around the (+1,+1,+1) diagonal, one per
    axis permutation.  Column ``s`` walks from a cell's base corner one
    unit step per axis, in permutation ``p = s % len(permutations)``, so
    its ids ascend and any two of them differ by a positive stencil
    offset.  Edge ``e`` joins rows ``lower[e] < upper[e]``, with ``lower,
    upper = np.triu_indices(k + 1, 1)``; ``slot[e, p]`` is the index of
    its offset in the stencil.
    """
    axes = [a for a, size in enumerate(dims) if size > 1]
    if not axes:
        return np.empty((1, 0), dtype=np.int64), np.empty((0, 1), dtype=np.int64)
    stride = np.array([1, dims[0], dims[0] * dims[1]])
    base = np.zeros(1, dtype=np.int64)
    for a in (2, 1, 0):  # x fastest, as the vertex ids
        cells = np.arange(dims[a] - 1 if a in axes else 1) * stride[a]
        base = (base[:, None] + cells).ravel()
    unit = np.eye(3, dtype=np.int64)
    corners = np.array([
        np.vstack([np.zeros(3, np.int64), np.cumsum(unit[list(perm)], axis=0)])
        for perm in itertools.permutations(axes)
    ])  # (permutations, k + 1, 3)
    lower, upper = np.triu_indices(len(axes) + 1, 1)
    slot = np.array([
        [_POS_OFFSETS.index(tuple(d)) for d in steps]
        for steps in corners[:, upper] - corners[:, lower]
    ]).T
    offsets = np.ascontiguousarray((corners @ stride).T)  # (k + 1, permutations)
    simplices = offsets[:, None, :] + base[:, None]
    return simplices.reshape(len(axes) + 1, -1), slot


def _contours(names: np.ndarray, crossed: np.ndarray, size: int) -> int:
    """Components of the crossed edges, two joined when they share a simplex.

    ``names`` holds the edge names, below ``size``, of the simplices that
    take part, one column each, and ``crossed`` marks the edges that
    straddle the gap.  Every crossed edge is linked to the first crossed
    edge of its simplex; roots hook onto the least root they are linked
    to, then pointer jumping flattens the trees, until no link joins two
    roots (Shiloach & Vishkin, J. Algorithms 1982).
    """
    entry = np.flatnonzero(crossed)
    first = names[crossed.argmax(axis=0), np.arange(crossed.shape[1])]
    a, b = names.ravel()[entry], first[entry % crossed.shape[1]]
    seen = np.zeros(size, dtype=bool)
    seen[a] = True
    node = np.cumsum(seen) - 1
    a, b = node[a], node[b]
    label = np.arange(node[-1] + 1)
    while a.size:
        la, lb = label[a], label[b]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        apart = np.flatnonzero(label[a] != label[b])
        a, b = a[apart], b[apart]
    return int(np.count_nonzero(label == np.arange(label.size)))


def level_set_census(grid: ScalarGrid, order: VertexOrder, gaps=None) -> np.ndarray:
    """Contour counts at ``gaps`` (every rank gap by default), as int64.

    Gap g sits between ranks g and g + 1.  The simplices and their ranks
    are gathered once for all the gaps.  At each gap only the simplices
    whose rank span contains it take part; their edges whose endpoint
    ranks straddle the gap are the crossed ones.  An edge is named by its
    lower vertex and its stencil slot.
    """
    if gaps is None:
        gaps = range(grid.n - 1)
    simplices, slot = _simplices(grid.dims)
    rank = order.rank_of[simplices]
    lo, hi = rank.min(axis=0), rank.max(axis=0)
    lower, upper = np.triu_indices(len(simplices), 1)
    counts = np.zeros(len(gaps), dtype=np.int64)
    for t, gap in enumerate(gaps):
        live = np.flatnonzero((lo <= gap) & (gap < hi))
        below = np.take(rank, live, axis=1) <= gap
        names = np.take(simplices, live, axis=1)[lower] * len(_POS_OFFSETS)
        names += np.take(slot, live % slot.shape[1], axis=1)
        counts[t] = _contours(names, below[lower] != below[upper], grid.n * len(_POS_OFFSETS))
    return counts


def count_contours(grid: ScalarGrid, order: VertexOrder, gap: int) -> int:
    """Number of contours crossing the given rank gap: ``level_set_census`` at that gap.

    Everything is rank-based, consistent with the symbolic perturbation
    used by the tree construction.
    """
    if not 0 <= gap < grid.n - 1:
        raise UsageError(f"gap index {gap} out of range [0, {grid.n - 1})")
    return int(level_set_census(grid, order, [gap])[0])


def brute_subtree_volume(ct: ContourTree, arc_outer: int) -> int:
    """Outward volume of a superarc by severing it and flood-filling.

    Floods the superstructure from ``arc_outer`` without crossing its
    own arc, then counts the vertices whose superarc's outer end
    (``ct.outer``) lies in the flooded component; regular vertices of
    the severed arc itself are on the outer side by the counting
    convention.
    """
    st = ct.superstructure
    cut = ct.supernodes.index(arc_outer) if arc_outer in ct.supernodes else -1
    if cut < 0 or st.inner[cut] < 0:
        raise UsageError(f"no superarc indexed by {arc_outer}")
    inner = st.inner.tolist()
    adj: list[list[int]] = [[] for _ in inner]
    for o, i in enumerate(inner):
        if i >= 0 and o != cut:
            adj[o].append(i)
            adj[i].append(o)
    component = {cut}
    stack = [cut]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in component:
                component.add(w)
                stack.append(w)
    inside = np.zeros(ct.n, dtype=bool)
    inside[st.vertex[list(component)]] = True
    return int(np.count_nonzero(inside[ct.outer]))
