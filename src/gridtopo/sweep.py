"""Join and split tree construction by one union-find sweep over dense ids.

A graph's ``n`` vertices are numbered 0..n-1.  The join tree is built
sweeping vertices in decreasing rank while merging superlevel-set
components; the split tree mirrors it upward.  ``sweep_csr`` is the only
sweep kernel.  It reads CSR lists: ``nbrs[starts[v]:starts[v + 1]]``
holds neighbours of ``v`` swept strictly before ``v``, never ``v``
itself.  Grids build the lists from their vertex order, and
``tree.tree_from_graph`` numbers a graph's vertices in rank order and
lists each edge at one end.  ``sweep`` adapts a ``neighbors(v)``
callback to the same kernel.  A ``MergeTree`` stores its arcs as one
int64 array (-1 at the root); ``arc_to`` is a read-only ``ArcView`` of
it, the one mapping view class, which also serves ``tree.ContourTree``.

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

import itertools
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InternalError, UsageError
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


class ArcView(Mapping):
    """Read-only ``{keys[i]: ids[to[i]]}`` over the slots ``i`` with ``to[i] >= 0``.

    ``keys`` and ``ids`` name slots and targets by id; None names slot or
    target ``i`` by ``i``.  With ``spans = (walk, first, stop)``, slot
    ``i`` maps to the list ``ids[walk[first[i]:stop[i]]]`` instead.  One
    lookup reads memoryviews, which give plain ints several times faster
    than numpy scalar indexing, through a table from key ids to slots.
    """

    __slots__ = ("_to", "_keys", "_ids", "_spans", "_at", "_slot_of", "_name")

    def __init__(self, to: np.ndarray, keys=None, ids=None, spans=None):
        self._to, self._keys, self._ids, self._spans = to, keys, ids, spans
        self._at, self._slot_of = memoryview(to), None
        self._name = None if ids is None else memoryview(ids)
        if keys is not None:
            table = np.full(int(keys.max(initial=-1)) + 1, -1, dtype=np.int64)
            table[keys] = np.arange(keys.size)
            self._slot_of = memoryview(table)

    def __getitem__(self, key):
        try:
            i = operator.index(key)
            if i >= 0 and self._slot_of is not None:
                i = self._slot_of[i]
            if i >= 0 and (to := self._at[i]) >= 0:
                if self._spans is None:
                    return to if self._name is None else self._name[to]
                walk, first, stop = self._spans
                return self._ids[walk[first[i] : stop[i]]].tolist()
        except (TypeError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self) -> Iterator[int]:
        live = np.flatnonzero(self._to >= 0)
        return iter((live if self._keys is None else self._keys[live]).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._to >= 0))


@dataclass(eq=False)
class MergeTree:
    """Fully augmented merge tree over vertices 0..n-1, one arc per vertex but the root.

    ``arcs[v]`` is the vertex v connects to in sweep direction: a
    lower-ranked vertex for join trees, higher for split trees; -1 at
    the root.  ``arc_to`` is the same as a read-only mapping.
    """

    direction: str  # "join" or "split"
    n: int
    arcs: np.ndarray = field(repr=False)
    root: int = -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MergeTree):
            return NotImplemented
        same = (self.direction, self.n, self.root) == (other.direction, other.n, other.root)
        return same and np.array_equal(self.arcs, other.arcs)

    @property
    def arc_to(self) -> ArcView:
        return ArcView(self.arcs)

    def _counts(self) -> np.ndarray:
        return np.bincount(self.arcs[self.arcs >= 0], minlength=self.n)

    def child_counts(self) -> list[int]:
        return self._counts().tolist()

    def leaves(self) -> list[int]:
        return np.flatnonzero(self._counts() == 0).tolist()

    def superarcs(self) -> set[tuple[int, int]]:
        """Arcs of the contracted tree, as (from, to) pairs in sweep direction.

        Supernodes are vertices whose child count differs from one,
        plus the root; chains of single-child vertices contract away.
        """
        arcs = self.arcs
        has_arc = arcs >= 0
        ends = (self._counts() != 1) | ~has_arc
        end_of = _chain_ends(np.where(ends, np.arange(self.n), arcs))
        supers = np.flatnonzero(ends & has_arc)
        return set(zip(supers.tolist(), end_of[arcs[supers]].tolist()))


def _chain_ends(hop: np.ndarray) -> np.ndarray:
    """Pointer jumping to the fixpoint: each entry's chain end (``hop[e] == e``).

    Rounds are capped at log2 of the length, so a cycle raises instead of
    looping.
    """
    for _ in range(hop.size.bit_length() + 1):
        far = hop[hop]
        if np.array_equal(far, hop):
            return hop
        hop = far
    raise InternalError("pointer chain has a cycle")


def sweep_csr(
    seq: Iterable[int], nbrs: list[int], starts: list[int], n: int, direction: str
) -> MergeTree:
    """The union-find sweep over vertices 0..n-1, visited in the order ``seq``.

    ``nbrs[starts[v]:starts[v + 1]]`` lists v's neighbours that ``seq``
    visits strictly before v (so never v itself); repeats are allowed.
    ``seq`` runs by decreasing rank for a join tree and by increasing
    rank for a split tree.  Find (with path compression) and union (by
    size) are inlined over local lists.
    """
    parent = list(range(n))
    size = [1] * n
    # Per component root, the vertex the next arc must attach from: the
    # lowest vertex seen so far for join sweeps, the highest for split.
    extreme = list(range(n))
    arcs = [-1] * n
    v = -1
    for v in seq:
        lo = starts[v]
        hi = starts[v + 1]
        if hi - lo == 1:
            # One neighbour: v joins its component as the new extreme.
            u = nbrs[lo]
            r = parent[u]
            if parent[r] != r:
                while parent[r] != r:
                    r = parent[r]
                while parent[u] != r:
                    parent[u], u = r, parent[u]
            arcs[extreme[r]] = v
            extreme[r] = v
            parent[v] = r
            size[r] += 1
            continue
        root = v
        for u in nbrs[lo:hi]:
            r = parent[u]
            if parent[r] != r:
                while parent[r] != r:
                    r = parent[r]
                while parent[u] != r:
                    parent[u], u = r, parent[u]
            if r == root:
                continue
            arcs[extreme[r]] = v
            if size[root] < size[r]:
                root, r = r, root
            parent[r] = root
            size[root] += size[r]
        extreme[root] = v
    arcs = np.array(arcs, dtype=np.int64)
    arcs.flags.writeable = False
    return MergeTree(direction=direction, n=n, arcs=arcs, root=v)


def sweep(
    seq: Iterable[int], neighbors: Callable[[int], Iterable[int]], n: int, direction: str
) -> MergeTree:
    """``sweep_csr`` for a graph given as ``neighbors(v)``, all of v's adjacent vertices.

    Keeps, per vertex, the neighbours ``seq`` visits before it, and runs
    the one kernel on those lists.
    """
    seq = [int(v) for v in seq]
    swept = bytearray(n)
    earlier: list[list[int]] = [[] for _ in range(n)]
    for v in seq:
        earlier[v] = [u for u in neighbors(v) if swept[u]]
        swept[v] = 1
    starts = list(itertools.accumulate(map(len, earlier), initial=0))
    return sweep_csr(seq, list(itertools.chain.from_iterable(earlier)), starts, n, direction)


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


def _link_neighbors(
    grid: ScalarGrid, order: VertexOrder, upper: bool
) -> tuple[list[int], list[int]]:
    """CSR lists (``nbrs``, ``starts``): one upper (or lower) neighbour per link component."""
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
    return nbrs, starts


def compute_join_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep downward: tracks superlevel-set components merging at saddles."""
    _check_order(grid, order)
    nbrs, starts = _link_neighbors(grid, order, True)
    return sweep_csr(order.vertex_at[::-1].tolist(), nbrs, starts, grid.n, "join")


def compute_split_tree(grid: ScalarGrid, order: VertexOrder) -> MergeTree:
    """Sweep upward: tracks sublevel-set components merging at saddles."""
    _check_order(grid, order)
    nbrs, starts = _link_neighbors(grid, order, False)
    return sweep_csr(order.vertex_at.tolist(), nbrs, starts, grid.n, "split")
