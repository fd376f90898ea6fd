import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import contour_tree, sos_order
from gridtopo.errors import UsageError
from gridtopo.grid import (
    _POS_OFFSETS,
    ScalarGrid,
    VertexOrder,
    _coords,
    synthetic_gaussians,
    synthetic_random,
)
from gridtopo.oracle import (
    _simplices,
    brute_subtree_volume,
    count_contours,
    level_set_census,
)
from gridtopo.tree import tree_from_graph

from conftest import grid_1d, make_grid, over_ids, random_grid, superparent


# --- the reference census ---------------------------------------------------
# The per-simplex Python census that the array kernel in ``oracle`` replaced,
# kept as the reference the kernel is checked against gap by gap.


def ref_simplices(grid):
    """Yield maximal simplices of the triangulation as vertex-id tuples.

    1D: segments; 2D: two triangles per cell along the (+1,+1)
    diagonal; 3D: six tetrahedra per cube around the (+1,+1,+1)
    diagonal (one per axis permutation).
    """
    nx, ny, nz = grid.dims
    axes = [i for i, s in enumerate((nx, ny, nz)) if s > 1]
    unit = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def vid(p):
        return p[0] + nx * (p[1] + ny * p[2])

    for z in range(max(nz - 1, 1) if 2 in axes else 1):
        for y in range(max(ny - 1, 1) if 1 in axes else 1):
            for x in range(max(nx - 1, 1) if 0 in axes else 1):
                base = (x, y, z)
                if len(axes) == 0:
                    continue
                for perm in itertools.permutations(axes):
                    p = base
                    simplex = [vid(p)]
                    for a in perm:
                        p = tuple(p[i] + unit[a][i] for i in range(3))
                        simplex.append(vid(p))
                    yield tuple(simplex)


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


def ref_count_contours(grid: ScalarGrid, order: VertexOrder, gap: int) -> int:
    """Number of contours crossing the given rank gap.

    Collects the mesh edges whose endpoint ranks straddle the gap and
    connects two crossed edges when they share a simplex of the
    triangulation.  Everything is rank-based, consistent with the
    symbolic perturbation used by the tree construction.
    """
    if not 0 <= gap < grid.n - 1:
        raise UsageError(f"gap index {gap} out of range [0, {grid.n - 1})")
    ds = _EdgeSet()
    for simplex in ref_simplices(grid):
        _join_crossed(ds, simplex, order.rank_of, gap, grid.n)
    roots = {ds.find(e) for e in ds.parent}
    return len(roots)


def ref_level_set_census(grid: ScalarGrid, order: VertexOrder) -> np.ndarray:
    """Contour counts at every rank gap, computed incrementally.

    Same crossed-edge/shared-simplex definition as ``count_contours``
    but sweeps the gap index once, touching only simplices whose rank
    span contains the gap.
    """
    n = grid.n
    rank = order.rank_of
    simplex_list = []
    for simplex in ref_simplices(grid):
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
    return counts


def test_monotone_every_gap_one_contour():
    grid = grid_1d([1, 2, 3, 4])
    order = sos_order(grid)
    for gap in range(3):
        assert count_contours(grid, order, gap) == 1


def test_zigzag_census_hand_checked():
    """[0,5,2,6,1]: crossing edges per gap are 1, 2, 4, 2."""
    grid = grid_1d([0, 5, 2, 6, 1])
    order = sos_order(grid)
    census = level_set_census(grid, order)
    assert census.tolist() == [1, 2, 4, 2]
    for gap in range(4):
        assert count_contours(grid, order, gap) == census[gap]


def test_gap_out_of_range():
    grid = grid_1d([1, 2])
    order = sos_order(grid)
    with pytest.raises(UsageError):
        count_contours(grid, order, 5)


def test_two_peaks_2d():
    # Two separated bumps: the middle gaps see two contours.
    from conftest import make_grid

    values = [
        0, 0, 0, 0, 0,
        0, 9, 0, 8, 0,
        0, 0, 0, 0, 0,
    ]
    grid = make_grid((5, 3, 1), values)
    order = sos_order(grid)
    census = level_set_census(grid, order)
    # Above every zero but below both peaks: exactly two contours.
    n = grid.n
    assert census[n - 3] == 2
    # Between the two peak values: one contour.
    assert census[n - 2] == 1


@pytest.mark.parametrize("seed", range(5))
def test_census_matches_per_gap_calls(seed):
    grid = random_grid((5, 5, 1), seed)
    order = sos_order(grid)
    census = level_set_census(grid, order)
    assert census.dtype == np.int64 and census.size == grid.n - 1
    gaps = [0, 7, 8, 15, grid.n - 2]
    assert level_set_census(grid, order, gaps).tolist() == census[gaps].tolist()
    for gap in range(grid.n - 1):
        assert census[gap] == count_contours(grid, order, gap)


@pytest.mark.parametrize("seed", range(5))
def test_census_cross_validates_tree(seed):
    grid = random_grid((5, 5, 1), seed)
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    census = level_set_census(grid, order)
    for gap in range(grid.n - 1):
        assert census[gap] == ct.straddling_arcs(gap)


def test_brute_volume_monotone_leaf_arc():
    grid = grid_1d([1, 2, 3, 4])
    ct = contour_tree(grid, sos_order(grid))
    assert brute_subtree_volume(ct, 0) == 3


def test_brute_volume_complement():
    grid = random_grid((6, 6, 1), 2)
    ct = contour_tree(grid, sos_order(grid))
    for outer, inner in ct.arc_inner.items():
        outer_side = brute_subtree_volume(ct, outer)
        assert 0 < outer_side < grid.n


def per_vertex_volume(ct, arc_outer):
    """Vertices whose superparent is on the outer side of ``arc_outer``, one by one."""
    inner = ct.arc_inner[arc_outer]
    side, stack = {arc_outer}, [arc_outer]
    while stack:
        v = stack.pop()
        for o, i in ct.arc_inner.items():
            if (o, i) == (arc_outer, inner):
                continue
            for w in ((i,) if o == v else (o,) if i == v else ()):
                if w not in side:
                    side.add(w)
                    stack.append(w)
    outer_of = superparent(ct)
    return sum(outer_of[v] in side for v in ct.ids.tolist())


def sparse_id_tree():
    verts = [3, 10, 17, 40, 41, 99, 120]
    ranks = [0] * 121
    for r, v in enumerate([10, 40, 41, 120, 17, 3, 99]):
        ranks[v] = r
    edges = [(3, 10), (10, 17), (10, 40), (40, 41), (41, 99), (41, 120)]
    return over_ids(tree_from_graph, verts, [ranks[v] for v in verts], edges)


@pytest.mark.parametrize(
    "ct",
    [contour_tree(random_grid((5, 4, 3), 1), sos_order(random_grid((5, 4, 3), 1))),
     sparse_id_tree()],
    ids=["grid", "sparse-ids"],
)
def test_brute_volume_matches_per_vertex_count(ct):
    for outer in ct.arc_inner:
        assert brute_subtree_volume(ct, outer) == per_vertex_volume(ct, outer)


# --- the array kernel against the reference ---------------------------------

UNIT_AXIS_DIMS = [(1, 1, 1), (2, 1, 1), (6, 1, 1), (1, 6, 1), (1, 1, 6), (4, 1, 5), (1, 3, 4)]


@pytest.mark.parametrize("dims", UNIT_AXIS_DIMS + [(3, 3, 1), (4, 3, 2), (3, 3, 3)])
def test_simplex_array_matches_generator(dims):
    grid = make_grid(dims, np.zeros(dims[0] * dims[1] * dims[2]))
    simplices, slot = _simplices(dims)
    assert simplices.dtype == np.int64
    assert sorted(map(tuple, simplices.T.tolist())) == sorted(
        tuple(sorted(s)) for s in ref_simplices(grid)
    )
    # Every edge's slot is the stencil offset between its two vertices.
    lower, upper = np.triu_indices(len(simplices), 1)
    perm = np.arange(simplices.shape[1]) % slot.shape[1]
    steps = [_coords(int(v), grid.dims) for v in (simplices[upper] - simplices[lower]).ravel()]
    assert steps == [_POS_OFFSETS[s] for s in slot[:, perm].ravel()]


def _kernel_grids():
    rng = np.random.default_rng(16)
    grids = {f"unit-{d}": random_grid(d, 7) for d in UNIT_AXIS_DIMS}
    grids["constant-2d"] = make_grid((4, 3, 1), np.full(12, 2.5))
    grids["constant-3d"] = make_grid((3, 3, 3), np.zeros(27))
    grids["ties-2d"] = make_grid((5, 4, 1), rng.integers(0, 3, size=20))
    grids["ties-3d"] = make_grid((4, 3, 3), rng.integers(0, 3, size=36))
    grids["random-2d"] = synthetic_random((6, 5, 1), 3)
    grids["random-3d"] = synthetic_random((4, 4, 3), 5)
    grids["gaussians-3d"] = synthetic_gaussians((5, 4, 3), 2)
    return grids


KERNEL_GRIDS = _kernel_grids()


@pytest.mark.parametrize("grid", KERNEL_GRIDS.values(), ids=KERNEL_GRIDS.keys())
def test_kernel_matches_reference_every_gap(grid):
    order = sos_order(grid)
    want = ref_level_set_census(grid, order)
    assert level_set_census(grid, order).tolist() == want.tolist()
    for gap in range(grid.n - 1):
        assert count_contours(grid, order, gap) == ref_count_contours(grid, order, gap) == want[gap]


small_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))


@given(
    grid=small_dims.flatmap(
        lambda d: st.lists(
            st.integers(0, 4), min_size=d[0] * d[1] * d[2], max_size=d[0] * d[1] * d[2]
        ).map(lambda vals: make_grid(d, vals))
    )
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_property(grid):
    order = sos_order(grid)
    got = level_set_census(grid, order)
    assert got.tolist() == ref_level_set_census(grid, order).tolist()
