import itertools
from functools import partial
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import compute_join_tree, compute_split_tree, contour_tree, sos_order
from gridtopo.errors import InternalError
from gridtopo.grid import _ALL_OFFSETS
from gridtopo.sweep import (
    _chain_ends,
    _climb,
    _reduced_arcs,
    link_representatives,
)
from gridtopo.tree import tree_from_graph

import conftest
from conftest import (
    arc_to,
    child_counts,
    grid_1d,
    local_extrema,
    make_grid,
    neighbors,
    over_ids,
    parent_map,
    random_grid,
    sublevel_components,
    superarcs,
    superlevel_components,
    superparent,
    sweep_csr,
)
from test_reference_equivalence import assert_same_merge_tree, ref_sweep


def test_join_tree_zigzag():
    grid = grid_1d([0, 5, 2, 6, 1])
    order = sos_order(grid)
    join = compute_join_tree(grid, order)
    assert superarcs(join) == {(3, 2), (1, 2), (2, 0)}
    # Vertex 4 is regular: one child, one parent in the augmented tree.
    assert child_counts(join)[4] == 1
    assert arc_to(join)[4] == 0


def test_split_tree_zigzag():
    grid = grid_1d([0, 5, 2, 6, 1])
    order = sos_order(grid)
    split = compute_split_tree(grid, order)
    assert superarcs(split) == {(0, 1), (2, 1), (4, 3), (1, 3)}


def test_monotone_single_superarc():
    grid = grid_1d([1, 2, 3, 4])
    order = sos_order(grid)
    join = compute_join_tree(grid, order)
    assert superarcs(join) == {(3, 0)}
    split = compute_split_tree(grid, order)
    assert superarcs(split) == {(0, 3)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dims", [(9, 1, 1), (6, 6, 1), (4, 4, 3)])
def test_join_leaves_are_local_maxima(dims, seed):
    grid = random_grid(dims, seed)
    order = sos_order(grid)
    join = compute_join_tree(grid, order)
    maxima, _ = local_extrema(grid, order)
    assert sorted(join.leaves()) == sorted(maxima)


@pytest.mark.parametrize("seed", range(6))
def test_split_leaves_are_local_minima(seed):
    grid = random_grid((6, 6, 1), seed)
    order = sos_order(grid)
    split = compute_split_tree(grid, order)
    _, minima = local_extrema(grid, order)
    assert sorted(split.leaves()) == sorted(minima)


@pytest.mark.parametrize("seed", range(50))
def test_negation_duality(seed):
    grid = random_grid((6, 6, 1), seed)
    order = sos_order(grid)
    split = compute_split_tree(grid, order)

    neg = grid_from_negation(grid)
    neg_order = sos_order(neg)
    join_neg = compute_join_tree(neg, neg_order)
    assert superarcs(split) == superarcs(join_neg)


def grid_from_negation(grid):
    # Negate values but keep the id tie-break orientation consistent:
    # subtracting a small id-proportional epsilon reverses ties too.
    from conftest import make_grid

    n = grid.n
    eps = np.arange(n) * 1e-9
    return make_grid(grid.dims, -(grid.values + eps))


@pytest.mark.parametrize("dims,seed", [((8, 8, 1), 0), ((5, 4, 3), 1), ((12, 1, 1), 2)])
def test_tree_property(dims, seed):
    grid = random_grid(dims, seed)
    order = sos_order(grid)
    for build in (compute_join_tree, compute_split_tree):
        tree = build(grid, order)
        arcs = arc_to(tree)
        assert len(arcs) == grid.n - 1
        # Connectivity: walking the arcs from any vertex reaches the root.
        for v in range(grid.n):
            seen = set()
            while v in arcs:
                assert v not in seen
                seen.add(v)
                v = arcs[v]
            assert v == tree.root


@pytest.mark.parametrize("seed", range(4))
def test_arc_monotonicity(seed):
    grid = random_grid((7, 7, 1), seed)
    order = sos_order(grid)
    rank = order.rank_of
    join = compute_join_tree(grid, order)
    assert all(rank[dst] < rank[src] for src, dst in arc_to(join).items())
    split = compute_split_tree(grid, order)
    assert all(rank[dst] > rank[src] for src, dst in arc_to(split).items())


@pytest.mark.parametrize("seed", range(8))
def test_join_arcs_count_superlevel_components(seed):
    """Straddling join-tree arcs equal superlevel component counts."""
    grid = random_grid((5, 5, 1), seed)
    order = sos_order(grid)
    rank = order.rank_of
    join = compute_join_tree(grid, order)
    for gap in range(grid.n - 1):
        straddle = sum(
            1
            for src, dst in arc_to(join).items()
            if rank[dst] <= gap < rank[src]
        )
        assert straddle == superlevel_components(grid, order, gap)


@pytest.mark.parametrize("seed", range(8))
def test_split_arcs_count_sublevel_components(seed):
    grid = random_grid((5, 5, 1), seed)
    order = sos_order(grid)
    rank = order.rank_of
    split = compute_split_tree(grid, order)
    for gap in range(grid.n - 1):
        straddle = sum(
            1
            for src, dst in arc_to(split).items()
            if rank[src] <= gap < rank[dst]
        )
        assert straddle == sublevel_components(grid, order, gap)


def sweep(seq, neighbors, n, direction):
    """``sweep_csr`` for a graph given as ``neighbors(v)``, all of v's adjacent vertices.

    Keeps, per vertex, the neighbours ``seq`` visits before it, and runs
    the one kernel on those lists.
    """
    seq = [int(v) for v in seq]
    swept = bytearray(n)
    earlier = [[] for _ in range(n)]
    for v in seq:
        earlier[v] = [u for u in neighbors(v) if swept[u]]
        swept[v] = 1
    starts = list(itertools.accumulate(map(len, earlier), initial=0))
    return sweep_csr(seq, list(itertools.chain.from_iterable(earlier)), starts, n, direction)


def full_stencil_tree(grid, order, direction):
    """The sweep kernel fed every stencil neighbour, the reference input."""
    seq = order.vertex_at[::-1] if direction == "join" else order.vertex_at
    return sweep(seq, partial(neighbors, grid), grid.n, direction)


def tied_grid(dims, seed):
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    return make_grid(dims, rng.integers(0, 3, size=n))


REDUCED_INPUT_DIMS = [
    (1, 1, 1),
    (9, 1, 1),
    (1, 9, 1),
    (1, 1, 9),
    (1, 5, 6),
    (5, 1, 6),
    (7, 6, 1),
    (5, 4, 3),
    (4, 4, 4),
]


@pytest.mark.parametrize("field", ["random", "constant", "tied"])
@pytest.mark.parametrize("dims", REDUCED_INPUT_DIMS)
def test_link_sweep_matches_full_stencil_sweep(dims, field):
    """One neighbour per link component builds the full-stencil merge trees."""
    n = dims[0] * dims[1] * dims[2]
    for seed in range(3):
        if field == "random":
            grid = random_grid(dims, seed)
        elif field == "constant":
            grid = make_grid(dims, np.zeros(n))
        else:
            grid = tied_grid(dims, seed)
        order = sos_order(grid)
        for build, direction in ((compute_join_tree, "join"), (compute_split_tree, "split")):
            got = build(grid, order)
            want = full_stencil_tree(grid, order, direction)
            assert arc_to(got) == arc_to(want)
            assert got.root == want.root


def link_components(mask):
    """Brute-force BFS over the present slots: one frozenset per component."""
    present = [i for i in range(len(_ALL_OFFSETS)) if mask >> i & 1]
    stencil = set(_ALL_OFFSETS)

    def linked(i, j):
        return tuple(a - b for a, b in zip(_ALL_OFFSETS[i], _ALL_OFFSETS[j])) in stencil

    seen, comps = set(), []
    for start in present:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            i = frontier.pop()
            for j in present:
                if j not in comp and linked(i, j):
                    comp.add(j)
                    frontier.append(j)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << len(_ALL_OFFSETS)) - 1))
def test_link_representatives_match_bfs(mask):
    rep_slots = set(np.flatnonzero(link_representatives()[mask]).tolist())
    assert rep_slots == {min(comp) for comp in link_components(mask)}


def test_link_representatives_extremes():
    table = link_representatives()
    k = len(_ALL_OFFSETS)
    assert table.shape == (1 << k, k) and table.dtype == bool
    assert not table[0].any()
    # The full link is one component (a sphere); a lone slot represents itself.
    assert np.flatnonzero(table[-1]).tolist() == [0]
    assert all(np.flatnonzero(table[1 << i]).tolist() == [i] for i in range(k))


def propagated_link_representatives():
    """Reference table: min-label propagation over all masks at once."""
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
    return (present & (label == slots)).T.copy()


def test_link_representatives_match_propagation():
    table = link_representatives()
    assert not table.flags.writeable
    assert np.array_equal(table, propagated_link_representatives())


# --- merge-tree queries and the contour tree's id-keyed mappings --------------


def dict_child_counts(arcs, n):
    counts = [0] * n
    for dst in arcs.values():
        counts[dst] += 1
    return counts


def dict_superarcs(arcs, n, root):
    """The contracted arcs, walked over a plain dict of arcs."""
    counts = dict_child_counts(arcs, n)
    supers = {v for v in range(n) if counts[v] != 1 or v == root}
    out = set()
    for s in supers - {root}:
        cur = arcs[s]
        while cur not in supers:
            cur = arcs[cur]
        out.add((s, cur))
    return out


ZIGZAG_GRIDS = [
    grid_1d([0, 5, 2, 6, 1]),
    grid_1d([1, 2, 3, 4]),
    random_grid((6, 6, 1), 0),
    random_grid((4, 4, 3), 1),
    make_grid((3, 3, 2), np.zeros(18)),
]


@pytest.mark.parametrize("grid", ZIGZAG_GRIDS, ids=["zigzag", "monotone", "2d", "3d", "constant"])
@pytest.mark.parametrize("build", [compute_join_tree, compute_split_tree])
def test_tree_queries_match_dict_implementation(grid, build):
    tree = build(grid, sos_order(grid))
    arcs = arc_to(tree)
    counts = dict_child_counts(arcs, grid.n)
    assert child_counts(tree) == counts
    assert tree.leaves() == [v for v in range(grid.n) if counts[v] == 0]
    assert superarcs(tree) == dict_superarcs(arcs, grid.n, tree.root)


# A zigzag path rooted at its maximum, vertex 0: every vertex is a supernode.
ROOTED_AT_0 = [6, 0, 5, 1, 4]


def test_arc_view_reads_like_a_dict():
    grid = grid_1d(ROOTED_AT_0)
    ct = contour_tree(grid, sos_order(grid))
    plain = {1: 0, 2: 1, 3: 2, 4: 3}
    assert ct.arc_inner == plain and plain == ct.arc_inner
    assert ct.arc_inner != {**plain, 4: 2}
    assert dict(ct.arc_inner) == plain
    assert sorted(ct.arc_inner.items()) == sorted(plain.items())
    assert len(ct.arc_inner) == 4
    assert 4 in ct.arc_inner and ct.root not in ct.arc_inner
    assert ct.arc_inner[np.int64(3)] == 2


@pytest.mark.parametrize("key", [0, -1, -5, 5, 99, "1", 1.5, None])
def test_arc_view_missing_keys(key):
    grid = grid_1d(ROOTED_AT_0)
    ct = contour_tree(grid, sos_order(grid))
    assert ct.root == 0
    for view in (ct.arc_inner, ct.arc_regulars):
        with pytest.raises(KeyError):
            view[key]
        assert key not in view
        assert view.get(key) is None


def test_arc_view_is_read_only():
    grid = grid_1d(ROOTED_AT_0)
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    for view in (ct.arc_inner, ct.arc_regulars):
        with pytest.raises(TypeError):
            view[1] = 0
        with pytest.raises(TypeError):
            del view[1]
    with pytest.raises(ValueError):
        compute_join_tree(grid, order).arcs[1] = 0
    assert ct.arc_inner[1] == 0


def test_arc_view_len_builds_no_mapping():
    """``len`` counts the superarcs; the entries are one dict, built on the first lookup."""
    grid = grid_1d(ROOTED_AT_0)
    ct = contour_tree(grid, sos_order(grid))
    for view in (ct.arc_inner, ct.arc_regulars):
        assert len(view) == 4
        assert "_dict" not in vars(view)
        assert view.get(4) is not None and "_dict" in vars(view)
        assert len(view) == 4 and list(view) == [1, 2, 3, 4]


# Values 0, 5, 4, 3, 6, 1 on a path: vertex 2 is the one regular vertex,
# on the superarc from the maximum 1 down to the minimum 3; 4 is the root.
VIEW_VALUES = [0, 5, 4, 3, 6, 1]
VIEW_FIELDS = {
    "parent": {0: 1, 1: 2, 2: 3, 3: 4, 5: 4},
    "arc_inner": {0: 1, 1: 3, 3: 4, 5: 4},
    "superparent": {0: 0, 1: 1, 2: 1, 3: 3, 4: 4, 5: 5},
    "arc_regulars": {0: [], 1: [2], 3: [], 5: []},
}


# ``parent`` and ``superparent`` are dicts built from the arrays; the
# ``arc_`` entries are the tree's own read-only mappings.
VIEWS = {
    "parent": parent_map,
    "arc_inner": attrgetter("arc_inner"),
    "superparent": superparent,
    "arc_regulars": attrgetter("arc_regulars"),
}


def view_tree(sparse):
    """The path's contour tree over ids 0..5, or over sparse ids from a graph."""
    if not sparse:
        grid = grid_1d(VIEW_VALUES)
        return list(range(6)), contour_tree(grid, sos_order(grid))
    gid = [2, 5, 7, 11, 13, 17]
    ranks = [0] * 18
    for v, r in zip(gid, [0, 4, 3, 2, 5, 1]):
        ranks[v] = r
    verts = gid[::-1]
    edges = list(zip(gid, gid[1:]))
    return gid, over_ids(tree_from_graph, verts, [ranks[v] for v in verts], edges)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense-ids", "sparse-ids"])
@pytest.mark.parametrize("name", list(VIEW_FIELDS))
def test_contour_tree_views_read_like_dicts(name, sparse):
    gid, ct = view_tree(sparse)
    view = VIEWS[name](ct)
    want = {
        gid[k]: [gid[x] for x in v] if isinstance(v, list) else gid[v]
        for k, v in VIEW_FIELDS[name].items()
    }
    assert view == want and want == view
    assert dict(view) == want and len(view) == len(want)
    assert view != {**want, gid[0]: None} and {**want, gid[0]: None} != view
    assert view[np.int64(gid[1])] == want[gid[1]]
    if name == "arc_inner":
        assert list(view) == sorted(want)
    missing = [-1, -5, 99, "1", 1.5, None, gid[-1] + 1]
    if sparse:
        missing.append(3)  # inside the id range, not a vertex
    if name != "superparent":
        missing.append(ct.root)
    if name.startswith("arc_"):
        missing.append(gid[2])  # a regular vertex
    for key in missing:
        with pytest.raises(KeyError):
            view[key]
        assert key not in view and view.get(key) is None
    if name.startswith("arc_"):
        with pytest.raises(TypeError):
            view[gid[0]] = 1
        with pytest.raises(TypeError):
            del view[gid[0]]
    assert view == want


def listed_csr(hop, count, offsets, nbrs):
    """Each vertex's listed neighbours as CSR (``nbrs``, ``starts``), from ``_link_neighbors``.

    A vertex with one listed neighbour lists ``hop[v]``; one with two or
    more lists its ``count[v]`` entries of ``nbrs`` from its offset.
    """
    rows = [hop[v : v + 1] if c == 1 else hop[:0] for v, c in enumerate(count.tolist())]
    for v, at in zip(np.flatnonzero(count > 1).tolist(), offsets.tolist()):
        rows[v] = nbrs[at : at + count[v]]
    return np.concatenate(rows), np.r_[0, np.cumsum(count, dtype=np.int64)]


def link_neighbors_csr(grid, order, upper):
    from gridtopo.sweep import _link_neighbors

    return listed_csr(*_link_neighbors(grid, order, upper))


@pytest.mark.parametrize("dims", REDUCED_INPUT_DIMS)
@pytest.mark.parametrize("upper", [True, False])
def test_link_neighbors_are_swept_before(dims, upper):
    """The grid front end lists only neighbours the sweep visited strictly before."""
    grid = tied_grid(dims, 0)
    order = sos_order(grid)
    nbrs, starts = link_neighbors_csr(grid, order, upper)
    rank = order.rank_of
    for v in range(grid.n):
        listed = nbrs[starts[v] : starts[v + 1]]
        assert set(listed) <= set(neighbors(grid, v))
        assert all((rank[u] > rank[v]) == upper and u != v for u in listed)


def ref_link_neighbors(grid, order, upper):
    """The grid CSR by a 2-D ``nonzero`` over the representative rows and ``searchsorted``."""
    nx, ny, nz = grid.dims
    key = (order.rank_of if upper else grid.n - 1 - order.rank_of).reshape(nz, ny, nx)
    padded = np.pad(key, 1, constant_values=-1)
    mask = np.zeros(key.shape, dtype=np.uint16)
    deltas = []
    for slot, (dx, dy, dz) in enumerate(_ALL_OFFSETS):
        nbr = padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        mask |= (nbr > key).astype(np.uint16) << slot
        deltas.append(dx + nx * (dy + ny * dz))
    verts, slots = np.nonzero(link_representatives()[mask.ravel()])
    starts = np.searchsorted(verts, np.arange(grid.n + 1))
    return verts + np.array(deltas)[slots], starts


@pytest.mark.parametrize("dims", REDUCED_INPUT_DIMS)
@pytest.mark.parametrize("field", ["tied", "random", "synthetic_ramp"])
def test_link_neighbors_match_reference(dims, field):
    from gridtopo.grid import synthetic_ramp

    if field == "synthetic_ramp":
        grid = synthetic_ramp(dims)
    else:
        grid = tied_grid(dims, 1) if field == "tied" else random_grid(dims, 1)
    order = sos_order(grid)
    for upper in (True, False):
        nbrs, starts = link_neighbors_csr(grid, order, upper)
        want_nbrs, want_starts = ref_link_neighbors(grid, order, upper)
        assert np.array_equal(nbrs, want_nbrs) and nbrs.dtype == want_nbrs.dtype
        assert np.array_equal(starts, want_starts) and starts.dtype == want_starts.dtype
        if field == "synthetic_ramp":
            # Every vertex but the sweep's first, the extreme, has one link
            # component: the all-regular path, with no row expanded.
            assert np.count_nonzero(np.diff(starts) != 1) == 1


@pytest.mark.parametrize("dims", REDUCED_INPUT_DIMS)
@pytest.mark.parametrize("field", ["tied", "random", "synthetic_ramp"])
def test_link_neighbors_list_only_vertices_with_two_or_more(dims, field):
    """Regular vertices get an ascent pointer and no list; candidates point at themselves."""
    from gridtopo.grid import synthetic_ramp
    from gridtopo.sweep import _link_neighbors, link_representative_counts

    if field == "synthetic_ramp":
        grid = synthetic_ramp(dims)
    else:
        grid = tied_grid(dims, 2) if field == "tied" else random_grid(dims, 2)
    order = sos_order(grid)
    for upper in (True, False):
        hop, count, offsets, nbrs = _link_neighbors(grid, order, upper)
        assert hop.dtype == offsets.dtype == nbrs.dtype == np.int64
        assert count.dtype == link_representative_counts().dtype
        multi = count > 1
        assert offsets.size == np.count_nonzero(multi)
        assert nbrs.size == count[multi].sum()
        assert np.array_equal(offsets, np.cumsum(count[multi]) - count[multi])
        self_loop = hop == np.arange(grid.n)
        assert np.array_equal(self_loop, count != 1)
        if field == "synthetic_ramp":
            assert offsets.size == nbrs.size == 0


@st.composite
def small_grids(draw):
    """Grids of 1-6 x 1-6 x 1-4 vertices, with three tied levels or random floats."""
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    n = dims[0] * dims[1] * dims[2]
    level = st.integers(0, 2) if draw(st.booleans()) else st.floats(-1, 1)
    return make_grid(dims, draw(st.lists(level, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(small_grids())
def test_grid_sweeps_match_sweep_csr_over_reference_csr(grid):
    """The mask-fed grid sweeps build the arcs ``sweep_csr`` builds from the reference CSR."""
    order = sos_order(grid)
    for build, upper, seq in (
        (compute_join_tree, True, order.vertex_at[::-1]),
        (compute_split_tree, False, order.vertex_at),
    ):
        got = build(grid, order)
        want = sweep_csr(seq, *ref_link_neighbors(grid, order, upper), grid.n, got.direction)
        assert np.array_equal(got.arcs, want.arcs)
        assert got.root == want.root


def test_grid_sweeps_and_graph_sweeps_reach_one_kernel(monkeypatch):
    from gridtopo import sweep as gsweep

    calls = []
    real = gsweep._sweep

    def recording(seq, hop, count, offsets, nbrs, direction):
        calls.append(direction)
        return real(seq, hop, count, offsets, nbrs, direction)

    monkeypatch.setattr(gsweep, "_sweep", recording)
    grid = random_grid((4, 3, 2), 0)
    order = sos_order(grid)
    compute_join_tree(grid, order)
    compute_split_tree(grid, order)
    tree_from_graph([2, 0, 1], [(0, 1), (1, 2)])
    assert calls == ["join", "split", "join", "split"]


@st.composite
def noisy_trees(draw):
    """A tree on 1-40 vertices with repeated edges and self-loops, in shuffled order.

    Values take three tied levels or random floats.  Each repeat or
    self-loop may be flipped; the Reeb graph stays a tree.
    """
    n = draw(st.integers(1, 40))
    level = st.integers(0, 2) if draw(st.booleans()) else st.floats(-1, 1)
    values = draw(st.lists(level, min_size=n, max_size=n))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    noise = st.sampled_from(edges + [(v, v) for v in range(n)])
    extra = draw(st.lists(st.tuples(noise, st.booleans()), max_size=2 * n))
    edges += [(b, a) if flip else (a, b) for (a, b), flip in extra]
    return values, draw(st.permutations(edges))


def listed_rows(count, offsets, nbrs):
    """The lists of the vertices that list two or more, in id order."""
    width = count[count > 1]
    return [nbrs[o : o + w].tolist() for o, w in zip(offsets.tolist(), width.tolist())]


@settings(max_examples=300, deadline=None)
@given(noisy_trees())
def test_tree_from_graph_hands_the_kernel_what_sweep_csr_derives(graph):
    """``tree_from_graph``'s kernel input is ``sweep_csr``'s over the old argsort CSR.

    The reference CSR lists each edge at its end swept later, ordered by
    one stable argsort over every edge, with offsets from the cumulative
    sum of one ``bincount``.  ``hop`` and ``count`` agree element for
    element; ``nbrs`` holds exactly the reference rows of the vertices
    that list two or more, packed in id order from ``offsets``.  The
    merge trees and the contour tree agree too.
    """
    from gridtopo import combine
    from gridtopo import sweep as gsweep
    from gridtopo.grid import value_order

    values, edges = graph
    n = len(values)
    real = gsweep._sweep
    calls = []

    def recording(seq, hop, count, offsets, nbrs, direction):
        tree = real(seq, hop, count, offsets, nbrs, direction)
        calls.append(((hop, count, offsets, nbrs), tree))
        return tree

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gsweep, "_sweep", recording)
        mp.setattr(conftest, "_sweep", recording)
        ct = tree_from_graph(values, edges)
        order = value_order(np.asarray(values))
        rank, rising = order.rank_of, order.vertex_at
        a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        a_low, keep = rank[a] < rank[b], a != b
        lo, hi = np.where(a_low, a, b)[keep], np.where(a_low, b, a)[keep]
        for at, other, seq, direction in (
            (lo, hi, rising[::-1], "join"),
            (hi, lo, rising, "split"),
        ):
            by = np.argsort(at, kind="stable")
            starts = np.r_[0, np.cumsum(np.bincount(at, minlength=n))]
            sweep_csr(seq, other[by], starts, n, direction)
    assert len(calls) == 4
    for (got, got_tree), (want, want_tree) in zip(calls[:2], calls[2:]):
        (hop, count, offsets, nbrs), (want_hop, want_count, want_offsets, want_nbrs) = got, want
        assert np.array_equal(hop, want_hop)
        assert count.tolist() == want_count.tolist()
        width = count[count > 1]
        assert np.array_equal(offsets, np.cumsum(width) - width)
        rows = listed_rows(want_count, want_offsets, want_nbrs)
        assert nbrs.tolist() == list(itertools.chain.from_iterable(rows))
        assert np.array_equal(got_tree.arcs, want_tree.arcs)
        assert got_tree.root == want_tree.root
    want_ct = combine(calls[2][1], calls[3][1], rank)
    assert np.array_equal(ct.up, want_ct.up) and np.array_equal(ct.outer, want_ct.outer)
    assert np.array_equal(ct.superstructure.inner, want_ct.superstructure.inner)


def test_link_representative_counts_are_row_sums():
    from gridtopo.sweep import link_representative_counts

    counts = link_representative_counts()
    assert counts.dtype == np.uint8 and not counts.flags.writeable
    assert np.array_equal(counts, link_representatives().sum(axis=1))


def test_link_first_representative_is_the_lowest_representative():
    from gridtopo.sweep import link_first_representative

    first = link_first_representative()
    assert first.dtype == np.uint8 and not first.flags.writeable
    assert first.shape == (1 << len(_ALL_OFFSETS),)
    rows = link_representatives()
    for mask in range(1, 1 << len(_ALL_OFFSETS)):
        lowest = (mask & -mask).bit_length() - 1
        assert first[mask] == np.flatnonzero(rows[mask])[0] == lowest
    assert not rows[0].any()


@pytest.mark.parametrize(
    "top,dtype", [(0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64), (2**40, np.int64)]
)
def test_index_dtype_holds_every_value_up_to_top(top, dtype):
    from gridtopo.sweep import index_dtype

    assert index_dtype(top) is dtype
    assert np.array([-1, top], dtype=index_dtype(top))[1] == top


def tree_value(tree):
    """A merge tree's direction, size, root and arcs: what makes two trees equal."""
    return tree.direction, tree.n, tree.root, tree.arcs.tolist()


def test_merge_trees_compare_by_value():
    grid = grid_1d([0, 5, 2, 6, 1])
    order = sos_order(grid)
    join = compute_join_tree(grid, order)
    assert tree_value(join) == tree_value(compute_join_tree(grid, order))
    assert tree_value(join) != tree_value(compute_split_tree(grid, order))
    other = grid_1d([5, 0, 2, 6, 1])
    assert tree_value(join) != tree_value(compute_join_tree(other, sos_order(other)))
    assert join != arc_to(join)


# --- the peak-pruned kernel against the reference sweep -----------------------


def csr(lists):
    """``nbrs`` and ``starts`` of per-vertex neighbour lists."""
    return list(itertools.chain.from_iterable(lists)), list(
        itertools.accumulate(map(len, lists), initial=0)
    )


def kernel_tree(seq, lists, direction="join"):
    """``sweep_csr`` on per-vertex lists, checked against ``ref_sweep``."""
    n = len(lists)
    got = sweep_csr(seq, *csr(lists), n, direction)
    assert_same_merge_tree(got, *ref_sweep(seq, lists.__getitem__, n))
    return got


def test_kernel_monotone_path_has_one_candidate():
    # Only the first swept vertex has no entry; every other lists one.
    seq = [4, 2, 0, 3, 1, 5]
    lists = [[2], [3], [4], [0], [], [1]]
    tree = kernel_tree(seq, lists)
    assert tree.arcs.tolist() == [3, 5, 0, 1, 2, -1]
    assert tree.root == 5


def test_kernel_every_vertex_a_candidate():
    # Two maxima, then each vertex lists the two swept just before it.
    n = 9
    lists = [[], []] + [[v - 1, v - 2] for v in range(2, n)]
    tree = kernel_tree(range(n), lists)
    assert tree.arcs.tolist() == [2, 2, 3, 4, 5, 6, 7, 8, -1]


def test_kernel_repeated_entries():
    # Vertex 2 lists 1 twice and so is a candidate that merges nothing;
    # vertex 4 meets both components, one of them through repeats.
    lists = [[], [0], [1, 1], [], [3, 2, 3, 0, 2]]
    tree = kernel_tree(range(5), lists)
    assert tree.arcs.tolist() == [1, 2, 4, 4, -1]


def test_kernel_disconnected_graph():
    # Three components: a path, a two-armed merge and an isolated vertex.
    seq = [0, 5, 1, 6, 2, 7, 3, 8, 4]
    lists = [[], [0], [1], [7], [3], [], [], [6, 5], []]
    tree = kernel_tree(seq, lists, "split")
    assert tree.arcs.tolist() == [1, 2, -1, 4, -1, 7, 7, 3, -1]
    assert tree.root == 4
    assert np.count_nonzero(tree.arcs < 0) == 3


def test_kernel_single_vertex():
    tree = kernel_tree([0], [[]])
    assert tree.arcs.tolist() == [-1] and tree.root == 0


def test_kernel_empty_graph():
    tree = kernel_tree([], [])
    assert tree.n == 0 and tree.arcs.size == 0 and tree.root == -1


@pytest.mark.parametrize(
    "seq,lists",
    [([0, 1, 2], [[2], [], [1]]), ([0, 1], [[1], [0]])],
    ids=["lists-a-later-vertex", "ascent-cycle"],
)
def test_kernel_rejects_entries_not_swept_before(seq, lists):
    with pytest.raises(InternalError):
        sweep_csr(seq, *csr(lists), len(lists), "join")


def ref_reduced_arcs(red_nbrs, red_starts):
    """Find and union one candidate slot at a time, over its slice of peak slots."""
    k = len(red_starts) - 1
    parent = list(range(k))
    size = [1] * k
    extreme = list(range(k))
    up = [-1] * k
    for v in range(k):
        root = v
        for u in red_nbrs[red_starts[v] : red_starts[v + 1]]:
            r = parent[u]
            if parent[r] != r:
                while parent[r] != r:
                    r = parent[r]
                while parent[u] != r:
                    parent[u], u = r, parent[u]
            if r == root:
                continue
            up[extreme[r]] = v
            if size[root] < size[r]:
                root, r = r, root
            parent[r] = root
            size[root] += size[r]
        extreme[root] = v
    return np.array(up, dtype=np.int64)


def flat_entries(lists):
    """``_reduced_arcs``' (owner, found) arrays of per-slot lists of peak slots."""
    owner = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    return owner, np.array(list(itertools.chain.from_iterable(lists)), dtype=np.int64)


@st.composite
def reduced_inputs(draw):
    """Per candidate slot, 0-4 entries naming earlier slots, with repeats.

    A slot either draws its entries at random or echoes an earlier slot:
    that slot and some of its own entries, which all lie in one component
    once that slot is swept.
    """
    k = draw(st.integers(min_value=1, max_value=40))
    lists = []
    for s in range(k):
        if s and draw(st.booleans()):
            t = draw(st.integers(0, s - 1))
            echo = [t] + lists[t]
            lists.append(draw(st.lists(st.sampled_from(echo), max_size=4)))
        elif s:
            lists.append(draw(st.lists(st.integers(0, s - 1), max_size=4)))
        else:
            lists.append([])
    return lists


@settings(max_examples=400, deadline=None)
@given(reduced_inputs())
def test_reduced_arcs_match_per_candidate_loop(lists):
    want = ref_reduced_arcs(
        list(itertools.chain.from_iterable(lists)),
        list(itertools.accumulate(map(len, lists), initial=0)),
    )
    got = _reduced_arcs(*flat_entries(lists), len(lists))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "lists", [[[], [1]], [[], [0, 1]], [[], [2], []], [[], [0], [0, 2]], [[], [-1]]],
    ids=["own-slot", "own-slot-after-earlier", "later-slot", "own-slot-last", "no-slot"],
)
def test_reduced_arcs_reject_entries_not_before_their_slot(lists):
    with pytest.raises(InternalError):
        _reduced_arcs(*flat_entries(lists), len(lists))


@pytest.mark.parametrize("length", [1, 2, 3, 4, 8, 16, 17])
def test_chain_ends_reject_cycles(length):
    # A path 0 <- 1 <- 2 beside a cycle over the next ``length`` entries.
    cycle = 3 + np.arange(length)
    hop = np.r_[0, 0, 1, np.roll(cycle, -1)]
    if length == 1:
        assert _chain_ends(hop).tolist() == [0, 0, 0, 3]
        return
    with pytest.raises(InternalError):
        _chain_ends(hop)


@pytest.mark.parametrize(
    "length",
    sorted({1, 2, 3} | {2**k + d for k in range(2, 13) for d in (-1, 0, 1)}),
)
def test_chain_ends_reach_the_end_of_a_path(length):
    # Entry i hops to i - 1, and entry 0 ends the path: the farthest entry is
    # length - 1 hops away, the most any chain of this size can need.
    hop = np.maximum(np.arange(length) - 1, 0)
    assert (_chain_ends(hop) == 0).all()
    # The same path with its end last and the hops reversed.
    hop = np.minimum(np.arange(length) + 1, length - 1)
    assert (_chain_ends(hop) == length - 1).all()


def ref_climb(step, x, bound):
    """``_climb`` by walking up one parent at a time while the parent is below the bound."""
    out = []
    for v, b in zip(x.tolist(), bound.tolist()):
        while step[v] != v and step[v] < b:
            v = int(step[v])
        out.append(v)
    return np.array(out, dtype=np.int64)


@st.composite
def climb_forests(draw):
    """``_climb`` inputs: a forest over slots 0..k-1 whose parents lie above their children.

    Slot k - 1 and up to five drawn slots are roots, slot 0 among them
    when drawn isolated; one drawn stretch of slots is a chain, each
    under the next, and every other slot hangs under a random later one.
    Each query's bound is x + 1, k, or drawn between them.
    """
    k = draw(st.integers(min_value=1, max_value=80))
    roots = draw(st.sets(st.integers(0, k - 1), max_size=5))
    if draw(st.booleans()):
        roots.add(0)
    lo, hi = sorted(draw(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    step = np.arange(k)
    for s in range(k - 1):
        if s not in roots:
            step[s] = s + 1 if lo <= s < hi else draw(st.integers(s + 1, k - 1))
    x = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=40))
    bound = [draw(st.sampled_from([v + 1, k]) | st.integers(v + 1, k)) for v in x]
    return step, np.array(x, dtype=np.int64), np.array(bound, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(climb_forests())
def test_climb_matches_parent_walk(forest):
    step, x, bound = forest
    got = _climb(step, x, bound)
    want = ref_climb(step, x, bound)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def swept_graphs(draw):
    """A sweep order and, per vertex, entries for earlier-swept neighbours, with repeats."""
    n = draw(st.integers(min_value=1, max_value=24))
    seq = draw(st.permutations(range(n)))
    when = {v: i for i, v in enumerate(seq)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    lists = [[] for _ in range(n)]
    for a, b in draw(st.lists(pairs, max_size=3 * n)):
        if a != b:
            late, early = (a, b) if when[a] > when[b] else (b, a)
            lists[late].append(early)
    return seq, lists


@settings(max_examples=300, deadline=None)
@given(swept_graphs())
def test_kernel_matches_reference_on_random_graphs(graph):
    seq, lists = graph
    tree = kernel_tree(seq, lists)
    assert tree.root == seq[-1]


@st.composite
def off_trunk_graphs(draw):
    """Sweeps whose first vertex lies in a component of one to three vertices.

    The trunk, the root path of the first swept candidate, stays in that
    component, so the regular vertices of the other component, most of
    them, climb off it.  Each vertex lists zero to three earlier vertices
    of its own component, one most often.
    """
    n = draw(st.integers(min_value=2, max_value=60))
    seq = draw(st.permutations(range(n)))
    small = {seq[0], *draw(st.lists(st.sampled_from(seq[1:]), max_size=2))}
    lists = [[] for _ in range(n)]
    for i, v in enumerate(seq):
        earlier = [u for u in seq[:i] if (u in small) == (v in small)]
        if earlier:
            width = draw(st.sampled_from((1, 1, 1, 0, 2, 3)))
            lists[v] = draw(st.lists(st.sampled_from(earlier), min_size=width, max_size=width))
    return seq, lists


@settings(max_examples=300, deadline=None)
@given(off_trunk_graphs())
def test_kernel_matches_reference_off_the_trunk(graph):
    seq, lists = graph
    tree = kernel_tree(seq, lists)
    assert tree.root == seq[-1]


@pytest.mark.parametrize("field", ["random", "gaussians"])
def test_grid_sweeps_match_reference_on_deep_reduced_trees(field):
    """32x32x16 grids against the full-stencil reference sweep.

    Random data gives about 4 700 candidates per direction and 13 lifting
    levels, far beyond the small grids; the gaussians give long regular
    chains over a handful of candidates.
    """
    from gridtopo.grid import synthetic_gaussians, synthetic_random

    dims = (32, 32, 16)
    grid = synthetic_random(dims, 5) if field == "random" else synthetic_gaussians(dims, 5)
    order = sos_order(grid)
    nbrs = partial(neighbors, grid)
    assert_same_merge_tree(
        compute_join_tree(grid, order), *ref_sweep(order.vertex_at[::-1], nbrs, grid.n)
    )
    assert_same_merge_tree(
        compute_split_tree(grid, order), *ref_sweep(order.vertex_at, nbrs, grid.n)
    )
