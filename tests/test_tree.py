from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridtopo import compute_join_tree, compute_split_tree, contour_tree, sos_order
from gridtopo import tree as gtree
from gridtopo.oracle import level_set_census
from gridtopo.tree import tree_from_graph

from conftest import (
    arc_to,
    children_index,
    dump,
    grid_1d,
    local_extrema,
    make_grid,
    over_ids,
    parent_map,
    random_grid,
    superparent,
)
from test_reference_equivalence import check_combine, ref_vertex_combine


def arc_pairs(ct):
    return {frozenset((o, i)) for o, i in ct.arc_inner.items()}


def test_combine_zigzag():
    grid = grid_1d([0, 5, 2, 6, 1])
    ct = contour_tree(grid, sos_order(grid))
    assert sorted(ct.supernodes) == [0, 1, 2, 3, 4]
    assert arc_pairs(ct) == {
        frozenset((0, 1)),
        frozenset((1, 2)),
        frozenset((2, 3)),
        frozenset((3, 4)),
    }
    assert ct.root == 3  # highest rank


@pytest.mark.parametrize("dims", [(6, 1, 1), (3, 4, 1), (2, 3, 4)])
def test_monotone_grid_two_supernodes(dims):
    n = dims[0] * dims[1] * dims[2]
    grid = make_grid(dims, np.arange(n))
    ct = contour_tree(grid, sos_order(grid))
    assert len(ct.supernodes) == 2
    assert len(ct.arc_inner) == 1
    assert ct.root == n - 1


def test_single_vertex_grid():
    grid = make_grid((1, 1, 1), [3.0])
    ct = contour_tree(grid, sos_order(grid))
    assert ct.supernodes == [0]
    assert ct.arc_inner == {}
    assert superparent(ct) == {0: 0}


def test_arc_degrees_zigzag():
    grid = grid_1d([0, 5, 4, 3, 6, 1])
    ct = contour_tree(grid, sos_order(grid))
    up, down = (dict(zip(ct.supernodes, d.tolist())) for d in ct.arc_degrees())
    assert up == {0: 1, 1: 0, 3: 2, 4: 0, 5: 1}
    assert down == {0: 0, 1: 2, 3: 0, 4: 2, 5: 0}


@pytest.mark.parametrize("seed", range(3))
def test_arc_degrees_count_each_arc_at_both_ends(seed):
    grid = random_grid((5, 4, 3), seed)
    ct = contour_tree(grid, sos_order(grid))
    want_up = dict.fromkeys(ct.supernodes, 0)
    want_down = dict.fromkeys(ct.supernodes, 0)
    for outer, inner in ct.arc_inner.items():
        lo, hi = sorted((outer, inner), key=ct.ranks.__getitem__)
        want_up[lo] += 1
        want_down[hi] += 1
    up, down = (dict(zip(ct.supernodes, d.tolist())) for d in ct.arc_degrees())
    assert (up, down) == (want_up, want_down)
    assert list(up) == list(down) == ct.supernodes


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("dims", [(6, 6, 1), (4, 4, 4)])
def test_census_equivalence(dims, seed):
    """Straddling superarcs equal the brute-force contour count per gap."""
    grid = random_grid(dims, seed)
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    census = level_set_census(grid, order)
    for gap in range(grid.n - 1):
        assert ct.straddling_arcs(gap) == census[gap], f"gap {gap}"


@pytest.mark.parametrize(
    "grid",
    [
        random_grid((7, 6, 1), 3),
        random_grid((4, 3, 5), 8),
        make_grid((4, 4, 2), np.zeros(32)),
        make_grid((6, 5, 2), np.arange(60) % 3),
        grid_1d([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]),
        make_grid((1, 1, 1), [2.0]),
    ],
    ids=["random-2d", "random-3d", "constant", "tied", "1d", "single"],
)
def test_tree_from_graph_matches_grid_tree(grid):
    """The graph entry point over the stencil edges builds the grid's tree."""
    order = sos_order(grid)
    expected = contour_tree(grid, order)
    got = tree_from_graph(grid.values, list(grid.edges()))
    assert got.supernodes == expected.supernodes
    assert got.arc_inner == expected.arc_inner
    assert superparent(got) == superparent(expected)
    assert got.root == expected.root


def test_augment_monotone():
    grid = grid_1d([1, 2, 3, 4])
    ct = contour_tree(grid, sos_order(grid))
    assert superparent(ct) == {0: 0, 1: 0, 2: 0, 3: 3}
    assert ct.arc_regulars[0] == [2, 1] or sorted(ct.arc_regulars[0]) == [1, 2]


def test_augment_zigzag_all_supernodes():
    grid = grid_1d([0, 5, 2, 6, 1])
    ct = contour_tree(grid, sos_order(grid))
    assert superparent(ct) == {v: v for v in range(5)}


@pytest.mark.parametrize("seed", range(5))
def test_regular_counts_sum(seed):
    grid = random_grid((8, 8, 1), seed)
    ct = contour_tree(grid, sos_order(grid))
    total = sum(len(r) for r in ct.arc_regulars.values()) + len(ct.supernodes)
    assert total == grid.n


@pytest.mark.parametrize("seed", range(5))
def test_rank_betweenness(seed):
    grid = random_grid((7, 7, 1), seed)
    ct = contour_tree(grid, sos_order(grid))
    for outer, regs in ct.arc_regulars.items():
        inner = ct.arc_inner[outer]
        lo = min(ct.ranks[outer], ct.ranks[inner])
        hi = max(ct.ranks[outer], ct.ranks[inner])
        for v in regs:
            assert lo < ct.ranks[v] < hi


@pytest.mark.parametrize("seed", range(6))
def test_leaves_are_extrema(seed):
    grid = random_grid((6, 6, 1), seed)
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    kids = children_index(ct)
    degree = {s: len(kids[s]) + (0 if s == ct.root else 1) for s in ct.supernodes}
    leaves = sorted(s for s, d in degree.items() if d == 1)
    maxima, minima = local_extrema(grid, order)
    assert set(leaves) <= set(maxima) | set(minima)
    # Generic random 2D grids: degree-1 supernodes are exactly the extrema.
    assert leaves == sorted(set(maxima) | set(minima))


def test_w_structure_grid():
    """A zigzag whose tree alternates saddle chains (a W configuration)."""
    values = [0, 10, 2, 8, 4, 6, 5, 9, 1, 7]
    grid = grid_1d(values)
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    census = level_set_census(grid, order)
    for gap in range(grid.n - 1):
        assert ct.straddling_arcs(gap) == census[gap]
    total = sum(len(r) for r in ct.arc_regulars.values()) + len(ct.supernodes)
    assert total == grid.n


def test_determinism_bit_identical():
    grid = random_grid((8, 8, 2), 13)
    a = contour_tree(grid, sos_order(grid))
    b = contour_tree(grid, sos_order(grid))
    assert a.arc_inner == b.arc_inner
    assert superparent(a) == superparent(b)
    assert a.supernodes == b.supernodes
    assert dump(a) == dump(b)


def test_dump_stable_text():
    grid = grid_1d([0, 5, 2, 6, 1])
    ct = contour_tree(grid, sos_order(grid))
    text = dump(ct, values={v: float(x) for v, x in enumerate([0, 5, 2, 6, 1])})
    assert "supernodes:" in text and "superarcs:" in text
    assert text.index("0 value=0.0") < text.index("4 value=1.0")


def test_combine_rejects_mismatched_vertex_sets():
    import pytest

    from gridtopo import combine, compute_join_tree, compute_split_tree
    from gridtopo.errors import UsageError

    g1 = grid_1d([1, 2, 3])
    g2 = grid_1d([1, 2, 3, 4])
    o1, o2 = sos_order(g1), sos_order(g2)
    join = compute_join_tree(g1, o1)
    split = compute_split_tree(g2, o2)
    with pytest.raises(UsageError):
        combine(join, split, {v: v for v in range(4)})


def set_based_leaf_transfer(join, split):
    """Reference leaf transfer on dicts of parents and sets of children."""
    verts = list(range(join.n))
    j_parent, s_parent = arc_to(join), arc_to(split)
    j_children = {v: set() for v in verts}
    s_children = {v: set() for v in verts}
    for src, dst in j_parent.items():
        j_children[dst].add(src)
    for src, dst in s_parent.items():
        s_children[dst].add(src)

    def upper_ready(v):
        return len(j_children[v]) == 0 and len(s_children[v]) == 1

    def lower_ready(v):
        return len(s_children[v]) == 0 and len(j_children[v]) == 1

    def transfer(v, leaf_parent, leaf_children, reg_parent, reg_children):
        other = leaf_parent.pop(v)
        leaf_children[other].discard(v)
        (child,) = reg_children.pop(v)
        up = reg_parent.get(v)
        if up is not None:
            reg_parent[child] = up
            reg_children[up].discard(v)
            reg_children[up].add(child)
        else:
            reg_parent.pop(child, None)
        return other

    queue = deque(v for v in verts if upper_ready(v) or lower_ready(v))
    queued = set(queue)
    alive = set(verts)
    edges = []
    while len(alive) > 1:
        v = queue.popleft()
        queued.discard(v)
        if v not in alive:
            continue
        if upper_ready(v):
            other = transfer(v, j_parent, j_children, s_parent, s_children)
        elif lower_ready(v):
            other = transfer(v, s_parent, s_children, j_parent, j_children)
        else:
            continue
        edges.append((v, other))
        alive.discard(v)
        if len(alive) == 1:
            break
        for w in (v, other):
            if w in alive and w not in queued and (upper_ready(w) or lower_ready(w)):
                queue.append(w)
                queued.add(w)
    return edges


COMBINE_GRIDS = [
    random_grid((7, 6, 1), 0),
    random_grid((5, 4, 3), 1),
    random_grid((6, 6, 6), 2),
    make_grid((6, 5, 2), np.arange(60) % 3),
    make_grid((4, 4, 4), np.random.default_rng(3).integers(0, 2, 64)),
    grid_1d([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]),
    make_grid((1, 1, 12), np.random.default_rng(4).random(12)),
    make_grid((1, 1, 1), [2.0]),
    make_grid((4, 4, 2), np.zeros(32)),
]
COMBINE_IDS = [
    "random-2d", "random-3d", "random-3d-large", "tied", "tied-binary", "1d", "1d-z",
    "single", "constant",
]


@pytest.mark.parametrize("grid", COMBINE_GRIDS, ids=COMBINE_IDS)
def test_array_combine_matches_set_based_edges(grid, combine_calls):
    order = sos_order(grid)
    contour_tree(grid, order)
    (call,) = combine_calls
    edges = ref_vertex_combine(call["join"], call["split"])
    assert edges == set_based_leaf_transfer(call["join"], call["split"])
    check_combine(call, order.rank_of)


@pytest.mark.parametrize(
    "edges,n",
    [
        ([(0, i) for i in range(1, 9)], 9),
        ([(i, i + 1) for i in range(11)], 12),
    ],
    ids=["star", "path"],
)
@pytest.mark.parametrize("seed", range(4))
def test_array_combine_matches_set_based_edges_on_graphs(edges, n, seed, combine_calls):
    ranks = np.random.default_rng(seed).permutation(n).tolist()
    tree_from_graph(ranks, edges)
    (call,) = combine_calls
    edges = ref_vertex_combine(call["join"], call["split"])
    assert len(edges) == n - 1
    assert edges == set_based_leaf_transfer(call["join"], call["split"])
    check_combine(call, call["ranks"])


def assert_combine_augments_like_from_edges(ct):
    """``combine``'s own augmentation equals ``_from_edges``'s over the tree's own edges."""
    assert gtree.augment(ct) is ct
    child = np.flatnonzero(ct.up >= 0)
    rows = np.column_stack((child, ct.up[child]))
    full = gtree._from_edges(ct.ranks, rows)
    assert gtree.augment(full) is full
    for name in ("up", "outer"):
        got, want = getattr(ct, name), getattr(full, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("grid", COMBINE_GRIDS, ids=COMBINE_IDS)
def test_combine_returns_the_tree_augment_builds(grid):
    order = sos_order(grid)
    join, split = compute_join_tree(grid, order), compute_split_tree(grid, order)
    assert_combine_augments_like_from_edges(gtree.combine(join, split, order.rank_of))


@pytest.mark.parametrize("seed", range(4))
def test_combine_augments_graph_trees_like_augment(seed, combine_calls):
    rng = np.random.default_rng(seed)
    n = 12
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    tree_from_graph(rng.permutation(n).tolist(), edges)
    (call,) = combine_calls
    assert_combine_augments_like_from_edges(call["tree"])


@pytest.mark.parametrize("seed", range(4))
def test_every_builder_returns_ascending_ids(seed):
    """``combine``, ``_from_edges`` and ``tree_from_graph`` all hold their ids in ascending order.

    The edge-list builders build over positions, and ``over_ids`` labels
    them with sparse ids given shuffled, with random ranks.
    """
    rng = np.random.default_rng(seed)
    grid = random_grid((5, 4, 3), seed)
    order = sos_order(grid)
    join, split = compute_join_tree(grid, order), compute_split_tree(grid, order)
    assert np.array_equal(gtree.combine(join, split, order.rank_of).ids, np.arange(grid.n))
    verts = rng.choice(1000, size=40, replace=False)
    ranks = rng.permutation(1000)
    edges = [(verts[i], verts[rng.integers(0, i)]) for i in range(1, verts.size)]
    for build in (gtree._from_edges, tree_from_graph):
        shuffled = rng.permutation(verts)
        ct = over_ids(build, shuffled, ranks[shuffled], edges)
        assert (np.diff(ct.ids) > 0).all() and np.array_equal(ct.ids, np.sort(verts))


@pytest.mark.parametrize("seed", range(4))
def test_builders_rank_by_value_then_id(seed):
    """Tied values, -0.0 and 0.0 among them, rank like a test-local (value, id) lexsort.

    Each builder gets sparse ids in random order through ``over_ids``,
    or a grid's stencil graph, with those values, and then the same ids
    with the lexsort's ranks as values: the two trees are equal.
    """
    rng = np.random.default_rng(seed)
    verts = rng.choice(500, size=60, replace=False)
    values = rng.choice([-1.5, -0.0, 0.0, 2.0], size=60)
    assert np.signbit(values[values == 0]).any() and not np.signbit(values[values == 0]).all()
    tree = [(verts[i], verts[rng.integers(0, i)]) for i in range(1, 60)]
    grid = make_grid((5, 4, 3), rng.choice([-0.0, 0.0, 1.0], size=60))
    for build, ids, vals, edges in (
        (gtree._from_edges, verts, values, tree),
        (tree_from_graph, verts, values, tree),
        (tree_from_graph, np.arange(60), grid.values, list(grid.edges())),
    ):
        want_ranks = np.empty(60, dtype=np.int64)
        want_ranks[np.lexsort((ids, vals))] = np.arange(60)
        got, want = over_ids(build, ids, vals, edges), over_ids(build, ids, want_ranks, edges)
        assert all(np.array_equal(x, y) for x, y in zip(tree_arrays(got), tree_arrays(want)))
        assert np.array_equal(got.ranks, want_ranks[np.argsort(ids)])


def test_tree_from_graph_rejects_endpoint_outside_verts():
    from gridtopo.errors import InternalError

    for outside in (3, -1, 2**40):
        with pytest.raises(InternalError):
            tree_from_graph([0, 1, 2], [(0, 1), (1, outside)])


@pytest.mark.parametrize(
    "ranks,edges,noisy",
    [
        ([0, 1], [(0, 1)], [(0, 0), (0, 1), (0, 1)]),
        ([1, 0], [(0, 1)], [(0, 0), (0, 1), (0, 1)]),
        ([1, 0], [(0, 1)], [(1, 0), (1, 1), (0, 1)]),
        ([2, 0, 3, 1], [(0, 1), (1, 2), (2, 3)],
         [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 0), (3, 3)]),
    ],
)
def test_tree_from_graph_ignores_self_loops_and_repeats(ranks, edges, noisy):
    n = len(ranks)
    want = tree_from_graph(ranks, edges)
    got = tree_from_graph(ranks, noisy)
    assert (got.root, parent_map(got), got.supernodes, got.arc_inner) == (
        want.root, parent_map(want), want.supernodes, want.arc_inner
    )
    assert superparent(got) == superparent(want)
    assert got.arc_regulars == want.arc_regulars


def test_tree_from_graph_sweeps_get_the_csr_contract(monkeypatch):
    """Each sweep lists, per vertex, only neighbours it swept strictly before."""
    calls = []
    real = gtree.sweep_csr

    def recording(seq, nbrs, starts, n, direction):
        calls.append((list(seq), nbrs, starts))
        return real(seq, nbrs, starts, n, direction)

    monkeypatch.setattr(gtree, "sweep_csr", recording)
    ranks = [3, 0, 4, 1, 2]
    edges = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 4), (0, 0)]
    tree_from_graph(ranks, edges)
    assert len(calls) == 2
    for seq, nbrs, starts in calls:
        when = {v: i for i, v in enumerate(seq)}
        listed = [(v, u) for v in seq for u in nbrs[starts[v] : starts[v + 1]]]
        assert all(when[u] < when[v] for v, u in listed)
        # Each edge but the self-loops, listed once per occurrence.
        assert len(listed) == 5


def test_from_edges_jumps_each_chain_once_and_sorts_nothing(monkeypatch):
    """One pointer jumping over the n vertices places them all; no walk is sorted.

    The one other jump runs over the supernodes, to check that every
    superarc chain ends at the root.
    """
    jumps, sorts = [], []
    real_jump, real_sort = gtree._chain_ends, gtree._walk_order

    def jump(hop):
        jumps.append(hop.size)
        return real_jump(hop)

    def sort(*args):
        sorts.append(args)
        return real_sort(*args)

    monkeypatch.setattr(gtree, "_chain_ends", jump)
    monkeypatch.setattr(gtree, "_walk_order", sort)
    n = 40
    values = np.random.default_rng(5).permutation(n)
    ct = gtree._from_edges(values, [(i, i + 1) for i in range(n - 1)])
    assert jumps == [n, len(ct.supernodes)] and sorts == []
    assert len(ct.supernodes) < n


# --- batched leaf-transfer rounds ---------------------------------------------


@pytest.fixture
def levels(monkeypatch):
    """Record each round's level size and the vertex count of each queue run."""
    sizes, queued = [], []
    real_transfer, real_queue = gtree._transfer, gtree._leaf_transfer

    def transfer(join, split, rank):
        sizes.append(rank.size)
        return real_transfer(join, split, rank)

    def queue(n, join, split):
        queued.append(n)
        return real_queue(n, join, split)

    monkeypatch.setattr(gtree, "_transfer", transfer)
    monkeypatch.setattr(gtree, "_leaf_transfer", queue)
    return sizes, queued


def zigzag_ranks(n, seed):
    """Path ranks alternating low and high, so every inner vertex is an extremum."""
    rng = np.random.default_rng(seed)
    ranks = np.empty(n, dtype=np.int64)
    lows = (n + 1) // 2
    ranks[0::2] = rng.permutation(lows)
    ranks[1::2] = lows + rng.permutation(n // 2)
    return ranks.tolist()


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def zigzag_spine_with_leaves(m, seed):
    """A zigzag path 0..m-1 with leaf m + i hung on vertex i.

    Leaves hung on the path's minima rank below the whole path and those
    on its maxima above it, so every leaf is transferred in the first
    round and the bare zigzag is left for the next level.
    """
    rng = np.random.default_rng(seed)
    spine = np.array(zigzag_ranks(m, seed), dtype=float)
    low = np.arange(m) % 2 == 0
    leaf = np.where(low, -1 - rng.random(m), m + 1 + rng.random(m))
    values = np.r_[spine, leaf]
    ranks = np.argsort(np.argsort(values)).tolist()
    return ranks, path_edges(m) + [(i, m + i) for i in range(m)]


def assert_rounds_match_references(call, n):
    edges = ref_vertex_combine(call["join"], call["split"])
    assert len(edges) == n - 1
    assert edges == set_based_leaf_transfer(call["join"], call["split"])
    check_combine(call, call["ranks"])


@pytest.mark.parametrize("n", [12, 51, 300])
@pytest.mark.parametrize("seed", range(3))
def test_zigzag_path_sends_level_zero_to_the_queue(n, seed, combine_calls, levels):
    tree_from_graph(zigzag_ranks(n, seed), path_edges(n))
    (call,) = combine_calls
    assert_rounds_match_references(call, n)
    assert levels == ([n], [n])


def test_lower_pass_sees_the_upper_pass(levels):
    """Vertex 2 becomes a lower leaf only once the upper pass transfers vertex 3."""
    ct = tree_from_graph([0, 2, 1, 3], path_edges(4))
    assert levels == ([4], [])
    assert {frozenset(e) for e in ct.arc_inner.items()} == {frozenset(e) for e in path_edges(4)}


@pytest.mark.parametrize("m", [12, 101])
@pytest.mark.parametrize("seed", range(3))
def test_zigzag_spine_with_leaves_reaches_the_queue_deeper(m, seed, combine_calls, levels):
    ranks, edges = zigzag_spine_with_leaves(m, seed)
    tree_from_graph(ranks, edges)
    (call,) = combine_calls
    assert_rounds_match_references(call, 2 * m)
    sizes, queued = levels
    # The spine's two ends are regular: each has one neighbour above, one below.
    assert sizes[0] == 2 * m - 2 and len(sizes) == 2 and queued == [sizes[1]]


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n=st.integers(1, 60), width=st.integers(1, 60), seed=st.integers(0, 2**32 - 1)
)
def test_rounds_match_references_on_random_tree_graphs(n, width, seed, combine_calls):
    """Random trees, from stars (width 1 picks any earlier vertex) to long paths."""
    combine_calls.clear()
    rng = np.random.default_rng(seed)
    edges = [(i, int(rng.integers(max(0, i - width), i))) for i in range(1, n)]
    ct = tree_from_graph(rng.permutation(n).tolist(), edges)
    (call,) = combine_calls
    assert_rounds_match_references(call, n)
    # A tree graph is its own contour tree.
    assert {frozenset(e) for e in parent_map(ct).items()} == {frozenset(e) for e in edges}


def test_long_zigzag_path_is_its_own_contour_tree():
    n = 32_000
    ct = tree_from_graph(zigzag_ranks(n, 0), path_edges(n))
    assert len(ct.supernodes) == n
    assert {frozenset(e) for e in ct.arc_inner.items()} == {frozenset(e) for e in path_edges(n)}


def test_reeb_graph_loop_stalls():
    """A graph whose Reeb graph has a loop has no contour tree to assemble."""
    from gridtopo.errors import InternalError

    edges = [(1, 0), (2, 0), (3, 1), (4, 2), (5, 4), (0, 3), (5, 3)]
    with pytest.raises(InternalError, match="stalled"):
        tree_from_graph([3, 0, 1, 5, 4, 2], edges)


def test_level_sizes_halve_on_a_random_grid(levels):
    grid = random_grid((16, 16, 8), 0)
    contour_tree(grid, sos_order(grid))
    sizes, queued = levels
    assert len(sizes) >= 3 and queued == []
    assert all(2 * b <= a for a, b in zip(sizes, sizes[1:]))


def tree_arrays(ct):
    st = ct.superstructure
    return [ct.ids, ct.ranks, ct.up, ct.outer, st.vertex, st.inner, st.rank, np.array([st.root])]


def test_tree_from_graph_on_threads_matches_sequential():
    """Concurrent fan-in merges share no mutable state in the tree layer."""
    graphs = []
    for seed in range(8):
        grid = random_grid((12, 10, 8), seed)
        graphs.append((grid.values, list(grid.edges())))
    want = [tree_from_graph(*g) for g in graphs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda g: tree_from_graph(*g), graphs))
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(tree_arrays(a), tree_arrays(b)))


def ref_lift(st_, ju, sd, rank):
    """``tree._lift`` without its adjacent-ends shortcut: every entry is lifted."""
    dt = np.int32 if int(st_.rank.max()) <= np.iinfo(np.int32).max else np.int64
    has = st_.inner >= 0
    step = np.where(has, st_.inner, st_.root).astype(dt)
    depth = has.astype(dt)
    hop = step
    while (hop != st_.root).any():
        depth += depth[hop]
        hop = hop[hop]
    levels = int(depth.max()).bit_length()
    anc, lo, hi = [step], [st_.rank[step].astype(dt)], [st_.rank[step].astype(dt)]
    for _ in range(1, levels):
        a = anc[-1]
        anc.append(a[a])
        lo.append(np.minimum(lo[-1], lo[-1][a]))
        hi.append(np.maximum(hi[-1], hi[-1][a]))
    x, y = ju.astype(dt), sd.astype(dt)
    for lv in reversed(range(levels)):
        x = np.where(lo[lv][x] > rank, anc[lv][x], x)
        y = np.where(hi[lv][y] < rank, anc[lv][y], y)
    return np.where(depth[x] > depth[y], x, y).astype(np.int64)


def lift_queries(inner, rank, rng):
    """Every (ju, sd, rank, crossing arc's outer end, kind) a random tree admits.

    Ranks are even, so an odd query rank lies strictly between two of
    them.  A pair admits one query per place where every rank before it
    on the path is above every rank after it.  ``kind`` is "up" when sd
    is ju's inner end, "down" when ju is sd's, "ju ancestor" or "sd ancestor" when
    that end is a non-adjacent ancestor of the other, "other" otherwise.
    """

    def ancestors(v):
        out = [v]
        while inner[out[-1]] >= 0:
            out.append(int(inner[out[-1]]))
        return out

    out = []
    k = inner.size
    for x in range(k):
        ax = ancestors(x)
        for y in range(k):
            if x == y:
                continue
            ay = ancestors(y)
            lca = next(v for v in ax if v in ay)
            path = ax[: ax.index(lca) + 1] + ay[: ay.index(lca)][::-1]
            if inner[x] == y:
                kind = "up"
            elif inner[y] == x:
                kind = "down"
            elif lca == x:
                kind = "ju ancestor"
            elif lca == y:
                kind = "sd ancestor"
            else:
                kind = "other"
            for j in range(len(path) - 1):
                above, below = rank[path[: j + 1]].min(), rank[path[j + 1 :]].max()
                if above > below:
                    r = int(rng.integers(below // 2, above // 2)) * 2 + 1
                    a, b = path[j], path[j + 1]
                    out.append((x, y, r, a if inner[a] == b else b, kind))
    return out


def lift_case(seed):
    """A random rooted tree of 2 to 25 supernodes and every query it admits."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 26))
    perm = rng.permutation(k)
    inner = np.full(k, -1, dtype=np.int64)
    for i in range(1, k):
        inner[perm[i]] = perm[int(rng.integers(0, i))]
    rank = 2 * rng.permutation(k).astype(np.int64)
    st_ = gtree.Superstructure(np.arange(k), inner, rank, int(perm[0]))
    ju, sd, r, want, kinds = (np.array(col) for col in zip(*lift_queries(inner, rank, rng)))
    return st_, ju, sd, r, want, kinds


LIFT_SEEDS = range(30)


@pytest.mark.parametrize("seed", LIFT_SEEDS)
def test_lift_matches_unshortened_lift_and_path_walk(seed):
    st_, ju, sd, r, want, kinds = lift_case(seed)
    got = gtree._lift(st_, ju, sd, r)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert got.tolist() == ref_lift(st_, ju, sd, r).tolist()
    # Adjacent ends alone take the shortcut and lift nothing; a lone
    # entry of each other kind is lifted.
    adjacent = np.isin(kinds, ["up", "down"])
    if adjacent.any():
        got = gtree._lift(st_, ju[adjacent], sd[adjacent], r[adjacent])
        assert got.tolist() == want[adjacent].tolist()
    for kind in ("ju ancestor", "sd ancestor", "other"):
        one = np.flatnonzero(kinds == kind)[:1]
        assert gtree._lift(st_, ju[one], sd[one], r[one]).tolist() == want[one].tolist()


def test_lift_queries_cover_every_kind():
    kinds = set()
    for seed in LIFT_SEEDS:
        kinds |= set(lift_case(seed)[-1].tolist())
    assert kinds == {"up", "down", "ju ancestor", "sd ancestor", "other"}
