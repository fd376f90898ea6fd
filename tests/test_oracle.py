import pytest

from gridtopo import contour_tree, sos_order
from gridtopo.errors import UsageError
from gridtopo.oracle import brute_subtree_volume, count_contours, level_set_census
from gridtopo.tree import tree_from_graph

from conftest import grid_1d, random_grid


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
    assert census.counts.tolist() == [1, 2, 4, 2]
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
    return sum(ct.superparent[v] in side for v in ct.verts)


def sparse_id_tree():
    ranks = [0] * 121
    for r, v in enumerate([10, 40, 41, 120, 17, 3, 99]):
        ranks[v] = r
    edges = [(3, 10), (10, 17), (10, 40), (40, 41), (41, 99), (41, 120)]
    return tree_from_graph([3, 10, 17, 40, 41, 99, 120], ranks, edges)


@pytest.mark.parametrize(
    "ct",
    [contour_tree(random_grid((5, 4, 3), 1), sos_order(random_grid((5, 4, 3), 1))),
     sparse_id_tree()],
    ids=["grid", "sparse-ids"],
)
def test_brute_volume_matches_per_vertex_count(ct):
    for outer in ct.arc_inner:
        assert brute_subtree_volume(ct, outer) == per_vertex_volume(ct, outer)
