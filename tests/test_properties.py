"""Hypothesis-driven invariants over arbitrary small grids."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import contour_tree, select_top_branches, sos_order
from gridtopo.dist import run_distributed, run_lambda_sweep
from gridtopo.measure import _marked_subtrees
from gridtopo.oracle import level_set_census
from gridtopo.tree import _from_edges

from conftest import (
    branch_keys_with_leaves,
    counts,
    local_extrema,
    make_grid,
    serial_pipeline,
    tree_arrays,
)
from test_dist import assert_same_run

dims_2d = st.tuples(st.integers(2, 6), st.integers(2, 6), st.just(1))
dims_3d = st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))


def grid_strategy(dims_strategy):
    return dims_strategy.flatmap(
        lambda d: st.lists(
            st.integers(0, 6),
            min_size=d[0] * d[1] * d[2],
            max_size=d[0] * d[1] * d[2],
        ).map(lambda vals: make_grid(d, vals))
    )


@given(grid=grid_strategy(st.one_of(dims_2d, dims_3d)))
@settings(max_examples=60, deadline=None)
def test_census_equivalence_property(grid):
    order = sos_order(grid)
    ct = contour_tree(grid, order)
    census = level_set_census(grid, order)
    for gap in range(grid.n - 1):
        assert ct.straddling_arcs(gap) == census[gap]


@given(grid=grid_strategy(dims_2d))
@settings(max_examples=60, deadline=None)
def test_conservation_and_partition_property(grid):
    _, ct, ann, bd = serial_pipeline(grid)
    assert sum(counts(ann).values()) + 1 == grid.n
    assert sorted(a for b in bd.branches for a in b.arcs) == sorted(ct.arc_inner)
    trunks = [b for b in bd.branches if b.is_trunk]
    assert len(trunks) == 1


@given(grid=grid_strategy(dims_2d))
@settings(max_examples=40, deadline=None)
def test_branch_count_property(grid):
    order, ct, ann, bd = serial_pipeline(grid)
    maxima, minima = local_extrema(grid, order)
    assert len(bd.branches) == len(maxima) + len(minima) - 1


@given(
    grid=grid_strategy(st.tuples(st.integers(3, 6), st.integers(3, 6), st.just(1))),
    lam=st.integers(0, 8),
)
@settings(max_examples=25, deadline=None)
def test_distributed_conservation_property(grid, lam):
    order = sos_order(grid)
    result = run_distributed(grid, (2, 1, 1), lam=lam, b=5)
    assert sum(counts(result.post_volumes).values()) + 1 == grid.n
    serial_keys = None
    if lam == 0:
        serial = contour_tree(grid, order)
        assert result.augmented_tree.arc_inner == serial.arc_inner


@st.composite
def split_grids(draw):
    """A grid of 1 to 3 axes of 2-7 vertices with values 0..k (k in 1..8), and a split.

    Every feasible split of each axis is drawn, uneven ones included.
    """
    axes = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(2, 7)) if a < axes else 1 for a in range(3))
    n = math.prod(dims)
    k = draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    splits = tuple(draw(st.integers(1, d - 1)) if d > 1 else 1 for d in dims)
    return make_grid(dims, values), splits


@given(case=split_grids(), extra=st.lists(st.integers(0, 400), max_size=4))
@settings(max_examples=300, deadline=None)
def test_distributed_matches_serial_property(case, extra):
    """Every feasible split and up to 5 thresholds against the serial pipeline."""
    grid, splits = case
    lams = sorted({0, *extra})
    _, ct, ann, bd = serial_pipeline(grid)
    top, lambda_b = select_top_branches(bd, ct.ranks, b=5)
    runs = {
        mode: list(run_lambda_sweep(grid, splits, lams, b=5, mode=mode))
        for mode in ("sequential", "concurrent")
    }
    first = runs["sequential"][0]
    for name in ("ids", "up", "outer"):
        assert getattr(first.augmented_tree, name).tolist() == getattr(ct, name).tolist(), name
    assert first.post_volumes.out_volume.tolist() == ann.out_volume.tolist()
    assert branch_keys_with_leaves(first.bd) == branch_keys_with_leaves(bd)
    previous = None
    for lam, result in zip(lams, runs["sequential"]):
        assert result.post_volumes.count.sum() + 1 == grid.n
        if lam < lambda_b:
            assert [b.key() for b in result.selected] == [b.key() for b in top], lam
        counters = result.commlog.counts
        if previous is not None:
            for phase, per_counter in counters.items():
                for counter, per_rank in per_counter.items():
                    before = previous[phase][counter]
                    assert all(a <= b for a, b in zip(per_rank, before)), (lam, counter)
        previous = counters
    for seq, con in zip(runs["sequential"], runs["concurrent"]):
        assert_same_run(con, seq)
        assert tree_arrays(con.augmented_tree) == tree_arrays(seq.augmented_tree)


@st.composite
def marked_trees(draw):
    """A tree from a grid of 1-5 vertices per axis or from random edges, and a mark mask.

    Values are tied (0..3) or nearly distinct.  The marks are the root,
    one vertex, every vertex, a random set, or a set of the regular
    vertices of one superarc.
    """
    wide = draw(st.booleans())
    value = st.integers(0, 10**6) if wide else st.integers(0, 3)
    if draw(st.booleans()):
        dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
        n = math.prod(dims)
        grid = make_grid(dims, draw(st.lists(value, min_size=n, max_size=n)))
        ct = contour_tree(grid, sos_order(grid))
    else:
        n = draw(st.integers(1, 40))
        edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
        label = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        edges = label[np.array(edges, dtype=np.int64).reshape(-1, 2)]
        ct = _from_edges(draw(st.lists(value, min_size=n, max_size=n)), edges)
    marked = np.zeros(n, dtype=bool)
    kind = draw(st.sampled_from(["root", "one", "every", "random", "arc"]))
    regular = np.flatnonzero(ct.outer != np.arange(n))
    if kind == "root":
        marked[ct.superstructure.vertex[ct.superstructure.root]] = True
    elif kind == "one":
        marked[draw(st.integers(0, n - 1))] = True
    elif kind == "every":
        marked[:] = True
    elif kind == "random" or not regular.size:
        marked[:] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        outer = draw(st.sampled_from(sorted(set(ct.outer[regular].tolist()))))
        on = regular[ct.outer[regular] == outer]
        marked[on] = draw(st.lists(st.booleans(), min_size=on.size, max_size=on.size))
    return ct, marked


@given(case=marked_trees())
@settings(max_examples=400, deadline=None)
def test_marked_subtrees_match_ancestor_walks(case):
    """Each vertex's subtree holds some marks exactly when a mark's walk to the root meets it."""
    ct, marked = case
    below = np.zeros(ct.n, dtype=np.int64)
    for v in np.flatnonzero(marked).tolist():
        while v >= 0:
            below[v] += 1
            v = ct.up[v]
    some, every = _marked_subtrees(ct, marked)
    assert some.tolist() == (below > 0).tolist()
    assert every.tolist() == (below == marked.sum()).tolist()
