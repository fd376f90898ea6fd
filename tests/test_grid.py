import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import ScalarGrid, load_raw, save_raw, sos_order
from gridtopo.errors import DataError, UsageError
from gridtopo.grid import synthetic_gaussians, value_order

from conftest import make_grid, neighbors, random_grid


def test_load_raw_two_floats(tmp_path):
    path = tmp_path / "two.raw"
    path.write_bytes(struct.pack("<2f", 1.0, 2.0))
    grid = load_raw(path, (2, 1, 1), 32, "little")
    assert grid.values.tolist() == [1.0, 2.0]


def test_load_raw_size_mismatch(tmp_path):
    path = tmp_path / "short.raw"
    path.write_bytes(struct.pack("<2f", 1.0, 2.0))
    with pytest.raises(DataError, match="12 bytes"):
        load_raw(path, (3, 1, 1), 32, "little")


def test_load_raw_rejects_nan(tmp_path):
    path = tmp_path / "nan.raw"
    path.write_bytes(struct.pack("<3f", 1.0, float("nan"), 2.0))
    with pytest.raises(DataError, match="id 1"):
        load_raw(path, (3, 1, 1), 32, "little")


def test_round_trip_independent_writer(tmp_path):
    rng = np.random.default_rng(42)
    values = rng.random(8 * 8 * 8).astype(np.float64)
    path = tmp_path / "cube.raw"
    # Written with struct, independently of save_raw.
    path.write_bytes(struct.pack("<512d", *values))
    grid = load_raw(path, (8, 8, 8), 64, "little")
    assert np.array_equal(grid.values, values)


def test_round_trip_big_endian(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.random(4 * 3 * 2)
    grid = make_grid((4, 3, 2), values)
    path = tmp_path / "big.raw"
    save_raw(grid, path, 64, "big")
    back = load_raw(path, (4, 3, 2), 64, "big")
    assert np.array_equal(back.values, grid.values)


def test_grid_rejects_bad_shape():
    with pytest.raises(UsageError):
        ScalarGrid(dims=(2, 2, 1), values=np.zeros(3))


def test_value_order_of_no_values_is_empty():
    order = value_order(np.empty(0))
    assert order.n == 0 and order.vertex_at.size == 0


def test_sos_ranks_distinct_values():
    grid = make_grid((3, 1, 1), [3, 1, 2])
    order = sos_order(grid)
    assert order.rank_of.tolist() == [2, 0, 1]


def test_sos_tie_breaks_by_id():
    grid = make_grid((2, 1, 1), [5, 5])
    order = sos_order(grid)
    assert order.rank_of.tolist() == [0, 1]


def test_sos_matches_stable_sort_oracle():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50, size=1000).astype(float)
    grid = make_grid((10, 10, 10), values)
    order = sos_order(grid)
    expected = sorted(range(1000), key=lambda v: (values[v], v))
    assert order.vertex_at.tolist() == expected


def lexsort_order(values):
    """The reference (value, id) order: a stable two-key sort."""
    return np.lexsort((np.arange(values.size), values))


def smooth_f32_big_values():
    """The f32 big-endian Gaussian input of the smooth-3d benchmark at seed 1."""
    values = synthetic_gaussians((64, 64, 32), 1).values.astype(">f4").astype(float)
    assert np.count_nonzero(np.diff(np.sort(values)) == 0) == 165
    return values


@pytest.mark.parametrize(
    "dims,values",
    [
        ((4, 3, 2), lambda n: np.full(n, 2.5)),
        ((5, 4, 3), lambda n: np.arange(n) * 7 % 3 - 1.0),
        ((6, 5, 1), lambda n: np.where(np.arange(n) % 3 == 0, -0.0, 0.0)),
        ((7, 1, 1), lambda n: np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0])),
        ((64, 64, 32), lambda n: smooth_f32_big_values()),
        ((1, 1, 1), lambda n: np.zeros(n)),
        ((9, 1, 1), lambda n: np.array([3.0, 1, 3, 2, 1, 3, 0, 2, 1])),
        ((1, 1, 9), lambda n: np.full(n, -4.0)),
    ],
    ids=["constant", "three-values", "signed-zeros", "signed-zeros-1d", "smooth-3d-f32-big",
         "1x1x1", "1d-ties", "1d-z-constant"],
)
def test_sos_matches_lexsort(dims, values):
    grid = make_grid(dims, values(dims[0] * dims[1] * dims[2]))
    order = sos_order(grid)
    want = lexsort_order(grid.values)
    assert np.array_equal(order.vertex_at, want)
    assert np.array_equal(order.rank_of[want], np.arange(grid.n))


@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
    levels=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_sos_matches_lexsort_on_tied_grids(dims, seed, levels):
    n = dims[0] * dims[1] * dims[2]
    rng = np.random.default_rng(seed)
    # Random signs make both zeros, which tie with each other.
    values = np.copysign(rng.integers(-levels, levels, size=n) * 0.5, rng.random(n) - 0.5)
    order = sos_order(make_grid(dims, values))
    assert np.array_equal(order.vertex_at, lexsort_order(values))


def test_neighbors_2d_interior_has_six():
    grid = random_grid((5, 5, 1), 0)
    center = grid.vid(2, 2)
    assert len(neighbors(grid, center)) == 6


def test_neighbors_2d_corner():
    grid = random_grid((3, 3, 1), 0)
    got = sorted(neighbors(grid, grid.vid(0, 0)))
    expected = sorted([grid.vid(1, 0), grid.vid(0, 1), grid.vid(1, 1)])
    assert got == expected


def test_neighbors_3d_interior_has_fourteen():
    grid = random_grid((4, 4, 4), 0)
    center = grid.vid(1, 1, 1)
    nbrs = neighbors(grid, center)
    assert len(nbrs) == 14
    for u in nbrs:
        assert center in neighbors(grid, u)


def test_neighbors_out_of_range():
    grid = random_grid((2, 2, 1), 0)
    with pytest.raises(UsageError):
        neighbors(grid, 99)


@pytest.mark.parametrize("dims", [(4, 1, 1), (3, 3, 1), (2, 3, 4), (8, 8, 8)])
def test_neighbor_symmetry_exhaustive(dims):
    grid = random_grid(dims, 3)
    for v in range(grid.n):
        for u in neighbors(grid, v):
            assert v in neighbors(grid, u)


def test_edges_match_neighbors():
    grid = random_grid((4, 3, 2), 5)
    from_edges = set()
    for u, v in grid.edges():
        from_edges.add((u, v))
        from_edges.add((v, u))
    from_nbrs = {(v, u) for v in range(grid.n) for u in neighbors(grid, v)}
    assert from_edges == from_nbrs


@given(
    dims=st.tuples(
        st.integers(1, 5), st.integers(1, 5), st.integers(1, 3)
    ).filter(lambda d: d[0] * d[1] * d[2] > 1),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_sos_is_permutation(dims, seed):
    grid = random_grid(dims, seed)
    order = sos_order(grid)
    n = grid.n
    assert sorted(order.rank_of.tolist()) == list(range(n))
    assert all(order.rank_of[order.vertex_at[r]] == r for r in range(n))
    # Strict total order: all pairs comparable exactly one way.
    assert len(set(order.rank_of.tolist())) == n
