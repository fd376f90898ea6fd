import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gridtopo import contour_tree, select_top_branches, sos_order
from gridtopo.dist import (
    CommLog,
    Records,
    decompose,
    fan_in,
    list_attachment_points,
    local_phase,
    pipeline,
    run_distributed,
    run_lambda_sweep,
)
from gridtopo.errors import DataError, InternalError, UsageError
from gridtopo.grid import synthetic_gaussians, synthetic_random

from conftest import (
    at_node,
    branch_keys,
    counts,
    grid_1d,
    inward_count,
    make_grid,
    outward,
    parent_map,
    random_grid,
    record_list,
    serial_pipeline,
    superparent,
)


def two_block_1d():
    grid = grid_1d([0, 5, 2, 6, 1])
    order = sos_order(grid)
    decomp = decompose(grid, (2, 1, 1))
    return grid, order, decomp


# --- decomposition ---------------------------------------------------------


def test_decompose_1d_overlap():
    grid, _, decomp = two_block_1d()
    assert [(e.origin, e.shape) for e in decomp.extents] == [
        ((0, 0, 0), (3, 1, 1)),
        ((2, 0, 0), (3, 1, 1)),
    ]
    assert decomp.owner_of(2) == 0  # shared vertex owned by the lower id


def test_decompose_8x8_quadrants():
    grid = random_grid((8, 8, 1), 0)
    decomp = decompose(grid, (2, 2, 1))
    assert decomp.num_blocks == 4
    covered = set()
    for e in decomp.extents:
        covered.update(e.vids(grid.dims))
    assert covered == set(range(64))


def test_decompose_coverage_9x9x9():
    grid = random_grid((9, 9, 9), 1)
    decomp = decompose(grid, (3, 3, 3))
    count = {}
    for e in decomp.extents:
        for v in e.vids(grid.dims):
            count[v] = count.get(v, 0) + 1
    assert set(count) == set(range(grid.n))
    nx = 9
    cuts = {(i * 8) // 3 for i in range(1, 3)}
    for v, c in count.items():
        x, y, z = v % nx, (v // nx) % nx, v // (nx * nx)
        on_planes = sum(1 for coord in (x, y, z) if coord in cuts)
        assert c == 2**on_planes
    owners = {decomp.owner_of(v) for v in range(grid.n)}
    assert owners == set(range(27))
    every = np.arange(grid.n)
    assert decomp.owner_of(every).tolist() == [decomp.owner_of(v) for v in range(grid.n)]


@pytest.mark.parametrize(
    "dims,cuts",
    [
        ((10, 7, 5), ((0, 3, 6, 9), (0, 3, 6), (0, 2, 4))),
        ((11, 8, 6), ((0, 3, 6, 10), (0, 3, 7), (0, 2, 5))),
    ],
)
def test_owner_of_split_3_2_2(dims, cuts):
    """One array call, the per-id calls and the lowest box holding each id agree."""
    grid = random_grid(dims, 0)
    decomp = decompose(grid, (3, 2, 2))
    assert decomp.cuts == cuts
    lowest = {}
    for r, e in enumerate(decomp.extents):
        for v in e.vids(grid.dims).tolist():
            lowest.setdefault(v, r)
    want = [lowest[v] for v in range(grid.n)]
    assert [decomp.owner_of(v) for v in range(grid.n)] == want
    assert decomp.owner_of(np.arange(grid.n)).tolist() == want


def test_decompose_infeasible():
    grid = random_grid((4, 4, 1), 0)
    with pytest.raises(UsageError):
        decompose(grid, (4, 1, 1))


# --- local phase -----------------------------------------------------------


def test_local_phase_1d_blocks():
    grid, _, decomp = two_block_1d()
    left = local_phase(grid, decomp.extents[0], 0)
    assert sorted(map(tuple, left.kept_verts[left.kept_edges].tolist())) == [(0, 1), (2, 1)]
    assert np.flatnonzero(decomp.extents[0].boundary(grid.dims, [0, 1, 2])).tolist() == [0, 2]
    assert record_list(left.records) == []
    right = local_phase(grid, decomp.extents[1], 1)
    assert sorted(map(tuple, right.kept_verts[right.kept_edges].tolist())) == [(2, 3), (4, 3)]
    assert record_list(right.records) == []


def test_local_phase_interior_extremum():
    # A single 5x5 block with a peak at the center: the peak subtree is
    # interior and must land in the forest.
    values = np.zeros(25)
    values[12] = 9.0  # center (2,2)
    values[:] += np.arange(25) * 1e-3
    grid = make_grid((5, 5, 1), values)
    decomp = decompose(grid, (1, 1, 1))
    state = local_phase(grid, decomp.extents[0], 0)
    assert len(state.records) == 1
    rec = record_list(state.records)[0]
    assert rec.verts == [12]
    assert len(rec.verts) == 1


def test_local_phase_monotone_slope_empty_forest():
    grid = make_grid((4, 4, 1), np.arange(16))
    decomp = decompose(grid, (1, 1, 1))
    state = local_phase(grid, decomp.extents[0], 0)
    assert record_list(state.records) == []


@pytest.mark.parametrize("seed", range(5))
def test_local_phase_partition_invariant(seed):
    grid = random_grid((8, 6, 1), seed)
    decomp = decompose(grid, (2, 1, 1))
    for r in range(decomp.num_blocks):
        state = local_phase(grid, decomp.extents[r], r)
        total = len(state.kept_verts) + sum(len(x.verts) for x in record_list(state.records))
        assert total == state.num_vertices


# --- fan-in ----------------------------------------------------------------


PARTITION_CASES = [
    (dims, splits)
    for dims in [(25, 1, 1), (13, 11, 1), (9, 8, 7)]
    for splits in [(1, 1, 1), (4, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 1), (3, 2, 2)]
    if all(s == 1 or d > 1 for d, s in zip(dims, splits))
]


@pytest.mark.parametrize("synthesize", [synthetic_random, synthetic_gaussians])
@pytest.mark.parametrize("dims,splits", PARTITION_CASES, ids=str)
def test_fan_in_partitions_the_grid(dims, splits, synthesize):
    """The base tree's ids and the records' vertices list every grid id exactly once.

    ``_augment``'s union relies on it, and so does ``_volumes``' rule that
    a record not attached to the tree is already in another record's measure.
    """
    grid = synthesize(dims, 5)
    decomp = decompose(grid, splits)
    states = [local_phase(grid, e, r) for r, e in enumerate(decomp.extents)]
    base, _, records = fan_in(states, decomp, CommLog(decomp.num_blocks))
    listed = np.bincount(np.r_[base.ids, records.verts], minlength=grid.n)
    assert listed.size == grid.n and (listed == 1).all()


def test_fan_in_two_blocks_equals_serial():
    grid, order, decomp = two_block_1d()
    states = [local_phase(grid, decomp.extents[r], r) for r in range(2)]
    base, values, records = fan_in(states, decomp, CommLog(decomp.num_blocks))
    serial = contour_tree(grid, order)
    assert values.tolist() == grid.values[base.ids].tolist()
    assert base.arc_inner == serial.arc_inner
    assert record_list(records) == []


def test_fan_in_single_block_identity():
    grid = grid_1d([0, 5, 2, 6, 1])
    decomp = decompose(grid, (1, 1, 1))
    state = local_phase(grid, decomp.extents[0], 0)
    base, _, records = fan_in([state], decomp, CommLog(1))
    assert set(base.ids.tolist()) == set(state.kept_verts.tolist())
    assert record_list(records) == record_list(state.records)


@pytest.mark.parametrize("seed", range(4))
def test_fan_in_census_matches_serial_after_full_augment(seed):
    grid = random_grid((8, 8, 1), seed)
    order = sos_order(grid)
    result = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    serial = contour_tree(grid, order)
    for gap in range(0, grid.n - 1, 5):
        assert result.augmented_tree.straddling_arcs(gap) == serial.straddling_arcs(gap)


def corrupt_value(state, vid, value):
    (at,) = np.flatnonzero(state.kept_verts == vid)
    state.values[at] = value


def test_fan_in_detects_inconsistent_shared_values():
    grid, _, decomp = two_block_1d()
    states = [local_phase(grid, decomp.extents[r], r) for r in range(2)]
    corrupt_value(states[1], 2, 99.0)  # corrupt the shared-plane copy
    with pytest.raises(DataError) as err:
        fan_in(states, decomp, CommLog(decomp.num_blocks))
    assert str(err.value) == (
        "shared vertex 2 has value 2.0 in block region 0 but 99.0 in block region 1"
    )


def test_fan_in_detects_inconsistent_shared_values_after_first_level():
    # 6x6 cut at x = 2 and y = 2: vertex 15 = (3, 2) lies on the y cut
    # only, so blocks 1 and 3 hold it and the x-level merges never compare
    # it.  Both merged regions keep it as a boundary vertex of their box,
    # and it is not the least vertex they share.
    values = np.arange(36, dtype=np.float64) / 4
    grid = make_grid((6, 6, 1), values)
    decomp = decompose(grid, (2, 2, 1))
    states = [local_phase(grid, decomp.extents[r], r) for r in range(4)]
    corrupt_value(states[3], 15, 99.0)
    with pytest.raises(DataError) as err:
        fan_in(states, decomp, CommLog(decomp.num_blocks))
    assert str(err.value) == (
        "shared vertex 15 has value 3.75 in block region 0 but 99.0 in block region 2"
    )


def test_fan_in_names_the_lowest_clashing_vertex():
    # 6x6 cut at x = 2: blocks 0 and 1 share ids 2, 8, 14, 20, 26 and 32.
    # With two of block 1's copies corrupt, the error names the lower id,
    # with block 0's value first.
    values = np.arange(36, dtype=np.float64) / 4
    grid = make_grid((6, 6, 1), values)
    decomp = decompose(grid, (2, 1, 1))
    states = [local_phase(grid, decomp.extents[r], r) for r in range(2)]
    corrupt_value(states[1], 26, 98.0)
    corrupt_value(states[1], 8, 99.0)
    with pytest.raises(DataError) as err:
        fan_in(states, decomp, CommLog(decomp.num_blocks))
    assert str(err.value) == (
        "shared vertex 8 has value 2.0 in block region 0 but 99.0 in block region 1"
    )


def test_finish_builds_one_grid_index_per_tree(monkeypatch):
    """The finish indexes the grid's ids for the base tree and each lambda that retains a record.

    Each augmented tree's ids are the base ids and the retained records'
    vertices in ascending order, each at its position in that index.  A
    lambda that retains nothing keeps the base tree and its index.
    """
    built = []
    real = pipeline._index

    def recording(ids, n):
        index = real(ids, n)
        built.append((index, ids))
        return index

    monkeypatch.setattr(pipeline, "_index", recording)
    grid = random_grid((10, 8, 6), 3)
    lams = [0, 3, 10**6]
    results = list(run_lambda_sweep(grid, (2, 2, 2), lams, b=10))
    assert [index.size for index, _ in built] == [grid.n] * (1 + 2)
    for index, ids in built:
        assert np.array_equal(index[ids], np.arange(ids.size))
        assert np.count_nonzero(index >= 0) == ids.size
    assert not results[-1].retained and results[-1].augmented_tree is results[-1].base_tree
    for (_, ids), result in zip(built[1:] + built[:1], results):
        got = result.augmented_tree.ids
        assert (np.diff(got) > 0).all() and np.array_equal(got, ids)
        assert np.array_equal(got, np.union1d(result.base_tree.ids, result.retained.verts))


def test_augment_rejects_a_record_parent_outside_its_tree():
    """A retained record whose parent is neither a base nor a retained vertex is malformed."""
    grid = random_grid((10, 8, 6), 3)
    result = run_distributed(grid, (2, 2, 2), lam=3, b=10)
    base, retained = result.base_tree, result.retained
    outside = np.setdiff1d(np.arange(grid.n), np.union1d(base.ids, retained.verts))
    assert len(retained) and outside.size
    parent = retained.parent.copy()
    parent[0] = outside[0]
    bad = replace(retained, parent=parent)
    with pytest.raises(InternalError, match="outside the vertex set"):
        pipeline._augment(base, grid.values[base.ids], bad, grid.n)


# --- fan-out ---------------------------------------------------------------


@pytest.mark.parametrize("splits", [(2, 2, 1), (4, 2, 1), (1, 1, 1)])
def test_fan_out_counts_base_tree_on_other_ranks(splits):
    """Every rank but 0 receives the base tree; one block sends no fan-out message."""
    grid = random_grid((10, 8, 1), 3)
    result = run_distributed(grid, splits, lam=0, b=10)
    phases = result.commlog.counts
    k = math.prod(splits)
    if k == 1:
        assert "fan-out" not in phases
    else:
        assert phases["fan-out"] == {"tree_verts_recv": [0] + [result.base_tree.n] * (k - 1)}


def test_fan_out_single_block_hier_equals_serial_after_augment():
    grid = random_grid((7, 7, 1), 5)
    order = sos_order(grid)
    result = run_distributed(grid, (1, 1, 1), lam=0, b=100)
    serial = contour_tree(grid, order)
    assert result.augmented_tree.arc_inner == serial.arc_inner
    assert superparent(result.augmented_tree) == superparent(serial)


def test_ownership_partitions_vertices():
    grid = random_grid((9, 9, 3), 1)
    decomp = decompose(grid, (2, 2, 1))
    totals = {r: 0 for r in range(4)}
    for v in range(grid.n):
        totals[decomp.owner_of(v)] += 1
    assert sum(totals.values()) == grid.n


# --- hypersweeps -----------------------------------------------------------


def test_pre_hypersweep_two_block_1d():
    grid, _, _ = two_block_1d()
    result = run_distributed(grid, (2, 1, 1), lam=0, b=100)
    assert counts(result.pre_volumes) == {0: 1, 1: 1, 2: 1, 4: 1}
    assert sum(counts(result.pre_volumes).values()) + 1 == 5


def test_pre_hypersweep_single_block_monotone_equals_serial():
    grid = make_grid((6, 4, 1), np.arange(24))
    _, ct, ann, _ = serial_pipeline(grid)
    result = run_distributed(grid, (1, 1, 1), lam=0, b=100)
    assert counts(result.pre_volumes) == counts(ann)
    assert outward(result.pre_volumes) == outward(ann)


def _vertex_level_cut_count(ct, cut_a, cut_b, side):
    """Vertices on ``side``'s component after cutting edge (cut_a, cut_b)."""
    adj = {v: [] for v in ct.ids.tolist()}
    for v, p in parent_map(ct).items():
        adj[v].append(p)
        adj[p].append(v)
    seen = {side}
    stack = [side]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if {v, w} == {cut_a, cut_b}:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _serial_cut_oracle(serial_ct, outer, inner):
    """Outer-side vertex count for a base superarc, from the serial tree."""
    # Path from outer to inner in the serial vertex-level tree.
    parents = parent_map(serial_ct)
    up_o = [outer]
    seen = {outer}
    v = outer
    while v in parents:
        v = parents[v]
        up_o.append(v)
        seen.add(v)
    if inner in seen:
        path = up_o[: up_o.index(inner) + 1]
    else:
        up_i = [inner]
        v = inner
        while v not in seen:
            v = parents[v]
            up_i.append(v)
        meet = v
        path = up_o[: up_o.index(meet) + 1] + list(reversed(up_i[:-1]))
    last, prev = path[-1], path[-2]
    return _vertex_level_cut_count(serial_ct, prev, last, outer)


@pytest.mark.parametrize("dims,splits", [((12, 12, 8), (2, 2, 2)), ((12, 10, 1), (4, 2, 1))])
def test_pre_hypersweep_volumes_match_serial_cuts(dims, splits):
    grid = random_grid(dims, 7)
    order = sos_order(grid)
    serial = contour_tree(grid, order)
    result = run_distributed(grid, splits, lam=0, b=100)
    base = result.base_tree
    volume = outward(result.pre_volumes)
    for outer, inner in base.arc_inner.items():
        expected = _serial_cut_oracle(serial, outer, inner)
        assert volume[outer] == expected, (outer, inner)


def test_post_hypersweep_conservation_all_lambdas():
    grid = random_grid((10, 10, 2), 11)
    for lam in (0, 1, 3, 10, 10**5):
        result = run_distributed(grid, (2, 2, 1), lam=lam, b=100)
        ann = result.post_volumes
        count, hang, volume = counts(ann), at_node(ann), outward(ann)
        assert sum(count.values()) + 1 == grid.n
        # Mass hanging at a supernode is part of its count, never extra.
        for s, m in hang.items():
            assert count[s] >= m
        for outer in result.augmented_tree.arc_inner:
            assert inward_count(result.augmented_tree, ann, outer) == grid.n - volume[outer]


def test_retained_record_measures_match_serial_subtrees():
    grid = random_grid((10, 10, 4), 5)
    order = sos_order(grid)
    serial = contour_tree(grid, order)
    result = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    for rec in record_list(result.records):
        # The hanging component in the serial vertex-level tree has
        # exactly the record's measure, rooted just past the attachment.
        top = next(v for v in rec.verts if {v, rec.attach} in
                   [{a, b} for a, b in rec.edges])
        got = _vertex_level_cut_count(serial, rec.attach, top, top)
        assert got == rec.measure


# --- the record table --------------------------------------------------------


@pytest.mark.parametrize("pick", ["none", "all", "even", "odd"])
def test_records_take_and_concat_match_per_record_slices(pick):
    grid = random_grid((10, 10, 4), 5)
    records = run_distributed(grid, (2, 2, 1), lam=0, b=10).records
    k = len(records)
    mask = {
        "none": np.zeros(k, dtype=bool),
        "all": np.ones(k, dtype=bool),
        "even": np.arange(k) % 2 == 0,
        "odd": np.arange(k) % 2 == 1,
    }[pick]
    listed = record_list(records)
    taken, rest = records.take(mask), records.take(~mask)
    joined = Records.concat([taken, rest])
    rank_of = sos_order(grid).rank_of
    for table in (taken, rest, joined):
        assert table.start[0] == 0 and table.start[-1] == table.verts.size == table.parent.size
        for name in ("attach", "head", "measure", "rank", "start", "verts", "parent"):
            assert getattr(table, name).dtype == np.int64
        # Each vertex keeps its value, and each record whether its head ranks above its attachment.
        assert table.values.dtype == np.float64 and table.rises.dtype == bool
        assert np.array_equal(table.values, grid.values[table.verts])
        assert np.array_equal(table.rises, rank_of[table.head] > rank_of[table.attach])
    assert len(taken) == int(mask.sum())
    assert record_list(taken) == [rec for rec, m in zip(listed, mask) if m]
    assert record_list(joined) == record_list(taken) + record_list(rest)
    assert len(joined) == k and joined.start[-1] == records.verts.size
    assert np.unique(records.verts).size == records.verts.size  # one record per vertex


# --- attachment listing and augmentation -----------------------------------


def test_listing_lambda_zero_lists_all():
    grid = random_grid((10, 10, 1), 2)
    result = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    assert len(result.retained) == len(result.records)
    listed = list_attachment_points(result.records, 0)
    assert len(listed) == len(result.records)


def test_listing_above_max_is_empty():
    grid = random_grid((10, 10, 1), 2)
    result = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    top = max((r.measure for r in record_list(result.records)), default=0)
    assert record_list(list_attachment_points(result.records, top)) == []


def test_listing_matches_filter_oracle():
    grid = random_grid((12, 12, 1), 9)
    result = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    listed = list_attachment_points(result.records, 5)
    assert record_list(listed) == [r for r in record_list(result.records) if r.measure > 5]


def test_listing_negative_lambda_rejected():
    with pytest.raises(UsageError):
        list_attachment_points([], -1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("splits", [(2, 1, 1), (2, 2, 1)])
def test_augment_lambda_zero_equals_serial(seed, splits):
    grid = random_grid((9, 8, 1), seed)
    order = sos_order(grid)
    serial = contour_tree(grid, order)
    result = run_distributed(grid, splits, lam=0, b=100)
    assert result.augmented_tree.arc_inner == serial.arc_inner
    assert sorted(result.augmented_tree.supernodes) == sorted(serial.supernodes)


def test_augment_above_max_no_exchange():
    grid = random_grid((10, 10, 1), 4)
    probe = run_distributed(grid, (2, 2, 1), lam=0, b=100)
    top = max((r.measure for r in record_list(probe.records)), default=0)
    result = run_distributed(grid, (2, 2, 1), lam=top, b=100)
    assert record_list(result.retained) == []
    assert result.augmented_tree.arc_inner == result.base_tree.arc_inner
    recv = result.commlog.counts["augmentation"]["attachment_points_recv"]
    assert all(c == 0 for c in recv)


@pytest.mark.parametrize("seed", range(20))
def test_attachment_exchange_monotone_in_lambda(seed):
    grid = random_grid((10, 8, 1), 100 + seed)
    previous = None
    for lam in (0, 1, 2, 5, 20):
        result = run_distributed(grid, (2, 2, 1), lam=lam, b=100)
        recv = result.commlog.counts["augmentation"]["attachment_points_recv"]
        if previous is not None:
            assert all(a >= b for a, b in zip(previous, recv))
        previous = recv


# --- distributed branch decomposition and selection -------------------------


def test_single_block_bd_matches_serial_field_for_field():
    grid = random_grid((9, 9, 1), 8)
    _, ct, ann, bd = serial_pipeline(grid)
    result = run_distributed(grid, (1, 1, 1), lam=0, b=100)
    got = [(b.key(), b.leaf, b.arcs, b.is_trunk) for b in result.bd.branches]
    want = [(b.key(), b.leaf, b.arcs, b.is_trunk) for b in bd.branches]
    assert sorted(got, key=repr) == sorted(want, key=repr)


@pytest.mark.parametrize("seed", range(20))
def test_bd_above_lambda_matches_serial(seed):
    grid = random_grid((10, 10, 1), 200 + seed)
    _, _, _, bd = serial_pipeline(grid)
    for lam in (0, 1, 2):
        result = run_distributed(grid, (2, 2, 1), lam=lam, b=100)
        serial_keys = sorted(
            (b.key() for b in bd.branches if b.volume > lam), key=repr
        )
        dist_keys = sorted(
            (b.key() for b in result.bd.branches if b.volume > lam), key=repr
        )
        assert serial_keys == dist_keys


def test_selection_warns_when_lambda_too_large():
    grid = random_grid((8, 8, 1), 3)
    result = run_distributed(grid, (2, 2, 1), lam=10**6, b=5)
    assert [b.is_trunk for b in result.selected] == [True]
    assert not result.lambda_valid
    assert result.warnings


def test_selection_equals_serial_below_lambda_b():
    grid = random_grid((12, 12, 1), 17)
    _, ct, _, bd = serial_pipeline(grid)
    sel, lam_b = select_top_branches(bd, ct.ranks, b=5)
    for lam in range(min(lam_b, 6)):
        result = run_distributed(grid, (2, 2, 1), lam=lam, b=5)
        assert sorted((b.key() for b in result.selected), key=repr) == sorted(
            (b.key() for b in sel), key=repr
        )


def test_select_top_branches_distributed_b_zero():
    from gridtopo.dist import pipeline

    grid = random_grid((6, 6, 1), 0)
    result = run_distributed(grid, (2, 1, 1), lam=0, b=100)
    heavy = pipeline._heavy_branches(result.bd, 0)
    with pytest.raises(UsageError):
        select_top_branches(result.bd, result.augmented_tree.ranks, b=0, among=heavy)


@pytest.mark.parametrize(
    "b,threshold",
    [(None, None), (0, None), (-1, 5.0), (None, float("nan")), (None, float("inf")), (None, -1.0)],
)
def test_run_distributed_checks_selection_before_local_phase(b, threshold, monkeypatch):
    from gridtopo.dist import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "local_phase", lambda *args: calls.append(args))
    grid = random_grid((6, 6, 1), 0)
    with pytest.raises(UsageError):
        run_distributed(grid, (2, 1, 1), lam=0, b=b, threshold=threshold)
    assert calls == []


def assert_same_run(got, want):
    """Every output of two distributed results agrees, arrays by value."""
    assert got.commlog.to_dict() == want.commlog.to_dict()
    assert got.selected == want.selected
    assert (got.lambda_b, got.lambda_valid, got.warnings) == (
        want.lambda_b, want.lambda_valid, want.warnings
    )
    assert len(got.retained) == len(want.retained)
    for name in ("volume", "leaf", "saddle", "parent", "start", "arcs"):
        assert np.array_equal(getattr(got.bd, name), getattr(want.bd, name)), name
    for name in ("ids", "count", "hang", "out_volume", "closed_volume"):
        assert np.array_equal(getattr(got.post_volumes, name), getattr(want.post_volumes, name))


SWEEP_LAMS = [0, 1, 3, 10, 40, 10**6]


@pytest.mark.parametrize("shuffled", [False, True], ids=["ascending", "shuffled"])
@pytest.mark.parametrize(
    "b,threshold", [(5, None), (None, 5.0)], ids=["by-b", "by-threshold"]
)
@pytest.mark.parametrize("splits", [(1, 1, 1), (2, 2, 1), (4, 2, 1)])
def test_lambda_sweep_equals_fresh_runs(splits, b, threshold, shuffled):
    """One fan-in, finished per lambda, gives each lambda's own run."""
    grid = random_grid((12, 10, 3), 7)
    lams = [10, 0, 10**6, 3, 40, 1] if shuffled else SWEEP_LAMS
    results = list(run_lambda_sweep(grid, splits, lams, b=b, threshold=threshold))
    assert len(results) == len(lams)
    for lam, got in zip(lams, results):
        want = run_distributed(grid, splits, lam=lam, b=b, threshold=threshold)
        assert_same_run(got, want)
    assert not results[lams.index(10**6)].lambda_valid
    assert len({len(r.retained) for r in results}) > 2


def test_lambda_sweep_later_lambda_leaves_earlier_log():
    grid = random_grid((10, 10, 3), 11)
    sweep = run_lambda_sweep(grid, (2, 2, 1), [0, 5, 100], b=10)
    first = next(sweep)
    before = first.commlog.to_dict()
    rest = list(sweep)
    assert first.commlog.to_dict() == before
    assert all(r.commlog.to_dict() != before for r in rest)


@pytest.mark.parametrize(
    "lams,mode", [([0, 10, 3, -1], "sequential"), ([0], "parallel")], ids=["late-lambda", "mode"]
)
def test_lambda_sweep_checks_arguments_before_local_phase(lams, mode, monkeypatch):
    from gridtopo.dist import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "local_phase", lambda *args: calls.append(args))
    grid = random_grid((6, 6, 1), 0)
    with pytest.raises(UsageError):
        next(run_lambda_sweep(grid, (2, 1, 1), lams, b=5, mode=mode))
    assert calls == []


def ref_branch_entries(aug, ranks, retained, pruned, decomp, log):
    """Branch-entry counters by per-vertex dicts over ``record_list`` tuples.

    ``ranks`` is the grid's ``rank_of``: a pruned head is not in ``aug``.
    """
    holder = {}
    for rec in retained:
        holder.update(dict.fromkeys(rec.verts, rec.rank))
    up, down = (dict(zip(aug.supernodes, d.tolist())) for d in aug.arc_degrees())
    in_aug = set(aug.ids.tolist())
    for rec in pruned:
        a = rec.attach
        if a not in in_aug:
            continue
        head = rec.edges[0][0]
        up.setdefault(a, 1)  # a regular vertex has one arc each way
        down.setdefault(a, 1)
        if ranks[head] > ranks[a]:
            up[a] += 1
        else:
            down[a] += 1
    critical = [0] * decomp.num_blocks
    extrema = [0] * decomp.num_blocks
    for v, u in up.items():
        d = down[v]
        h = holder[v] if v in holder else decomp.owner_of(v)
        critical[h] += (u, d) != (1, 1)
        extrema[h] += u + d <= 1
    total_critical, total_extrema = sum(critical), sum(extrema)
    for r in range(decomp.num_blocks):
        log.add("branch decomposition", "bestupdown_recv", r, 2 * (total_critical - critical[r]))
        log.add("branch decomposition", "branchinfo_recv", r, total_extrema - extrema[r])


BRANCH_ENTRY_RUNS = {
    "1d": (random_grid((31, 1, 1), 2), (3, 1, 1)),
    "2d-421": (random_grid((12, 10, 1), 7), (4, 2, 1)),
    "3d-421": (random_grid((16, 12, 4), 3), (4, 2, 1)),
    "3d-333": (random_grid((9, 9, 9), 1), (3, 3, 3)),
    "constant": (make_grid((6, 6, 6), np.zeros(216)), (2, 2, 2)),
    "tied": (make_grid((8, 6, 4), np.random.default_rng(6).integers(0, 3, 192)), (2, 2, 2)),
}


@pytest.mark.parametrize("lam", [0, 1, 10, 100])
@pytest.mark.parametrize("name", list(BRANCH_ENTRY_RUNS))
def test_branch_entries_match_reference(name, lam):
    grid, splits = BRANCH_ENTRY_RUNS[name]
    result = run_distributed(grid, splits, lam=lam, b=10)
    records = result.records
    pruned = records.take(records.measure <= lam)
    log = CommLog(math.prod(splits))
    ref_branch_entries(
        result.augmented_tree, sos_order(grid).rank_of, record_list(result.retained),
        record_list(pruned),
        decompose(grid, splits), log,
    )
    want = log.counts["branch decomposition"]
    got = result.commlog.counts["branch decomposition"]
    assert list(got) == ["bestupdown_recv", "branchinfo_recv"]
    assert got == want
    assert all(type(c) is int for counts in got.values() for c in counts)


def test_branch_entry_runs_cover_every_attachment_kind():
    """The reference runs prune records attached at supernodes, at regular
    vertices and inside other records, next to retained records."""
    seen = {"supernode": 0, "regular": 0, "nested": 0, "mixed": 0}
    for grid, splits in BRANCH_ENTRY_RUNS.values():
        for lam in (1, 10):
            result = run_distributed(grid, splits, lam=lam, b=10)
            aug = result.augmented_tree
            verts, supernodes = set(aug.ids.tolist()), set(aug.supernodes)
            for rec in record_list(result.records):
                if rec.measure <= lam:
                    kind = "nested" if rec.attach not in verts else (
                        "supernode" if rec.attach in supernodes else "regular")
                    seen[kind] += 1
            seen["mixed"] += 0 < len(result.retained) < len(result.records)
    assert min(seen.values()) > 0, seen


# --- comm log, transport, determinism ---------------------------------------


def test_commlog_json_stable_and_bounded():
    grid = random_grid((10, 10, 1), 6)
    result = run_distributed(grid, (2, 2, 1), lam=1, b=100)
    doc = result.commlog.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    for phase, entry in doc["phases"].items():
        for counter, per_rank in entry["per_rank"].items():
            assert all(c >= 0 for c in per_rank)
            assert entry["max"][counter] == max(per_rank)


def test_bestupdown_and_branchinfo_monotone():
    grid = random_grid((12, 12, 1), 21)
    prev_b = prev_i = None
    for lam in (0, 2, 5, 50):
        result = run_distributed(grid, (2, 2, 1), lam=lam, b=100)
        log = result.commlog
        bu = log.phase_max("branch decomposition", "bestupdown_recv")
        bi = log.phase_max("branch decomposition", "branchinfo_recv")
        if prev_b is not None:
            assert bu <= prev_b
            assert bi <= prev_i
        prev_b, prev_i = bu, bi


def test_concurrent_equals_sequential():
    grid = random_grid((10, 10, 2), 31)
    a = run_distributed(grid, (2, 2, 1), lam=2, b=5, mode="sequential")
    b = run_distributed(grid, (2, 2, 1), lam=2, b=5, mode="concurrent")
    assert a.augmented_tree.arc_inner == b.augmented_tree.arc_inner
    assert outward(a.post_volumes) == outward(b.post_volumes)
    assert branch_keys(a.bd) == branch_keys(b.bd)
    assert json.dumps(a.commlog.to_dict(), sort_keys=True) == json.dumps(
        b.commlog.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize(
    "grid,splits",
    [
        (random_grid((8, 6, 1), 3), (2, 1, 1)),
        (random_grid((12, 10, 1), 7), (4, 2, 1)),
        (random_grid((10, 10, 4), 5), (2, 2, 1)),
        (random_grid((9, 9, 9), 1), (3, 3, 3)),
    ],
    ids=["2d", "2d-8-blocks", "3d", "3d-27-blocks"],
)
def test_record_edges_point_toward_attachment(grid, splits):
    """Each record vertex is a child exactly once, its parent in the record or the attachment."""
    result = run_distributed(grid, splits, lam=0, b=10)
    assert result.records
    for rec in record_list(result.records):
        children = [c for c, _ in rec.edges]
        assert sorted(children) == rec.verts
        allowed = set(rec.verts) | {rec.attach}
        assert all(p in allowed for _, p in rec.edges)
        assert rec.edges[0][1] == rec.attach


@pytest.mark.parametrize("by_threshold", [False, True])
def test_heavy_branches_at_lambda_equal_to_a_branch_volume(by_threshold):
    """The mask keeps the trunk and volumes strictly above lambda, in ``bd``'s rows."""
    from gridtopo.dist import pipeline

    grid = random_grid((12, 10, 6), 2)
    order = sos_order(grid)
    bd = run_distributed(grid, (2, 2, 1), lam=0, b=5).bd
    ranks = order.rank_of
    volumes = sorted({b.volume for b in bd.branches if not b.is_trunk})
    lam = volumes[len(volumes) // 2]
    heavy = pipeline._heavy_branches(bd, lam)
    assert heavy.dtype == bool and heavy.shape == (len(bd.branches),)
    old = [b for b in bd.branches if b.is_trunk or b.volume > lam]
    assert [bd.branches[r] for r in np.flatnonzero(heavy)] == old
    assert any(b.volume == lam for b in bd.branches) and 1 < len(old) < len(bd.branches)
    ordered = sorted(old, key=lambda b: (-b.volume, -1 if b.saddle is None else ranks[b.saddle]))
    threshold = float(volumes[3 * len(volumes) // 4]) if by_threshold else None
    b = None if by_threshold else len(bd.branches)
    selected, lam_b = select_top_branches(bd, ranks, b=b, threshold=threshold, among=heavy)
    assert selected == [x for x in ordered if not by_threshold or x.volume > threshold]
    assert len(selected) < len(old) if by_threshold else len(selected) == len(old)
    assert lam_b == selected[-1].volume > lam
    for br in selected:
        if not br.is_trunk:
            parent = bd.branches[br.parent_index]
            assert br.parent_saddle == (None if parent.is_trunk else parent.saddle)
