import pytest

from gridtopo import (
    contour_tree,
    select_top_branches,
    sos_order,
    superarc_counts,
)
from gridtopo.errors import UsageError
from gridtopo.measure import Branch
from gridtopo.oracle import brute_subtree_volume

from conftest import (
    at_node,
    children_index,
    closed,
    counts,
    grid_1d,
    inward_count,
    local_extrema,
    outward,
    random_grid,
    serial_pipeline,
    sorted_branches,
    trunk,
)


def test_counts_monotone_grid():
    grid = grid_1d([1, 2, 3, 4])
    ct = contour_tree(grid, sos_order(grid))
    ann = superarc_counts(ct)
    assert counts(ann) == {0: 3}  # vertices 0,1,2; root 3 uncounted


def test_counts_zigzag_each_arc_one():
    grid = grid_1d([0, 5, 2, 6, 1])
    ct = contour_tree(grid, sos_order(grid))
    ann = superarc_counts(ct)
    assert counts(ann) == {0: 1, 1: 1, 2: 1, 4: 1}
    assert sum(counts(ann).values()) + 1 == 5


@pytest.mark.parametrize("seed", range(4))
def test_counts_conservation(seed):
    grid = random_grid((8, 8, 4), seed)
    ct = contour_tree(grid, sos_order(grid))
    ann = superarc_counts(ct)
    assert sum(counts(ann).values()) + 1 == 256


def test_hypersweep_leaf_arc_is_own_count():
    grid = grid_1d([0, 5, 2, 6, 1])
    _, ct, ann, _ = serial_pipeline(grid)
    kids = children_index(ct)
    for outer in ct.arc_inner:
        if not kids[outer]:  # leaf arc
            assert outward(ann)[outer] == counts(ann)[outer]


@pytest.mark.parametrize("seed", range(4))
def test_hypersweep_complement_identity(seed):
    grid = random_grid((6, 5, 1), seed)
    _, ct, ann, _ = serial_pipeline(grid)
    for outer in ct.arc_inner:
        assert inward_count(ct, ann, outer) == grid.n - outward(ann)[outer]


@pytest.mark.parametrize("seed", range(8))
def test_hypersweep_matches_cut_and_flood(seed):
    grid = random_grid((7, 7, 1), seed)
    _, ct, ann, _ = serial_pipeline(grid)
    volume = outward(ann)
    for outer in ct.arc_inner:
        assert volume[outer] == brute_subtree_volume(ct, outer)


def test_branches_monotone_grid_single_trunk():
    grid = grid_1d([1, 2, 3, 4, 5])
    _, ct, ann, bd = serial_pipeline(grid)
    assert len(bd.branches) == 1
    assert bd.branches[0].is_trunk
    assert bd.branches[0].volume == 5


def test_branches_zigzag_frozen():
    """Best-arc rule worked by hand on [0,5,2,6,1]:

    trunk owns arc 2 (the 2-3 span wins the tie at vertex 2 by rank),
    the leaf arcs attach at saddles 1, 2, and 3.
    """
    grid = grid_1d([0, 5, 2, 6, 1])
    _, ct, ann, bd = serial_pipeline(grid)
    keys = sorted((b.key() for b in bd.branches), key=repr)
    assert keys == sorted(
        [(None, 5, None), (2, 2, None), (1, 1, 2), (3, 1, None)], key=repr
    )
    assert trunk(bd).arcs == (2,)


@pytest.mark.parametrize("seed", range(50))
def test_branch_count_is_extrema_minus_one(seed):
    grid = random_grid((6, 6, 1), seed)
    order, ct, ann, bd = serial_pipeline(grid)
    maxima, minima = local_extrema(grid, order)
    assert len(bd.branches) == len(maxima) + len(minima) - 1


@pytest.mark.parametrize("seed", range(10))
def test_branches_partition_arcs(seed):
    grid = random_grid((6, 6, 2), seed)
    _, ct, ann, bd = serial_pipeline(grid)
    owned = sorted(a for b in bd.branches for a in b.arcs)
    assert owned == sorted(ct.arc_inner)


@pytest.mark.parametrize("seed", range(10))
def test_branch_nesting_volumes_decrease(seed):
    grid = random_grid((7, 6, 1), seed)
    _, ct, ann, bd = serial_pipeline(grid)
    for b in bd.branches:
        if b.is_trunk:
            continue
        parent = bd.branches[b.parent_index]
        assert b.volume < parent.volume
        # The attachment saddle lies on the parent branch.
        incident = {parent.saddle} | {
            end for a in parent.arcs for end in (a, ct.arc_inner[a])
        }
        assert b.saddle in incident


def test_select_all_when_b_large():
    grid = random_grid((8, 8, 1), 3)
    order, ct, ann, bd = serial_pipeline(grid)
    selected, _ = select_top_branches(bd, ct.ranks, b=100)
    assert len(selected) == len(bd.branches)


def test_select_trunk_only():
    grid = random_grid((8, 8, 1), 3)
    _, ct, ann, bd = serial_pipeline(grid)
    selected, lam_b = select_top_branches(bd, ct.ranks, b=1)
    assert len(selected) == 1 and selected[0].is_trunk
    assert lam_b == grid.n


def test_select_top3_matches_full_sort_oracle():
    grid = random_grid((8, 8, 1), 9)
    _, ct, ann, bd = serial_pipeline(grid)
    selected, _ = select_top_branches(bd, ct.ranks, b=3)
    oracle = sorted(
        bd.branches,
        key=lambda b: (-b.volume, -1 if b.saddle is None else ct.ranks[b.saddle]),
    )[:3]
    assert [b.key() for b in selected] == [b.key() for b in oracle]


@pytest.mark.parametrize("seed", range(3))
def test_sorted_branches_match_full_sort_oracle(seed):
    """The whole order, ties included: many small branches share a volume."""
    _, ct, ann, bd = serial_pipeline(random_grid((8, 8, 4), seed))
    oracle = sorted(
        bd.branches,
        key=lambda b: (-b.volume, -1 if b.saddle is None else ct.ranks[b.saddle]),
    )
    assert len({b.volume for b in bd.branches}) < len(bd.branches)
    assert [id(b) for b in sorted_branches(bd, ct.ranks)] == [id(b) for b in oracle]


def test_select_threshold():
    grid = random_grid((8, 8, 1), 9)
    _, ct, ann, bd = serial_pipeline(grid)
    selected, _ = select_top_branches(bd, ct.ranks, threshold=5)
    assert all(b.volume > 5 for b in selected)
    assert trunk(bd) in selected


@pytest.mark.parametrize(
    "b,threshold", [(0, None), (None, float("nan")), (None, float("inf")), (None, -1.0)]
)
def test_select_b_zero_rejected(b, threshold):
    grid = grid_1d([1, 2, 3])
    _, ct, ann, bd = serial_pipeline(grid)
    with pytest.raises(UsageError):
        select_top_branches(bd, ct.ranks, b=b, threshold=threshold)


def test_branch_csv_format(tmp_path):
    import io

    from gridtopo.measure import write_branch_csv

    grid = grid_1d([0, 5, 2, 6, 1])
    _, ct, ann, bd = serial_pipeline(grid)
    selected, _ = select_top_branches(bd, ct.ranks, b=100)
    values = {v: float(x) for v, x in enumerate([0, 5, 2, 6, 1])}
    buf = io.StringIO()
    write_branch_csv(selected, values, buf, ct.root)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "branch_id,saddle_value,leaf_id,leaf_value,volume,parent_branch_id"
    assert len(lines) == 1 + len(bd.branches)
    # Volume-descending, trunk first.
    vols = [int(line.split(",")[4]) for line in lines[1:]]
    assert vols == sorted(vols, reverse=True)


def test_branch_csv_reads_a_value_array_like_a_dict():
    import io

    from gridtopo.measure import write_branch_csv

    grid = random_grid((6, 6, 2), 3)
    _, ct, _, bd = serial_pipeline(grid)
    selected, _ = select_top_branches(bd, ct.ranks, b=100)
    texts = []
    for values in (grid.values, dict(enumerate(grid.values.tolist()))):
        buf = io.StringIO()
        write_branch_csv(selected, values, buf, ct.root)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1] and "np." not in texts[0]


@pytest.mark.parametrize("seed", range(6))
def test_determinism(seed):
    grid = random_grid((6, 6, 1), seed)
    _, _, _, bd1 = serial_pipeline(grid)
    _, _, _, bd2 = serial_pipeline(grid)
    assert [(b.key(), b.leaf, b.arcs) for b in bd1.branches] == [
        (b.key(), b.leaf, b.arcs) for b in bd2.branches
    ]


def old_sort(branches, ranks):
    """The Python sort ``select_top_branches`` used before it sorted rows."""
    return sorted(branches, key=lambda b: (-b.volume, -1 if b.saddle is None else ranks[b.saddle]))


def many_branches(seed=0):
    """A grid with hundreds of branches, its tree and its decomposition."""
    _, ct, ann, bd = serial_pipeline(random_grid((16, 16, 6), seed))
    assert len(bd.branches) > 200
    return ct, ann, bd


def test_select_builds_only_the_selected_rows(monkeypatch):
    from gridtopo import measure

    ct, ann, bd = many_branches()
    built = []
    real = measure.Branch

    def counting(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(measure, "Branch", counting)
    assert len(bd.branches) > 200 and not built
    selected, _ = select_top_branches(bd, ct.ranks, b=5)
    assert len(selected) == 5 and len(built) <= 5
    selected, _ = select_top_branches(bd, ct.ranks, threshold=float(selected[-1].volume))
    assert len(built) <= 5
    # No id-keyed view of the volumes was built on the way either.
    assert not {"counts", "outward", "closed", "at_node"} & vars(ann).keys()


@pytest.mark.parametrize("seed", range(3))
def test_branch_sequence_matches_reference(seed):
    from test_reference_equivalence import ref_branch_decomposition, ref_hypersweep

    ct, ann, bd = many_branches(seed)
    ref = ref_branch_decomposition(ct, ref_hypersweep(ct, ann))
    seq = bd.branches
    g = len(seq)
    assert g == len(ref)
    assert seq[-1] == ref[-1] and seq[-g] == ref[0]
    assert seq[-1] is seq[g - 1] and seq[0] is seq[-g]
    with pytest.raises(IndexError):
        seq[g]
    with pytest.raises(IndexError):
        seq[-g - 1]
    assert list(seq) == ref
    assert [id(b) for b in seq] == [id(seq[i]) for i in range(g)]
    assert bd.branches is seq
    for b in seq:
        if b.is_trunk:
            assert b is trunk(bd) and b.parent_index is None
            continue
        parent = seq[b.parent_index]
        assert parent is seq[b.parent_index - g]
        assert parent == ref[b.parent_index]
        assert b.parent_saddle == (None if parent.is_trunk else parent.saddle)
    assert [id(b) for b in sorted_branches(bd, ct.ranks)] == [
        id(b) for b in old_sort(seq, ct.ranks)
    ]


def test_select_b_above_branch_count():
    ct, _, bd = many_branches()
    selected, lam_b = select_top_branches(bd, ct.ranks, b=len(bd.branches) + 7)
    assert selected == old_sort(bd.branches, ct.ranks)
    assert lam_b == min(b.volume for b in bd.branches)


def test_select_threshold_equal_to_a_volume_is_strict():
    ct, _, bd = many_branches()
    ordered = old_sort(bd.branches, ct.ranks)
    volume = ordered[len(ordered) // 10].volume
    assert volume < ordered[0].volume
    selected, lam_b = select_top_branches(bd, ct.ranks, threshold=volume)
    assert selected == [b for b in ordered if b.volume > volume]
    assert all(b.volume != volume for b in selected) and lam_b > volume


def test_select_threshold_above_every_branch_keeps_the_trunk():
    ct, _, bd = many_branches()
    selected, lam_b = select_top_branches(bd, ct.ranks, threshold=ct.n)
    assert selected == [trunk(bd)] and lam_b == ct.n


def test_single_supernode_decomposition():
    grid = grid_1d([7])
    _, ct, ann, bd = serial_pipeline(grid)
    assert counts(ann) == {} and outward(ann) == {} and closed(ann) == {0: 1}
    assert list(bd.branches) == [Branch(arcs=(), leaf=0, volume=1, is_trunk=True)]
    assert select_top_branches(bd, ct.ranks, b=3) == ([trunk(bd)], 1)


@pytest.mark.parametrize("seed", range(3))
def test_volume_views_match_their_arrays(seed):
    ct, ann, _ = many_branches(seed)
    st = ct.superstructure
    sn = ct.supernodes
    arcs = [s for i, s in enumerate(sn) if i != st.root]
    assert list(counts(ann)) == arcs and list(outward(ann)) == arcs and list(closed(ann)) == sn
    assert at_node(ann) == {} and len(at_node(ann)) == 0
    for i, s in enumerate(sn):
        assert closed(ann)[s] == ann.closed_volume[i]
        if i != st.root:
            assert counts(ann)[s] == ann.count[i] and outward(ann)[s] == ann.out_volume[i]
            assert ann.n - outward(ann)[s] == ct.n - ann.out_volume[i]
    with pytest.raises(KeyError):
        outward(ann)[ct.root]
    assert outward(ann) == dict(outward(ann)) and outward(ann) != closed(ann)
