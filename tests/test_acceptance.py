"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS line on success (visible with -s); a
test failure marks the criterion failed.
"""

import json

import numpy as np

from gridtopo import (
    contour_tree,
    select_top_branches,
    sos_order,
)
from gridtopo.dist import run_distributed
from gridtopo.dist.estimate import (
    attachment_point_bound,
    estimate_bytes_per_ap,
    estimate_lambda_min_memory,
)
from gridtopo.measure import write_branch_csv
from gridtopo.oracle import brute_subtree_volume, level_set_census

from conftest import (
    branch_keys_with_leaves,
    counts,
    outward,
    random_grid,
    record_list,
    serial_pipeline,
    superparent,
)

GIB = 1024**3


def _criterion(num: int, text: str):
    print(f"[PASS] criterion {num}: {text}")


def _acceptance_grids():
    """>= 200 seeded random grids: 2D up to 16x16, 3D up to 8x8x8."""
    rng = np.random.default_rng(2024)
    grids = []
    for i in range(120):
        dims = (int(rng.integers(2, 17)), int(rng.integers(2, 17)), 1)
        grids.append((dims, 1000 + i))
    for i in range(78):
        dims = (
            int(rng.integers(2, 9)),
            int(rng.integers(2, 9)),
            int(rng.integers(2, 9)),
        )
        grids.append((dims, 2000 + i))
    grids.append(((16, 16, 1), 3001))
    grids.append(((8, 8, 8), 3002))
    return grids


def test_criterion_1_oracle_equivalence():
    grids = _acceptance_grids()
    assert len(grids) >= 200
    for dims, seed in grids:
        grid = random_grid(dims, seed)
        order = sos_order(grid)
        ct = contour_tree(grid, order)
        census = level_set_census(grid, order)
        for gap in range(grid.n - 1):
            assert ct.straddling_arcs(gap) == census[gap], (dims, seed, gap)
    _criterion(1, f"straddling superarcs equal brute-force contour counts "
                  f"on {len(grids)} grids, every rank gap, exact")


SPLITS = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 1)]


def _feasible(dims, splits):
    return all(s == 1 or d >= s + 1 for d, s in zip(dims, splits))


AC_GRIDS = [
    ((9, 7, 1), 41),
    ((8, 8, 2), 42),
    ((6, 6, 4), 43),
    ((12, 10, 1), 44),
    ((10, 6, 3), 45),
    ((16, 16, 8), 46),
]


def test_criterion_2_conservation():
    checked = 0
    for dims, seed in AC_GRIDS:
        grid = random_grid(dims, seed)
        _, ct, ann, _ = serial_pipeline(grid)
        assert sum(counts(ann).values()) + 1 == grid.n
        checked += 1
        for splits in SPLITS:
            if not _feasible(dims, splits):
                continue
            for lam in (0, 2, 10**6):
                result = run_distributed(grid, splits, lam=lam, b=5)
                assert sum(counts(result.pre_volumes).values()) + 1 == grid.n
                assert sum(counts(result.post_volumes).values()) + 1 == grid.n
                checked += 1
    _criterion(2, f"superarc counts + 1 == n on {checked} runs "
                  "(serial and distributed, all thresholds), exact")


def test_criterion_3_distributed_equals_serial():
    compared = 0
    for dims, seed in AC_GRIDS:
        grid = random_grid(dims, seed)
        _, ct, ann, bd = serial_pipeline(grid)
        for splits in SPLITS:
            if not _feasible(dims, splits):
                continue
            result = run_distributed(grid, splits, lam=0, b=5)
            assert result.augmented_tree.arc_inner == ct.arc_inner, (dims, splits)
            assert superparent(result.augmented_tree) == superparent(ct)
            assert outward(result.post_volumes) == outward(ann)
            assert branch_keys_with_leaves(result.bd) == branch_keys_with_leaves(bd)
            compared += 1
    _criterion(3, f"shared tree, volumes, and full branch decomposition match "
                  f"the serial pipeline on {compared} grid/split combinations, exact")


def test_criterion_4_presimplification_safety():
    checked = 0
    for dims, seed in AC_GRIDS:
        grid = random_grid(dims, seed)
        _, ct, _, bd = serial_pipeline(grid)
        sel, lam_b = select_top_branches(bd, ct.ranks, b=5)
        want = sorted((b.key() for b in sel), key=repr)
        splits = (2, 2, 1) if _feasible(dims, (2, 2, 1)) else (2, 1, 1)
        lambdas = sorted(set(range(min(lam_b, 12))) | {lam_b - 1})
        for lam in lambdas:
            result = run_distributed(grid, splits, lam=lam, b=5)
            got = sorted((b.key() for b in result.selected), key=repr)
            assert got == want, (dims, seed, lam, lam_b)
            checked += 1
    _criterion(4, f"top-5 (saddle, volume, parent) multisets identical to "
                  f"threshold zero for every tested lambda < Lambda_b "
                  f"({checked} runs), exact on compared fields")


def test_criterion_5_communication_monotonicity():
    grids = [((10, 8, 1), 300 + i) for i in range(10)]
    grids += [((6, 6, 4), 400 + i) for i in range(10)]
    for dims, seed in grids:
        grid = random_grid(dims, seed)
        splits = (2, 2, 1)
        previous = None
        max_measure = 0
        for lam in (0, 1, 10, 100, 1000):
            result = run_distributed(grid, splits, lam=lam, b=5)
            recv = result.commlog.counts["augmentation"]["attachment_points_recv"]
            if previous is not None:
                assert all(a >= b for a, b in zip(previous, recv)), (dims, seed, lam)
            previous = recv
            max_measure = max(
                (r.measure for r in record_list(result.records)), default=0
            )
        result = run_distributed(grid, splits, lam=max_measure, b=5)
        recv = result.commlog.counts["augmentation"]["attachment_points_recv"]
        assert all(c == 0 for c in recv), (dims, seed)
    _criterion(5, "per-rank received attachment points non-increasing over "
                  "lambda in {0,1,10,100,1000} on 20 grids; zero at "
                  "lambda >= max interior measure, exact")


def test_criterion_6_estimator_regression():
    lam = estimate_lambda_min_memory(2048**3, 16, 512e9, 209.02, 133.26 * GIB)
    assert lam == 4
    bytes_per = estimate_bytes_per_ap(
        (574.66 * GIB, 697_320_285), (439.17 * GIB, 1_288_810)
    )
    assert abs(bytes_per - 209.02) < 0.5
    assert attachment_point_bound(1000, 10, 9) == 90
    _criterion(6, "lambda_min(2048^3, 16 ranks) == 4; bytes/point == 209.02 "
                  "+/- 0.5; bound (1000-100)/10 == 90, exact")


def _pipeline_artifacts(grid, mode):
    import io

    result = run_distributed(grid, (2, 2, 1), lam=2, b=5, mode=mode)
    values = {v: float(grid.values[v]) for v in range(grid.n)}
    buf = io.StringIO()
    write_branch_csv(result.selected, values, buf, result.augmented_tree.root)
    metrics = json.dumps(result.commlog.to_dict(), sort_keys=True, indent=1)
    return buf.getvalue(), metrics


def test_criterion_7_determinism():
    grid = random_grid((12, 12, 2), 77)
    runs = [
        _pipeline_artifacts(grid, "sequential"),
        _pipeline_artifacts(grid, "sequential"),
        _pipeline_artifacts(grid, "concurrent"),
    ]
    assert runs[0] == runs[1] == runs[2]
    _criterion(7, "repeated and concurrent-vs-sequential runs produce "
                  "byte-identical CSV/JSON artifacts, exact")


def test_criterion_8_hypersweep_oracle():
    total_arcs = 0
    for i in range(25):
        for dims in ((6, 6, 1), (4, 4, 4)):
            grid = random_grid(dims, 500 + i)
            _, ct, ann, _ = serial_pipeline(grid)
            volume = outward(ann)
            for outer in ct.arc_inner:
                assert volume[outer] == brute_subtree_volume(ct, outer)
                total_arcs += 1
    _criterion(8, f"every outward subtree volume equals the cut-and-flood "
                  f"oracle on 50 grids ({total_arcs} superarcs), exact")
