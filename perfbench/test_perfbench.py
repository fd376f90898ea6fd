"""Smoke tests of the benchmark's own machinery on tiny grids."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import bench_serial  # first: it puts the checkout's src/ on sys.path
import bench_checks
import run
from gridtopo import ScalarGrid, sos_order
from gridtopo.errors import DataError
from gridtopo.oracle import count_contours

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {
    "tiny-3d": dataclasses.replace(
        bench_serial.WORKLOADS["random-3d"], dims=(8, 8, 4), band=(0.0, 1.0)
    ),
    "tiny-2d": dataclasses.replace(
        bench_serial.WORKLOADS["terrain-2d"], dims=(16, 8, 1), threshold=4.0, band=(0.0, 1.0)
    ),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, wl in TINY.items():
        monkeypatch.setitem(bench_serial.WORKLOADS, name, wl)


def job(tmp_path, name, kind, check=None):
    out_dir = tmp_path / (check or kind)
    out_dir.mkdir()
    return run.make_job(name, 3, kind, check, None, out_dir)


def reference(tmp_path, name):
    """Digest and counts of a checked reference run, as the benchmark makes it."""
    rec = bench_serial.child_main(job(tmp_path, name, "plain", check="exact"))
    assert rec["problems"] == []
    return bench_checks.digest(tmp_path / "exact"), rec["counts"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_reference_passes_oracles(tmp_path, name):
    _, counts = reference(tmp_path, name)
    assert run.band_problem(name, 3, counts["tree.supernode_share"]) is None
    nx, ny, nz = TINY[name].dims
    assert counts["grid.vertices"] == nx * ny * nz


def test_raw_ingest_matches_array(tmp_path):
    wl = dataclasses.replace(TINY["tiny-3d"], field="gaussians", raw_f32_big=True)
    raw = tmp_path / "input.raw"
    bench_serial.write_input(wl, 5, raw)
    values = bench_serial.ingester(wl, 5, raw)().values
    assert values.tolist() == bench_serial.make_values(wl, 5).astype(">f4").tolist()


@pytest.mark.parametrize("dims", [(8, 8, 4), (16, 8, 1), (5, 1, 1)])
def test_level_set_identity_matches_count_contours(dims):
    wl = dataclasses.replace(TINY["tiny-3d"], dims=dims)
    grid = ScalarGrid(dims, bench_serial.make_values(wl, 11))
    order = sos_order(grid)
    edges = bench_checks.stencil_edges(dims)
    assert len(edges[0]) == sum(1 for _ in grid.edges())
    for gap in range(grid.n - 1):
        got = bench_checks.contours_at(order.rank_of, edges, gap)
        assert got == count_contours(grid, order, gap)


def test_untraced_run(tmp_path):
    rec = bench_serial.child_main(job(tmp_path, "tiny-3d", "plain"))
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert 0 < rec["setup_s"] < rec["run_s"]
    assert 0 < rec["tree_s"] < rec["run_s"]
    assert rec["peak_rss_mb"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_covers_every_layer(tmp_path, name):
    ref_digest, counts = reference(tmp_path, name)
    plain = bench_serial.child_main(job(tmp_path, name, "plain"))
    spans = bench_serial.child_main(job(tmp_path, name, "spans"))
    memory = bench_serial.child_main(job(tmp_path, name, "memory"))
    assert run.judge(spans, tmp_path / "spans", ref_digest)
    assert run.judge(memory, tmp_path / "memory", ref_digest)
    layer, problems = run.per_layer([plain], [spans], memory["memory"], counts)
    assert problems == []
    assert {k: run.unit_of(k) for k in layer} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    self_s = sum(v for k, v in layer.items() if k.endswith("_s") and k != "trace.run_s")
    assert self_s == pytest.approx(layer["trace.run_s"], rel=1e-6)
    # The wrappers were taken off again.
    assert bench_serial.tree.combine.__module__ == "gridtopo.tree"


def test_spans_that_do_not_nest_are_reported():
    rows = [["run", 0, 100, None], ["a", 10, 120, 0], ["b", 20, 30, None]]
    _, _, problems = run.self_times(rows)
    assert problems == [
        "span a leaves its parent",
        "span b has no parent",
        "self times do not add up to the traced run",
    ]


def test_perturbed_output_counts_as_failed(tmp_path):
    ref_digest, _ = reference(tmp_path, "tiny-3d")
    rec = bench_serial.child_main(job(tmp_path, "tiny-3d", "plain"))
    assert run.judge(rec, tmp_path / "plain", ref_digest)
    csv = tmp_path / "plain" / bench_serial.BRANCHES_CSV
    csv.write_text(csv.read_text().replace(",", ";", 1))
    assert not run.judge(rec, tmp_path / "plain", ref_digest)


def test_raised_error_counts_as_failed(tmp_path, monkeypatch):
    ref_digest, _ = reference(tmp_path, "tiny-3d")
    j = job(tmp_path, "tiny-3d", "plain")
    shutil.copytree(tmp_path / "exact", j["out_dir"], dirs_exist_ok=True)

    def broken(*args, **kwargs):
        raise DataError("injected")

    monkeypatch.setattr(bench_serial.tree, "combine", broken)
    rec = bench_serial.child_main(j)
    assert rec == {"error": "DataError: injected"}
    assert not run.judge(rec, tmp_path / "plain", ref_digest)


def test_wrong_branch_volume_is_caught(tmp_path):
    wl = TINY["tiny-3d"]
    res = bench_serial.run_serial("tiny-3d", 3, bench_serial.ingester(wl, 3, None), tmp_path)
    assert bench_checks.volume_problems(res) == []
    victim = next(br for br in res.selected if not br.is_trunk)
    victim.volume += 1
    assert len(bench_checks.volume_problems(res)) == 1


def test_seed_outside_band_is_refused():
    assert run.band_problem("random-3d", 0, 0.02) is not None
    assert run.band_problem("random-3d", 0, 0.27) is None
