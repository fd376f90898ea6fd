"""One serial pipeline run: workload inputs, the run itself, and its probes.

The run is composed like the serial branch of ``gridtopo run``: ingest,
``sos_order``, ``contour_tree``, ``superarc_counts``, ``hypersweep``,
``branch_decomposition``, ``select_top_branches``, ``write_branch_csv`` and
the metrics JSON.  It calls every library function through its module
attribute, so the traced pass can wrap those attributes and also catch the
calls ``contour_tree`` makes inside itself.

Run as a script with one JSON job argument, it performs one run in this
fresh process and prints one JSON record, so peak RSS is the run's own.  A
job with ``check`` set then also checks its run against the oracles.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "gridtopo" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no gridtopo sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bench_checks  # noqa: E402
from gridtopo import grid, measure, sweep, tree  # noqa: E402
from gridtopo.errors import GridTopoError  # noqa: E402

BRANCHES_CSV = "branches.csv"
METRICS_JSON = "metrics.json"


@dataclass(frozen=True)
class Workload:
    """A seeded input family and the property it was chosen for.

    ``band`` bounds the supernode share (supernodes / vertices); a seed
    outside it does not exercise what the workload is for.
    """

    dims: tuple[int, int, int]
    field: str  # "random", "gaussians" or "lattice"
    noise: float
    raw_f32_big: bool
    top_branches: int | None
    threshold: float | None
    band: tuple[float, float]
    default_seed: int


WORKLOADS = {
    # Uniform noise: about 27% supernodes and 18k branches, the largest
    # topology, so combine and measure do the most work.
    "random-3d": Workload(
        dims=(64, 64, 32), field="random", noise=0.0, raw_f32_big=False,
        top_branches=100, threshold=None, band=(0.25, 0.29), default_seed=1,
    ),
    # Six Gaussians read from an f32 big-endian raw file: almost no
    # supernodes, so all time is per-vertex and measure is a no-change control.
    "smooth-3d": Workload(
        dims=(64, 64, 32), field="gaussians", noise=0.0, raw_f32_big=True,
        top_branches=100, threshold=None, band=(0.0, 0.001), default_seed=1,
    ),
    # 2D Gaussians plus small noise: the 6-neighbour stencil, an intermediate
    # supernode share, and selection by volume threshold.
    "terrain-2d": Workload(
        dims=(512, 256, 1), field="lattice", noise=1e-3, raw_f32_big=False,
        top_branches=None, threshold=2000.0, band=(0.01, 0.10), default_seed=1,
    ),
}


def make_values(wl: Workload, seed: int) -> np.ndarray:
    """The workload's scalar field from ``seed``, made with numpy only."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = wl.dims
    if wl.field == "random":
        return rng.random(nx * ny * nz)
    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    vals = np.zeros((nz, ny, nx))
    if wl.field == "gaussians":
        scale = max(wl.dims)
        for _ in range(6):
            cx, cy, cz = rng.random(3) * np.array([nx - 1, ny - 1, max(nz - 1, 1)])
            amp = rng.random() + 0.5
            width = (rng.random() * 0.2 + 0.05) * scale
            d2 = (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2
            vals += amp * np.exp(-d2 / (2.0 * width * width))
    else:
        # One bump per cell of a 16x8 lattice, centres jittered: unlike freely
        # placed bumps, the flat area between them (where the noise makes
        # critical points) then varies little from seed to seed.
        cw, ch = nx / 16, ny / 8
        for j in range(8):
            for i in range(16):
                cx = (i + 0.5 + 0.3 * (rng.random() - 0.5)) * cw
                cy = (j + 0.5 + 0.3 * (rng.random() - 0.5)) * ch
                amp = rng.random() + 0.5
                width = (rng.random() * 0.04 + 0.16) * cw
                d2 = (xx - cx) ** 2 + (yy - cy) ** 2
                vals += amp * np.exp(-d2 / (2.0 * width * width))
    vals = vals.ravel()
    if wl.noise:
        vals = vals + rng.normal(0.0, wl.noise, vals.size)
    return vals


def write_input(wl: Workload, seed: int, path: Path) -> None:
    """Write the raw file a raw-ingest workload reads (f32, big-endian)."""
    make_values(wl, seed).astype(">f4").tofile(path)


def ingester(wl: Workload, seed: int, raw_path: Path | None):
    """Return the set-up step: benchmark input -> ``ScalarGrid``."""
    if wl.raw_f32_big:
        return lambda: grid.load_raw(raw_path, wl.dims, 32, "big")
    values = make_values(wl, seed)
    return lambda: grid.ScalarGrid(dims=wl.dims, values=values)


class Spans:
    """In-memory span recorder: rows of [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.rows)
        self.rows.append([name, 0, 0, self._open[-1] if self._open else None])
        self._open.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.rows[idx][1:3] = [start, time.perf_counter_ns()]
            self._open.pop()


class _NoSpans:
    def span(self, name: str):
        return contextlib.nullcontext()


# Public functions timed in the traced pass, by span name.
TRACED = {
    "grid.sos_order": (grid, "sos_order"),
    "tree.contour_tree": (tree, "contour_tree"),
    "sweep.compute_join_tree": (sweep, "compute_join_tree"),
    "sweep.compute_split_tree": (sweep, "compute_split_tree"),
    "tree.combine": (tree, "combine"),
    "tree.augment": (tree, "augment"),
    "measure.superarc_counts": (measure, "superarc_counts"),
    "measure.hypersweep": (measure, "hypersweep"),
    "measure.branch_decomposition": (measure, "branch_decomposition"),
    "measure.select_top_branches": (measure, "select_top_branches"),
    "measure.write_branch_csv": (measure, "write_branch_csv"),
}


@contextlib.contextmanager
def patched(wrappers: dict):
    """Swap module attributes for wrappers; restore the originals on exit."""
    saved = {}
    try:
        for name, wrap in wrappers.items():
            module, attr = TRACED[name]
            saved[name] = getattr(module, attr)
            setattr(module, attr, wrap(saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            module, attr = TRACED[name]
            setattr(module, attr, fn)


def span_wrappers(spans: Spans) -> dict:
    def wrapper_for(name):
        def wrap(fn):
            def traced(*args, **kwargs):
                with spans.span(name):
                    return fn(*args, **kwargs)
            return traced
        return wrap

    return {name: wrapper_for(name) for name in TRACED}


def memory_wrappers(out: dict) -> dict:
    """Peak traced bytes above entry per stage, plus counts of its result.

    Counts are taken after the stage's peak is read; the next stage resets
    the peak, so counting does not leak into any reported peak.
    """

    def peak(name, count=None):
        def wrap(fn):
            def probed(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                out[f"{name}_peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                if count is not None:
                    out[count] = len(result.leaves())
                return result
            return probed
        return wrap

    def retained(fn):
        def probed(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            out["tree.retained_bytes"] = tracemalloc.get_traced_memory()[0] - base
            return result
        return probed

    return {
        "sweep.compute_join_tree": peak("sweep.compute_join_tree", "sweep.join_leaves"),
        "sweep.compute_split_tree": peak("sweep.compute_split_tree", "sweep.split_leaves"),
        "tree.combine": peak("tree.combine"),
        "tree.augment": peak("tree.augment"),
        "measure.branch_decomposition": peak("measure.branch_decomposition"),
        "tree.contour_tree": retained,
    }


@dataclass
class RunResult:
    run_s: float
    tree_s: float
    grid: grid.ScalarGrid
    order: grid.VertexOrder
    ct: tree.ContourTree
    bd: measure.BranchDecomposition
    selected: list


def run_serial(name: str, seed: int, ingest, out_dir: Path, spans=_NoSpans()) -> RunResult:
    """One full run, from the benchmark-made input to both output files."""
    wl = WORKLOADS[name]
    t0 = time.perf_counter()
    with spans.span("run"):
        with spans.span("grid.ingest"):
            g = ingest()
        t1 = time.perf_counter()
        order = grid.sos_order(g)
        t2 = time.perf_counter()
        values = {v: float(g.values[v]) for v in range(g.n)}
        metrics: dict = {
            "config": {
                "dims": list(wl.dims),
                "mode": "serial",
                "blocks": [1, 1, 1],
                "lambda": 0,
                "top_branches": wl.top_branches,
                "threshold": wl.threshold,
                "seed": seed,
                "synthetic": name,
            },
            "n": g.n,
        }
        t3 = time.perf_counter()
        ct = tree.contour_tree(g, order)
        t4 = time.perf_counter()
        ann = measure.hypersweep(ct, measure.superarc_counts(ct))
        bd = measure.branch_decomposition(ct, ann)
        selected, lambda_b = measure.select_top_branches(
            bd, ct.ranks, b=wl.top_branches, threshold=wl.threshold
        )
        metrics.update(
            {
                "supernodes": len(ct.supernodes),
                "superarcs": len(ct.arc_inner),
                "branches": len(bd.branches),
                "selected": len(selected),
                "lambda_b": lambda_b,
                "warnings": [],
            }
        )
        with open(out_dir / BRANCHES_CSV, "w", newline="") as fh:
            measure.write_branch_csv(selected, values, fh, ct.root)
        with open(out_dir / METRICS_JSON, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    t5 = time.perf_counter()
    return RunResult(
        run_s=t5 - t0,
        tree_s=(t2 - t1) + (t4 - t3),
        grid=g, order=order, ct=ct, bd=bd, selected=selected,
    )


def setup_seconds(ingest, reps: int) -> float:
    """Median wall time of ``reps`` separate ingests."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        ingest()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_main(job: dict) -> dict:
    """One measured run of the given pass; the record the parent reads."""
    name, seed = job["workload"], job["seed"]
    wl = WORKLOADS[name]
    raw = Path(job["raw_path"]) if job["raw_path"] else None
    ingest = ingester(wl, seed, raw)
    out_dir = Path(job["out_dir"])
    record: dict = {}
    try:
        record["setup_s"] = setup_seconds(ingest, job["setup_reps"])
        if job["pass"] == "plain":
            res = run_serial(name, seed, ingest, out_dir)
        elif job["pass"] == "spans":
            spans = Spans()
            with patched(span_wrappers(spans)):
                res = run_serial(name, seed, ingest, out_dir, spans)
            record["spans"] = spans.rows
        else:
            probes: dict = {}
            tracemalloc.start()
            try:
                with patched(memory_wrappers(probes)):
                    res = run_serial(name, seed, ingest, out_dir)
            finally:
                tracemalloc.stop()
            record["memory"] = probes
    except GridTopoError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    record.update(
        run_s=res.run_s,
        tree_s=res.tree_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if job["check"]:
        record["counts"], record["problems"] = bench_checks.check_run(
            res, exact=job["check"] == "exact"
        )
    return record


if __name__ == "__main__":
    print(json.dumps(child_main(json.loads(sys.argv[1]))))
