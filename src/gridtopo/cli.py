"""Command line entry point.

``gridtopo run`` ingests a raw volume or generates a synthetic one,
runs the serial or simulated-distributed pipeline, and writes the
branch table CSV and metrics JSON.  ``gridtopo advise`` prints the
threshold estimates from the memory and communication criteria.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import measure, tree
from .dist import estimate, pipeline
from .errors import GridTopoError, InternalError, UsageError
from .grid import (
    ScalarGrid,
    load_raw,
    sos_order,
    synthetic_gaussians,
    synthetic_ramp,
    synthetic_random,
)


@dataclass
class RunConfig:
    """Everything one pipeline invocation needs."""

    dims: tuple[int, int, int]
    input_path: str | None = None
    synthetic: str | None = None
    seed: int = 0
    dtype: str = "f32"
    endian: str = "little"
    mode: str = "serial"
    blocks: tuple[int, int, int] = (1, 1, 1)
    lam: int = 0
    top_branches: int | None = None
    threshold: float | None = None
    branches_out: str | None = None
    metrics_out: str | None = None
    sweep_out: str | None = None
    lambda_sweep: list[int] = field(default_factory=list)
    oracle_check: bool = False
    rank_exec: str = "sequential"

    def validate(self) -> None:
        if (self.input_path is None) == (self.synthetic is None):
            raise UsageError("exactly one of --input and --synthetic is required")
        if self.lam < 0:
            raise UsageError("--lambda must be non-negative")
        if self.top_branches is not None and self.top_branches < 1:
            raise UsageError("--top-branches must be at least 1")
        if self.threshold is not None and not 0 <= self.threshold < math.inf:
            # NaN fails every comparison and would select only the trunk.
            raise UsageError("--threshold must be a finite non-negative number")
        if self.top_branches is not None and self.threshold is not None:
            raise UsageError("--top-branches and --threshold are mutually exclusive")
        if any(b < 1 for b in self.blocks):
            raise UsageError("--blocks entries must be positive")
        if self.oracle_check and self.mode == "distributed" and self.lam > 0:
            # Pre-simplification removes small branches, so the tree no
            # longer matches the level-set census of the full grid.
            raise UsageError("--oracle-check needs --lambda 0 in distributed mode")


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    if len(text.split(",")) != 3:
        raise UsageError(f"{flag} expects three comma-separated integers")
    x, y, z = _parse_ints(text, flag)
    return (x, y, z)


def load_grid(config: RunConfig) -> ScalarGrid:
    if config.input_path is not None:
        width = {"f32": 32, "f64": 64}[config.dtype]
        return load_raw(config.input_path, config.dims, width, config.endian)
    if config.synthetic == "random":
        return synthetic_random(config.dims, config.seed)
    if config.synthetic == "gaussians":
        return synthetic_gaussians(config.dims, config.seed)
    if config.synthetic == "ramp":
        return synthetic_ramp(config.dims)
    raise UsageError(f"unknown synthetic generator {config.synthetic!r}")


def _oracle_check(grid: ScalarGrid, order, ct, max_gaps: int = 64) -> None:
    from .oracle import count_contours

    n = grid.n
    gaps = range(n - 1) if n - 1 <= max_gaps else range(0, n - 1, (n - 1) // max_gaps)
    for gap in gaps:
        expected = count_contours(grid, order, gap)
        got = ct.straddling_arcs(gap)
        if expected != got:
            raise InternalError(
                f"oracle mismatch at gap {gap}: tree {got}, oracle {expected}"
            )


def run_pipeline(config: RunConfig) -> dict:
    """Execute one configured run; returns the metrics document."""
    config.validate()
    grid = load_grid(config)
    order = sos_order(grid)
    values = grid.values.tolist()
    b = config.top_branches
    if b is None and config.threshold is None:
        b = 100

    metrics: dict = {
        "config": {
            "dims": list(config.dims),
            "mode": config.mode,
            "blocks": list(config.blocks),
            "lambda": config.lam,
            "top_branches": b,
            "threshold": config.threshold,
            "seed": config.seed,
            "synthetic": config.synthetic,
        },
        "n": grid.n,
    }

    if config.mode == "serial":
        ct = tree.contour_tree(grid, order)
        ann = measure.hypersweep(ct, measure.superarc_counts(ct))
        bd = measure.branch_decomposition(ct, ann)
        selected, lambda_b = measure.select_top_branches(
            bd, ct.ranks, b=b, threshold=config.threshold
        )
        root = ct.root
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
        if config.oracle_check:
            _oracle_check(grid, order, ct)
    elif config.mode == "distributed":
        result = pipeline.run_distributed(
            grid,
            order,
            config.blocks,
            lam=config.lam,
            b=b,
            threshold=config.threshold,
            mode=config.rank_exec,
        )
        selected = result.selected
        root = result.augmented_tree.root
        metrics.update(
            {
                "supernodes": len(result.augmented_tree.supernodes),
                "superarcs": len(result.augmented_tree.arc_inner),
                "branches": len(result.bd.branches),
                "selected": len(selected),
                "lambda_b": result.lambda_b,
                "lambda_valid": result.lambda_valid,
                "attachment_points_total": len(result.records),
                "attachment_points_retained": len(result.retained),
                "warnings": list(result.warnings),
            }
        )
        metrics["commlog"] = result.commlog.to_dict()
        if config.oracle_check:
            _oracle_check(grid, order, result.augmented_tree)
    else:
        raise UsageError(f"unknown mode {config.mode!r}")

    if config.branches_out:
        with open(config.branches_out, "w", newline="") as fh:
            measure.write_branch_csv(selected, values, fh, root)
    if config.metrics_out:
        with open(config.metrics_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return metrics


def run_lambda_sweep(config: RunConfig) -> str:
    """Run the distributed pipeline per threshold; returns sweep CSV text."""
    grid = load_grid(config)
    order = sos_order(grid)
    b = config.top_branches or 100
    rows = ["lambda,max_attachment_points,max_bestupdown,max_branchinfo"]
    for lam in config.lambda_sweep:
        result = pipeline.run_distributed(
            grid, order, config.blocks, lam=lam, b=b, mode=config.rank_exec
        )
        log = result.commlog
        rows.append(
            f"{lam},"
            f"{log.phase_max('augmentation', 'attachment_points_recv')},"
            f"{log.phase_max('branch decomposition', 'bestupdown_recv')},"
            f"{log.phase_max('branch decomposition', 'branchinfo_recv')}"
        )
    return "\n".join(rows) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridtopo")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the contour tree pipeline")
    run.add_argument("--input", help="raw binary volume path")
    run.add_argument(
        "--synthetic", choices=["random", "gaussians", "ramp"], help="generated input"
    )
    run.add_argument("--dims", required=True, help="X,Y,Z vertex counts")
    run.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    run.add_argument("--endian", choices=["little", "big"], default="little")
    run.add_argument("--blocks", default="1,1,1", help="BX,BY,BZ block splits")
    run.add_argument("--lambda", dest="lam", type=int, default=0,
                     help="pre-simplification threshold")
    run.add_argument("--top-branches", type=int, default=None)
    run.add_argument("--threshold", type=float, default=None,
                     help="volume threshold instead of a branch count")
    run.add_argument("--branches-out", default=None)
    run.add_argument("--metrics-out", default=None)
    run.add_argument("--sweep-out", default=None)
    run.add_argument("--oracle-check", action="store_true")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mode", choices=["serial", "distributed"], default="serial")
    run.add_argument("--lambda-sweep", default=None,
                     help="comma-separated thresholds; runs distributed once per value")
    run.add_argument("--rank-exec", choices=["sequential", "concurrent"],
                     default="sequential")

    advise = sub.add_parser("advise", help="threshold estimation from two criteria")
    advise.add_argument("--n", type=int, required=True, help="total vertex count")
    advise.add_argument("--ranks", type=int, required=True)
    advise.add_argument("--mem-per-rank", type=float, required=True, help="bytes")
    advise.add_argument("--bytes-per-ap", type=float, required=True)
    advise.add_argument("--base-mem", type=float, required=True, help="bytes")
    advise.add_argument("--constant", type=float, default=1.0,
                        help="communication criterion constant c")
    advise.add_argument("--lambda-cap", type=float, default=None,
                        help="volume of the smallest feature to preserve")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "advise":
            report = estimate.lambda_advisor_report(
                args.n,
                args.ranks,
                args.mem_per_rank,
                args.bytes_per_ap,
                args.base_mem,
                args.constant,
                args.lambda_cap,
            )
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0

        config = RunConfig(
            dims=_parse_triple(args.dims, "--dims"),
            input_path=args.input,
            synthetic=args.synthetic,
            seed=args.seed,
            dtype=args.dtype,
            endian=args.endian,
            mode=args.mode,
            blocks=_parse_triple(args.blocks, "--blocks"),
            lam=args.lam,
            top_branches=args.top_branches,
            threshold=args.threshold,
            branches_out=args.branches_out,
            metrics_out=args.metrics_out,
            sweep_out=args.sweep_out,
            oracle_check=args.oracle_check,
            rank_exec=args.rank_exec,
        )
        try:
            if args.lambda_sweep:
                config.lambda_sweep = _parse_ints(args.lambda_sweep, "--lambda-sweep")
                config.validate()
                text = run_lambda_sweep(config)
                if config.sweep_out:
                    Path(config.sweep_out).write_text(text)
                else:
                    sys.stdout.write(text)
                return 0
            metrics = run_pipeline(config)
        except MemoryError:
            raise UsageError(
                f"out of memory for a grid of {math.prod(config.dims)} vertices"
            ) from None
        for warning in metrics.get("warnings", []):
            print(f"warning: {warning}", file=sys.stderr)
        summary = {
            k: metrics[k]
            for k in ("n", "supernodes", "superarcs", "branches", "selected")
            if k in metrics
        }
        print(json.dumps(summary, sort_keys=True))
        return 0
    except GridTopoError as exc:
        phase = exc.__class__.__name__
        print(f"error ({phase}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
