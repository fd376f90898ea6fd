"""Command line entry point.

``gridtopo run`` ingests a raw volume or generates a synthetic one,
runs the serial or simulated-distributed pipeline, and writes the
branch table CSV and metrics JSON, or with ``--lambda-sweep`` the
communication curve.  ``gridtopo advise`` prints the threshold
estimates from the memory and communication criteria.  ``main`` parses
the arguments once, and the ``run`` functions read that namespace.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
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

# ``--oracle-check`` compares the census at no more than about this many gaps.
_ORACLE_GAPS = 64


def validate(args: argparse.Namespace) -> None:
    """Reject ``run`` arguments that parse but do not make a run."""
    if (args.input is None) == (args.synthetic is None):
        raise UsageError("exactly one of --input and --synthetic is required")
    if args.lam < 0:
        raise UsageError("--lambda must be non-negative")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.top_branches is not None and args.top_branches < 1:
        raise UsageError("--top-branches must be at least 1")
    if args.threshold is not None and not 0 <= args.threshold < math.inf:
        # NaN fails every comparison and would select only the trunk.
        raise UsageError("--threshold must be a finite non-negative number")
    if args.top_branches is not None and args.threshold is not None:
        raise UsageError("--top-branches and --threshold are mutually exclusive")
    for flag, triple in (("--dims", args.dims), ("--blocks", args.blocks)):
        if any(x < 1 for x in triple):
            raise UsageError(f"{flag} entries must be positive")
    if math.prod(args.dims) > sys.maxsize:  # the largest array size, np.iinfo(np.intp).max
        raise UsageError(f"--dims give more than {sys.maxsize} vertices")
    if args.oracle_check and args.mode == "distributed" and args.lam > 0:
        # Pre-simplification removes small branches, so the tree no
        # longer matches the level-set census of the full grid.
        raise UsageError("--oracle-check needs --lambda 0 in distributed mode")
    if args.lambda_sweep == []:
        raise UsageError("--lambda-sweep needs at least one value")
    single_run = args.oracle_check or args.branches_out or args.metrics_out or args.lam
    if args.lambda_sweep is not None and single_run:
        raise UsageError(
            "--lambda-sweep cannot take --oracle-check, --branches-out, --metrics-out or --lambda"
        )
    if args.sweep_out and args.lambda_sweep is None:
        raise UsageError("--sweep-out needs --lambda-sweep")
    distributed_only = args.blocks != (1, 1, 1) or args.lam or args.rank_exec != "sequential"
    if args.mode == "serial" and args.lambda_sweep is None and distributed_only:
        raise UsageError("--blocks, --lambda and --rank-exec only apply to --mode distributed")


def _check_writable(path: str) -> None:
    """Fail before any work when ``path``'s directory cannot take the file."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif Path(path).is_dir():
        code = errno.EISDIR
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")] if text else []
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    if len(text.split(",")) != 3:
        raise UsageError(f"{flag} expects three comma-separated integers")
    x, y, z = _parse_ints(text, flag)
    return (x, y, z)


def load_grid(args: argparse.Namespace) -> ScalarGrid:
    if args.input is not None:
        width = {"f32": 32, "f64": 64}[args.dtype]
        return load_raw(args.input, args.dims, width, args.endian)
    if args.synthetic == "random":
        return synthetic_random(args.dims, args.seed)
    if args.synthetic == "gaussians":
        return synthetic_gaussians(args.dims, args.seed)
    return synthetic_ramp(args.dims)


def _oracle_check(grid: ScalarGrid, order, ct) -> None:
    from . import oracle

    n = grid.n
    gaps = range(n - 1) if n - 1 <= _ORACLE_GAPS else range(0, n - 1, (n - 1) // _ORACLE_GAPS)
    # One census call builds the simplex array once for every sampled gap.
    for gap, expected in zip(gaps, oracle.level_set_census(grid, order, gaps).tolist()):
        got = ct.straddling_arcs(gap)
        if expected != got:
            raise InternalError(
                f"oracle mismatch at gap {gap}: tree {got}, oracle {expected}"
            )


def run_pipeline(args: argparse.Namespace) -> dict:
    """Execute one ``run`` on ``args`` as ``main`` prepares them; returns the metrics."""
    grid = load_grid(args)
    # Only the serial tree and the census read the whole grid's order.
    order = sos_order(grid) if args.mode == "serial" or args.oracle_check else None
    if args.mode == "serial":
        ct = tree.contour_tree(grid, order)
        bd = measure.branch_decomposition(ct, measure.hypersweep(ct, measure.superarc_counts(ct)))
        selected, lambda_b = measure.select_top_branches(
            bd, ct.ranks, b=args.top_branches, threshold=args.threshold
        )
        warnings, extra = [], {}
    else:
        result = pipeline.run_distributed(
            grid, args.blocks, lam=args.lam, b=args.top_branches,
            threshold=args.threshold, mode=args.rank_exec,
        )
        ct, bd, selected = result.augmented_tree, result.bd, result.selected
        lambda_b, warnings = result.lambda_b, list(result.warnings)
        extra = {
            "lambda_valid": result.lambda_valid,
            "attachment_points_total": len(result.records),
            "attachment_points_retained": len(result.retained),
            "commlog": result.commlog.to_dict(),
        }

    metrics = {
        "config": {
            "dims": list(args.dims),
            "mode": args.mode,
            "blocks": list(args.blocks),
            "lambda": args.lam,
            "top_branches": args.top_branches,
            "threshold": args.threshold,
            "seed": args.seed,
            "synthetic": args.synthetic,
        },
        "n": grid.n,
        "supernodes": ct.superstructure.vertex.size,
        "superarcs": ct.superstructure.vertex.size - 1,
        "branches": len(bd.branches),
        "selected": len(selected),
        "lambda_b": lambda_b,
        "warnings": warnings,
        **extra,
    }
    if args.oracle_check:
        _oracle_check(grid, order, ct)
    if args.branches_out:
        fh = io.StringIO()
        measure.write_branch_csv(selected, grid.values, fh, ct.root)
        _write(args.branches_out, fh.getvalue())
    if args.metrics_out:
        _write(args.metrics_out, json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return metrics


def run_lambda_sweep(args: argparse.Namespace) -> str:
    """Run the distributed pipeline over every ``--lambda-sweep`` value; returns sweep CSV text."""
    grid = load_grid(args)
    rows = ["lambda,max_attachment_points,max_bestupdown,max_branchinfo"]
    results = pipeline.run_lambda_sweep(
        grid, args.blocks, args.lambda_sweep, b=args.top_branches,
        threshold=args.threshold, mode=args.rank_exec,
    )
    for lam, result in zip(args.lambda_sweep, results):
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
                     help="comma-separated thresholds; runs distributed whatever --mode "
                          "says, fanning in once and finishing once per value, and "
                          "writes only the sweep CSV")
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

        args.dims = _parse_triple(args.dims, "--dims")
        args.blocks = _parse_triple(args.blocks, "--blocks")
        if args.lambda_sweep is not None:
            args.lambda_sweep = _parse_ints(args.lambda_sweep, "--lambda-sweep")
        validate(args)
        for path in (args.branches_out, args.metrics_out, args.sweep_out):
            if path:
                _check_writable(path)
        if args.top_branches is None and args.threshold is None:
            args.top_branches = 100
        try:
            if args.lambda_sweep is not None:
                text = run_lambda_sweep(args)
                if args.sweep_out:
                    _write(args.sweep_out, text)
                else:
                    sys.stdout.write(text)
                return 0
            metrics = run_pipeline(args)
        except MemoryError:
            raise UsageError(
                f"out of memory for a grid of {math.prod(args.dims)} vertices"
            ) from None
        for warning in metrics["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        summary = {
            k: metrics[k] for k in ("n", "supernodes", "superarcs", "branches", "selected")
        }
        print(json.dumps(summary, sort_keys=True))
        return 0
    except GridTopoError as exc:
        phase = exc.__class__.__name__
        print(f"error ({phase}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
