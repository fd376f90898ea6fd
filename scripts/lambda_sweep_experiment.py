#!/usr/bin/env python3
"""Sweep the pre-simplification threshold on a seeded volume.

Reproduces the communication-workload trend: attachment-point exchange
falls off steeply with the threshold while best up/down traffic
plateaus at the shared-tree size.  Emits one CSV row per threshold.

Usage:
    python scripts/lambda_sweep_experiment.py [--dims 48,48,24] [--seed 7]
"""

import argparse
import sys

import numpy as np

from gridtopo import ScalarGrid
from gridtopo.dist import run_lambda_sweep
from gridtopo.grid import synthetic_gaussians


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dims", default="48,48,24")
    parser.add_argument("--blocks", default="2,2,2")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--noise", type=float, default=0.02)
    parser.add_argument(
        "--lambdas", default="0,1,10,100,1000,10000,100000"
    )
    parser.add_argument("--top-branches", type=int, default=100)
    args = parser.parse_args()

    dims = tuple(int(x) for x in args.dims.split(","))
    blocks = tuple(int(x) for x in args.blocks.split(","))
    lambdas = [int(x) for x in args.lambdas.split(",")]

    base = synthetic_gaussians(dims, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    grid = ScalarGrid(dims=dims, values=base.values + args.noise * rng.random(base.n))

    print("lambda,max_attachment_points,max_bestupdown,max_branchinfo,"
          "branches,lambda_b,lambda_valid")
    results = run_lambda_sweep(grid, blocks, lambdas, b=args.top_branches)
    for lam, result in zip(lambdas, results):
        log = result.commlog
        print(
            f"{lam},"
            f"{log.phase_max('augmentation', 'attachment_points_recv')},"
            f"{log.phase_max('branch decomposition', 'bestupdown_recv')},"
            f"{log.phase_max('branch decomposition', 'branchinfo_recv')},"
            f"{len(result.bd.branches)},"
            f"{result.lambda_b},"
            f"{result.lambda_valid}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
