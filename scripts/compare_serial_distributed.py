#!/usr/bin/env python3
"""Check the simulated pipeline against the serial one on random volumes.

For each seed: run serially, then across every feasible block split at
threshold zero, and compare the augmented tree's arrays, the subtree
volume arrays, and the full branch decomposition.  Any mismatch prints
the offending configuration and exits nonzero.

Usage:
    python scripts/compare_serial_distributed.py [--dims 12,10,6] [--seeds 5]
"""

import argparse
import sys

import numpy as np

from gridtopo import (
    branch_decomposition,
    contour_tree,
    hypersweep,
    sos_order,
    superarc_counts,
)
from gridtopo.grid import synthetic_random
from gridtopo.dist import run_distributed

SPLITS = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 1), (3, 2, 2), (5, 1, 1)]


def arrays(ct, ann):
    """Every array of a tree's state and of its volumes, by name."""
    st = ct.superstructure
    return {
        "ids": ct.ids, "up": ct.up, "outer": ct.outer, "vertex": st.vertex,
        "inner": st.inner, "rank": st.rank, "root": st.root,
        "out_volume": ann.out_volume, "closed_volume": ann.closed_volume,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dims", default="12,10,6")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    dims = tuple(int(x) for x in args.dims.split(","))

    failures = 0
    for seed in range(args.seeds):
        grid = synthetic_random(dims, seed)
        ct = contour_tree(grid, sos_order(grid))
        ann = hypersweep(ct, superarc_counts(ct))
        bd = branch_decomposition(ct, ann)
        serial = arrays(ct, ann)
        serial_keys = sorted(((b.key(), b.leaf) for b in bd.branches), key=repr)
        for splits in SPLITS:
            if any(s > 1 and d < s + 1 for d, s in zip(dims, splits)):
                continue
            result = run_distributed(grid, splits, lam=0, b=100)
            got = arrays(result.augmented_tree, result.post_volumes)
            ok = (
                all(np.array_equal(got[name], want) for name, want in serial.items())
                and sorted(((b.key(), b.leaf) for b in result.bd.branches), key=repr)
                == serial_keys
            )
            status = "ok" if ok else "MISMATCH"
            print(f"seed={seed} splits={splits}: {status}")
            failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
