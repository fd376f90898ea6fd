"""Correctness checks behind ``failed_share``, independent of the tree code.

The first run of each invocation, the reference, is checked against two
oracles once its timings are taken:

* the level-set census at sampled rank gaps.  The grid is a ball, so its
  contour tree cut at a gap splits into superlevel and sublevel components,
  and the number of contours there is ``super + sub - 1``.  The components
  come from scipy over a stencil built here with numpy.  ``--record`` also
  checks this count against ``gridtopo.oracle.count_contours``, which is
  exact but takes seconds per gap at 131k vertices;
* the cut-and-flood volume (``oracle.brute_subtree_volume``) of the
  selected branches: the largest 20 in a timed invocation, since each
  takes about 70 ms at 131k vertices, and all of them under ``--record``.

Timed runs are then judged by the digest of their two output files.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from gridtopo import oracle

CENSUS_GAPS = 16
EXACT_CENSUS_STRIDE = 5  # exact checks: every 5th gap also by count_contours
VOLUME_CHECKS = 20  # branches cut-and-flooded per timed invocation; all when exact


def check_run(res, exact: bool = False) -> tuple[dict, list[str]]:
    """Counts of a finished run and every way it disagrees with the oracles."""
    n = res.grid.n
    edges = stencil_edges(res.grid.dims)
    gaps = census_gaps(n, CENSUS_GAPS)
    exact_gaps = set(gaps[::EXACT_CENSUS_STRIDE]) if exact else set()
    problems = census_problems(res, edges, gaps, exact_gaps)
    problems += volume_problems(res, None if exact else VOLUME_CHECKS)
    counts = {
        "grid.vertices": n,
        "grid.stencil_edges": len(edges[0]),
        "tree.supernodes": len(res.ct.supernodes),
        "tree.supernode_share": len(res.ct.supernodes) / n,
        "measure.branches": len(res.bd.branches),
    }
    return counts, problems


def digest(out_dir: Path) -> str:
    """SHA-256 over the files of one run's output directory, by name."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def stencil_edges(dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Freudenthal edges (u, v): offsets whose nonzero entries are all +1."""
    nx, ny, nz = dims
    ids = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    us, vs = [], []
    for dx, dy, dz in itertools.product((0, 1), repeat=3):
        if dx or dy or dz:
            us.append(ids[: nz - dz, : ny - dy, : nx - dx].ravel())
            vs.append(ids[dz:, dy:, dx:].ravel())
    return np.concatenate(us), np.concatenate(vs)


def census_gaps(n: int, count: int) -> list[int]:
    """``count`` evenly spaced rank gaps in [0, n - 2]."""
    return sorted({(k + 1) * (n - 1) // (count + 1) for k in range(count)})


def contours_at(rank: np.ndarray, edges, gap: int) -> int:
    """Contours crossing ``gap``: superlevel plus sublevel components, minus one."""
    u, v = edges
    n = rank.size
    above = rank > gap
    counts = []
    for side in (above, ~above):
        keep = side[u] & side[v]
        graph = coo_matrix((np.ones(int(keep.sum()), np.int8), (u[keep], v[keep])), shape=(n, n))
        components = connected_components(graph, directed=False)[0]
        counts.append(components - int((~side).sum()))
    return counts[0] + counts[1] - 1


def census_problems(res, edges, gaps: list[int], exact_gaps=frozenset()) -> list[str]:
    """Gaps where the tree's straddling arcs differ from the level-set count.

    At ``exact_gaps`` the count is itself checked against ``count_contours``.
    """
    problems = []
    for gap in gaps:
        got = res.ct.straddling_arcs(gap)
        want = contours_at(res.order.rank_of, edges, gap)
        if gap in exact_gaps and oracle.count_contours(res.grid, res.order, gap) != want:
            problems.append(f"census identity disagrees with count_contours at gap {gap}")
        if got != want:
            problems.append(f"census at gap {gap}: tree {got}, oracle {want}")
    return problems


def volume_problems(res, limit: int | None = None) -> list[str]:
    """Selected branches, the first ``limit`` if given, whose volume differs
    from cut-and-flood."""
    ct = res.ct
    problems = []
    for br in res.selected[:limit]:
        if br.is_trunk:
            continue
        (arc,) = [a for a in br.arcs if br.saddle in (a, ct.arc_inner[a])]
        cut = oracle.brute_subtree_volume(ct, arc)
        if arc == br.saddle:
            # The branch leaves the saddle through the saddle's own arc: its
            # far side is everything outside the saddle's closed subtree.
            cut = ct.n - cut + len(ct.arc_regulars[arc])
        if cut != br.volume:
            problems.append(f"branch at saddle {br.saddle}: volume {br.volume}, cut {cut}")
    return problems
