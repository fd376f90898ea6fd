"""Simulated distributed contour tree pipeline built from the serial primitives.

All ranks live in one process.  The phases:

1. **Decompose.**  The grid is cut into boxes that share their cut planes.
2. **Local phase.**  Each rank builds the contour tree of its block with
   ``tree.contour_tree`` and keeps the *boundary tree*: the smallest
   subtree connecting its boundary vertices.  Every subtree hanging off
   it is an interior-forest *record*, cut off at its attachment point.
3. **Fan-in.**  Regions merge pairwise along x, then y, then z, the
   lower block id leading.  Each merge runs ``tree.tree_from_graph`` on
   the union of the two kept trees and prunes again against the merged
   region's boundary.  Cutting off a hanging subtree with no boundary
   vertex keeps superlevel and sublevel connectivity, so the glued tree
   is exact (Morozov & Weber, "Distributed contour trees", 2012).  The
   last kept tree is the shared *base tree*.  A region's message is its
   kept tree as numpy arrays (``RegionState``): sorted ids, aligned
   values, ``(child, parent)`` edge rows and carried mass, both by
   position in those ids.  A merge builds its tree over positions in the
   union of the two id lists and then labels it with the ids, so the
   tree layer never sees an id and no table spans the grid's id range
   before the finish.  Every tree ranks its own vertices from those
   values by (value, id).
4. **Fan-out.**  Rank 0 sends the base tree and its values to every
   other rank; the ranks share the one tree, so only the comm log records
   the message.  The records stay one ``Records`` table, each rank's rows
   its own, with their vertices' ``values`` and each record's ``rises``.
5. **Augmentation.**  Records whose measure exceeds the threshold lambda
   are put back into the base tree.  The others stay folded into the
   volumes as mass at their attachment point.  The finish reads
   positions through one index over the grid's ids per tree
   (``_index``): one for the base tree, which also serves a lambda that
   retains no record, and one per other lambda for its augmented tree.
6. **Volumes and branches.**  ``measure.hypersweep`` runs before
   augmentation on the base tree and after it on the augmented tree;
   ``measure.branch_decomposition`` then builds the branches.

Lambda enters only the finish: phases 5 and 6 after the pre-augmentation
volumes.  ``run_lambda_sweep`` therefore runs phases 1-4 and those
volumes once per grid and the finish once per lambda; ``run_distributed``
is its one-lambda case.

Communication log (``CommLog``): one entry per rank per counter.  The
message entries are attributed as follows.

- ``fan-in/tree_verts_recv``: the leader of each merge receives the
  partner region's kept tree, counted in vertices.
- ``fan-out/tree_verts_recv``: every rank but 0 receives the base tree.
- ``augmentation/attachment_points_recv``: every rank receives the
  retained records cut by the other ranks, so that all ranks rebuild
  the same augmented tree.
- ``branch decomposition/bestupdown_recv``: the best up and best down
  arc of every critical vertex (two entries) are computed by the vertex's
  holder and sent to every other rank.  ``branchinfo_recv``: likewise
  one outer-end entry per extremum.  A retained record's vertex is held
  by the rank that cut it, any other vertex by its lowest owning block;
  the counters are ``bincount``s over the holders.  Critical status is
  taken in the full (lambda = 0) tree: a vertex with a pruned subtree
  hanging at it stays critical.  Each counter is then a sum over the
  retained vertices of fixed per-vertex amounts, so it never rises as
  lambda grows.
- ``local phase/vertices``: the block's vertex count, a work proxy.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .. import measure
from ..errors import DataError, UsageError
from ..grid import ScalarGrid, _coords, sos_order
from ..measure import Branch, BranchDecomposition, VolumeAnnotation
from ..sweep import _chain_ends
from ..tree import _EMPTY, ContourTree, _from_edges
from ..tree import contour_tree, tree_from_graph

# --- decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """An axis-aligned box of grid vertices: ``origin`` plus ``shape`` per axis."""

    origin: tuple[int, int, int]
    shape: tuple[int, int, int]

    def vids(self, dims: tuple[int, int, int]) -> np.ndarray:
        """Global vertex ids of the box in row-major order (x fastest)."""
        nx, ny, _ = dims
        z, y, x = np.meshgrid(
            *(np.arange(o, o + s) for o, s in zip(self.origin[::-1], self.shape[::-1])),
            indexing="ij",
        )
        return (x + nx * (y + ny * z)).ravel()

    def union(self, other: Extent) -> Extent:
        lo = tuple(map(min, self.origin, other.origin))
        hi = tuple(
            max(a + s, b + t)
            for a, s, b, t in zip(self.origin, self.shape, other.origin, other.shape)
        )
        return Extent(lo, tuple(h - l for h, l in zip(hi, lo)))

    def boundary(self, dims: tuple[int, int, int], vids) -> np.ndarray:
        """A mask over ``vids``: those on a face of the box along an axis of more than one vertex.

        These are the vertices on a domain face or shared with a block
        outside the box.
        """
        v = np.asarray(vids, dtype=np.int64)
        on_face = np.zeros(v.size, dtype=bool)
        for c, d, o, s in zip(_coords(v, dims), dims, self.origin, self.shape):
            if d > 1:
                on_face |= (c == o) | (c == o + s - 1)
        return on_face


@dataclass(frozen=True)
class Decomposition:
    """Blocks of a grid, numbered x-fastest; neighbours share their cut plane."""

    dims: tuple[int, int, int]
    splits: tuple[int, int, int]
    cuts: tuple[tuple[int, ...], ...] = field(repr=False)
    extents: list[Extent] = field(repr=False)

    @property
    def num_blocks(self) -> int:
        return len(self.extents)

    def block_coords(self, block: int) -> tuple[int, int, int]:
        return _coords(block, self.splits)

    def owner_of(self, vid):
        """The lowest block id whose box contains ``vid``, an id or an array of ids."""
        sx, sy, _ = self.splits
        coords = _coords(vid, self.dims)
        bx, by, bz = (np.searchsorted(c[1:], x) for c, x in zip(self.cuts, coords))
        return bx + sx * (by + sy * bz)


def decompose(grid: ScalarGrid, splits: tuple[int, int, int]) -> Decomposition:
    """Cut each axis of d vertices into s blocks at ``(i * (d - 1)) // s``.

    A split is feasible when ``s == 1`` or ``d >= s + 1``, so every block
    keeps at least two vertices along a split axis.
    """
    splits = tuple(splits)
    if len(splits) != 3 or any(s < 1 for s in splits):
        raise UsageError(f"block splits must be three positive integers, got {splits}")
    for d, s in zip(grid.dims, splits):
        if s > 1 and d < s + 1:
            raise UsageError(f"cannot split an axis of {d} vertices into {s} blocks")
    cuts = tuple(
        tuple((i * (d - 1)) // s for i in range(s + 1)) for d, s in zip(grid.dims, splits)
    )
    extents = [
        Extent(
            (cuts[0][bx], cuts[1][by], cuts[2][bz]),
            tuple(c[i + 1] - c[i] + 1 for c, i in zip(cuts, (bx, by, bz))),
        )
        for bz in range(splits[2])
        for by in range(splits[1])
        for bx in range(splits[0])
    ]
    return Decomposition(dims=grid.dims, splits=splits, cuts=cuts, extents=extents)


# --- communication log -----------------------------------------------------


class CommLog:
    """Per-phase counters with one entry per rank: ``counts[phase][counter][rank]``."""

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        self.counts: dict[str, dict[str, list[int]]] = {}

    def add(self, phase: str, counter: str, rank: int, amount: int) -> None:
        per_rank = self.counts.setdefault(phase, {}).setdefault(
            counter, [0] * self.num_ranks
        )
        per_rank[rank] += amount

    def phase_max(self, phase: str, counter: str) -> int:
        return max(self.counts.get(phase, {}).get(counter, [0]))

    def to_dict(self) -> dict:
        return {
            "phases": {
                phase: {
                    "per_rank": {c: list(v) for c, v in counters.items()},
                    "max": {c: max(v) for c, v in counters.items()},
                }
                for phase, counters in self.counts.items()
            }
        }


def _map_ranks(fn, items, mode: str) -> list:
    """``[fn(x) for x in items]``; concurrently on a bounded thread pool if asked.

    Results come back in input order either way, so both modes give the
    same output.
    """
    items = list(items)
    if mode == "sequential" or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(len(items), os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, items))


# --- local phase and pruning -------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Records:
    """Subtrees cut off contour trees as arrays, record ``i`` in row ``i``.

    Record ``i`` hangs at vertex ``attach[i]`` by the edge from its vertex
    ``head[i]``; ``rises[i]`` holds if the head ranks above it in the tree
    that cut it.  ``measure[i]`` counts its vertices plus the mass of
    earlier records attached inside it; ``rank[i]`` is the rank that cut
    it.  Its vertices are ``verts[start[i]:start[i + 1]]``, ascending, with
    their ``values``, and their ``parent`` rows lead toward ``attach[i]``:
    the ``(verts, parent)`` rows are its tree edges, ``(head, attach)`` among them.
    """

    attach: np.ndarray
    head: np.ndarray
    rises: np.ndarray
    measure: np.ndarray
    rank: np.ndarray
    start: np.ndarray
    verts: np.ndarray
    values: np.ndarray
    parent: np.ndarray

    def __len__(self) -> int:
        return self.attach.size

    def take(self, mask: np.ndarray) -> Records:
        """The records where the boolean ``mask`` holds, in order."""
        sizes = np.diff(self.start)
        rows = np.repeat(mask, sizes)
        return Records(
            self.attach[mask], self.head[mask], self.rises[mask], self.measure[mask],
            self.rank[mask], np.r_[0, np.cumsum(sizes[mask])], self.verts[rows],
            self.values[rows], self.parent[rows],
        )

    @staticmethod
    def concat(parts: Sequence[Records]) -> Records:
        """One table of the records of ``parts``, in order."""
        cols = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in ("attach", "head", "rises", "measure", "rank", "verts", "values", "parent")
        }
        sizes = np.concatenate([np.diff(p.start) for p in parts])
        return Records(start=np.r_[0, np.cumsum(sizes)], **cols)


@dataclass(eq=False)
class RegionState:
    """What a rank holds for its region (its block, or a merged box).

    Its kept tree, the region's fan-in message, is int64 arrays:
    ``kept_verts`` (ascending ids) and ``kept_edges`` (an (m, 2) array of
    ``(child, parent)`` rows of positions in ``kept_verts``), with float64
    ``values`` aligned with ``kept_verts``.  ``mass[i]`` is the mass of
    earlier records attached at position ``mass_at[i]`` (ascending, only
    vertices that hold mass).
    """

    rank: int
    extent: Extent
    num_vertices: int
    kept_verts: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    kept_edges: np.ndarray = field(repr=False)
    mass_at: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    records: Records = field(repr=False)


def _region(
    rank: int, extent: Extent, ct: ContourTree, values, boundary, mass_at, mass
) -> RegionState:
    """Split ``ct`` into the boundary's Steiner tree and the records hanging off it.

    The Steiner tree is the smallest subtree connecting every boundary
    vertex (the root when there is none): every vertex whose subtree
    holds one, except those above the lowest that holds them all.  Every
    other vertex lies in a record, under the record's head next to its
    attachment.  ``values`` and the mask ``boundary`` are aligned with
    ``ct.ids``, which ascend like every tree's, so positions order the
    kept vertices and records by id.  ``mass``, the mass of earlier
    records attached at positions ``mass_at`` (which may repeat), moves
    into the measure of a new record that swallows its vertex.
    """
    n, up, ids = ct.n, ct.up, ct.ids
    st = ct.superstructure
    marked = boundary if boundary.any() else np.arange(n) == st.vertex[st.root]
    kept, full = measure._marked_subtrees(ct, marked)
    # ``full`` is the path from the root down to the marks' meeting point.
    # Turned around, it leads every parent toward the Steiner tree, so the
    # parents are also the record edges, from child toward the attachment.
    lower = np.flatnonzero(full & (up >= 0))
    kept[up[lower]] = False
    toward = up.copy()
    toward[up[lower]] = lower
    # A record's head is its one vertex whose edge leads to a kept vertex.
    is_head = ~kept & kept[toward]
    head_of = _chain_ends(np.where(kept | is_head, np.arange(n), toward))

    carried = np.zeros(n, dtype=np.int64)
    np.add.at(carried, mass_at, mass)
    # Ids ascend, so positions order records by least id, then by id.
    hanging = np.flatnonzero(~kept)
    least = np.arange(n)  # read only at heads, and a head is in its own record
    np.minimum.at(least, head_of[hanging], hanging)
    hanging = hanging[np.argsort(least[head_of[hanging]], kind="stable")]
    _, first = np.unique(least[head_of[hanging]], return_index=True)
    heads = head_of[hanging[first]]
    weight = np.add.reduceat(1 + carried[hanging], first)
    new_mass = np.where(kept, carried, 0)
    np.add.at(new_mass, toward[heads], weight)
    records = Records(
        attach=ids[toward[heads]], head=ids[heads],
        rises=ct.ranks[heads] > ct.ranks[toward[heads]], measure=weight,
        rank=np.full(heads.size, rank, dtype=np.int64), start=np.append(first, hanging.size),
        verts=ids[hanging], values=values[hanging], parent=ids[toward[hanging]],
    )
    slot = np.cumsum(kept) - 1  # a kept vertex's position among the kept ones
    held = np.flatnonzero(new_mass > 0)
    inside = np.flatnonzero(kept & (up >= 0) & kept[up])
    return RegionState(
        rank=rank,
        extent=extent,
        num_vertices=math.prod(extent.shape),
        kept_verts=ids[kept],
        values=values[kept],
        kept_edges=np.column_stack((slot[inside], slot[up[inside]])),
        mass_at=slot[held],
        mass=new_mass[held],
        records=records,
    )


def local_phase(grid: ScalarGrid, extent: Extent, rank: int) -> RegionState:
    """Contour tree of one block, split into its boundary tree and records.

    The block is a sub-grid of its own, read from its slice of the grid's
    values.  Row-major ids of a box keep their relative order, so the tree
    keeps the block's own (value, id) ranks and takes the global ids.
    """
    vids = extent.vids(grid.dims)
    sub = ScalarGrid(dims=extent.shape, values=grid.values[vids])
    ct = replace(contour_tree(sub, sos_order(sub)), ids=vids)
    boundary = extent.boundary(grid.dims, vids)
    return _region(rank, extent, ct, sub.values, boundary, _EMPTY, _EMPTY)


def _merge(a: RegionState, b: RegionState, dims) -> RegionState:
    """Glue two regions' kept trees and prune against the merged boundary.

    One stable ``unique`` over a's ids, then b's, gives the union and
    ``at``, the union position of each listed copy.  a's copy of a shared
    vertex comes first, so a disagreeing value shows at b's copy, lowest id
    first.  b's edge and mass positions, offset by a's size, index the same
    list, so ``at`` maps both into the union.  The glued tree is built over
    union positions and then takes the ids as labels.
    """
    ids, given = np.r_[a.kept_verts, b.kept_verts], np.r_[a.values, b.values]
    verts, first, at = np.unique(ids, return_index=True, return_inverse=True)
    values = given[first]
    clash = np.flatnonzero(given != values[at])
    if clash.size:
        i = clash[0]
        raise DataError(
            f"shared vertex {ids[i]} has value {values[at[i]].item()!r} in block "
            f"region {a.rank} but {given[i].item()!r} in block region {b.rank}"
        )
    m = a.kept_verts.size
    edges = at[np.r_[a.kept_edges, b.kept_edges + m]]
    mass_at, mass = at[np.r_[a.mass_at, b.mass_at + m]], np.r_[a.mass, b.mass]
    del ids, given, first, at  # before the glued tree's build, the merge's peak
    ct = replace(tree_from_graph(values, edges), ids=verts)
    extent = a.extent.union(b.extent)
    return _region(a.rank, extent, ct, values, extent.boundary(dims, verts), mass_at, mass)


def fan_in(
    states: list[RegionState], decomp: Decomposition, log: CommLog, mode: str = "sequential"
) -> tuple[ContourTree, np.ndarray, Records]:
    """Binary reduction of the regions along x, then y, then z.

    Returns the base tree (the whole domain's kept tree), its values
    aligned with its ids, and every record cut on the way: the local ones
    by rank, then each level's in leader order.
    """
    records = [s.records for s in states]
    regions: list[RegionState | None] = list(states)
    for axis, splits in enumerate(decomp.splits):
        step = math.prod(decomp.splits[:axis])
        stride = 1
        while stride < splits:
            jobs = []
            for leader, region in enumerate(regions):
                c = decomp.block_coords(leader)[axis]
                if region is not None and c % (2 * stride) == 0 and c + stride < splits:
                    jobs.append((leader, regions[leader + stride * step]))
            merged = _map_ranks(
                lambda job: _merge(regions[job[0]], job[1], decomp.dims), jobs, mode
            )
            for (leader, partner), region in zip(jobs, merged):
                log.add("fan-in", "tree_verts_recv", leader, len(partner.kept_verts))
                regions[partner.rank] = None
                regions[leader] = region
                records.append(region.records)
            stride *= 2
    top = regions[0]
    # A tree is its own contour tree: no sweep, only its edges and values.
    base = replace(_from_edges(top.values, top.kept_edges), ids=top.kept_verts)
    return base, top.values, Records.concat(records)


def list_attachment_points(records: Records, lam: int) -> Records:
    """The records whose measure exceeds the threshold, in record order."""
    if lam < 0:
        raise UsageError(f"lambda must be non-negative, got {lam}")
    return records.take(records.measure > lam)


def _index(ids: np.ndarray, n: int) -> np.ndarray:
    """Position of each of the grid's ``n`` ids in the ascending ``ids``, -1 where absent."""
    index = np.full(n, -1, dtype=np.int64)
    index[ids] = np.arange(ids.size)
    return index


def _augment(
    base: ContourTree, values: np.ndarray, retained: Records, n: int
) -> tuple[ContourTree, np.ndarray]:
    """The base tree with the retained records put back, and its ``_index`` over ``n`` ids.

    ``values`` align with the base tree's ids.  The tree's ids are the
    union of the base ids and the records' vertices, taken in ascending
    order from a mask over the grid's ids.  Both edge lists reach the
    builder as positions in that union through the one index; a record
    parent missing from the union maps to -1, which the builder rejects.
    """
    union = np.zeros(n, dtype=bool)
    union[base.ids] = True
    union[retained.verts] = True
    ids = np.flatnonzero(union)
    index = _index(ids, n)
    at, child = index[base.ids], np.flatnonzero(base.up >= 0)
    base_edges = np.column_stack((at[child], at[base.up[child]]))
    edges = np.r_[base_edges, index[np.column_stack((retained.verts, retained.parent))]]
    scalars = np.empty(ids.size, dtype=values.dtype)
    scalars[at], scalars[index[retained.verts]] = values, retained.values
    del union, at, child, base_edges  # before the augmented tree's build, the finish's peak
    return replace(_from_edges(scalars, edges), ids=ids), index


def _volumes(ct: ContourTree, index: np.ndarray, pruned: Records, n: int) -> VolumeAnnotation:
    """Hypersweep of ``ct`` with pruned records folded in at their attachments.

    A measure counts on its attachment's superarc (``ct.outer``) and
    hangs at the attachment if that is a supernode.  Only records
    attached to a vertex of ``ct`` are folded; the others are already
    inside the measure of the record they attach to.  ``index`` is
    ``_index(ct.ids, n)`` and ``n`` the grid's vertex count.
    """
    at = index[pruned.attach]
    at, amount = at[at >= 0], pruned.measure[at >= 0]
    arc = ct.outer[at]
    mass, node = np.zeros((2, ct.n), dtype=np.int64)
    np.add.at(mass, arc, amount)
    np.add.at(node, at[arc == at], amount[arc == at])
    sn, own = ct.superstructure.vertex, measure.superarc_counts(ct)
    count = own.count + mass[sn]
    return measure.hypersweep(ct, replace(own, n=n, count=count, hang=node[sn]))


def _log_branch_entries(
    aug: ContourTree, index: np.ndarray, retained: Records, pruned: Records,
    decomp: Decomposition, log: CommLog,
) -> None:
    """Best up/down and branch outer-end entries per rank (see the module notes).

    ``index`` is ``_index(aug.ids, n)``; every retained vertex is in ``aug``.
    """
    up, down = np.ones((2, aug.n), dtype=np.int64)  # a regular vertex has one arc each way
    up[aug.superstructure.vertex], down[aug.superstructure.vertex] = aug.arc_degrees()
    # A pruned record still counts as an arc at an attachment in ``aug``.
    at = index[pruned.attach]
    np.add.at(up, at[(at >= 0) & pruned.rises], 1)
    np.add.at(down, at[(at >= 0) & ~pruned.rises], 1)
    counted = (up != 1) | (down != 1)  # the critical vertices; extrema are among them
    holder = np.zeros(aug.n, dtype=np.int64)
    holder[counted] = decomp.owner_of(aug.ids[counted])
    holder[index[retained.verts]] = np.repeat(retained.rank, np.diff(retained.start))
    critical = np.bincount(holder[counted], minlength=decomp.num_blocks).tolist()
    extrema = np.bincount(holder[up + down <= 1], minlength=decomp.num_blocks).tolist()
    for r in range(decomp.num_blocks):
        log.add("branch decomposition", "bestupdown_recv", r, 2 * (sum(critical) - critical[r]))
        log.add("branch decomposition", "branchinfo_recv", r, sum(extrema) - extrema[r])


def _heavy_branches(bd: BranchDecomposition, lam: int) -> np.ndarray:
    """Mask over ``bd``'s rows: the trunk and the branches heavier than lambda.

    A branch of volume at most lambda may be an artefact of
    pre-simplification.
    """
    return bd.is_trunk | (bd.volume > lam)


@dataclass
class DistributedResult:
    """Every intermediate of one run; ``selected`` and ``commlog`` are the outputs.

    ``pre_volumes`` annotate the base tree with all records folded in,
    ``post_volumes`` the augmented tree with the pruned ones folded in.
    """

    base_tree: ContourTree = field(repr=False)
    records: Records = field(repr=False)
    retained: Records = field(repr=False)
    augmented_tree: ContourTree = field(repr=False)
    pre_volumes: VolumeAnnotation = field(repr=False)
    post_volumes: VolumeAnnotation = field(repr=False)
    bd: BranchDecomposition = field(repr=False)
    selected: list[Branch] = field(repr=False)
    lambda_b: int
    lambda_valid: bool
    warnings: list[str]
    commlog: CommLog = field(repr=False)


def run_lambda_sweep(
    grid: ScalarGrid,
    blocks: tuple[int, int, int],
    lams: Sequence[int],
    b: int | None = None,
    threshold: float | None = None,
    mode: str = "sequential",
) -> Iterator[DistributedResult]:
    """Run every phase over ``blocks`` splits; yield one result per threshold in ``lams``.

    Decompose, local phase, fan-in, fan-out and the pre-volumes do not
    read lambda, so they run once.  Per lambda only the finish runs, on
    its own copy of the comm log so far, so each result is what a run
    with that lambda alone gives.  ``mode`` is ``"sequential"`` or
    ``"concurrent"`` (ranks on a thread pool of at most
    ``min(ranks, cpu_count)`` workers); both give identical results.
    ``mode``, every lambda and the selection are checked before any
    phase runs.
    """
    if mode not in ("sequential", "concurrent"):
        raise UsageError(f"rank execution must be 'sequential' or 'concurrent', not {mode!r}")
    for lam in lams:
        if lam < 0:
            raise UsageError(f"lambda must be non-negative, got {lam}")
    measure.check_selection(b, threshold)
    decomp = decompose(grid, blocks)
    shared_log = CommLog(decomp.num_blocks)
    states = _map_ranks(
        lambda r: local_phase(grid, decomp.extents[r], r),
        range(decomp.num_blocks),
        mode,
    )
    for s in states:
        shared_log.add("local phase", "vertices", s.rank, s.num_vertices)
    base, values, records = fan_in(states, decomp, shared_log, mode)
    # Rank 0 sends the base tree to every other rank.
    for r in range(1, decomp.num_blocks):
        shared_log.add("fan-out", "tree_verts_recv", r, base.n)
    base_index = _index(base.ids, grid.n)
    pre_volumes = _volumes(base, base_index, records, grid.n)

    for lam in lams:
        log = copy.deepcopy(shared_log)
        retained = list_attachment_points(records, lam)
        pruned = records.take(records.measure <= lam)
        own = np.bincount(retained.rank, minlength=decomp.num_blocks)
        for r, recv in enumerate((len(retained) - own).tolist()):
            log.add("augmentation", "attachment_points_recv", r, recv)
        augmented, index = (
            _augment(base, values, retained, grid.n) if retained else (base, base_index)
        )
        post_volumes = _volumes(augmented, index, pruned, grid.n)
        bd = measure.branch_decomposition(augmented, post_volumes)
        _log_branch_entries(augmented, index, retained, pruned, decomp, log)

        heavy = _heavy_branches(bd, lam)
        selected, lambda_b = measure.select_top_branches(
            bd, augmented.ranks, b=b, threshold=threshold, among=heavy
        )
        # Pre-simplification removes only branches of volume at most lam.  The
        # selection is exact unless it would have contained one of them: when
        # lam >= lambda_b, or when pruning left fewer branches than asked for.
        cut = bool(pruned) or not heavy.all()
        short = len(selected) < b if b is not None else threshold < lam
        lambda_valid = lam < lambda_b and not (cut and short)
        warnings = []
        if not lambda_valid:
            warnings.append(
                f"lambda {lam} is not below Lambda_b: the top branches may include "
                f"pre-simplified ones of volume at most {lam}"
            )
        yield DistributedResult(
            base_tree=base,
            records=records,
            retained=retained,
            augmented_tree=augmented,
            pre_volumes=pre_volumes,
            post_volumes=post_volumes,
            bd=bd,
            selected=selected,
            lambda_b=lambda_b,
            lambda_valid=lambda_valid,
            warnings=warnings,
            commlog=log,
        )


def run_distributed(
    grid: ScalarGrid,
    blocks: tuple[int, int, int],
    lam: int = 0,
    b: int | None = None,
    threshold: float | None = None,
    mode: str = "sequential",
) -> DistributedResult:
    """``run_lambda_sweep`` with the one pre-simplification threshold ``lam``."""
    (result,) = run_lambda_sweep(grid, blocks, [lam], b, threshold, mode)
    return result
