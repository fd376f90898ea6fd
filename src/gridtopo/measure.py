"""Superarc vertex counts, subtree volumes, and branch decomposition.

Counting convention: every superarc counts its regular vertices plus
its outer-end supernode, so the superarc totals plus one (the root)
partition the vertex set exactly.  Subtree volumes are physical-cut
counts: the outward volume of an arc is the number of vertices strictly
on its outer side when the tree is severed at the inner end.

Volumes and branches are int64 arrays, as the tree is.  A
``VolumeAnnotation`` holds one array per quantity over the supernode
positions of ``ContourTree.superstructure``; a ``BranchDecomposition``
holds one row per branch.  ``hypersweep`` and ``branch_decomposition``
run as numpy passes over those positions: subtree sums over an Euler
tour ranked by pointer jumping, best up/down arcs by max/min reductions
over arc incidences, and branches labelled by pointer jumping along
chains of mutually-best arcs.  ``select_top_branches`` orders the rows
with one ``lexsort``.  ``Branch`` objects are built only when read: a
run builds one for each selected row and nothing per supernode.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InternalError, UsageError
from .tree import ContourTree, _chain_ends, _pair_key


@dataclass(frozen=True, eq=False)
class VolumeAnnotation:
    """Per-superarc counts and directional subtree volumes over supernode positions.

    Each array is int64 and indexed like ``ContourTree.superstructure``:
    ``ids[i]`` is supernode i's id and ``root`` the root's position.
    ``count[i]`` counts arc i (the one with outer end i).  ``hang[i]`` is
    vertex mass hanging directly at supernode i without tree structure
    (pre-simplified subtrees); it is part of ``count[i]``, but belongs
    inside the closed volume of i so that cut volumes stay exact.  The
    root indexes no arc: mass hanging at the root is its ``count`` and
    its ``hang``, so ``count.sum() + 1 == n`` still holds.  Mass hanging
    at a regular vertex is only part of ``count`` of the arc it lies on.

    ``hypersweep`` fills the volumes.  ``out_volume[i]`` is the vertex
    count of the subtree hanging at outer end i including the regular
    vertices of i's own arc; the complement ``n - out_volume[i]`` is the
    inward volume.  ``closed_volume[i]`` is the closed rooted subtree
    volume of supernode i (itself plus all child-arc outward volumes,
    excluding its own arc's regulars).
    """

    n: int
    ids: np.ndarray = field(repr=False)
    root: int
    count: np.ndarray = field(repr=False)
    hang: np.ndarray = field(repr=False)
    out_volume: np.ndarray | None = field(default=None, repr=False)
    closed_volume: np.ndarray | None = field(default=None, repr=False)


def superarc_counts(ct: ContourTree) -> VolumeAnnotation:
    """Count vertices per superarc (regulars plus the outer-end supernode) with one ``bincount``."""
    st = ct.superstructure
    count = np.bincount(ct.outer, minlength=ct.n)[st.vertex]
    count[st.root] = 0
    return VolumeAnnotation(ct.n, ct.ids[st.vertex], st.root, count, np.zeros_like(count))


def _subtree_sums(parent: np.ndarray, root: int, weight: np.ndarray) -> np.ndarray:
    """Per node of a rooted tree, the sum of ``weight`` over its subtree.

    ``parent[i]`` is the parent of node ``i``, -1 at ``root``.  The
    subtree of a node is the stretch of the Euler tour between entering
    and leaving it.  Tour step ``i`` enters node ``i`` and step ``k + i``
    leaves it; each step's successor is set from the children lists, and
    list ranking by pointer jumping gives every step its tour position.
    """
    k = parent.size
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.argsort(parent[kids])]  # any child order gives the same sums
    up = parent[kids]
    first = np.ones(kids.size, dtype=bool)
    first[1:] = up[1:] != up[:-1]
    succ = np.concatenate([np.arange(k, 2 * k), k + np.arange(k)])
    succ[up[first]] = kids[first]  # enter a parent -> enter its first child
    succ[k + kids] = k + up  # leave a last child -> leave its parent
    sib = ~first[1:]
    succ[k + kids[:-1][sib]] = kids[1:][sib]  # leave a child -> enter the next
    # Leaving the root ends the tour.  ``left`` counts steps to that end.
    left = (succ != np.arange(2 * k)).astype(np.int64)
    for _ in range((2 * k).bit_length()):
        left += np.take(left, succ)
        succ = np.take(succ, succ)
    if (succ != k + root).any():
        raise InternalError("parent pointers do not form one tree")
    at = 2 * k - 1 - left
    tour = np.zeros(2 * k, dtype=np.int64)
    tour[at[:k]] = weight
    run = np.cumsum(tour)
    return run[at[k:]] - run[at[:k]] + weight


def _marked_subtrees(ct: ContourTree, marked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position, whether its subtree holds some of the ``marked`` positions, and whether all.

    Subtrees hang below each vertex with the tree rooted at its root.
    Supernodes count their closed subtrees by ``_subtree_sums``; along a
    superarc the rank signed by its direction grows inward, so a regular
    vertex adds its arc's marks up to its own signed rank.
    """
    st, n = ct.superstructure, ct.n
    k = st.vertex.size
    is_super = ct.outer == np.arange(n)
    arc = (np.cumsum(is_super) - 1)[ct.outer]
    regular = np.flatnonzero(marked & ~is_super)
    on_arc = np.bincount(arc[regular], minlength=k)
    below = _subtree_sums(st.inner, st.root, marked[st.vertex] + on_arc)
    # The root has no arc, and no regular vertex lies on one there.
    signed = np.where((st.rank[st.inner] > st.rank)[arc], ct.ranks, -ct.ranks)
    first = np.full(k, np.iinfo(np.int64).max)
    np.minimum.at(first, arc[regular], signed[regular])
    last = np.full(k, np.iinfo(np.int64).min)
    np.maximum.at(last, arc[regular], signed[regular])
    some = (below - on_arc > 0)[arc] | (signed >= first[arc])
    every = (below == np.count_nonzero(marked))[arc] & (signed >= last[arc])
    return some, every


def hypersweep(ct: ContourTree, ann: VolumeAnnotation) -> VolumeAnnotation:
    """Aggregate counts leafward-to-root into outward subtree volumes.

    Deterministic rooted accumulation; the result is independent of
    evaluation order because integer addition is associative.  ``ann``
    may carry counts exceeding the tree's structural vertices (the
    distributed pipeline folds pre-simplified subtrees into them), so
    conservation is checked against ``ann.n``.
    """
    st = ct.superstructure
    out = _subtree_sums(st.inner, st.root, ann.count)
    closed = out - ann.count + 1 + ann.hang
    if closed[st.root] != ann.n:
        raise InternalError(
            f"volume conservation failed: {closed[st.root]} != {ann.n}"
        )
    return replace(ann, out_volume=out, closed_volume=closed)


@dataclass
class Branch:
    """A maximal best-chain of superarcs.

    Non-trunk branches attach to their parent at ``saddle``; the trunk
    is the unique parentless branch and reports the full domain volume.
    Several branches may attach at the same saddle, so ``parent_index``
    names the parent unambiguously while ``parent_saddle`` carries the
    saddle-representative key.
    """

    arcs: tuple[int, ...]
    leaf: int
    volume: int
    saddle: int | None = None
    parent_saddle: int | None = None
    parent_index: int | None = None
    is_trunk: bool = False

    def key(self) -> tuple[int | None, int, int | None]:
        """(saddle, volume, parent) identity; stable when the leaf vertex changes."""
        return (self.saddle, self.volume, self.parent_saddle)


class _Branches(Sequence):
    """A decomposition's rows as ``Branch`` objects, each built on first access."""

    __slots__ = ("_bd", "_built")

    def __init__(self, bd: BranchDecomposition):
        self._bd, self._built = bd, [None] * bd.volume.size

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, row: int) -> Branch:
        row = range(len(self))[row]  # a negative row counts from the end
        if self._built[row] is None:
            self._built[row] = self._bd._branch(row)
        return self._built[row]


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    """Branches as int64 arrays with one row per branch, in output order.

    ``volume``; ``leaf`` and ``saddle`` as vertex ids and ``saddle_at`` as a
    tree position (both -1 for the trunk's saddle); ``parent``, the row of the
    branch it attaches to (-1 for the trunk).  Row r's arcs, by outer-end id
    ascending, are ``arcs[start[r]:start[r + 1]]``.  ``branches`` reads the
    rows as ``Branch`` objects, built on first access and kept.
    """

    volume: np.ndarray = field(repr=False)
    leaf: np.ndarray = field(repr=False)
    saddle: np.ndarray = field(repr=False)
    saddle_at: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)
    arcs: np.ndarray = field(repr=False)

    @property
    def is_trunk(self) -> np.ndarray:
        return self.parent < 0

    @cached_property
    def branches(self) -> _Branches:
        return _Branches(self)

    def _branch(self, row: int) -> Branch:
        p, s = self.parent.item(row), self.saddle.item(row)
        return Branch(
            arcs=tuple(self.arcs[self.start[row] : self.start[row + 1]].tolist()),
            leaf=self.leaf.item(row),
            volume=self.volume.item(row),
            saddle=None if s < 0 else s,
            parent_saddle=None if p < 0 or self.parent[p] < 0 else self.saddle.item(p),
            parent_index=None if p < 0 else p,
            is_trunk=p < 0,
        )

    def order(self, ranks: Sequence[int]) -> np.ndarray:
        """Rows by descending volume, then ascending saddle rank (the trunk's is -1).

        One stable ``lexsort`` over the tree's ``ranks``, so equal keys keep their order.
        """
        saddle_rank = np.where(self.saddle_at >= 0, np.asarray(ranks)[self.saddle_at], -1)
        return np.lexsort((saddle_rank, -self.volume))


def branch_decomposition(ct: ContourTree, ann: VolumeAnnotation) -> BranchDecomposition:
    """Partition superarcs into branches by best up/down arc selection.

    At each supernode the incident arc with the largest far-side volume
    in each direction (ties to the lower outer-end rank) joins that
    supernode's branch; maximal chains of mutually-best arcs form the
    branches.  Exactly one branch ends at no attachment saddle: the
    trunk.  Branches are listed by their least member id (supernode or
    arc outer end), a supernode member first on a tie.
    """
    if ann.out_volume is None and ct.n > 1:
        raise UsageError("hypersweep volumes required")
    st = ct.superstructure
    sn = ct.ids[st.vertex]
    k, rank = sn.size, st.rank
    if k == 1:
        one = np.array([-1], dtype=np.int64)
        return BranchDecomposition(
            volume=np.array([ct.n]), leaf=sn, saddle=one, saddle_at=one, parent=one,
            start=np.zeros(2, dtype=np.int64), arcs=one[:0],
        )

    arcs = np.flatnonzero(st.inner >= 0)  # arc i is the one with outer end i
    inner = st.inner[arcs]
    outward, closed = ann.out_volume, ann.closed_volume
    # Each arc is incident to both of its ends; ``far`` is the volume
    # beyond it as seen from that end.
    rises = rank[inner] > rank[arcs]
    node = np.concatenate([arcs, inner])
    arc = np.concatenate([arcs, arcs])
    far = np.concatenate([ann.n - closed[arcs], outward[arcs]])
    up = np.concatenate([rises, ~rises])
    # Per (supernode, direction): the largest far volume, then the lowest
    # outer-end rank among the arcs that reach it.
    side = 2 * node + up
    most = np.full(2 * k, -1, dtype=np.int64)
    np.maximum.at(most, side, far)
    tied = far == most[side]
    least = np.full(2 * k, rank.max() + 1, dtype=np.int64)
    np.minimum.at(least, side[tied], rank[arc[tied]])
    win = tied & (rank[arc] == least[side])
    best = np.full(2 * k, -1, dtype=np.int64)
    best[side[win]] = arc[win]
    best_up, best_down = best[1::2], best[0::2]

    # A supernode's best up arc leads to a higher supernode, and joins the
    # two into one branch when it is that supernode's best down arc too.
    # Such chains rise in rank, so each branch's supernodes form a path;
    # pointer jumping labels them with its top supernode.
    step = np.arange(k)
    low = np.flatnonzero(best_up >= 0)
    a = best_up[low]
    high = np.where(a == low, st.inner[a], a)
    mutual = best_down[high] == a
    step[low[mutual]] = high[mutual]
    top = _chain_ends(step)

    by_outer = (best_up[arcs] == arcs) | (best_down[arcs] == arcs)
    by_inner = (best_up[inner] == arcs) | (best_down[inner] == arcs)
    if not (by_outer | by_inner).all():
        raise InternalError("branch attached at two saddles")
    hangs = by_outer != by_inner  # the far end is the branch's attachment saddle
    hang_saddle = np.where(by_outer, inner, arcs)[hangs]

    # Number the branches in output order: (least member, first token).
    heads = np.flatnonzero(step == np.arange(k))
    label = np.full(k, -1, dtype=np.int64)
    label[heads] = np.arange(heads.size)
    sn_group = label[top]
    arc_group = label[np.where(by_outer, top[arcs], top[inner])]
    first_sn = np.full(heads.size, k)
    np.minimum.at(first_sn, sn_group, np.arange(k))
    first_arc = np.full(heads.size, k)
    np.minimum.at(first_arc, arc_group, arcs)
    place = np.empty(heads.size, dtype=np.int64)
    place[np.argsort(_pair_key(np.minimum(first_sn, first_arc), first_sn, k))] = np.arange(
        heads.size
    )
    sn_group, arc_group = place[sn_group], place[arc_group]
    g = heads.size

    n_arcs = np.bincount(arc_group, minlength=g)
    if (n_arcs == 0).any():
        raise InternalError("branch with supernodes but no arcs")
    if (np.bincount(arc_group[hangs], minlength=g) > 1).any():
        raise InternalError("branch attached at two saddles")
    trunk = np.ones(g, dtype=bool)
    trunk[arc_group[hangs]] = False
    saddle = np.full(g, -1, dtype=np.int64)
    saddle[arc_group[hangs]] = hang_saddle
    terminal = np.full(g, -1, dtype=np.int64)
    terminal[arc_group[hangs]] = arcs[hangs]

    up_deg, down_deg = ct.arc_degrees()
    ends = np.flatnonzero((up_deg == 0) | (down_deg == 0))
    n_ends = np.bincount(sn_group[ends], minlength=g)
    if (n_ends[trunk] != 2).any():
        raise InternalError("trunk must own exactly two extremum ends")
    if (n_ends[~trunk] != 1).any():
        raise InternalError("branch must own exactly one extremum end")
    if trunk.sum() != 1:
        raise InternalError(f"expected exactly one trunk, found {int(trunk.sum())}")
    ends = ends[np.argsort(_pair_key(sn_group[ends], rank[ends], int(rank.max()) + 1))]
    leaf = ends[np.r_[0, np.cumsum(n_ends)[:-1]]]  # the lowest-ranked end per branch

    t = terminal[~trunk]
    volume = np.full(g, ann.n, dtype=np.int64)
    volume[~trunk] = np.where(saddle[~trunk] == t, ann.n - closed[t], outward[t])
    parent = np.full(g, -1, dtype=np.int64)
    parent[~trunk] = sn_group[saddle[~trunk]]
    if (parent == np.arange(g)).any():
        raise InternalError("branch attached to itself")

    return BranchDecomposition(
        volume=volume,
        leaf=sn[leaf],
        saddle=np.where(saddle >= 0, sn[saddle], -1),
        saddle_at=np.where(saddle >= 0, st.vertex[saddle], -1),
        parent=parent,
        start=np.r_[0, np.cumsum(n_arcs)],
        arcs=sn[arcs[np.argsort(arc_group, kind="stable")]],
    )


def check_selection(b: int | None, threshold: float | None) -> None:
    """Raise ``UsageError`` unless ``b`` >= 1 or a finite ``threshold`` >= 0 is given."""
    if b is None and threshold is None:
        raise UsageError("either b or threshold must be given")
    if b is not None and b < 1:
        raise UsageError("branch count must be at least 1")
    if threshold is not None and not 0 <= threshold < np.inf:
        # NaN fails every comparison and would quietly select only the trunk.
        raise UsageError("threshold must be a finite non-negative number")


def select_top_branches(
    bd: BranchDecomposition,
    ranks: Sequence[int],
    b: int | None = None,
    threshold: float | None = None,
    among: np.ndarray | None = None,
) -> tuple[list[Branch], int]:
    """Pick the top-b branches by volume, or all above a volume threshold.

    Returns the selection and the volume of the smallest retained
    branch.  The trunk sorts first (it carries the full domain volume)
    and counts toward ``b``.  ``among``, a boolean mask over ``bd``'s
    rows, limits the candidates; only the selected rows become
    ``Branch`` objects.
    """
    check_selection(b, threshold)
    rows = bd.order(ranks)
    if among is not None:
        rows = rows[among[rows]]
    if b is not None:
        picked = rows[:b]
    else:
        picked = rows[bd.volume[rows] > threshold]
        if not picked.size:
            picked = rows[:1]
    selected = [bd.branches[r] for r in picked.tolist()]
    return selected, selected[-1].volume


def write_branch_csv(
    selected: list[Branch],
    values: np.ndarray | Sequence[float] | Mapping[int, float],
    stream: io.TextIOBase,
    root: int,
) -> None:
    """Branch table: one row per selected branch, volume-descending order.

    ``values`` is indexed by vertex id (a grid's ``values`` array serves);
    each value is written as the ``repr`` of a Python float.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["branch_id", "saddle_value", "leaf_id", "leaf_value", "volume", "parent_branch_id"]
    )
    for br in selected:
        saddle = root if br.saddle is None else br.saddle
        parent = "" if br.is_trunk else (root if br.parent_saddle is None else br.parent_saddle)
        writer.writerow(
            [
                saddle,
                repr(float(values[saddle])),
                br.leaf,
                repr(float(values[br.leaf])),
                br.volume,
                parent,
            ]
        )
