"""Superarc vertex counts, subtree volumes, and branch decomposition.

Counting convention: every superarc counts its regular vertices plus
its outer-end supernode, so the superarc totals plus one (the root)
partition the vertex set exactly.  Subtree volumes are physical-cut
counts: the outward volume of an arc is the number of vertices strictly
on its outer side when the tree is severed at the inner end.

``hypersweep`` and ``branch_decomposition`` read the tree through its
shared array view, ``ContourTree.superstructure``, and run as numpy
passes over supernode positions: subtree sums over an Euler tour ranked
by pointer jumping, best up/down arcs by max/min reductions over arc
incidences, and branches labelled by pointer jumping along chains of
mutually-best arcs.  Python loops only build the output dicts and
``Branch`` objects.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, UsageError
from .tree import ContourTree, _chain_ends, _pair_key


@dataclass
class VolumeAnnotation:
    """Per-superarc counts and directional subtree volumes.

    ``outward[o]`` is the vertex count of the subtree hanging at outer
    end ``o`` including the regular vertices of o's own arc; the
    complement ``n - outward[o]`` is the inward volume.  ``closed[s]``
    is the closed rooted subtree volume of supernode ``s`` (itself plus
    all child-arc outward volumes, excluding its own arc's regulars).

    ``at_node[s]`` is vertex mass hanging directly at supernode ``s``
    without tree structure (pre-simplified subtrees); it is part of
    ``counts`` of the arc ``s`` indexes, but belongs inside ``closed[s]``
    so that cut volumes stay exact.  The root indexes no arc: mass
    hanging at the root is counted under the root's own key in both
    ``counts`` and ``at_node``, so ``sum(counts) + 1 == n`` still holds.
    Mass hanging at a regular vertex has no ``at_node`` entry; it is
    part of ``counts`` of the arc the vertex lies on.
    """

    n: int
    counts: dict[int, int] = field(repr=False)
    outward: dict[int, int] = field(default_factory=dict, repr=False)
    closed: dict[int, int] = field(default_factory=dict, repr=False)
    at_node: dict[int, int] = field(default_factory=dict, repr=False)

    def inward(self, outer: int) -> int:
        return self.n - self.outward[outer]


def superarc_counts(ct: ContourTree) -> VolumeAnnotation:
    """Count vertices per superarc (regulars plus the outer-end supernode)."""
    if not ct.is_augmented:
        raise UsageError("tree must be augmented before counting")
    outer = ct.superstructure.vertex[ct.superstructure.inner >= 0]
    counts = 1 + ct.walk_start[outer + 1] - ct.walk_start[outer]
    return VolumeAnnotation(n=ct.n, counts=dict(zip(ct.ids[outer].tolist(), counts.tolist())))


def _per_supernode(values: Mapping[int, int], supernodes: list[int]) -> np.ndarray:
    """``values`` as an array over supernode positions; absent keys are 0."""
    return np.fromiter(
        map(values.get, supernodes, itertools.repeat(0)), np.int64, len(supernodes)
    )


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
    kids = kids[np.argsort(parent[kids], kind="stable")]
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
        left += left[succ]
        succ = succ[succ]
    if (succ != k + root).any():
        raise InternalError("parent pointers do not form one tree")
    at = 2 * k - 1 - left
    tour = np.zeros(2 * k, dtype=np.int64)
    tour[at[:k]] = weight
    run = np.cumsum(tour)
    return run[at[k:]] - run[at[:k]] + weight


def hypersweep(ct: ContourTree, ann: VolumeAnnotation) -> VolumeAnnotation:
    """Aggregate counts leafward-to-root into outward subtree volumes.

    Deterministic rooted accumulation; the result is independent of
    evaluation order because integer addition is associative.  ``ann``
    may carry counts exceeding the tree's structural vertices (the
    distributed pipeline folds pre-simplified subtrees into them), so
    conservation is checked against ``ann.n``.
    """
    st = ct.superstructure
    sn = ct.supernodes
    counts = _per_supernode(ann.counts, sn)
    counts[st.root] = 0  # the root indexes no arc
    at_node = _per_supernode(ann.at_node, sn)
    outward = _subtree_sums(st.inner, st.root, counts)
    closed = outward - counts + 1 + at_node
    if closed[st.root] != ann.n:
        raise InternalError(
            f"volume conservation failed: {closed[st.root]} != {ann.n}"
        )
    arcs = np.flatnonzero(st.inner >= 0)
    return VolumeAnnotation(
        n=ann.n,
        counts=ann.counts,
        outward=dict(zip(map(sn.__getitem__, arcs.tolist()), outward[arcs].tolist())),
        closed=dict(zip(sn, closed.tolist())),
        at_node=ann.at_node,
    )


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
        """(saddle, volume, parent) identity; stable across leaf relabeling."""
        return (self.saddle, self.volume, self.parent_saddle)


@dataclass
class BranchDecomposition:
    branches: list[Branch] = field(repr=False)

    @property
    def trunk(self) -> Branch:
        for b in self.branches:
            if b.is_trunk:
                return b
        raise InternalError("no trunk present")

    def sorted_branches(self, ranks: Sequence[int]) -> list[Branch]:
        """Branches by descending volume, then ascending saddle rank (the trunk's is -1).

        One stable ``lexsort`` over the rank table, so equal keys keep their order.
        """
        branches = self.branches
        saddle = np.array([-1 if b.saddle is None else b.saddle for b in branches], dtype=np.int64)
        saddle_rank = np.where(saddle >= 0, np.asarray(ranks)[saddle], -1)
        volume = np.array([b.volume for b in branches])
        return [branches[i] for i in np.lexsort((saddle_rank, -volume)).tolist()]


def branch_decomposition(ct: ContourTree, ann: VolumeAnnotation) -> BranchDecomposition:
    """Partition superarcs into branches by best up/down arc selection.

    At each supernode the incident arc with the largest far-side volume
    in each direction (ties to the lower outer-end rank) joins that
    supernode's branch; maximal chains of mutually-best arcs form the
    branches.  Exactly one branch ends at no attachment saddle: the
    trunk.  Branches are listed by their least member id (supernode or
    arc outer end), a supernode member first on a tie.
    """
    if not ann.outward and ct.n > 1:
        raise UsageError("hypersweep volumes required")
    sn = ct.supernodes
    if len(sn) == 1:
        only = Branch(arcs=(), leaf=ct.root, volume=ct.n, is_trunk=True)
        return BranchDecomposition(branches=[only])

    st = ct.superstructure
    k, rank = len(sn), st.rank
    arcs = np.flatnonzero(st.inner >= 0)  # arc i is the one with outer end i
    inner = st.inner[arcs]
    outward = _per_supernode(ann.outward, sn)
    closed = _per_supernode(ann.closed, sn)

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

    up_deg = np.bincount(node[up], minlength=k)
    down_deg = np.bincount(node[~up], minlength=k)
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

    ids = sn.__getitem__
    members = list(map(ids, arcs[np.argsort(arc_group, kind="stable")].tolist()))
    bounds = np.cumsum(n_arcs).tolist()
    saddle_ids = [None if s < 0 else sn[s] for s in saddle.tolist()]
    (trunk_index,) = np.flatnonzero(trunk).tolist()
    branches = [
        Branch(
            arcs=tuple(members[b - c : b]),
            leaf=sn[lf],
            volume=vol,
            saddle=sd,
            parent_saddle=None if p in (-1, trunk_index) else saddle_ids[p],
            parent_index=None if p < 0 else p,
            is_trunk=p < 0,
        )
        for c, b, lf, vol, sd, p in zip(
            n_arcs.tolist(), bounds, leaf.tolist(), volume.tolist(), saddle_ids, parent.tolist()
        )
    ]
    return BranchDecomposition(branches=branches)


def check_selection(b: int | None, threshold: float | None) -> None:
    """Raise ``UsageError`` unless ``b`` (at least 1) or ``threshold`` is given."""
    if b is None and threshold is None:
        raise UsageError("either b or threshold must be given")
    if b is not None and b < 1:
        raise UsageError("branch count must be at least 1")


def select_top_branches(
    bd: BranchDecomposition,
    ranks: Sequence[int],
    b: int | None = None,
    threshold: float | None = None,
) -> tuple[list[Branch], int]:
    """Pick the top-b branches by volume, or all above a volume threshold.

    Returns the selection and the volume of the smallest retained
    branch.  The trunk sorts first (it carries the full domain volume)
    and counts toward ``b``.
    """
    check_selection(b, threshold)
    ordered = bd.sorted_branches(ranks)
    if b is not None:
        selected = ordered[:b]
    else:
        selected = [x for x in ordered if x.volume > threshold]
        if not selected:
            selected = ordered[:1]
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
