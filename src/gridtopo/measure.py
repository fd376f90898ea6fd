"""Superarc vertex counts, subtree volumes, and branch decomposition.

Counting convention: every superarc counts its regular vertices plus
its outer-end supernode, so the superarc totals plus one (the root)
partition the vertex set exactly.  Subtree volumes are physical-cut
counts: the outward volume of an arc is the number of vertices strictly
on its outer side when the tree is severed at the inner end.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import InternalError, UsageError
from .tree import ContourTree


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
    counts = {outer: 1 + len(regs) for outer, regs in ct.arc_regulars.items()}
    return VolumeAnnotation(n=ct.n, counts=counts)


def hypersweep(ct: ContourTree, ann: VolumeAnnotation) -> VolumeAnnotation:
    """Aggregate counts leafward-to-root into outward subtree volumes.

    Deterministic rooted accumulation; the result is independent of
    evaluation order because integer addition is associative.  ``ann``
    may carry counts exceeding the tree's structural vertices (the
    distributed pipeline folds pre-simplified subtrees into them), so
    conservation is checked against ``ann.n``.
    """
    kids = ct.children_index()
    outward: dict[int, int] = {}
    closed: dict[int, int] = {}

    post: list[int] = []
    stack = [ct.root]
    while stack:
        s = stack.pop()
        post.append(s)
        stack.extend(kids[s])
    for s in reversed(post):
        sub = 1 + ann.at_node.get(s, 0)
        for c in kids[s]:
            sub += outward[c]
        closed[s] = sub
        if s != ct.root:
            outward[s] = sub + ann.counts[s] - 1 - ann.at_node.get(s, 0)
    if closed[ct.root] != ann.n:
        raise InternalError(
            f"volume conservation failed: {closed[ct.root]} != {ann.n}"
        )
    return VolumeAnnotation(
        n=ann.n,
        counts=ann.counts,
        outward=outward,
        closed=closed,
        at_node=ann.at_node,
    )


def away_volume(ct: ContourTree, ann: VolumeAnnotation, arc_outer: int, at: int) -> int:
    """Subtree volume on the far side of an arc as seen from supernode ``at``.

    For a child arc this is its outward volume; for the supernode's own
    (parent-facing) arc it is everything outside the closed subtree.
    """
    if arc_outer == at:
        return ann.n - ann.closed[at]
    return ann.outward[arc_outer]


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
        def sort_key(b: Branch):
            saddle_rank = -1 if b.saddle is None else ranks[b.saddle]
            return (-b.volume, saddle_rank)

        return sorted(self.branches, key=sort_key)


def branch_decomposition(ct: ContourTree, ann: VolumeAnnotation) -> BranchDecomposition:
    """Partition superarcs into branches by best up/down arc selection.

    At each supernode the incident arc with the largest far-side volume
    in each direction (ties to the lower outer-end rank) joins that
    supernode's branch; maximal chains of mutually-best arcs form the
    branches.  Exactly one branch ends at no attachment saddle: the
    trunk.
    """
    if not ann.outward and ct.n > 1:
        raise UsageError("hypersweep volumes required")
    ranks = ct.ranks
    kids = ct.children_index()

    if len(ct.supernodes) == 1:
        only = Branch(arcs=(), leaf=ct.root, volume=ct.n, is_trunk=True)
        return BranchDecomposition(branches=[only])

    # Incident arcs per supernode: (arc_outer, far_rank) tagged up/down.
    best_up: dict[int, int] = {}
    best_down: dict[int, int] = {}
    for s in ct.supernodes:
        candidates: list[tuple[int, bool]] = []
        if s != ct.root:
            inner = ct.arc_inner[s]
            candidates.append((s, ranks[inner] > ranks[s]))
        for c in kids[s]:
            candidates.append((c, ranks[c] > ranks[s]))
        for upward in (True, False):
            best = None
            best_val = None
            for outer, is_up in candidates:
                if is_up != upward:
                    continue
                vol = away_volume(ct, ann, outer, s)
                val = (vol, -ranks[outer])
                if best_val is None or val > best_val:
                    best, best_val = outer, val
            if best is not None:
                if upward:
                    best_up[s] = best
                else:
                    best_down[s] = best

    # Branch membership: union supernodes with their best arcs.
    token = {}
    for i, s in enumerate(ct.supernodes):
        token[("s", s)] = i
    arcs = sorted(ct.arc_inner)
    for j, a in enumerate(arcs):
        token[("a", a)] = len(ct.supernodes) + j
    from .sweep import DisjointSet

    ds = DisjointSet(len(token))
    for s in ct.supernodes:
        for best in (best_up.get(s), best_down.get(s)):
            if best is not None:
                ds.union(token[("s", s)], token[("a", best)])

    groups: dict[int, dict[str, list[int]]] = {}
    for s in ct.supernodes:
        r = ds.find(token[("s", s)])
        groups.setdefault(r, {"s": [], "a": []})["s"].append(s)
    for a in arcs:
        r = ds.find(token[("a", a)])
        groups.setdefault(r, {"s": [], "a": []})["a"].append(a)

    up_deg, down_deg = ct.arc_degrees()

    branches: list[Branch] = []
    group_of_supernode: dict[int, int] = {}
    ordered_groups = sorted(groups.items(), key=lambda kv: min(kv[1]["a"] + kv[1]["s"]))
    for gi, (_, members) in enumerate(ordered_groups):
        for s in members["s"]:
            group_of_supernode[s] = gi

    for _, members in ordered_groups:
        own = set(members["s"])
        group_arcs = members["a"]
        if not group_arcs:
            raise InternalError("branch with supernodes but no arcs")
        attach: tuple[int, int] | None = None
        ends: list[int] = []
        for a in group_arcs:
            for e in (a, ct.arc_inner[a]):
                if e not in own:
                    if attach is not None and attach[0] != e:
                        raise InternalError("branch attached at two saddles")
                    attach = (e, a)
        for s in own:
            if up_deg[s] == 0 or down_deg[s] == 0:
                ends.append(s)
        if attach is None:
            if len(ends) != 2:
                raise InternalError("trunk must own exactly two extremum ends")
            leaf = min(ends, key=lambda v: ranks[v])
            branches.append(
                Branch(arcs=tuple(sorted(group_arcs)), leaf=leaf, volume=ann.n, is_trunk=True)
            )
        else:
            if len(ends) != 1:
                raise InternalError("branch must own exactly one extremum end")
            saddle, terminal = attach
            branches.append(
                Branch(
                    arcs=tuple(sorted(group_arcs)),
                    leaf=ends[0],
                    volume=away_volume(ct, ann, terminal, saddle),
                    saddle=saddle,
                )
            )

    trunks = [b for b in branches if b.is_trunk]
    if len(trunks) != 1:
        raise InternalError(f"expected exactly one trunk, found {len(trunks)}")
    for gi, b in enumerate(branches):
        if b.is_trunk:
            continue
        parent_group = group_of_supernode[b.saddle]
        if parent_group == gi:
            raise InternalError("branch attached to itself")
        parent = branches[parent_group]
        b.parent_index = parent_group
        b.parent_saddle = None if parent.is_trunk else parent.saddle
    return BranchDecomposition(branches=branches)


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
    if b is None and threshold is None:
        raise UsageError("either b or threshold must be given")
    ordered = bd.sorted_branches(ranks)
    if b is not None:
        if b < 1:
            raise UsageError("branch count must be at least 1")
        selected = ordered[:b]
    else:
        selected = [x for x in ordered if x.volume > threshold]
        if not selected:
            selected = ordered[:1]
    return selected, selected[-1].volume


def write_branch_csv(
    selected: list[Branch],
    values: Sequence[float] | Mapping[int, float],
    stream: io.TextIOBase,
    root: int,
) -> None:
    """Branch table: one row per selected branch, volume-descending order."""
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
                repr(values[saddle]),
                br.leaf,
                repr(values[br.leaf]),
                br.volume,
                parent,
            ]
        )
