"""The array passes of ``tree`` and ``measure`` against dict-based references.

The references below are the per-vertex dict walks the array passes
replaced: the merge-tree sweep runs a ``DisjointSet`` over every
adjacent vertex and skips those not yet processed; ``combine`` runs
the leaf transfer over every vertex, not only the critical ones;
``_from_edges`` builds the rooted, augmented tree with an
adjacency DFS and walks each superarc up from its outer end;
``hypersweep`` accumulates a post-order; ``branch_decomposition`` picks
best arcs per supernode and groups them with union-find; the
distributed ``_region`` walks a depth-first preorder.  The array code
must give equal trees, volumes, branches and regions, down to the order
of every arc's regular vertices and of the branch and record lists.
"""

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import compute_join_tree, compute_split_tree, contour_tree, sos_order
from gridtopo import measure
from gridtopo import tree as gtree
from gridtopo.dist import pipeline, run_distributed
from gridtopo.errors import InternalError
from gridtopo.measure import Branch
from gridtopo.tree import tree_from_graph

from conftest import (
    Rec,
    arc_to,
    at_node,
    children_index,
    closed,
    counts,
    grid_1d,
    make_grid,
    neighbors,
    outward,
    over_ids,
    parent_map,
    random_grid,
    rank_by_id,
    record_list,
    superparent,
    tree_arrays,
)

# --- references --------------------------------------------------------------


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i: int, j: int) -> int:
        i, j = self.find(i), self.find(j)
        if i == j:
            return i
        if self.size[i] < self.size[j]:
            i, j = j, i
        self.parent[j] = i
        self.size[i] += self.size[j]
        return i


def ref_sweep(seq, neighbors, n):
    """Merge-tree arcs ``{v: to}`` and root of a union-find sweep in order ``seq``."""
    ds = DisjointSet(n)
    extreme = list(range(n))
    arcs = {}
    processed = bytearray(n)
    v = -1
    for v in seq:
        v = int(v)
        roots = []
        for u in neighbors(v):
            if processed[u]:
                r = ds.find(u)
                if r not in roots:
                    roots.append(r)
        for r in roots:
            arcs[extreme[r]] = v
        root = v
        for r in roots:
            root = ds.union(root, r)
        extreme[root] = v
        processed[v] = True
    return arcs, v


def ref_vertex_combine(join, split):
    """Contour tree edges ``(v, other)`` of the leaf transfer over every vertex.

    Each tree's state is three lists over the dense ids: parent (-1 for
    none), child count and the sum of child ids, which names the child
    of a vertex that has exactly one.
    """
    n = join.n

    def state(mt):
        (src,) = np.nonzero(mt.arcs >= 0)
        dst = mt.arcs[src]
        total = np.bincount(dst, weights=src, minlength=n).astype(np.int64)
        return mt.arcs, np.bincount(dst, minlength=n), total

    j_parent, j_count, j_sum = state(join)
    s_parent, s_count, s_sum = state(split)
    ready = ((j_count == 0) & (s_count == 1)) | ((s_count == 0) & (j_count == 1))
    queue = deque(np.flatnonzero(ready).tolist())
    queued = bytearray(ready.tobytes())
    j_parent, j_count, j_sum = j_parent.tolist(), j_count.tolist(), j_sum.tolist()
    s_parent, s_count, s_sum = s_parent.tolist(), s_count.tolist(), s_sum.tolist()

    def ready_now(v):
        return (j_count[v] == 0 and s_count[v] == 1) or (s_count[v] == 0 and j_count[v] == 1)

    edges = []
    while len(edges) < n - 1:
        v = queue.popleft()
        queued[v] = 0
        if j_count[v] == 0 and s_count[v] == 1:
            leaf_parent, leaf_count, leaf_sum = j_parent, j_count, j_sum
            reg_parent, reg_sum = s_parent, s_sum
        elif s_count[v] == 0 and j_count[v] == 1:
            leaf_parent, leaf_count, leaf_sum = s_parent, s_count, s_sum
            reg_parent, reg_sum = j_parent, j_sum
        else:
            continue
        other = leaf_parent[v]
        leaf_count[other] -= 1
        leaf_sum[other] -= v
        child = reg_sum[v]
        up = reg_parent[v]
        reg_parent[child] = up
        if up != -1:
            reg_sum[up] += child - v
        edges.append((v, other))
        if not queued[other] and ready_now(other):
            queue.append(other)
            queued[other] = 1
    return edges


@dataclass
class RefTree:
    """The reference tree as plain dicts and lists, named like the test helpers."""

    verts: list
    ranks: object
    parent: dict
    root: int
    supernodes: list
    arc_inner: dict
    superparent: dict = field(default_factory=dict)
    arc_regulars: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.verts)

    @property
    def ids(self):
        return np.asarray(self.verts, dtype=np.int64)


@dataclass
class RefVolumes:
    """The reference hypersweep's volumes as plain dicts keyed by supernode id."""

    n: int
    outward: dict
    closed: dict


def ref_from_edges(verts, ranks, edges):
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    up_deg = dict.fromkeys(verts, 0)
    down_deg = dict.fromkeys(verts, 0)
    for a, b in edges:
        lo, hi = (a, b) if ranks[a] < ranks[b] else (b, a)
        up_deg[lo] += 1
        down_deg[hi] += 1
    root = max(verts, key=lambda v: ranks[v])
    parent = {}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    assert len(seen) == len(verts)
    supernodes = sorted(v for v in verts if not (up_deg[v] == 1 and down_deg[v] == 1))
    superset = set(supernodes)
    arc_inner = {}
    for s in supernodes:
        if s == root:
            continue
        cur = parent[s]
        while cur not in superset:
            cur = parent[cur]
        arc_inner[s] = cur
    return RefTree(
        verts=list(verts), ranks=ranks, parent=parent, root=root,
        supernodes=supernodes, arc_inner=arc_inner,
    )


def ref_augment(ct):
    superset = set(ct.supernodes)
    outer_of = {s: s for s in ct.supernodes}
    arc_regulars = {s: [] for s in ct.arc_inner}
    for s in ct.arc_inner:
        cur = ct.parent[s]
        while cur not in superset:
            outer_of[cur] = s
            arc_regulars[s].append(cur)
            cur = ct.parent[cur]
    assert len(outer_of) == ct.n
    ct.superparent = outer_of
    ct.arc_regulars = arc_regulars
    return ct


def ref_hypersweep(ct, ann):
    kids = children_index(ct)
    hang, count = at_node(ann), counts(ann)
    out, shut = {}, {}
    post = []
    stack = [ct.root]
    while stack:
        s = stack.pop()
        post.append(s)
        stack.extend(kids[s])
    for s in reversed(post):
        sub = 1 + hang.get(s, 0)
        for c in kids[s]:
            sub += out[c]
        shut[s] = sub
        if s != ct.root:
            out[s] = sub + count[s] - 1 - hang.get(s, 0)
    assert shut[ct.root] == ann.n
    return RefVolumes(n=ann.n, outward=out, closed=shut)


def away_volume(ct, ann, arc_outer, at):
    """Volume beyond an arc seen from its end ``at``: outward, or the complement."""
    if arc_outer == at:
        return ann.n - ann.closed[at]
    return ann.outward[arc_outer]


def ref_branch_decomposition(ct, ann):
    ranks = rank_by_id(ct)
    kids = children_index(ct)
    if len(ct.supernodes) == 1:
        return [Branch(arcs=(), leaf=ct.root, volume=ct.n, is_trunk=True)]
    best = {}
    for s in ct.supernodes:
        candidates = []
        if s != ct.root:
            candidates.append((s, ranks[ct.arc_inner[s]] > ranks[s]))
        candidates += [(c, ranks[c] > ranks[s]) for c in kids[s]]
        for upward in (True, False):
            options = [
                ((away_volume(ct, ann, o, s), -ranks[o]), o)
                for o, is_up in candidates
                if is_up == upward
            ]
            if options:
                best[s, upward] = max(options)[1]
    token = {("s", s): i for i, s in enumerate(ct.supernodes)}
    arcs = sorted(ct.arc_inner)
    for j, a in enumerate(arcs):
        token[("a", a)] = len(ct.supernodes) + j
    ds = DisjointSet(len(token))
    for (s, _), a in best.items():
        ds.union(token[("s", s)], token[("a", a)])
    groups = {}
    for s in ct.supernodes:
        groups.setdefault(ds.find(token[("s", s)]), {"s": [], "a": []})["s"].append(s)
    for a in arcs:
        groups.setdefault(ds.find(token[("a", a)]), {"s": [], "a": []})["a"].append(a)
    up_deg, down_deg = (dict(zip(ct.supernodes, d.tolist())) for d in ct.arc_degrees())
    ordered = sorted(groups.values(), key=lambda m: min(m["a"] + m["s"]))
    group_of = {s: gi for gi, m in enumerate(ordered) for s in m["s"]}
    branches = []
    for members in ordered:
        own = set(members["s"])
        attach = None
        for a in members["a"]:
            for e in (a, ct.arc_inner[a]):
                if e not in own:
                    assert attach is None or attach[0] == e
                    attach = (e, a)
        ends = [s for s in own if up_deg[s] == 0 or down_deg[s] == 0]
        arcs_t = tuple(sorted(members["a"]))
        if attach is None:
            assert len(ends) == 2
            leaf = min(ends, key=lambda v: ranks[v])
            branches.append(Branch(arcs=arcs_t, leaf=leaf, volume=ann.n, is_trunk=True))
        else:
            assert len(ends) == 1
            saddle, terminal = attach
            branches.append(
                Branch(arcs=arcs_t, leaf=ends[0],
                       volume=away_volume(ct, ann, terminal, saddle), saddle=saddle)
            )
    for gi, b in enumerate(branches):
        if not b.is_trunk:
            p = group_of[b.saddle]
            b.parent_index = p
            b.parent_saddle = None if branches[p].is_trunk else branches[p].saddle
    return branches


def ref_region(rank, extent, ct, values, boundary, mass_verts, mass):
    """The Steiner tree and hanging records by one preorder walk with per-vertex dicts.

    It reads and returns ids: ``boundary`` and ``mass_verts`` are ids, and
    so are the ``kept_edges`` and ``mass_at`` of the state it returns.
    """
    value_of = dict(zip(sorted(ct.ids.tolist()), values.tolist()))
    mass_at = {}
    for v, m in zip(mass_verts.tolist(), mass.tolist()):
        mass_at[v] = mass_at.get(v, 0) + m
    parent = parent_map(ct)
    kids = {v: [] for v in ct.ids.tolist()}
    for v, p in parent.items():
        kids[p].append(v)
    pre = []
    stack = [ct.root]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(kids[v])
    pos = {v: i for i, v in enumerate(pre)}
    marks = set(boundary.tolist()) or {ct.root}
    size = dict.fromkeys(pre, 1)
    below = {v: int(v in marks) for v in pre}
    busy = dict.fromkeys(pre, 0)
    for v in reversed(pre):
        p = parent.get(v)
        if p is not None:
            size[p] += size[v]
            below[p] += below[v]
            busy[p] += below[v] > 0
    total = below[ct.root]
    top = ct.root
    while top not in marks and busy[top] == 1:
        top = next(c for c in kids[top] if below[c])
    kept = [
        v
        for v in pre[pos[top] : pos[top] + size[top]]
        if v in marks or 0 < below[v] < total or busy[v] >= 2
    ]
    kept_set = set(kept)
    hanging = []
    for v in kept:
        for c in kids[v]:
            if not below[c]:
                hanging.append((v, c, pre[pos[c] : pos[c] + size[c]]))
    if top != ct.root:
        hanging.append((top, parent[top], pre[: pos[top]] + pre[pos[top] + size[top] :]))
    turned = {}
    v = top
    while v != ct.root:
        turned[parent[v]] = v
        v = parent[v]
    records = []
    new_mass = {v: m for v, m in mass_at.items() if v in kept_set}
    for attach, head, verts in hanging:
        edges = [(head, attach)] + [
            (u, p)
            for u in verts
            if (p := turned.get(u, parent.get(u))) is not None and p != attach
        ]
        weight = len(verts) + sum(mass_at.get(u, 0) for u in verts)
        records.append(Rec(attach, sorted(verts), edges, weight, rank))
        new_mass[attach] = new_mass.get(attach, 0) + weight
    records.sort(key=lambda r: r.verts[0])
    kept_ids, held = sorted(kept_set), sorted(new_mass)
    return pipeline.RegionState(
        rank=rank,
        extent=extent,
        num_vertices=math.prod(extent.shape),
        kept_verts=np.array(kept_ids, dtype=np.int64),
        values=np.array([value_of[v] for v in kept_ids], dtype=np.float64),
        kept_edges=np.array(
            [(v, parent[v]) for v in kept if v != top], dtype=np.int64
        ).reshape(-1, 2),
        mass_at=np.array(held, dtype=np.int64),
        mass=np.array([new_mass[v] for v in held], dtype=np.int64),
        records=records,
    )


# --- comparisons -------------------------------------------------------------


def assert_same_merge_tree(got, want_arc_to, want_root):
    assert sorted(arc_to(got).items()) == sorted(want_arc_to.items())
    assert got.root == want_root


def check_grid_sweeps(grid):
    """Both grid merge trees against the reference sweep over the full stencil."""
    order = sos_order(grid)
    nbrs = partial(neighbors, grid)
    assert_same_merge_tree(
        compute_join_tree(grid, order), *ref_sweep(order.vertex_at[::-1], nbrs, grid.n)
    )
    assert_same_merge_tree(
        compute_split_tree(grid, order), *ref_sweep(order.vertex_at, nbrs, grid.n)
    )


def assert_same_tree(got, want):
    """A tree against a ``RefTree``."""
    assert got.ids.tolist() == want.ids.tolist()
    assert got.root == want.root
    assert parent_map(got) == want.parent
    assert got.supernodes == want.supernodes
    assert list(got.arc_inner.items()) == list(want.arc_inner.items())
    assert superparent(got) == want.superparent
    assert list(got.arc_regulars.items()) == list(want.arc_regulars.items())


def assert_same_measures(ct, ann):
    """Both hypersweeps and both decompositions agree on ``ct`` and ``ann``."""
    got = measure.hypersweep(ct, ann)
    want = ref_hypersweep(ct, ann)
    assert outward(got) == want.outward
    assert closed(got) == want.closed
    assert list(measure.branch_decomposition(ct, got).branches) == (
        ref_branch_decomposition(ct, want)
    )


def check_tree_input(verts, values, edges):
    """``_from_edges`` against the reference, ranking ``verts`` by (value, id) in Python."""
    got = over_ids(gtree._from_edges, verts, values, edges)
    ranks = {v: r for r, (_, v) in enumerate(sorted(zip(values, verts)))}
    want = ref_augment(ref_from_edges(verts, ranks, edges))
    assert_same_tree(got, want)
    return got


def check_combine(call, ranks):
    """A recorded ``combine`` against the reference tree of the vertex-level edges.

    Compares ``up``, the superstructure, every vertex's superarc and
    every arc's regular vertices in walk order.
    """
    join, split = call["join"], call["split"]
    want = ref_from_edges(range(join.n), ranks, ref_vertex_combine(join, split))
    got = call["tree"]
    assert_same_tree(got, ref_augment(want))
    return got


def check_grid(grid):
    """Tree, volumes and branches of ``grid`` against the references.

    The reference tree is built from the vertex-level leaf transfer's
    edge list, in leaf-transfer orientation.
    """
    order = sos_order(grid)
    join, split = compute_join_tree(grid, order), compute_split_tree(grid, order)
    call = {"join": join, "split": split, "tree": gtree.combine(join, split, order.rank_of)}
    ct = check_combine(call, order.rank_of)
    assert tree_arrays(contour_tree(grid, order)) == tree_arrays(ct)
    assert_same_measures(ct, measure.superarc_counts(ct))


GRIDS = {
    "single": make_grid((1, 1, 1), [2.0]),
    "1d": grid_1d([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]),
    "1d-z": make_grid((1, 1, 12), np.random.default_rng(4).random(12)),
    "constant": make_grid((4, 4, 2), np.zeros(32)),
    "tied": make_grid((6, 5, 2), np.arange(60) % 3),
    "tied-binary": make_grid((4, 4, 4), np.random.default_rng(3).integers(0, 2, 64)),
    "random-2d": random_grid((9, 7, 1), 3),
    "random-3d": random_grid((5, 4, 3), 1),
    "random-3d-large": random_grid((8, 7, 6), 2),
}


@pytest.mark.parametrize("name", list(GRIDS))
def test_grid_matches_reference(name):
    check_grid(GRIDS[name])


SWEEP_GRIDS = {
    "single": make_grid((1, 1, 1), [2.0]),
    "1d-x": grid_1d([3, 1, 4, 1, 5, 9, 2, 6, 5, 3]),
    "1d-y": make_grid((1, 11, 1), np.random.default_rng(5).random(11)),
    "1d-z": make_grid((1, 1, 12), np.random.default_rng(4).random(12)),
    "slab-1xNxM": random_grid((1, 5, 6), 6),
    "slab-Nx1xM": random_grid((5, 1, 6), 7),
    "random-2d": random_grid((9, 7, 1), 3),
    "random-3d": random_grid((5, 4, 3), 1),
    "random-3d-large": random_grid((8, 7, 6), 2),
    "tied-2d": make_grid((7, 6, 1), np.random.default_rng(8).integers(0, 3, 42)),
    "tied-3d": make_grid((6, 5, 2), np.arange(60) % 3),
    "tied-binary": make_grid((4, 4, 4), np.random.default_rng(3).integers(0, 2, 64)),
    "constant-2d": make_grid((6, 5, 1), np.zeros(30)),
    "constant-3d": make_grid((4, 4, 2), np.zeros(32)),
}


@pytest.mark.parametrize("name", list(SWEEP_GRIDS))
def test_grid_sweeps_match_reference(name):
    check_grid_sweeps(SWEEP_GRIDS[name])


GRAPHS = {
    "star": ([(0, i) for i in range(1, 9)], 9),
    "path": ([(i, i + 1) for i in range(11)], 12),
    "duplicate-edges": ([(0, 1), (1, 2), (2, 0), (1, 0), (3, 2), (2, 3), (3, 4), (4, 4)], 5),
}


@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("seed", range(4))
def test_graph_sweeps_match_reference(name, seed, combine_calls):
    """The merge trees ``tree_from_graph`` builds, and their combine, against the references.

    The reference sweeps the graph's own ids in rank order and lists
    every adjacent vertex, as the merge did before.
    """
    edges, n = GRAPHS[name]
    ranks = np.random.default_rng(seed).permutation(n).tolist()
    tree_from_graph(ranks, edges)
    (call,) = combine_calls
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    rising = sorted(range(n), key=ranks.__getitem__)
    assert_same_merge_tree(call["join"], *ref_sweep(rising[::-1], adjacency.__getitem__, n))
    assert_same_merge_tree(call["split"], *ref_sweep(rising, adjacency.__getitem__, n))
    check_combine(call, call["ranks"])


@pytest.mark.parametrize(
    "edges,n",
    [([(0, i) for i in range(1, 9)], 9), ([(i, i + 1) for i in range(11)], 12)],
    ids=["star", "path"],
)
@pytest.mark.parametrize("seed", range(4))
def test_graph_matches_reference(edges, n, seed, combine_calls):
    ranks = np.random.default_rng(seed).permutation(n).tolist()
    ct = tree_from_graph(ranks, edges)
    (call,) = combine_calls
    # The merge combines over the graph's own ids, which ascend.
    check_combine(call, call["ranks"])
    assert_same_measures(ct, measure.superarc_counts(ct))


def test_sparse_ids_match_reference():
    """Global ids with gaps, edges in any orientation-consistent order."""
    rng = np.random.default_rng(7)
    verts = sorted(rng.choice(1000, size=40, replace=False).tolist())
    ranks = [0] * 1000
    for r, v in enumerate(rng.permutation(verts).tolist()):
        ranks[v] = r
    edges = [(verts[i], verts[int(rng.integers(0, i))]) for i in range(1, 40)]
    rng.shuffle(edges)
    ct = check_tree_input(verts, [ranks[v] for v in verts], edges)
    assert_same_measures(ct, measure.superarc_counts(ct))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    width=st.integers(1, 60),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_rooted_trees_match_reference(n, width, levels, seed):
    """Labelled trees rooted at a random input vertex, with tied values and shuffled rows.

    Each vertex hangs from one of the ``width`` labelled before it, so a
    small width makes long chains.  The input root is sometimes a regular
    vertex, so re-rooting turns a path around in the middle of a
    superarc; ties leave arcs with no regular vertex.
    """
    rng = np.random.default_rng(seed)
    verts = sorted(rng.choice(4 * n, size=n, replace=False).tolist())
    label = rng.permutation(verts).tolist()
    parent = {label[i]: label[int(rng.integers(max(0, i - width), i))] for i in range(1, n)}
    # Turn the path from a random vertex up to label[0] around: that vertex is the input root.
    v, below = verts[int(rng.integers(n))], None
    while v is not None:
        above = parent.pop(v, None)
        if below is not None:
            parent[v] = below
        v, below = above, v
    edges = list(parent.items())
    rng.shuffle(edges)
    values = rng.integers(0, levels, n).tolist()
    ct = check_tree_input(verts, values, edges)
    assert_same_measures(ct, measure.superarc_counts(ct))


@pytest.mark.parametrize("lam", [3, 20])
def test_distributed_annotation_matches_reference(lam):
    """A pre-simplified tree with pruned mass folded in through ``at_node``."""
    grid = random_grid((10, 9, 4), 11)
    result = run_distributed(grid, (2, 2, 1), lam=lam, b=10)
    ann = result.post_volumes
    assert at_node(ann), "expected pruned mass hanging at supernodes"
    ct = result.augmented_tree
    assert_same_measures(ct, dataclasses.replace(ann, out_volume=None, closed_volume=None))
    # The augmented tree's own build input: base edges plus retained records.
    base = result.base_tree
    retained = record_list(result.retained)
    verts = sorted(base.ids.tolist() + [v for rec in retained for v in rec.verts])
    edges = list(parent_map(base).items()) + [e for rec in retained for e in rec.edges]
    check_tree_input(verts, grid.values[verts].tolist(), edges)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3)),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_small_grids_match_reference(dims, levels, seed):
    n = dims[0] * dims[1] * dims[2]
    values = np.random.default_rng(seed).integers(0, levels, n)
    check_grid(make_grid(dims, values))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
    levels=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_small_grid_sweeps_match_reference(dims, levels, seed):
    n = dims[0] * dims[1] * dims[2]
    values = np.random.default_rng(seed).integers(0, levels, n)
    check_grid_sweeps(make_grid(dims, values))


# --- distributed regions -----------------------------------------------------


def assert_same_region(got, want):
    """``got``'s edges and mass hold positions in its ``kept_verts``; ``want``'s hold ids."""
    for name in ("kept_verts", "values", "kept_edges", "mass_at", "mass"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
    assert got.kept_verts.tolist() == want.kept_verts.tolist()
    assert got.values.tolist() == want.values.tolist()
    got_edges = got.kept_verts[got.kept_edges]
    assert set(map(tuple, got_edges.tolist())) == set(map(tuple, want.kept_edges.tolist()))
    assert got_edges.shape == want.kept_edges.shape
    assert got.kept_verts[got.mass_at].tolist() == want.mass_at.tolist()
    assert got.mass.tolist() == want.mass.tolist()
    assert (got.rank, got.extent, got.num_vertices) == (want.rank, want.extent, want.num_vertices)
    assert len(got.records) == len(want.records)
    for g, w in zip(record_list(got.records), want.records):
        assert (g.attach, g.verts, g.measure, g.rank) == (w.attach, w.verts, w.measure, w.rank)
        assert g.edges[0] == w.edges[0]
        assert set(g.edges) == set(w.edges) and len(g.edges) == len(w.edges)


REGION_RUNS = {
    "1d-blocks": (random_grid((31, 1, 1), 2), (3, 1, 1)),
    "2d-8-blocks": (random_grid((12, 10, 1), 7), (4, 2, 1)),
    "2d-16-blocks": (random_grid((16, 16, 1), 1), (4, 4, 1)),
    "3d-4-blocks": (random_grid((10, 10, 4), 5), (2, 2, 1)),
    "3d-27-blocks": (random_grid((9, 9, 9), 1), (3, 3, 3)),
    "constant": (make_grid((6, 6, 6), np.zeros(216)), (2, 2, 2)),
    "tied": (make_grid((8, 6, 4), np.random.default_rng(6).integers(0, 3, 192)), (2, 2, 2)),
}


@pytest.mark.parametrize("name", list(REGION_RUNS))
def test_regions_and_relabels_match_reference(name, monkeypatch):
    """Every region split of a run, local phase and each fan-in level.

    Each tree handed to a split needs no relabelling: its ids ascend, its
    own ranks order them as the grid's order does, its supernodes hold
    those ranks, and it equals the reference tree over its own edges.
    The records carry their vertices' values and whether each head
    ranks above its attachment in the grid's order.
    """
    grid, splits = REGION_RUNS[name]
    rank_of = sos_order(grid).rank_of
    real_region = pipeline._region
    seen = {"regions": 0, "with_mass": 0, "shared_mass": 0}

    def checked_region(rank, extent, ct, values, boundary, mass_at, mass):
        assert (np.diff(ct.ids) > 0).all()
        st = ct.superstructure
        assert np.array_equal(st.rank, ct.ranks[st.vertex])
        # Listed by global rank, the vertices take local ranks 0, 1, 2, ...
        assert np.array_equal(ct.ranks[np.argsort(rank_of[ct.ids])], np.arange(ct.n))
        child = np.flatnonzero(ct.up >= 0)
        edges = zip(ct.ids[child].tolist(), ct.ids[ct.up[child]].tolist())
        ranks = rank_by_id(ct)
        assert_same_tree(ct, ref_augment(ref_from_edges(ct.ids.tolist(), ranks, list(edges))))
        got = real_region(rank, extent, ct, values, boundary, mass_at, mass)
        want = ref_region(rank, extent, ct, values, ct.ids[boundary], ct.ids[mass_at], mass)
        assert_same_region(got, want)
        recs = got.records
        assert np.array_equal(recs.values, grid.values[recs.verts])
        assert np.array_equal(recs.rises, rank_of[recs.head] > rank_of[recs.attach])
        seen["regions"] += 1
        seen["with_mass"] += bool(mass.size)
        # A merge whose two regions both carry mass at one vertex.
        seen["shared_mass"] += np.unique(mass_at).size < mass_at.size
        return got

    monkeypatch.setattr(pipeline, "_region", checked_region)
    run_distributed(grid, splits, lam=0, b=10)
    # One region per block, then one per merge.
    assert seen["regions"] == 2 * math.prod(splits) - 1
    # A 1D block's contour tree is its own path and a constant field is a
    # ramp in vertex order: neither cuts records, so no mass is carried.
    if name not in ("1d-blocks", "constant"):
        assert seen["with_mass"] > 0
    # Both 2D runs reach merges that add two regions' mass at one vertex.
    if name.startswith("2d-"):
        assert seen["shared_mass"] > 0


# --- malformed edge lists ----------------------------------------------------


@pytest.mark.parametrize(
    "values,edges",
    [
        (list(range(6)), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
        (list(range(6)), [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        (list(range(4)), [(0, 1), (1, 0), (2, 3)]),
        (list(range(6)), [(0, 1), (1, 2), (2, 3)]),
        (list(range(6)), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        ([0, 1, 2], [(0, 1), (1, 3)]),
        ([10, 20, 30], [(0, 1), (2**40, 2)]),
        ([0, 1, 2], [(0, 1), (1, -1)]),
        (list(range(20000)), [(i, (i + 1) % 19999) for i in range(19999)]),
        (list(range(6)), [(5, 4), (4, 3), (3, 5), (0, 1), (1, 2)]),
    ],
    ids=[
        "cycle", "two-parents", "disconnected-pair", "too-few-edges",
        "too-many-edges", "id-outside", "sparse-id-outside", "negative-id",
        "long-cycle", "cycle-through-top",
    ],
)
def test_from_edges_rejects_malformed(values, edges):
    with pytest.raises(InternalError):
        gtree._from_edges(values, edges)
