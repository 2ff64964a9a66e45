"""The vertex-disjoint path and GF(p) rank kernels against exact oracles on
seeded random instances."""

import random
import sys
from collections import Counter, deque
from itertools import combinations

import pytest

from sharecircuit import _kernels


def split_graph_paths(succ, sources, sinks):
    """Independent oracle: the flow value of the vertex-split graph, found by
    breadth-first augmenting paths over explicit residual arcs. Vertex v is
    node v (in) and node v + V (out), joined by a capacity-1 arc; edge
    (u, w) is the arc u + V -> w, and the source and sink reach the
    terminals by arcs of their own. Arc e ^ 1 is the residual twin of arc e."""
    V = len(succ)
    source, sink = 2 * V, 2 * V + 1
    arcs = [(v, v + V) for v in range(V)]
    arcs += [(u + V, w) for u in range(V) for w in succ[u]]
    arcs += [(source, s) for s in set(sources)] + [(t + V, sink) for t in sinks]
    adj = [[] for _ in range(2 * V + 2)]
    to, cap = [], []
    for u, w in arcs:
        adj[u].append(len(to))
        adj[w].append(len(to) + 1)
        to += [w, u]
        cap += [1, 0]
    flow = 0
    while True:
        arc_in = {source: None}
        queue = deque([source])
        while queue and sink not in arc_in:
            u = queue.popleft()
            for e in adj[u]:
                if cap[e] and to[e] not in arc_in:
                    arc_in[to[e]] = e
                    queue.append(to[e])
        if sink not in arc_in:
            return flow
        v = sink
        while v != source:
            e = arc_in[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = to[e ^ 1]
        flow += 1


def min_vertex_cut(succ, sources, sinks):
    """Independent oracle: the fewest vertices whose removal leaves no path
    from a source to a sink (terminals may be removed), by trying every
    vertex set in order of size. By Menger's theorem it equals the largest
    number of vertex-disjoint paths."""
    V = len(succ)
    for size in range(V + 1):
        for cut in map(set, combinations(range(V), size)):
            reached = {s for s in sources if s not in cut}
            stack = list(reached)
            while stack:
                for w in succ[stack.pop()]:
                    if w not in cut and w not in reached:
                        reached.add(w)
                        stack.append(w)
            if not reached & set(sinks):
                return size


def random_digraph(rng):
    """Successor lists on up to 9 vertices with cycles, self-loops and
    parallel edges, and terminal sets that may repeat and overlap."""
    V = rng.randrange(1, 10)
    succ = [[] for _ in range(V)]
    for _ in range(rng.randrange(0, 3 * V)):
        succ[rng.randrange(V)].append(rng.randrange(V))
    sources = rng.choices(range(V), k=rng.randrange(0, V + 2))
    sinks = set(rng.sample(range(V), rng.randrange(0, V + 1)))
    return succ, sources, sinks


def test_pure_maxflow_basics():
    # two disjoint paths, 0 -> 2 -> 4 and 1 -> 3 -> 5
    assert _kernels.maxflow_unit([[2], [3], [4], [5], [], []], (0, 1), {4, 5}) == 2
    # no path, and empty terminal sets
    assert _kernels.maxflow_unit([[1], [], []], (0,), {2}) == 0
    assert _kernels.maxflow_unit([[1], []], (), {1}) == 0
    assert _kernels.maxflow_unit([[1], []], (0,), set()) == 0
    # a funnel: both sources pass through vertex 2, and vertices bind
    assert _kernels.maxflow_unit([[2], [2], [3], []], (0, 1), {3}) == 1
    # 0 first takes sink 2; 1 reaches 2 only by rerouting 0's path to 3
    assert _kernels.maxflow_unit([[2, 3], [2], [], []], (0, 1), {2, 3}) == 2
    # 0's path 0 -> 2 -> 3 -> 4 is found first; 1 reaches sink 4 only by
    # taking over 3 and undoing 2, which sends 0 on by 5 to sink 6
    succ = [[2, 5], [3], [3], [4], [], [6], []]
    assert _kernels.maxflow_unit(succ, (0, 1), {4, 6}) == 2
    # a source that another source's path runs through, listed first
    assert _kernels.maxflow_unit([[1, 3], [2], [], []], (1, 0), {2, 3}) == 2
    assert _kernels.maxflow_unit([[1], [2], []], (1, 0), {2}) == 1
    # a source listed twice counts once; one that is also a sink is a path
    # of its own, and shares its vertex with no other path
    assert _kernels.maxflow_unit([[1], []], (0, 0), {1}) == 1
    assert _kernels.maxflow_unit([[1], [], []], (0, 2), {1, 2}) == 2
    assert _kernels.maxflow_unit([[1], []], (0, 1), {1}) == 1


def test_pure_rank_basics():
    assert _kernels.gf_rank(0, 0, [], 7) == 0
    assert _kernels.gf_rank(2, 2, [1, 0, 0, 1], 7) == 2
    assert _kernels.gf_rank(2, 2, [1, 2, 2, 4], 7) == 1


def test_pure_maxflow_equals_the_minimum_vertex_cut():
    # The kernel returns only a count, so a maximum flow is pinned by its
    # value: no fewer paths than a smallest cut allows, and no more.
    values = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        succ, sources, sinks = random_digraph(rng)
        flow = _kernels.maxflow_unit(succ, sources, sinks)
        assert flow == min_vertex_cut(succ, sources, sinks), seed
        values[flow] += 1
    assert len(values) >= 4


def test_max_matching_matches_max_flow():
    # Left vertices 0..a-1, right vertices a..a+b-1. Repeated left vertices,
    # repeated neighbours, neighbours outside the sinks, and empty sides all
    # occur; on a bipartite graph the kernel is a matching.
    sizes = set()
    for seed in range(300):
        rng = random.Random(seed)
        a, b = rng.randrange(0, 9), rng.randrange(1, 9)
        succ = [[a + rng.randrange(b) for _ in range(rng.randrange(0, 5))] for _ in range(a)]
        succ += [[] for _ in range(b)]
        left = rng.choices(range(a), k=rng.randrange(0, a + 3)) if a else []
        right = set(rng.sample(range(a, a + b), rng.randrange(0, b + 1)))
        want = split_graph_paths(succ, left, right)
        assert _kernels.maxflow_unit(succ, left, right) == want, seed
        sizes.add(want)
    assert len(sizes) >= 6


def test_max_matching_is_iterative():
    # Left u is vertex u and right u vertex n + 1 + u. Left u < n is offered
    # right u first, then u + 1; left n only right 0. The first pass matches
    # u to u, so left n needs the augmenting path n -> 0 -> 0 -> 1 -> 1 ->
    # ... -> n, with n alternations: deeper than the recursion limit.
    n = sys.getrecursionlimit() + 100
    succ = [(n + 1 + u, n + 2 + u) for u in range(n)] + [(n + 1,)]
    succ += [()] * (n + 1)
    assert _kernels.maxflow_unit(succ, range(n + 1), set(range(n + 1, 2 * n + 2))) == n + 1


def test_maxflow_unit_matches_the_split_graph_oracle_on_dags():
    # DAGs with vertices numbered in random order, parallel and skip edges,
    # stray vertices on no terminal path, and sources anywhere in the order,
    # so that some have in-edges and paths may run through them.
    seen = Counter()
    for seed in range(600):
        rng = random.Random(seed)
        V = rng.randrange(2, 16)
        rank = list(range(V))  # topological position -> vertex number
        rng.shuffle(rank)
        succ = [[] for _ in range(V)]
        for _ in range(rng.randrange(0, 3 * V)):
            a, b = sorted(rng.sample(range(V), 2))
            succ[rank[a]] += [rank[b]] * rng.choice((1, 1, 2))
        terminals = rng.sample(range(V), rng.randrange(2, V + 1))
        cut = rng.randrange(1, len(terminals))
        sources, sinks = terminals[:cut], set(terminals[cut:])
        want = split_graph_paths(succ, sources, sinks)
        assert _kernels.maxflow_unit(succ, sources, sinks) == want, seed
        entered = {w for ws in succ for w in ws}
        seen["source with in-edges"] += any(s in entered for s in sources)
        seen["stray"] += len(terminals) < V
        seen["parallel"] += any(len(set(ws)) < len(ws) for ws in succ)
        seen["flow", min(want, 2)] += 1
    for kind in ("source with in-edges", "stray", "parallel"):
        assert seen[kind] >= 100, (kind, seen)
    assert all(seen["flow", k] >= 50 for k in range(3)), seen


def oracle_rank(rows, cols, entries, p):
    """Rank over GF(p) by fraction-free elimination: a row is cleared at the
    pivot column by row' = a * row - b * pivot_row, which needs no field
    inverse. Python integers keep every step exact at any width of p."""
    mat = [[entries[r * cols + c] % p for c in range(cols)] for r in range(rows)]
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, rows):
            b = mat[r][c]
            if b:
                mat[r] = [(top[c] * x - b * y) % p for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def random_rank_instance(rng, p):
    """A rows x cols matrix (each 1..12) with entries in [-p, 2p), so that the
    kernel's own reduction is exercised, and with rank-deficient rows planted
    in most draws: copies, zero rows and multiples of other rows."""
    rows, cols = rng.randrange(1, 13), rng.randrange(1, 13)
    mat = [[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randrange(rows)):
        i, j = rng.randrange(rows), rng.randrange(rows)
        kind = rng.choice(("copy", "zero", "multiple"))
        if kind == "copy":
            mat[i] = mat[j][:]
        elif kind == "zero":
            mat[i] = [0] * cols
        else:
            k = rng.randrange(1, p)
            mat[i] = [k * x for x in mat[j]]
    return rows, cols, [x for row in mat for x in row]


# Small primes, the 61-bit default, and two moduli past 64-bit words:
# 2^64 - 59 (the largest 64-bit prime) and the Mersenne prime 2^89 - 1.
@pytest.mark.parametrize("p", [3, 7, 101, 2**61 - 1, 2**64 - 59, 2**89 - 1])
def test_gf_rank_matches_fraction_free_oracle(p):
    deficient = 0
    for seed in range(300):
        rng = random.Random(seed)
        rows, cols, entries = random_rank_instance(rng, p)
        rank = _kernels.gf_rank(rows, cols, entries, p)
        assert rank == oracle_rank(rows, cols, entries, p), (seed, rows, cols)
        deficient += rank < min(rows, cols)
    assert deficient >= 50  # the planted dependencies are really exercised


def reduce_row(basis, row, p):
    """Oracle: one list-row step of fraction-free elimination. Reduce `row`
    (entries in [0, p)) against an echelon basis of (pivot column, row)
    pairs, each row zero on the pivot columns of the pairs before it, by
    row <- b[c]*row - row[c]*b (mod p) for each pair (c, b); append it with
    its first nonzero column as pivot and return that column, or return -1
    and leave the basis as it is when it reduces to zero."""
    for c, b in basis:
        y = row[c]
        if y:
            a = b[c]
            row = [(a * x - y * z) % p for x, z in zip(row, b)]
    for c, x in enumerate(row):
        if x:
            basis.append((c, row))
            return c
    return -1


def packed_instance(rng, p):
    """A rows x cols matrix with entries in [0, p): up to 12 x 12, and up to
    40 x 40 in every fifth draw. Most draws plant dependent rows (copies,
    zero rows, multiples and sums of two others), and some fill most
    entries, or all of them, with p - 1, the slot bound's worst case."""
    top = 41 if rng.random() < 0.2 else 13
    rows, cols = rng.randrange(1, top), rng.randrange(1, top)
    kind = rng.choice(("uniform", "uniform", "dense", "all"))
    mat = [[p - 1 if kind == "all" or kind == "dense" and rng.random() < 0.9
            else rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randrange(rows)):
        i, j, h = (rng.randrange(rows) for _ in range(3))
        plant = rng.choice(("copy", "zero", "multiple", "sum"))
        if plant == "copy":
            mat[i] = mat[j][:]
        elif plant == "zero":
            mat[i] = [0] * cols
        elif plant == "multiple":
            k = rng.randrange(1, p)
            mat[i] = [k * x % p for x in mat[j]]
        else:
            mat[i] = [(x + y) % p for x, y in zip(mat[j], mat[h])]
    return mat


# Every prime of the rank test above, and 5, 2^31 - 1, 2^127 - 1 and 2^521 - 1.
@pytest.mark.parametrize("p", [3, 5, 7, 101, 2**31 - 1, 2**61 - 1, 2**64 - 59, 2**89 - 1,
                               2**127 - 1, 2**521 - 1])
def test_reduce_row_keeps_an_echelon_basis(p):
    # The list-row step is the oracle. Fed the rows one at a time on a column
    # subset (or on all columns), its basis has the kernel's rank and pivot
    # columns: every echelon basis of a row space has the same pivot columns.
    # Every pivot row the kernel returns keeps its slots in [0, 2p), is zero
    # mod p on the pivot columns before its own and nonzero on its own, and a
    # limit stops the kernel at that many pivots, the full run's first ones.
    width = _kernels.slot_width(p)
    mask = (1 << width) - 1
    seen = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        mat = packed_instance(rng, p)
        cols = len(mat[0])
        columns = range(cols)
        if seed % 3 == 0:
            columns = sorted(rng.sample(range(cols), rng.randrange(cols + 1)))
        basis = []
        for row in mat:
            pivot = reduce_row(basis, [row[c] for c in columns], p)
            seen["zero row"] += pivot == -1
        packed = [_kernels.pack(row, p) for row in mat]
        pivots = _kernels.eliminate(packed, columns, p)
        assert [c for c, _ in pivots] == sorted(columns[c] for c, _ in basis), seed
        for i, (c, q) in enumerate(pivots):
            slots = [q >> j & mask for j in range(0, width * cols, width)]
            assert q >> width * cols == 0 and max(slots) < 2 * p, (seed, c)
            assert slots[c] % p and not any(slots[c0] % p for c0, _ in pivots[:i]), (seed, c)
        limit = rng.randrange(1, len(pivots) + 2)
        assert _kernels.eliminate(packed, columns, p, limit) == pivots[:limit], (seed, limit)
        seen["wide"] += cols > 12
        seen["p - 1"] += all(x == p - 1 for row in mat for x in row) and len(pivots) == 1
    assert seen["zero row"] >= 50 and seen["wide"] >= 10 and seen["p - 1"] >= 5, seen
