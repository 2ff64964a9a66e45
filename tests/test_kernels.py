"""The max-flow, matching and GF(p) rank kernels against exact oracles on
seeded random instances."""

import random
import sys

import pytest

from sharecircuit import _kernels


def residual_graph(num_nodes, tails, heads):
    """(adj, to, cap) of unit-capacity arcs tails[i] -> heads[i]: forward arc
    2i, residual twin 2i + 1."""
    adj = [[] for _ in range(num_nodes)]
    to, cap = [], []
    for u, v in zip(tails, heads):
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += [v, u]
        cap += [1, 0]
    return adj, to, cap


def random_flow_instance(rng):
    n = rng.randrange(4, 30)
    e = rng.randrange(1, 4 * n)
    tails = [rng.randrange(n) for _ in range(e)]
    heads = [rng.randrange(n) for _ in range(e)]
    s, t = rng.sample(range(n), 2)
    return n, tails, heads, s, t


def test_pure_maxflow_basics():
    # two parallel length-1 paths
    assert _kernels.maxflow_unit(*residual_graph(4, [0, 0, 1, 2], [1, 2, 3, 3]), 0, 3) == 2
    # no path
    assert _kernels.maxflow_unit(*residual_graph(3, [0], [1]), 0, 2) == 0


def test_pure_rank_basics():
    assert _kernels.gf_rank(0, 0, [], 7) == 0
    assert _kernels.gf_rank(2, 2, [1, 0, 0, 1], 7) == 2
    assert _kernels.gf_rank(2, 2, [1, 2, 2, 4], 7) == 1


def test_pure_maxflow_leaves_a_maximum_flow_in_cap():
    # cap ends as the residual of a flow: conserved at every inner node, of
    # the returned value at the source and sink, and leaving no augmenting
    # path (a second run on it finds nothing more).
    for seed in range(300):
        rng = random.Random(seed)
        n, tails, heads, s, t = random_flow_instance(rng)
        adj, to, cap = residual_graph(n, tails, heads)
        flow = _kernels.maxflow_unit(adj, to, cap, s, t)
        net = [0] * n
        for e in range(0, len(to), 2):
            assert cap[e] + cap[e + 1] == 1 and cap[e] in (0, 1)
            u, v = to[e + 1], to[e]
            net[u] -= cap[e + 1]
            net[v] += cap[e + 1]
        assert net[t] == -net[s] == flow
        assert all(net[v] == 0 for v in range(n) if v not in (s, t))
        assert _kernels.maxflow_unit(adj, to, cap, s, t) == 0


def matching_by_flow(succ, left, right):
    """Maximum matching size as a unit-capacity max-flow: source -> each
    distinct left vertex -> its neighbours in `right` -> sink."""
    left, right = list(dict.fromkeys(left)), sorted(set(right))
    node = {("L", u): i for i, u in enumerate(left)}
    node.update({("R", v): len(left) + j for j, v in enumerate(right)})
    source, sink = len(node), len(node) + 1
    tails, heads = [], []
    for u in left:
        tails.append(source)
        heads.append(node["L", u])
        for v in succ[u]:
            if ("R", v) in node:
                tails.append(node["L", u])
                heads.append(node["R", v])
    for v in right:
        tails.append(node["R", v])
        heads.append(sink)
    return _kernels.maxflow_unit(*residual_graph(len(node) + 2, tails, heads), source, sink)


def test_max_matching_matches_max_flow():
    # Repeated left vertices, repeated neighbours, neighbours outside
    # `right`, and empty sides all occur.
    sizes = set()
    for seed in range(300):
        rng = random.Random(seed)
        a, b = rng.randrange(0, 9), rng.randrange(1, 9)
        succ = {u: [rng.randrange(b) for _ in range(rng.randrange(0, 5))] for u in range(a)}
        left = rng.choices(range(a), k=rng.randrange(0, a + 3)) if a else []
        right = set(rng.sample(range(b), rng.randrange(0, b + 1)))
        want = matching_by_flow(succ, left, right)
        assert _kernels.max_matching(succ, left, right) == want, seed
        sizes.add(want)
    assert len(sizes) >= 6


def test_max_matching_is_iterative():
    # Left u < n is offered right u first, then u + 1; left n only right 0.
    # The greedy pass matches u to u, so left n needs the augmenting path
    # n -> 0 -> 0 -> 1 -> 1 -> ... -> n, with n alternations: deeper than
    # the recursion limit.
    n = sys.getrecursionlimit() + 100
    succ = {u: (u, u + 1) for u in range(n)}
    succ[n] = (0,)
    assert _kernels.max_matching(succ, range(n + 1), set(range(n + 1))) == n + 1


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
