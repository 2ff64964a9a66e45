"""Cross-check the compiled kernels against the pure-Python reference on
random instances; both backends must agree exactly."""

import os
import random

import pytest

from sharecircuit._kernels import BACKEND, _pure

try:
    from sharecircuit._kernels import _core
except ImportError:  # pragma: no cover - compiled backend unavailable
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled kernels not built")


def test_backend_selected():
    assert BACKEND in ("cython", "pure")
    if _core is not None and not os.environ.get("SHARECIRCUIT_PURE"):
        assert BACKEND == "cython"


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


@needs_core
def test_maxflow_agreement_random():
    for seed in range(300):
        rng = random.Random(seed)
        n, tails, heads, s, t = random_flow_instance(rng)
        adj, to, cap = residual_graph(n, tails, heads)
        assert _core.maxflow_unit(adj, to, cap[:], s, t) == _pure.maxflow_unit(
            adj, to, cap[:], s, t
        )


@needs_core
def test_gf_rank_agreement_random():
    for seed in range(200):
        rng = random.Random(seed)
        p = rng.choice([3, 7, 101, 10007, 2**61 - 1])
        rows = rng.randrange(1, 16)
        cols = rng.randrange(1, 16)
        entries = [rng.randrange(p) for _ in range(rows * cols)]
        assert _core.gf_rank(rows, cols, entries, p) == _pure.gf_rank(
            rows, cols, entries, p
        )


@needs_core
def test_gf_rank_large_prime_products():
    # exercise the 128-bit modmul path: entries near p for p = 2^61 - 1
    p = 2**61 - 1
    rng = random.Random(7)
    for _ in range(20):
        rows = cols = 6
        entries = [p - 1 - rng.randrange(1000) for _ in range(rows * cols)]
        assert _core.gf_rank(rows, cols, entries, p) == _pure.gf_rank(
            rows, cols, entries, p
        )


def test_pure_maxflow_basics():
    # two parallel length-1 paths
    assert _pure.maxflow_unit(*residual_graph(4, [0, 0, 1, 2], [1, 2, 3, 3]), 0, 3) == 2
    # no path
    assert _pure.maxflow_unit(*residual_graph(3, [0], [1]), 0, 2) == 0


def test_pure_rank_basics():
    assert _pure.gf_rank(0, 0, [], 7) == 0
    assert _pure.gf_rank(2, 2, [1, 0, 0, 1], 7) == 2
    assert _pure.gf_rank(2, 2, [1, 2, 2, 4], 7) == 1


def test_pure_maxflow_leaves_a_maximum_flow_in_cap():
    # cap ends as the residual of a flow: conserved at every inner node, of
    # the returned value at the source and sink, and leaving no augmenting
    # path (a second run on it finds nothing more).
    for seed in range(300):
        rng = random.Random(seed)
        n, tails, heads, s, t = random_flow_instance(rng)
        adj, to, cap = residual_graph(n, tails, heads)
        flow = _pure.maxflow_unit(adj, to, cap, s, t)
        net = [0] * n
        for e in range(0, len(to), 2):
            assert cap[e] + cap[e + 1] == 1 and cap[e] in (0, 1)
            u, v = to[e + 1], to[e]
            net[u] -= cap[e + 1]
            net[v] += cap[e + 1]
        assert net[t] == -net[s] == flow
        assert all(net[v] == 0 for v in range(n) if v not in (s, t))
        assert _pure.maxflow_unit(adj, to, cap, s, t) == 0
