"""Compare the compiled kernels against the pure-Python fallback on the two
hot paths: unit-capacity max-flow (connectivity sweeps) and GF(p) rank
(scheme validation).

Run: python3 benchmarks/bench_kernels.py
"""

import random
import time

from sharecircuit._kernels import _pure
from sharecircuit.superconcentrator import build_sc_depth2

try:
    from sharecircuit._kernels import _core
except ImportError:
    _core = None


def time_it(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def flow_workload(backend, net, queries):
    """The queries as `max_vertex_disjoint_paths` runs them: on the network's
    cached split graph, each on a fresh copy of its capacities."""
    g = net.split_graph

    def run():
        total = 0
        for S, T in queries:
            cap = g.capacities(S, T)
            total += backend.maxflow_unit(g.adj, g.to, cap, g.source, g.sink)
        return total

    return run


def rank_workload(backend, p, size, count, seed=0):
    rng = random.Random(seed)
    mats = [
        [rng.randrange(p) for _ in range(size * size)] for _ in range(count)
    ]

    def run():
        return sum(backend.gf_rank(size, size, m, p) for m in mats)

    return run


def main():
    print(f"{'workload':<34}{'pure (s)':>10}{'cython (s)':>12}{'speedup':>9}")
    net = build_sc_depth2(16, 16, rng_seed=1, budget=200)
    rng = random.Random(0)
    queries = []
    for _ in range(400):
        k = rng.randrange(1, 17)
        queries.append(
            (rng.sample(net.inputs, k), rng.sample(net.outputs, k))
        )
    workloads = [
        ("maxflow sc(16,16) x400 subsets", lambda b: flow_workload(b, net, queries)),
        ("gf_rank 64x64 p=10007 x50", lambda b: rank_workload(b, 10007, 64, 50)),
        ("gf_rank 48x48 p=2^61-1 x50", lambda b: rank_workload(b, 2**61 - 1, 48, 50)),
    ]
    for name, make in workloads:
        pure_fn = make(_pure)
        t_pure = time_it(pure_fn)
        if _core is not None:
            core_fn = make(_core)
            assert core_fn() == pure_fn(), "backends disagree"
            t_core = time_it(core_fn)
            print(f"{name:<34}{t_pure:>10.4f}{t_core:>12.4f}{t_pure / t_core:>8.1f}x")
        else:
            print(f"{name:<34}{t_pure:>10.4f}{'n/a':>12}{'n/a':>9}")


if __name__ == "__main__":
    main()
