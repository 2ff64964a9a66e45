import itertools
import random

import pytest

from sharecircuit import concentrator, superconcentrator
from sharecircuit.concentrator import _hall_search, build_depth1
from sharecircuit.errors import InvalidArguments, RetriesExhausted
from sharecircuit.network import (
    DEFAULT_BUDGET,
    Network,
    max_vertex_disjoint_paths,
    verify_concentrator,
)
from sharecircuit.superconcentrator import build_sc


def hall_condition_holds(net, k):
    """Independent oracle: a depth-1 bipartite graph is an (m, n, k)-
    concentrator iff every input subset of size s <= k has >= s distinct
    neighbours (Hall's theorem)."""
    neigh = {v: set() for v in net.inputs}
    for u, v in net.edges:
        neigh[u].add(v)
    for s in range(1, k + 1):
        for S in itertools.combinations(net.inputs, s):
            if len(set().union(*(neigh[v] for v in S))) < s:
                return False
    return True


@pytest.mark.parametrize("m, n, k, degree", [
    (16, 16, 4, 4), (1024, 32, 16, 14), (16, 16, 0, 10), (4, 16, 4, 10), (6, 4, 4, 4),
])
def test_default_degree_examples(m, n, k, degree):
    # k = 0 and k = m take the logarithmic degree; the last is capped at n.
    net, _ = build_depth1(m, n, k, budget=0)
    assert len(net.edges) == m * degree


def test_build_depth1_small_proved():
    net, report = build_depth1(8, 6, 3, rng_seed=1)
    assert report.verdict == "proved"
    assert net.depth == 1
    assert len(net.inputs) == 8 and len(net.outputs) == 6
    assert hall_condition_holds(net, 3)


def test_build_depth1_edge_count_matches_degree():
    net, report = build_depth1(10, 8, 2, degree=3, rng_seed=0)
    assert len(net.edges) == 10 * 3
    assert report.verdict != "refuted"


def test_build_depth1_full_degree_never_retries():
    # degree = n gives the complete bipartite graph: always a concentrator
    net, report = build_depth1(6, 4, 4, degree=4, rng_seed=0)
    assert report.verdict == "proved"
    assert len(net.edges) == 24
    assert hall_condition_holds(net, 4)


def test_build_depth1_deterministic():
    net1, _ = build_depth1(12, 9, 3, rng_seed=5)
    net2, _ = build_depth1(12, 9, 3, rng_seed=5)
    assert sorted(net1.edges) == sorted(net2.edges)


def test_build_depth1_retries_exhausted(monkeypatch):
    # degree 1, k = 2: two inputs sharing their single output always exist
    # for m > n, so every attempt is refuted
    monkeypatch.setattr(concentrator, "MAX_RETRIES", 4)
    with pytest.raises(RetriesExhausted, match="in 4 attempts") as err:
        build_depth1(6, 3, 2, degree=1, rng_seed=0)
    # the last draw's first Hall violator: inputs 0 and 3 share their output
    assert err.value.witness == ((0, 3),)


def test_single_draw_success_rate(monkeypatch):
    # at the derived degree a single sample should almost always verify
    monkeypatch.setattr(concentrator, "MAX_RETRIES", 1)
    successes = 0
    for seed in range(100):
        try:
            _, report = build_depth1(16, 12, 4, rng_seed=seed)
            successes += report.verdict != "refuted"
        except RetriesExhausted:
            pass
    assert successes >= 90


def test_params_validation():
    with pytest.raises(InvalidArguments, match="m and n must be positive"):
        build_depth1(0, 3, 1)
    with pytest.raises(InvalidArguments, match="need 0 <= k <= min"):
        build_depth1(3, 3, 4)
    with pytest.raises(InvalidArguments, match="degree must be >= 1"):
        build_depth1(3, 3, 1, degree=0)
    with pytest.raises(InvalidArguments, match="need a budget >= 0"):
        build_depth1(3, 3, 1, budget=-1)


def random_depth1(rng, kind):
    """A depth-1 network with m, n <= 10 on shuffled vertex labels, and a k
    for it: 0, min(m, n) or between. "planted" makes 1 <= |S| <= k inputs
    share |S| - 1 outputs, a Hall violator; "dense" gives every input
    degree >= k."""
    m, n = rng.randint(1, 10), rng.randint(1, 10)
    k = rng.choice([0, min(m, n), rng.randint(0, min(m, n))])
    if kind == "planted":
        k = max(k, 1)
    labels = rng.sample(range(m + n), m + n)
    inputs, outputs = labels[:m], labels[m:]
    if kind == "dense":
        heads = [rng.sample(outputs, rng.randint(k, n)) for _ in inputs]
    else:
        p = rng.random()
        heads = [[y for y in outputs if rng.random() < p] for _ in inputs]
    if kind == "planted":
        S = rng.sample(range(m), rng.randint(1, k))
        few = rng.sample(outputs, len(S) - 1)
        for i in S:
            heads[i] = [y for y in few if rng.random() < 0.7]
    edges = [(x, y) for x, ys in zip(inputs, heads) for y in ys]
    return Network(m + n, edges, inputs, outputs), k


@pytest.mark.parametrize("kind", ["random", "planted", "dense"])
def test_hall_search_agrees_with_the_exhaustive_sweep(kind):
    rng = random.Random(f"hall-{kind}")
    verdicts = set()
    for _ in range(300):
        net, k = random_depth1(rng, kind)
        report = _hall_search(net, k, 10**6)
        sweep = verify_concentrator(net, k, 10**6)
        assert sweep.verdict != "sampled_pass"
        assert (report.property, report.verdict) == (sweep.property, sweep.verdict)
        assert (report.verdict == "proved") == hall_condition_holds(net, k)
        assert report.sample_seed is None
        if report.verdict == "refuted":
            X, = report.witness
            assert len(X) == k and X == tuple(sorted(set(X))) and set(X) <= set(net.inputs)
            assert max_vertex_disjoint_paths(net, X, net.outputs) < k
        # the budget caps the nodes visited: one fewer and the search gives up
        nodes = report.subsets_checked
        assert _hall_search(net, k, nodes) == report
        assert _hall_search(net, k, nodes - 1) is None
        verdicts.add(report.verdict)
        if kind == "planted":
            assert report.verdict == "refuted"
        if kind == "dense":
            # no input can join a violator: the empty set is the one node
            assert report.verdict == "proved" and nodes == 1
    if kind == "random":
        assert verdicts == {"proved", "refuted"}


def record_builds(monkeypatch):
    """The (arguments, result) of every build_depth1 call the superconcentrator
    builders make, and the graphs whose search ran past its budget."""
    calls, fell = [], []
    search = concentrator._hall_search

    def searching(net, k, budget):
        report = search(net, k, budget)
        if report is None:
            fell.append(net)
        return report

    def building(*args, **kwargs):
        result = build_depth1(*args, **kwargs)
        calls.append(((args, kwargs), result))
        return result

    monkeypatch.setattr(concentrator, "_hall_search", searching)
    monkeypatch.setattr(superconcentrator, "build_depth1", building)
    return calls, fell


def sweep_only_build(m, n, k, degree=None, rng_seed=0, budget=DEFAULT_BUDGET):
    """The reference for draws the Hall search gives up on: build_depth1
    with every draw decided by `verify_concentrator` alone."""
    degree = min(n, degree or concentrator._default_degree(m, n, k))
    for attempt in range(concentrator.MAX_RETRIES):
        rng = random.Random(rng_seed + attempt)
        edges = [(i, j) for i in range(m) for j in rng.sample(range(m, m + n), degree)]
        net = Network(m + n, edges, range(m), range(m, m + n))
        report = verify_concentrator(net, k, budget, rng_seed + attempt)
        if report.verdict != "refuted":
            return net, report
    return None


def test_a_search_past_its_budget_leaves_the_sampled_sweeps_graph_and_report(monkeypatch):
    # Deal's graph: the search of about a fifth of its (16, 64, 4) builds'
    # concentrators needs more than their budget of 100 nodes.
    calls, fell = record_builds(monkeypatch)
    for seed in range(1, 11):
        build_sc(16, 64, 4, 0.5, seed, 100)
    fallen = [(call, result) for call, result in calls if result[0] in fell]
    assert len(fallen) >= 10
    for (args, kwargs), (net, _) in calls:
        assert sweep_only_build(*args, **kwargs)[0] == net
    for (args, kwargs), result in fallen:
        assert sweep_only_build(*args, **kwargs) == result
        assert result[1].verdict == "sampled_pass" and result[1].sample_seed is not None


@pytest.mark.parametrize("n, m, depth", [(8, 182, 2), (8, 32, 4)])
def test_wide_builds_prove_every_concentrator_at_the_default_budget(monkeypatch, n, m, depth):
    calls, fell = record_builds(monkeypatch)
    build_sc(n, m, depth, 0.5, 1)
    assert calls and not fell
    assert all(report.verdict == "proved" for _, (_, report) in calls)
