import itertools

import pytest

from sharecircuit import concentrator
from sharecircuit.concentrator import build_depth1
from sharecircuit.errors import InvalidArguments, RetriesExhausted


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
    assert err.value.witness is not None


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
