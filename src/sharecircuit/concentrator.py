"""Probabilistic depth-1 (m, n, k)-concentrator construction: random
bipartite graphs with post-construction verification and seeded retry.

As in the paper's notation, m is the input side and n the output side: every
k-subset of the m inputs has a matching into the n outputs. Each drawn graph
is decided first by an exact search for a Hall violator, capped at
max(budget, SEARCH_NODES) nodes; only a graph whose search runs past the cap
goes to the matching sweep of `network.verify_concentrator`."""

import math
import random

from .errors import InvalidArguments, RetriesExhausted
from .network import (
    DEFAULT_BUDGET,
    Network,
    VerificationReport,
    check_budget,
    check_size,
    verify_concentrator,
)

MAX_RETRIES = 32  # seeded attempts before build_depth1 gives up
# The Hall search's node cap when the budget is below it. Deal's funnel
# bottom, a (64, 26, 16)-concentrator built at budget 100, needs 2,912 nodes
# in the median and at most 3,664 over seeds 1-400; 20,000 leaves over 5x
# headroom, and a search on 64 inputs that gives up there costs about 40 ms.
SEARCH_NODES = 20_000


def _default_degree(m: int, n: int, k: int) -> int:
    """Per-input degree implementing the probabilistic size bound with
    explicit constants: ceil(2 log(m/k) / log(n/k)) + 2.

    The constants are this artifact's choice; correctness never relies on
    them since every built graph is verified (and resampled on failure).
    """
    if k >= 1 and m > k and n > k:
        return math.ceil(2 * math.log(m / k) / math.log(n / k)) + 2
    # k = 0 or full capacity (k == m or k == n): the ratio formula
    # degenerates; a logarithmic degree suffices and verification backstops
    # the choice.
    return math.ceil(2 * math.log2(max(n, 2))) + 2


def depth1_degree(m: int, n: int, k: int, degree: int | None = None) -> int:
    """The per-input degree `build_depth1(m, n, k, degree)` draws at: `degree`,
    or `_default_degree(m, n, k)` when None, at most n. Its graph has m
    times this many edges, whichever attempt is kept."""
    return min(n, degree if degree is not None else _default_degree(m, n, k))


def _hall_search(net: Network, k: int, budget: int) -> VerificationReport | None:
    """Decide whether the depth-1 network `net` is a concentrator for k,
    exactly, by a search for a Hall violator: an input set S with
    |N(S)| < |S|. By Hall's theorem a k-subset of the inputs has a matching
    into the outputs iff no subset of it is a violator, so `net` is a
    k-concentrator iff no S with |S| <= k is one.

    Each input's neighbours are one int of bits, and a node of the search is
    a set S with its N(S), one OR away from its parent's. The walk runs
    depth first over input sets in lexicographic order and stops at the first
    violator. A violator within k has |N(S)| <= k - 1, and so has each of its
    subsets, which prunes: an input of degree >= k never joins S, and a set
    is extended only by the later inputs that keep |N| <= k - 1, of which a
    violator above S needs at least |N(S)| - |S| + 1. A child's candidates
    are among its parent's, so each node scans only those.

    Returns a report with verdict "proved" or "refuted", `subsets_checked`
    the nodes visited, the empty set included, and no sample seed; a
    refutation's witness is (X,), X the violator padded with the smallest
    other inputs to k and sorted, so that X itself has no matching. Returns
    None when the search would visit more than `budget` nodes.
    """
    succ, xs = net.successors, sorted(net.inputs)
    pool = [(x, sum(1 << v for v in set(succ[x]))) for x in xs]
    nodes = 0
    stack = [((), 0, pool)]  # (S, N(S) as bits, the candidates after S's last input)
    while stack:
        S, mask, pool = stack.pop()
        nodes += 1
        if nodes > budget:
            return None
        size = mask.bit_count()
        if size < len(S):
            rest = [x for x in xs if x not in S][:k - len(S)]
            witness = (tuple(sorted(S + tuple(rest))),)
            return VerificationReport(f"concentrator({k})", "refuted", nodes, witness)
        fits = [(x, union) for x, mx in pool if (union := mask | mx).bit_count() < k]
        if len(fits) > size - len(S):
            for j in range(len(fits) - 1, -1, -1):
                x, union = fits[j]
                stack.append((S + (x,), union, fits[j + 1:]))
    return VerificationReport(f"concentrator({k})", "proved", nodes)


def build_depth1(
    m: int, n: int, k: int, degree: int | None = None, rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
):
    """Sample a random bipartite graph with m inputs and n outputs, `degree`
    per input (derived when None), and verify that every k-subset of inputs
    reaches k outputs; resample with the next seed on refutation.

    Each draw is verified by `_hall_search` first, which is exact and visits
    at most max(budget, SEARCH_NODES) nodes: its report is "proved" or
    "refuted", with the nodes visited as `subsets_checked` and no sample
    seed. When it runs past that cap,
    `verify_concentrator(net, k, budget, rng_seed + a)` decides,
    exhaustive when C(m, k) fits the budget and sampled otherwise. So a
    "sampled_pass" arises only from that fallback, and it is weaker than one
    sampled sweep's: the draws are retried until one passes its own sweep.

    Attempt a draws its graph from `rng_seed + a` and seeds its sampled
    sweep with that same value, so the sweep's subset draws and the graph's
    edge draws start from one stream state. Attempt a + 1 of this call and
    attempt a of a call at rng_seed + 1 share their seed, and on the same
    sizes their graph.

    Returns (Network, VerificationReport); raises RetriesExhausted with the
    last counterexample when every attempt is refuted.
    """
    if m < 1 or n < 1:
        raise InvalidArguments("m and n must be positive")
    if not 0 <= k <= min(m, n):
        raise InvalidArguments(f"need 0 <= k <= min(m, n), got k={k}")
    if degree is not None and degree < 1:
        raise InvalidArguments("degree must be >= 1")
    check_budget(budget)
    degree = depth1_degree(m, n, k, degree)
    check_size("vertices", m + n)
    check_size("edges", m * degree)
    inputs = tuple(range(m))
    outputs = tuple(range(m, m + n))
    last_report = None
    for attempt in range(MAX_RETRIES):
        rng = random.Random(rng_seed + attempt)
        edges = []
        for i in inputs:
            for j in rng.sample(range(m, m + n), degree):
                edges.append((i, j))
        net = Network(m + n, edges, inputs, outputs)
        report = (_hall_search(net, k, max(budget, SEARCH_NODES))
                  or verify_concentrator(net, k, budget, rng_seed + attempt))
        if report.verdict != "refuted":
            return net, report
        last_report = report
    raise RetriesExhausted(
        f"no ({m}, {n}, {k})-concentrator found in {MAX_RETRIES} attempts",
        witness=last_report.witness if last_report else None,
    )
