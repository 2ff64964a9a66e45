"""Probabilistic depth-1 (m, n, k)-concentrator construction: random
bipartite graphs with post-construction verification and seeded retry.

As in the paper's notation, m is the input side and n the output side: every
k-subset of the m inputs has a matching into the n outputs."""

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


def build_depth1(
    m: int, n: int, k: int, degree: int | None = None, rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
):
    """Sample a random bipartite graph with m inputs and n outputs, `degree`
    per input (derived when None), and verify that every k-subset of inputs
    reaches k outputs; resample with the next seed on refutation.

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
    degree = min(n, degree if degree is not None else _default_degree(m, n, k))
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
        report = verify_concentrator(net, k, budget, rng_seed + attempt)
        if report.verdict != "refuted":
            return net, report
        last_report = report
    raise RetriesExhausted(
        f"no ({m}, {n}, {k})-concentrator found in {MAX_RETRIES} attempts",
        witness=last_report.witness if last_report else None,
    )
