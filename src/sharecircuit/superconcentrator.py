"""Unbalanced superconcentrator builders: depth-2 partial, depth-2 full,
linear-size depth-2/3 for wide aspect ratios, the general depth-(d+1)
recursion, the one table (`build_sc`) that picks among them, and the depth
recommendation from the inverse Ackermann value.

The linear-size builders and the recursion are one step of Dolev, Dwork,
Pippenger and Wigderson: a top network with n inputs feeds a middle layer,
and a reversed concentrator (`_funnel`) carries that layer onto m outputs.
A partial superconcentrator ends in the same funnel.

Every builder takes n, the input (threshold) side, before m, the output side.
"""

import math

from .ackermann import alpha, lam
from .concentrator import build_depth1
from .errors import InvalidArguments, PreconditionViolation
from .network import (
    DEFAULT_BUDGET,
    Network,
    check_budget,
    check_size,
    complete_bipartite,
    parallel_union,
)


def _child_seed(seed: int, index: int) -> int:
    # A child's seed depends only on its parent's seed and its index, so its
    # first attempt draws the same whatever its siblings drew. The children's
    # streams still overlap: sibling seeds are consecutive, and build_depth1's
    # attempt a draws from its seed + a, so a retried child reuses its next
    # sibling's seed (attempt 1 of build_partial_sc_depth2's top draws with
    # the funnel's seed). Changing this would move every pinned graph.
    return (seed * 1_000_003 + index + 1) & 0xFFFFFFFF


def _at_least(m: int, factor: int, base: float, exponent: float) -> bool:
    """m >= factor * base ** exponent in floats, as written; a power that
    overflows exceeds every m, so it reads as False."""
    try:
        return m >= factor * base**exponent
    except OverflowError:
        return False


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidArguments(f"epsilon must be positive and finite, got {epsilon}")


def _funnel(top: Network, m: int, k: int, rng_seed: int, budget: int) -> Network:
    """`top`, then a reversed (m, |top.outputs|, k)-concentrator that
    carries top's outputs onto m outputs, built as one network: top's
    vertices, then the m new outputs; top's edges, then for each edge
    (i, j) of the concentrator, in its order, the edge from top's output
    j - m to new output i."""
    bottom, _ = build_depth1(m, len(top.outputs), k, rng_seed=rng_seed, budget=budget)
    base, mids = top.vertex_count, top.outputs
    edges = top.edges + tuple((mids[j - m], base + i) for i, j in bottom.edges)
    return Network(base + m, edges, top.inputs, tuple(range(base, base + m)))


def _bipartite_block(n_in: int, n_out: int, mid: int) -> Network:
    """n_in inputs -> complete -> mid middle vertices -> complete -> n_out
    outputs, numbered in that order; routes any k <= mid equal-size subset
    pair disjointly. Each layer is size-checked as `complete_bipartite`
    checks one, before anything is allocated."""
    for a, b in ((n_in, mid), (mid, n_out)):
        check_size("vertices", a + b)
        check_size("edges", a * b)
    out = n_in + mid
    edges = [(i, n_in + j) for i in range(n_in) for j in range(mid)]
    edges += [(n_in + j, out + o) for j in range(mid) for o in range(n_out)]
    return Network(out + n_out, edges, tuple(range(n_in)), tuple(range(out, out + n_out)))


def build_partial_sc_depth2(
    n: int, m: int, r: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Depth-2 (floor(n/r), ceil((2/3)(n/r)))-partial superconcentrator with
    n inputs and m outputs: a concentrator into a 4n/(3r)-vertex middle
    layer, then a reversed concentrator out of it."""
    if n / r < 3:
        raise InvalidArguments(f"need n/r >= 3, got n={n}, r={r}")
    k = math.floor(n / r)
    mid = math.ceil(4 * n / (3 * r))
    top, _ = build_depth1(n, mid, k, rng_seed=_child_seed(rng_seed, 0), budget=budget)
    return _funnel(top, m, k, _child_seed(rng_seed, 1), budget)


def partial_sc_guarantee(n: int, r: float) -> tuple:
    """(p, q) sizes guaranteed by build_partial_sc_depth2(n, m, r)."""
    return math.floor(n / r), math.ceil((2 / 3) * (n / r))


def build_sc_depth2(
    n: int, m: int, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Depth-2 (n, m)-superconcentrator as a union of partial
    superconcentrators for r = 1, 1.5, 1.5^2, ... plus a complete bipartite
    tail block covering the smallest subset sizes."""
    if not 1 <= n <= m:
        raise InvalidArguments(f"need 1 <= n <= m, got n={n}, m={m}")
    if n <= 4:
        return complete_bipartite(n, m)
    parts = []
    q_last = n
    j = 0
    while math.floor(n / 1.5**j) >= 3:
        r = 1.5**j
        parts.append(build_partial_sc_depth2(n, m, r, _child_seed(rng_seed, j), budget))
        _, q_last = partial_sc_guarantee(n, r)
        j += 1
    # Each chaining step between consecutive partials can lose one unit to
    # rounding, so the tail absorbs q_last plus one per partial.
    tail_mid = min(n, q_last + len(parts))
    parts.append(_bipartite_block(n, m, tail_mid))
    return parallel_union(parts, n, m)


def build_sc_depth2_linear(
    n: int, m: int, epsilon: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Linear-size depth-2 (n, m)-superconcentrator for m >= n^(2+epsilon):
    complete bipartite top into m/r middle vertices, reversed
    (m, m/r, n)-concentrator bottom, r = (m/n)^(1/(1+epsilon))."""
    _check_epsilon(epsilon)
    if not _at_least(m, 1, n, 2 + epsilon):
        raise PreconditionViolation(f"need m >= n^(2+eps): m={m}, n={n}, eps={epsilon}")
    r = (m / n) ** (1 / (1 + epsilon))
    mid = math.ceil(m / r)
    return _funnel(complete_bipartite(n, mid), m, n, _child_seed(rng_seed, 0), budget)


def build_sc_depth3_linear(
    n: int, m: int, epsilon: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Linear-size depth-<=3 (n, m)-superconcentrator for
    m >= n * (log2 n)^(2+epsilon)."""
    _check_epsilon(epsilon)
    if n < 2 or not _at_least(m, n, math.log2(n), 2 + epsilon):
        raise PreconditionViolation(
            f"need n >= 2 and m >= n*(log2 n)^(2+eps): m={m}, n={n}, eps={epsilon}"
        )
    if m >= n**3:
        return build_sc_depth2_linear(n, m, 1.0, rng_seed, budget)
    r = (m / n) ** (1 / (1 + epsilon / 2))
    mid = math.ceil(m / r)
    top = build_sc_depth2(n, mid, _child_seed(rng_seed, 0), budget)
    return _funnel(top, m, n, _child_seed(rng_seed, 1), budget)


def build_sc_general(
    n: int, m: int, d: int, epsilon: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Depth-(d+1) (n, m)-superconcentrator for m >= n * lambda_d(n)^(1+eps):
    an inner depth-<=d superconcentrator into m/r middle vertices, then a
    reversed (m, m/r, n)-concentrator."""
    if d < 3:
        raise InvalidArguments("recursion requires d >= 3")
    _check_epsilon(epsilon)
    if not _at_least(m, n, lam(d, n), 1 + epsilon):
        raise PreconditionViolation(
            f"need m >= n*lambda_d(n)^(1+eps): m={m}, n={n}, d={d}, eps={epsilon}"
        )
    r = (m / n) ** (1 / (1 + epsilon))
    mid = math.ceil(m / r)
    top = build_sc(n, mid, d, epsilon, _child_seed(rng_seed, 0), budget)
    return _funnel(top, m, n, _child_seed(rng_seed, 1), budget)


def build_sc(
    n: int,
    m: int,
    max_depth: int,
    epsilon: float,
    rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Network:
    """(n, m)-superconcentrator of depth <= max_depth from the first row
    whose precondition holds:

    1. complete bipartite when n <= 4;
    2. linear-size depth 2 when m >= n^(2+eps);
    3. linear-size depth <= 3 when max_depth >= 3 and m >= n*(log2 n)^(2+eps);
    4. the depth-(d+1) recursion for the smallest d in 3..max_depth-1 with
       m >= n*lambda_d(n)^(1+eps);
    5. the depth-2 union as the last resort.

    This is the one table that picks a builder; the recursion calls it for
    its inner layer. Raises InvalidArguments when the budget is below 0,
    complete bipartite graphs included, which sweep nothing."""
    check_budget(budget)
    if not 1 <= n <= m:
        raise InvalidArguments(f"need 1 <= n <= m, got n={n}, m={m}")
    least = 1 if n <= 4 else 2
    if max_depth < least:
        raise InvalidArguments(f"need max_depth >= {least} for n={n}, got {max_depth}")
    _check_epsilon(epsilon)
    if n <= 4:
        return complete_bipartite(n, m)
    if _at_least(m, 1, n, 2 + epsilon):
        return build_sc_depth2_linear(n, m, epsilon, rng_seed, budget)
    if max_depth >= 3 and _at_least(m, n, math.log2(n), 2 + epsilon):
        return build_sc_depth3_linear(n, m, epsilon, rng_seed, budget)
    for d in range(3, max_depth):
        lam_d = lam(d, n)
        if _at_least(m, n, lam_d, 1 + epsilon):
            return build_sc_general(n, m, d, epsilon, rng_seed, budget)
        # lambda_d(n) >= 2 for every d once n > 4, so a miss at 2 is final;
        # odd d reach 2 by d = 7 for every n <= 2^40.
        if lam_d <= 2:
            break
    return build_sc_depth2(n, m, rng_seed, budget)


def recommended_depth(m: int, n: int) -> int:
    """Depth at which the linear-size construction applies: alpha(m, n) + 3."""
    if m < n or n < 1:
        raise InvalidArguments(f"need m >= n >= 1, got m={m}, n={n}")
    return alpha(m, n) + 3
