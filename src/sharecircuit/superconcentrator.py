"""Unbalanced superconcentrator builders: depth-2 partial, depth-2 full,
linear-size depth-2/3 for wide aspect ratios, the general depth-(d+1)
recursion, the one table (`build_sc`) that counts its rows' edges and builds
the least, and the depth cap from the inverse Ackermann value.

The linear-size builders, the recursion and the table's funnel row are one
step of Dolev, Dwork, Pippenger and Wigderson: a top network with n inputs
feeds a middle layer, and a reversed concentrator (`_funnel`) carries that
layer onto m outputs. A partial superconcentrator ends in the same funnel.

Every builder takes n, the input (threshold) side, before m, the output side.
"""

import math

from .ackermann import alpha, lam
from .concentrator import build_depth1, depth1_degree
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


def _middle(n: int, m: int, epsilon: float) -> int:
    """A funnel's middle layer: ceil(m / r) for r = (m/n)^(1/(1+epsilon)),
    which is at least n."""
    return math.ceil(m / (m / n) ** (1 / (1 + epsilon)))


def _funnel(top: Network, m: int, k: int, rng_seed: int, budget: int) -> Network:
    """`top`, then a reversed (m, |top.outputs|, k)-concentrator that
    carries top's outputs onto m outputs, built as one network: top's
    vertices, then the m new outputs; top's edges, then for each edge
    (i, j) of the concentrator, in its order, the edge from top's output
    j - m to new output i.

    The funnel lemma (Dolev, Dwork, Pippenger and Wigderson): when `top`
    is an (n, mid)-superconcentrator and the bottom an (m, mid,
    n)-concentrator, the result is an (n, m)-superconcentrator. For
    k-subsets X of the inputs and Y of the outputs, k <= n, the bottom
    matches Y to k of top's outputs, and top routes X onto those k by
    disjoint paths. No size condition enters, which is why `build_sc` may
    pick a funnel wherever its count is least."""
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


def _partial_shape(n: int, r: float) -> tuple:
    """(k, mid) of build_partial_sc_depth2(n, m, r): its capacity and its
    middle layer."""
    return math.floor(n / r), math.ceil(4 * n / (3 * r))


def build_partial_sc_depth2(
    n: int, m: int, r: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Depth-2 (floor(n/r), ceil((2/3)(n/r)))-partial superconcentrator with
    n inputs and m outputs: a concentrator into a 4n/(3r)-vertex middle
    layer, then a reversed concentrator out of it."""
    if n / r < 3:
        raise InvalidArguments(f"need n/r >= 3, got n={n}, r={r}")
    k, mid = _partial_shape(n, r)
    top, _ = build_depth1(n, mid, k, rng_seed=_child_seed(rng_seed, 0), budget=budget)
    return _funnel(top, m, k, _child_seed(rng_seed, 1), budget)


def partial_sc_guarantee(n: int, r: float) -> tuple:
    """(p, q) sizes guaranteed by build_partial_sc_depth2(n, m, r)."""
    return math.floor(n / r), math.ceil((2 / 3) * (n / r))


def _union_shape(n: int) -> tuple:
    """The r of each partial superconcentrator in build_sc_depth2's union,
    in order, and the middle layer of its tail block. Each chaining step
    between consecutive partials can lose one unit to rounding, so the
    tail absorbs the last partial's q plus one per partial."""
    rs, q_last = [], n
    while math.floor(n / 1.5 ** len(rs)) >= 3:
        rs.append(1.5 ** len(rs))
        _, q_last = partial_sc_guarantee(n, rs[-1])
    return rs, min(n, q_last + len(rs))


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
    rs, tail_mid = _union_shape(n)
    parts = [build_partial_sc_depth2(n, m, r, _child_seed(rng_seed, j), budget)
             for j, r in enumerate(rs)]
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
    mid = _middle(n, m, epsilon)
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
    mid = _middle(n, m, epsilon / 2)
    top = build_sc_depth2(n, mid, _child_seed(rng_seed, 0), budget)
    return _funnel(top, m, n, _child_seed(rng_seed, 1), budget)


def build_sc_general(
    n: int, m: int, d: int, epsilon: float, rng_seed: int = 0, budget: int = DEFAULT_BUDGET
) -> Network:
    """Depth-(d+1) (n, m)-superconcentrator for m >= n * lambda_d(n)^(1+eps):
    an inner depth-<=d superconcentrator, `build_sc`'s, into m/r middle
    vertices, then a reversed (m, m/r, n)-concentrator."""
    if d < 3:
        raise InvalidArguments("recursion requires d >= 3")
    _check_epsilon(epsilon)
    if not _at_least(m, n, lam(d, n), 1 + epsilon):
        raise PreconditionViolation(
            f"need m >= n*lambda_d(n)^(1+eps): m={m}, n={n}, d={d}, eps={epsilon}"
        )
    mid = _middle(n, m, epsilon)
    top = build_sc(n, mid, d, epsilon, _child_seed(rng_seed, 0), budget)
    return _funnel(top, m, n, _child_seed(rng_seed, 1), budget)


# The rows of build_sc's table. Each is a tuple (edges, depth, name, build):
# the edge count of its graph, counted without drawing it, beside the
# builder (rng_seed, budget) -> Network that draws it. Every drawn
# concentrator of a graph has depth1_degree edges per input, whichever
# attempt is kept, so the count is exact.

def _complete_row(n: int, m: int) -> tuple:
    return n * m, 1, "complete", lambda rng_seed, budget: complete_bipartite(n, m)


def _union_row(n: int, m: int) -> tuple:
    """build_sc_depth2's union, for n > 4: each partial is a depth-1
    (n, mid, k)-concentrator, then a reversed (m, mid, k)-one."""
    rs, tail_mid = _union_shape(n)
    edges = (n + m) * tail_mid
    for r in rs:
        k, mid = _partial_shape(n, r)
        edges += n * depth1_degree(n, mid, k) + m * depth1_degree(m, mid, k)
    return edges, 2, "union", lambda rng_seed, budget: build_sc_depth2(n, m, rng_seed, budget)


def _funnel_row(inner: tuple, n: int, mid: int, m: int) -> tuple:
    """`_funnel` of `inner`, a row with n inputs and mid outputs, onto m
    outputs: one reversed (m, mid, n)-concentrator more."""
    edges, depth, _, build_inner = inner

    def build(rng_seed, budget):
        top = build_inner(_child_seed(rng_seed, 0), budget)
        return _funnel(top, m, n, _child_seed(rng_seed, 1), budget)

    return edges + m * depth1_degree(m, mid, n), depth + 1, "funnel", build


def _fewest_wires(n: int, m: int, max_depth: int, epsilon: float) -> tuple:
    """The row build_sc builds; see there. Funnels nest: the funnel onto
    m_i outputs has the best row onto m_(i+1) = _middle(n, m_i) as its
    inner network, so the rows are counted from the innermost middle layer
    out. The nesting stops where the depth runs out, where the middle
    layer no longer shrinks, or where the bottoms counted so far reach
    n * m edges, since any funnel through a deeper level then has more
    edges than K_{n,m}. Each level adds a bottom of at least m_i >= n
    edges, so that happens within m levels whatever max_depth is."""
    if not 1 <= n <= m:
        raise InvalidArguments(f"need 1 <= n <= m, got n={n}, m={m}")
    if max_depth < 1:
        raise InvalidArguments(f"need max_depth >= 1, got {max_depth}")
    _check_epsilon(epsilon)
    sides, bottoms = [m], 0
    while len(sides) < max_depth:
        side = sides[-1]
        mid = _middle(n, side, epsilon)
        bottoms += side * depth1_degree(side, mid, n)
        if mid >= side or bottoms >= n * m:
            break
        sides.append(mid)
    best = None
    for level in range(len(sides) - 1, -1, -1):
        side = sides[level]
        rows = [_complete_row(n, side)]
        if n > 4 and max_depth - level >= 2:
            rows.append(_union_row(n, side))
        if best is not None:
            rows.append(_funnel_row(best, n, sides[level + 1], side))
        # min keeps the first of equal rows, so ties go by the table's order
        best = min(rows, key=lambda row: row[:2])
    return best


def build_sc(
    n: int,
    m: int,
    max_depth: int,
    epsilon: float,
    rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Network:
    """(n, m)-superconcentrator of depth <= max_depth with the fewest edges
    among the rows of one table that fit that depth:

    1. "complete": K_{n,m}, depth 1;
    2. "union": the depth-2 union of `build_sc_depth2`, for n > 4;
    3. "funnel": a `_funnel` of the best row onto n inputs and
       _middle(n, m, epsilon) outputs at one depth less, K_{n,mid} among
       them, onto m outputs.

    Ties go to the lower depth, then to the earlier row in that order.
    Every row's edge count follows from (n, m, epsilon) and the
    concentrators' degrees, so the rows are counted and only the chosen one
    is drawn. The preconditions of the linear-size builders say where a
    row has linear size, not where it is a superconcentrator: the union
    is one for every 1 <= n <= m, and a funnel by the funnel lemma.

    Raises InvalidArguments when the budget is below 0, complete bipartite
    graphs included, which sweep nothing, and when the chosen row has more
    edges than `network.MAX_SIZE`, before it draws any of them."""
    check_budget(budget)
    edges, _, _, build = _fewest_wires(n, m, max_depth, epsilon)
    check_size("edges", edges)
    return build(rng_seed, budget)


def sc_row(n: int, m: int, max_depth: int, epsilon: float) -> str:
    """The name of the row that build_sc(n, m, max_depth, epsilon, ...)
    builds: "complete", "union" or "funnel"."""
    return _fewest_wires(n, m, max_depth, epsilon)[2]


def recommended_depth(m: int, n: int) -> int:
    """alpha(m, n) + 3, the depth at which the recursion of Dolev, Dwork,
    Pippenger and Wigderson reaches linear size. `gen-sc --depth auto`
    caps build_sc's depth at it; it no longer picks the row, which is the
    one with the fewest edges within the cap."""
    if m < n or n < 1:
        raise InvalidArguments(f"need m >= n >= 1, got m={m}, n={n}")
    return alpha(m, n) + 3
