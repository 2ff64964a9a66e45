"""The kernels of the cost model: vertex-disjoint paths by augmenting paths
(Menger's theorem, for the connectivity sweeps), and one fraction-free
Gaussian elimination over GF(p) on packed rows, called by
`network.PathMatrix.certifies` (the rank test of the pair sweeps'
certificate and of sampled `validate_scheme`), by `circuit.reconstruct` and
by `gf_rank`.

A packed row is one int holding one entry per column in slots of
`slot_width(p)` bits (Kronecker substitution), so that one row operation is
a few big-int operations rather than one field operation per entry.

All are plain Python over exact integers, so they hold for every prime
modulus that ``FieldModulus`` accepts, however wide.
"""

from functools import lru_cache
from itertools import chain


def maxflow_unit(succ, sources, sinks):
    """The largest number of vertex-disjoint paths from ``sources`` to the
    set ``sinks`` in the digraph with successor lists ``succ``.

    This is a unit-capacity max-flow on the vertex-split graph, where
    vertex v is an arc from node v_in to node v_out, which is never built.
    The flow is kept as paths: ``prv[v]`` and ``nxt[v]`` are v's neighbours
    on the path through it, -1 when no path uses v, and ``end`` (one past
    the last vertex) when the path starts or ends at v. A vertex listed
    twice in ``sources`` counts once, and one in both terminal sets is a
    path on its own.

    A first pass gives each source a free sink among its successors, if it
    has one. Then each source whose path does not start at it yet searches
    once for an augmenting path (Ford-Fulkerson), depth first and without
    recursion, so path length is not bounded by the interpreter's recursion
    limit; on a bipartite graph this is Kuhn's matching algorithm. From
    x_out the search may enter any successor w: w_in leads on to w_out when
    no path uses w, and otherwise back along w's path to prv[w]_out. When a
    path uses x, the search may also undo x's vertex arc and go back to
    prv[x]_out. A source that a path runs through starts its search at that
    path's prv. Once a path uses a vertex, its out node has a single way in,
    so marking the out nodes reached is enough.
    """
    end = len(succ)
    nxt = [-1] * (end + 1)
    prv = [-1] * (end + 1)
    flow = 0
    for s in sources:
        if prv[s] < 0:
            for w in succ[s]:
                if prv[w] < 0 and w in sinks:
                    nxt[s], prv[w], prv[s], nxt[w] = w, s, end, end
                    flow += 1
                    break
    for root in sources:
        if prv[root] == end:
            continue
        # The search path: out nodes xs, with xs[0] = end for the source; the
        # move ws[i] that leaves xs[i]; and the untried moves of xs[1:]. Move
        # w from x becomes nxt[x] = w and prv[w] = x on success, except that
        # the move w = x, offered when a path uses x, takes x off its path.
        x = root if prv[root] < 0 else prv[root]
        xs, ws, moves, seen = [end], [root], [], {end, x}
        while True:
            if x in sinks and nxt[x] != end:
                xs.append(x)
                ws.append(end)
                for x, w in zip(xs, ws):
                    if x == w:
                        prv[x] = nxt[x] = -1
                    else:
                        nxt[x], prv[w] = w, x
                flow += 1
                break
            xs.append(x)
            moves.append(chain(succ[x], (x,)) if prv[x] >= 0 else iter(succ[x]))
            while moves:
                for w in moves[-1]:
                    x = prv[w]
                    if x < 0:
                        x = w
                    if x not in seen:
                        break
                else:
                    moves.pop()
                    xs.pop()
                    ws.pop()
                    continue
                seen.add(x)
                ws.append(w)
                break
            else:
                break
    return flow


def slot_width(p):
    """Bits per slot of a packed row over GF(p): 3 * bits(p) + 6, wide
    enough for `eliminate`'s slot bound."""
    return 3 * p.bit_length() + 6


def pack(row, p):
    """The packed row over GF(p) whose slot j holds row[j], an int in [0, p)."""
    width, acc = slot_width(p), 0
    for x in reversed(row):
        acc = acc << width | x
    return acc


def unpack(row, count, p):
    """The first `count` entries of a packed row, each reduced mod p."""
    width = slot_width(p)
    mask = (1 << width) - 1
    return [(row >> j & mask) % p for j in range(0, count * width, width)]


def eliminate(rows, columns, p, limit=None):
    """Fraction-free Gaussian elimination over GF(p) on a list of packed
    rows (see `pack`), column first, and return its (column, pivot row)
    pairs: their number is the rank of the submatrix of `rows` on `columns`,
    or `limit` when the rank is at least `limit`, as the elimination stops
    at that pivot.

    Columns are taken in the order given. For column c, each remaining row
    q has entry b = slot c of q mod p; the first with b != 0 becomes the
    pivot, with a its entry, and leaves the remaining rows. Every other
    remaining row with b != 0 becomes q <- a*q + (p-b)*pivot, which clears
    its column c and is a nonzero multiple of q - (b/a)*pivot, so no field
    inverse is needed. The pivot row is returned as it was when chosen: zero
    mod p on the columns pivoted before it, nonzero on its own. The columns
    not in `columns` are updated alongside but never read, so the rank of
    any column subset can be read from full rows without repacking them.

    The slot bound. Let bp = bits(p), k = 2*bp + 2, W = slot_width(p) =
    3*bp + 6 and m = floor(2^k / p). Every slot lies in [0, 2p); the input's
    do, as its entries lie in [0, p). A row operation multiplies slots by
    a < p and by p-b < p, so a new slot s is below p*2p + p*2p = 4p^2 <=
    2^k. Then all slots are reduced at once by Barrett's reduction (Barrett,
    1986). As p >= 2^(bp-1), m <= 2^(bp+3) and s*m < 2^(3*bp+5) < 2^W, so
    slot by slot the product q*m holds s*m, with no carry into the next
    slot. Shifting it right by k and keeping the low W - k bits of each slot
    leaves e = floor(s*m / 2^k) there. Since m > 2^k/p - 1 and s < 2^k,
    s/p - 2 < e <= s/p, so 0 <= s - e*p < 2p: subtracting e*p slot by slot
    borrows from no other slot and puts every slot back in [0, 2p). So a
    slot is read mod p, and the input rows must have their slots in [0, 2p).
    """
    width = slot_width(p)
    mask = (1 << width) - 1
    m = None  # the reduction's constants, found at the first row operation
    pivots = []
    for c in columns:
        shift = c * width
        pivot = None
        rest = []
        for q in rows:
            b = (q >> shift & mask) % p
            if not b:
                rest.append(q)
            elif pivot is None:
                pivot, a = q, b
                pivots.append((c, q))
                if len(pivots) == limit:
                    return pivots
            else:
                if m is None:
                    k, m, qmask = _barrett(p, max(rows).bit_length() // width + 1)
                q = a * q + (p - b) * pivot
                rest.append(q - (q * m >> k & qmask) * p)
        if pivot is not None:
            rows = rest
            if not rows:
                break
    return pivots


@lru_cache(maxsize=64)
def _barrett(p, slots):
    """The constants of `eliminate`'s slot reduction over GF(p) for rows of
    `slots` slots: k, m, and the mask of the low slot_width(p) - k bits of
    every slot."""
    k = 2 * p.bit_length() + 2
    width = slot_width(p)
    # 1 at the bottom of each slot
    ones = ((1 << width * slots) - 1) // ((1 << width) - 1)
    return k, (1 << k) // p, ones * ((1 << width - k) - 1)


def gf_rank(rows, cols, entries, p):
    """Rank of a rows x cols matrix over GF(p), given its row-major flat
    entry list: the entries reduced mod p, each row packed, and one
    `eliminate` over every column."""
    packed = [pack([x % p for x in entries[r * cols:(r + 1) * cols]], p)
              for r in range(rows)]
    return len(eliminate(packed, range(cols), p))
