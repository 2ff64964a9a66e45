"""The kernels of the cost model: vertex-disjoint paths by augmenting paths
(Menger's theorem, for the connectivity sweeps), and one fraction-free
row-reduction step over GF(p) (for the sampled threshold conditions,
reconstruction and the path-matrix certificate of the pair sweeps). GF(p)
matrix rank is that step applied to each row in turn.

All are plain Python over exact integers, so they hold for every prime
modulus that ``FieldModulus`` accepts, however wide.
"""

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


def reduce_row(basis, row, p):
    """Reduce ``row`` against an echelon basis over GF(p) and return its pivot.

    ``basis`` is a list of (pivot column, row) pairs, each row zero on the
    pivot columns of the pairs before it; entries lie in [0, p). Each pair
    (c, b) clears column c by ``row <- b[c]*row - row[c]*b`` (mod p), a
    nonzero multiple of the reduced row, so no field inverse is needed. A
    row that reduces to zero leaves the basis as it is and gives -1; any
    other row is appended with its first nonzero column as pivot, which is
    returned. The basis has as many pairs as its rows have rank.
    """
    for c, b in basis:
        y = row[c]
        if y:
            a = b[c]
            row = [(a * x - y * z) % p for x, z in zip(row, b)]
    for c, x in enumerate(row):
        if x:
            basis.append((c, row))
            return c
    return -1


def gf_rank(rows, cols, entries, p):
    """Rank of a rows x cols matrix over GF(p), given its row-major flat
    entry list: one `reduce_row` per row, with the entries reduced mod p."""
    basis = []
    for r in range(rows):
        reduce_row(basis, [x % p for x in entries[r * cols:(r + 1) * cols]], p)
    return len(basis)
