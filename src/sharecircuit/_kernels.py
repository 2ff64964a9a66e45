"""The kernels of the cost model: unit-capacity max-flow (Menger's
vertex-disjoint paths, for the connectivity sweeps), maximum bipartite
matching (the same paths on a depth-1 network, where each is one edge), and
one fraction-free row-reduction step over GF(p) (for the sampled threshold
conditions and the path-matrix certificate of the pair sweeps). GF(p)
matrix rank is that step applied to each row in turn.

All are plain Python over exact integers, so they hold for every prime
modulus that ``FieldModulus`` accepts, however wide.
"""


def maxflow_unit(adj, to, cap, source, sink):
    """Max flow from source to sink on a residual graph, in place.

    ``adj[u]`` lists the ids of the arcs leaving node u, ``to[e]`` is the
    head of arc e and ``cap[e]`` its residual capacity, 0 or 1. Arc e ^ 1 is
    the residual twin of arc e. ``cap`` is left holding the residual
    capacities of a maximum flow. Dinic's algorithm; with unit capacities
    the blocking-flow phases terminate after O(sqrt(E)) rounds.
    """
    num_nodes = len(adj)
    flow = 0
    while True:
        # Level graph: level[v] is v's distance from the source.
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:  # the list grows while it is walked: a FIFO queue
            lv = level[u] + 1
            for e in adj[u]:
                v = to[e]
                if cap[e] and level[v] < 0:
                    level[v] = lv
                    queue.append(v)
        if level[sink] < 0:
            return flow
        # Blocking flow by an iterative DFS along the level graph, so that
        # path length is not bounded by the interpreter's recursion limit.
        # `path` holds the arcs from the source to u and it[u] is the next
        # arc of u to try; a dead end advances its parent's arc pointer.
        it = [0] * num_nodes
        path = []
        u = source
        while True:
            if u == sink:
                for e in path:
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                flow += 1
                path = []
                u = source
            arcs = adj[u]
            i, n, lv = it[u], len(arcs), level[u] + 1
            while i < n:
                e = arcs[i]
                if cap[e] and level[to[e]] == lv:
                    break
                i += 1
            it[u] = i
            if i < n:
                path.append(e)
                u = to[e]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def max_matching(succ, left, right):
    """Size of a maximum matching between ``left`` and the set ``right``.

    ``succ[u]`` lists the right neighbours of left vertex u; neighbours not
    in ``right`` are ignored, and a vertex listed twice in ``left`` counts
    once. Kuhn's algorithm: each left vertex in turn takes a free neighbour or,
    failing that, an augmenting path found by an iterative depth-first
    search, so path length is not bounded by the interpreter's recursion
    limit. `lefts` holds the left vertices of the current alternating path,
    `rights` the right vertices between them, and `arcs` their neighbour
    iterators; lefts[i + 1] owns rights[i].
    """
    owner = {}  # matched right vertex -> its left vertex
    for root in dict.fromkeys(left):
        for v in succ[root]:
            if v in right and v not in owner:
                owner[v] = root
                break
        else:
            seen = set()
            lefts, rights, arcs = [root], [], [iter(succ[root])]
            while arcs:
                for v in arcs[-1]:
                    if v in right and v not in seen:
                        break
                else:
                    arcs.pop()
                    lefts.pop()
                    if rights:
                        rights.pop()
                    continue
                seen.add(v)
                rights.append(v)
                u = owner.get(v)
                if u is None:
                    for u, v in zip(lefts, rights):
                        owner[v] = u
                    break
                lefts.append(u)
                arcs.append(iter(succ[u]))
    return len(owner)


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
