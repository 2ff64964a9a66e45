"""Pure-Python kernels: unit-capacity max-flow and GF(p) matrix rank.

These mirror the compiled kernels in ``_core.pyx``; either backend may be
selected at import time (see ``__init__``).
"""

from collections import deque


def maxflow_unit(num_nodes, tails, heads, source, sink):
    """Max flow from source to sink where every arc has capacity 1.

    ``tails``/``heads`` are parallel sequences describing directed arcs.
    Dinic's algorithm; with unit capacities the blocking-flow phases
    terminate after O(sqrt(E)) rounds.
    """
    # Forward arcs at even indices, residual arcs at odd ones.
    n_arcs = len(tails)
    to = [0] * (2 * n_arcs)
    cap = [0] * (2 * n_arcs)
    adj = [[] for _ in range(num_nodes)]
    for i in range(n_arcs):
        u, v = tails[i], heads[i]
        to[2 * i] = v
        cap[2 * i] = 1
        to[2 * i + 1] = u
        cap[2 * i + 1] = 0
        adj[u].append(2 * i)
        adj[v].append(2 * i + 1)

    level = [0] * num_nodes
    it = [0] * num_nodes
    flow = 0

    def bfs():
        for i in range(num_nodes):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[sink] >= 0

    def augment():
        # Iterative DFS along the level graph, so that path length is not
        # bounded by the interpreter's recursion limit. `path` holds the arcs
        # from the source to u; a dead end advances its parent's arc pointer.
        path = []
        u = source
        while u != sink:
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return False
                u = to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(e)
            u = to[e]
        for e in path:
            cap[e] -= 1
            cap[e ^ 1] += 1
        return True

    while bfs():
        for i in range(num_nodes):
            it[i] = 0
        while augment():
            flow += 1
    return flow


def gf_rank(rows, cols, entries, p):
    """Rank of a rows x cols matrix over GF(p).

    ``entries`` is the row-major flat entry list; values are reduced mod p.
    Gaussian elimination with pivoting on the first nonzero entry per
    column, deterministic column order.
    """
    if rows == 0 or cols == 0:
        return 0
    mat = [[entries[r * cols + c] % p for c in range(cols)] for r in range(rows)]
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot < 0:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        row = mat[rank]
        for c in range(col, cols):
            row[c] = row[c] * inv % p
        for r in range(rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                target = mat[r]
                for c in range(col, cols):
                    target[c] = (target[c] - factor * row[c]) % p
        rank += 1
        if rank == rows:
            break
    return rank
