# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels: unit-capacity max-flow and GF(p) matrix rank.

Signature-compatible with the pure-Python twins in ``_pure.py``.
"""

from libc.stdlib cimport malloc, free

cdef extern from *:
    """
    static inline unsigned long long mulmod_u64(unsigned long long a,
                                                unsigned long long b,
                                                unsigned long long p) {
        return (unsigned long long)(((__uint128_t)a * b) % p);
    }
    """
    unsigned long long mulmod_u64(unsigned long long a,
                                  unsigned long long b,
                                  unsigned long long p) nogil


cdef unsigned long long powmod_u64(unsigned long long a,
                                   unsigned long long e,
                                   unsigned long long p) nogil:
    cdef unsigned long long result = 1 % p
    a %= p
    while e:
        if e & 1:
            result = mulmod_u64(result, a, p)
        a = mulmod_u64(a, a, p)
        e >>= 1
    return result


def maxflow_unit(adj, to, cap, int source, int sink):
    """Max flow from source to sink on a residual graph, in place (Dinic).

    Same contract as the pure-Python twin: ``adj[u]`` lists the ids of the
    arcs leaving node u, ``to[e]`` is the head of arc e, ``cap[e]`` its
    residual capacity (0 or 1) and e ^ 1 its residual twin. ``cap`` is left
    holding the residual capacities of a maximum flow.
    """
    cdef int num_nodes = len(adj)
    cdef int n_arcs = len(to)
    if n_arcs % 2 or len(cap) != n_arcs:
        raise ValueError("to and cap must list the same, even number of arcs")
    if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
        raise ValueError("source or sink out of range")
    # adj as CSR: the arcs leaving u are arcs[first[u]:first[u + 1]].
    cdef int *first = <int *> malloc((num_nodes + 1) * sizeof(int))
    cdef int *arcs = <int *> malloc((n_arcs + 1) * sizeof(int))
    cdef int *head = <int *> malloc((n_arcs + 1) * sizeof(int))
    cdef int *res = <int *> malloc((n_arcs + 1) * sizeof(int))
    cdef int *level = <int *> malloc(num_nodes * sizeof(int))
    cdef int *it = <int *> malloc(num_nodes * sizeof(int))
    # DFS stack of (node, arc taken to reach it); depth <= num_nodes.
    cdef int *stack_node = <int *> malloc((num_nodes + 1) * sizeof(int))
    cdef int *stack_edge = <int *> malloc((num_nodes + 1) * sizeof(int))
    cdef int *queue = <int *> malloc(num_nodes * sizeof(int))
    cdef int i, k, u, v, e, qh, qt, top, flow, found
    try:
        if (first == NULL or arcs == NULL or head == NULL or res == NULL or
                level == NULL or it == NULL or stack_node == NULL or
                stack_edge == NULL or queue == NULL):
            raise MemoryError()
        k = 0
        for u in range(num_nodes):
            first[u] = k
            for e in adj[u]:
                if not 0 <= e < n_arcs or k == n_arcs:
                    raise ValueError("adj holds an arc id out of range, or more ids than arcs")
                arcs[k] = e
                k += 1
        first[num_nodes] = k
        for e in range(n_arcs):
            v = to[e]
            if not 0 <= v < num_nodes:
                raise ValueError(f"arc {e} heads out of range")
            head[e] = v
            res[e] = cap[e]

        flow = 0
        with nogil:
            while True:
                # BFS level graph.
                for i in range(num_nodes):
                    level[i] = -1
                level[source] = 0
                queue[0] = source
                qh = 0
                qt = 1
                while qh < qt:
                    u = queue[qh]
                    qh += 1
                    for k in range(first[u], first[u + 1]):
                        e = arcs[k]
                        v = head[e]
                        if res[e] > 0 and level[v] < 0:
                            level[v] = level[u] + 1
                            queue[qt] = v
                            qt += 1
                if level[sink] < 0:
                    break
                for i in range(num_nodes):
                    it[i] = first[i]
                # Repeated iterative DFS for augmenting paths of unit flow.
                while True:
                    top = 0
                    stack_node[0] = source
                    stack_edge[0] = -1
                    found = 0
                    while top >= 0:
                        u = stack_node[top]
                        if u == sink:
                            found = 1
                            break
                        k = it[u]
                        while k < first[u + 1]:
                            e = arcs[k]
                            v = head[e]
                            if res[e] > 0 and level[v] == level[u] + 1:
                                break
                            k += 1
                        it[u] = k
                        if k == first[u + 1]:
                            level[u] = -1  # dead end, prune
                            top -= 1
                        else:
                            top += 1
                            stack_node[top] = v
                            stack_edge[top] = e
                    if not found:
                        break
                    for i in range(1, top + 1):
                        e = stack_edge[i]
                        res[e] -= 1
                        res[e ^ 1] += 1
                    flow += 1
        for e in range(n_arcs):
            cap[e] = res[e]
        return flow
    finally:
        free(first); free(arcs); free(head); free(res); free(level)
        free(it); free(stack_node); free(stack_edge); free(queue)


def gf_rank(int rows, int cols, entries, unsigned long long p):
    """Rank of a rows x cols matrix over GF(p); entries row-major."""
    if rows == 0 or cols == 0:
        return 0
    cdef unsigned long long *mat = <unsigned long long *> malloc(
        rows * cols * sizeof(unsigned long long))
    if mat == NULL:
        raise MemoryError()
    cdef int r, c, col, pivot, rank
    cdef unsigned long long inv, factor, tmp
    for r in range(rows * cols):
        mat[r] = <unsigned long long> (entries[r] % p)

    rank = 0
    with nogil:
        for col in range(cols):
            pivot = -1
            for r in range(rank, rows):
                if mat[r * cols + col] != 0:
                    pivot = r
                    break
            if pivot < 0:
                continue
            if pivot != rank:
                for c in range(cols):
                    tmp = mat[rank * cols + c]
                    mat[rank * cols + c] = mat[pivot * cols + c]
                    mat[pivot * cols + c] = tmp
            inv = powmod_u64(mat[rank * cols + col], p - 2, p)
            for c in range(col, cols):
                mat[rank * cols + c] = mulmod_u64(mat[rank * cols + c], inv, p)
            for r in range(rows):
                if r != rank and mat[r * cols + col] != 0:
                    factor = mat[r * cols + col]
                    for c in range(col, cols):
                        tmp = mulmod_u64(factor, mat[rank * cols + c], p)
                        mat[r * cols + c] = (mat[r * cols + c] + p - tmp) % p
            rank += 1
            if rank == rows:
                break
    free(mat)
    return rank
