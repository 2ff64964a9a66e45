import json
import random
import re
import tracemalloc
from collections import Counter, deque
from itertools import combinations
from math import comb

import pytest

from sharecircuit import _kernels, network
from sharecircuit.circuit import circuit_from_dict, circuit_to_dict, synthesize
from sharecircuit.concentrator import build_depth1
from sharecircuit.errors import (
    ArityMismatch,
    CyclicGraph,
    DanglingInputOutput,
    DuplicateTerminal,
    InvalidArguments,
    TerminalNotInNetwork,
)
from sharecircuit.field import FieldModulus
from sharecircuit.network import (
    DEFAULT_BUDGET,
    MAX_SIZE,
    Network,
    VerificationReport,
    complete_bipartite,
    max_vertex_disjoint_paths,
    network_from_dict,
    network_to_dict,
    parallel_union,
    read_network,
    topological_order,
    verify_concentrator,
    verify_partial_sc,
    verify_superconcentrator,
    write_network,
)
from sharecircuit.superconcentrator import _bipartite_block, build_partial_sc_depth2


def brute_max_disjoint_paths(net, S, T):
    """Independent oracle: enumerate every simple S-to-T path as a vertex
    set, then find the largest pairwise-disjoint family by backtracking."""
    succ = [[] for _ in range(net.vertex_count)]
    for u, v in net.edges:
        succ[u].append(v)
    t_set = set(T)
    paths = []

    def dfs(v, visited):
        if v in t_set:
            paths.append(frozenset(visited))
        for w in succ[v]:
            if w not in visited:
                dfs(w, visited | {w})

    for s in S:
        dfs(s, frozenset([s]))

    best = 0

    def pick(i, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(paths) - i) <= best:
            return
        for j in range(i, len(paths)):
            if not (paths[j] & used):
                pick(j + 1, used | paths[j], count + 1)

    pick(0, frozenset(), 0)
    return best


def random_dag(rng, max_vertices=9):
    n = rng.randrange(4, max_vertices + 1)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                edges.append((u, v))
    n_in = rng.randrange(1, max(2, n // 3) + 1)
    n_out = rng.randrange(1, max(2, n // 3) + 1)
    inputs = tuple(range(n_in))
    outputs = tuple(range(n - n_out, n))
    if set(inputs) & set(outputs):
        return None
    # drop edges into inputs so the network also validates
    edges = [(u, v) for u, v in edges if v not in set(inputs)]
    return Network(n, edges, inputs, outputs)


# The three verifiers as they were before they shared one sweep, kept
# verbatim (renamed) as the oracle for `_sweep`.


def sample_subsets(rng, universe, size, count):
    """Distinct uniformly-sampled `size`-subsets, at most `count` of them."""
    total = comb(len(universe), size)
    if total <= count:
        return [tuple(c) for c in combinations(sorted(universe), size)]
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < 20 * count:
        seen.add(tuple(sorted(rng.sample(universe, size))))
        attempts += 1
    return sorted(seen)


def concentrator_oracle(
    net: Network, c: int, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check that every c-subset of inputs has c vertex-disjoint paths to
    the outputs; exhaustive when the subset count fits the budget."""
    m = len(net.inputs)
    total = comb(m, c)
    exhaustive = total <= budget
    inputs_sorted = sorted(net.inputs)
    if exhaustive:
        subsets = combinations(inputs_sorted, c)
        seed = None
    else:
        rng = random.Random(rng_seed)
        subsets = sample_subsets(rng, inputs_sorted, c, budget)
        seed = rng_seed
    checked = 0
    for S in subsets:
        checked += 1
        if max_vertex_disjoint_paths(net, S, net.outputs) != c:
            return VerificationReport(
                f"concentrator({c})", "refuted", checked, witness=(tuple(S),), sample_seed=seed
            )
    verdict = "proved" if exhaustive else "sampled_pass"
    return VerificationReport(f"concentrator({c})", verdict, checked, sample_seed=seed)


def superconcentrator_oracle(
    net: Network, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check that every equal-size input/output subset pair is joined by
    that many vertex-disjoint paths."""
    m, n = len(net.inputs), len(net.outputs)
    kmax = min(m, n)
    total = sum(comb(m, k) * comb(n, k) for k in range(1, kmax + 1))
    exhaustive = total <= budget
    inputs_sorted = sorted(net.inputs)
    outputs_sorted = sorted(net.outputs)
    checked = 0
    seed = None if exhaustive else rng_seed
    rng = random.Random(rng_seed)
    for k in range(1, kmax + 1):
        if exhaustive:
            pairs = (
                (X, Y)
                for X in combinations(inputs_sorted, k)
                for Y in combinations(outputs_sorted, k)
            )
        else:
            per_size = max(1, budget // kmax)
            pairs = (
                (tuple(sorted(rng.sample(inputs_sorted, k))),
                 tuple(sorted(rng.sample(outputs_sorted, k))))
                for _ in range(per_size)
            )
        for X, Y in pairs:
            checked += 1
            if max_vertex_disjoint_paths(net, X, Y) != k:
                return VerificationReport(
                    "superconcentrator", "refuted", checked,
                    witness=(tuple(X), tuple(Y)), sample_seed=seed,
                )
    verdict = "proved" if exhaustive else "sampled_pass"
    return VerificationReport("superconcentrator", verdict, checked, sample_seed=seed)


def partial_sc_oracle(
    net: Network, p: int, q: int, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check the (p, q)-partial superconcentrator property: equal-size
    subset pairs with size k in [q, p] need at least k - q disjoint paths."""
    m, n = len(net.inputs), len(net.outputs)
    if not 0 <= q <= p <= min(m, n):
        raise ArityMismatch(f"need 0 <= q <= p <= min(inputs, outputs), got p={p}, q={q}")
    sizes = list(range(max(q, 1), p + 1))
    total = sum(comb(m, k) * comb(n, k) for k in sizes)
    exhaustive = total <= budget
    inputs_sorted = sorted(net.inputs)
    outputs_sorted = sorted(net.outputs)
    checked = 0
    seed = None if exhaustive else rng_seed
    rng = random.Random(rng_seed)
    for k in sizes:
        if exhaustive:
            pairs = (
                (X, Y)
                for X in combinations(inputs_sorted, k)
                for Y in combinations(outputs_sorted, k)
            )
        else:
            per_size = max(1, budget // len(sizes))
            pairs = (
                (tuple(sorted(rng.sample(inputs_sorted, k))),
                 tuple(sorted(rng.sample(outputs_sorted, k))))
                for _ in range(per_size)
            )
        for X, Y in pairs:
            checked += 1
            if max_vertex_disjoint_paths(net, X, Y) < k - q:
                return VerificationReport(
                    f"partial_sc({p},{q})", "refuted", checked,
                    witness=(tuple(X), tuple(Y)), sample_seed=seed,
                )
    verdict = "proved" if exhaustive else "sampled_pass"
    return VerificationReport(f"partial_sc({p},{q})", verdict, checked, sample_seed=seed)


def sweep_network(rng, i):
    """Small networks of five kinds: complete bipartite graphs, matchings,
    random two-layer graphs with one planted isolated output, builder
    outputs and random DAGs."""
    m, n = rng.randrange(1, 6), rng.randrange(1, 6)
    kind = i % 5
    if kind == 0:
        return complete_bipartite(m, n)
    if kind == 1:
        return Network(m + n, [(j, m + j) for j in range(min(m, n))],
                       range(m), range(m, m + n))
    if kind == 2:
        mid = rng.randrange(1, 5)
        edges = [(u, v) for u in range(m) for v in range(m + n, m + n + mid)
                 if rng.random() < 0.7]
        edges += [(u, v) for u in range(m + n, m + n + mid) for v in range(m, m + n)
                  if rng.random() < 0.7]
        isolated = rng.randrange(m, m + n)
        edges = [(u, v) for u, v in edges if v != isolated]
        return Network(m + n + mid, edges, range(m), range(m, m + n))
    if kind == 3:
        if rng.random() < 0.5:
            side = rng.randrange(3, 6)
            return build_partial_sc_depth2(side, rng.randrange(side, 6), 1, rng_seed=i)
        k = rng.randrange(0, min(m, n) + 1)
        return build_depth1(m, n, k, rng_seed=i)[0]
    return random_dag(rng)


def test_sweep_matches_the_three_verifier_oracle():
    rng = random.Random(2024)
    outcomes = Counter()
    networks = 0
    for i in range(400):
        net = sweep_network(rng, i)
        if net is None:
            continue
        networks += 1
        m, n = len(net.inputs), len(net.outputs)
        c = rng.randrange(0, m + 1)
        p = rng.randrange(0, min(m, n) + 1)
        q = rng.randrange(0, p + 1)
        for budget in (DEFAULT_BUDGET, rng.randrange(1, 9)):
            seed = rng.randrange(100)
            runs = [
                ("concentrator", verify_concentrator(net, c, budget, seed),
                 concentrator_oracle(net, c, budget, seed)),
                ("sc", verify_superconcentrator(net, budget, seed),
                 superconcentrator_oracle(net, budget, seed)),
                ("partial", verify_partial_sc(net, p, q, budget, seed),
                 partial_sc_oracle(net, p, q, budget, seed)),
            ]
            for prop, got, want in runs:
                assert tuple(got) == tuple(want), (i, prop, budget)
                mode = "exhaustive" if got.sample_seed is None else "sampled"
                outcomes[prop, mode, got.verdict != "refuted"] += 1
    assert networks >= 300
    for prop in ("concentrator", "sc", "partial"):
        for mode in ("exhaustive", "sampled"):
            assert outcomes[prop, mode, True] and outcomes[prop, mode, False], (prop, mode)


def rank_by_inverses(mat, p):
    """Oracle: rank over GF(p) by Gauss-Jordan elimination with field
    inverses, one row swap per pivot."""
    mat = [row[:] for row in mat]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        r = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if r is None:
            continue
        mat[rank], mat[r] = mat[r], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("prime", [3, 7, network.CERTIFICATE_PRIME])
def test_certifies_iff_the_minor_has_rank_r(monkeypatch, prime):
    # certifies(X, Y, r) stops its elimination at the r-th pivot; its answer
    # is still whether rank M[Y, X] >= r, for every r from 0 to past |X|.
    monkeypatch.setattr(network, "CERTIFICATE_PRIME", prime)
    rng = random.Random(prime)
    seen = Counter()
    for i in range(200):
        net = sweep_network(rng, i)
        if net is None:
            continue
        paths = net.path_matrix
        ell = len(net.inputs)
        rows = {y: _kernels.unpack(paths.rows[y], ell, prime) for y in net.outputs}
        for _ in range(5):
            X = rng.sample(net.inputs, rng.randrange(ell + 1))
            Y = rng.sample(net.outputs, rng.randrange(len(net.outputs) + 1))
            rank = rank_by_inverses([[rows[y][paths.column[x]] for x in X] for y in Y], prime)
            for r in range(len(X) + 2):
                assert paths.certifies(X, Y, r) == (rank >= r), (i, X, Y, r)
                seen[rank >= r] += 1
            seen["deficient"] += rank < min(len(X), len(Y))
    assert seen[True] >= 200 and seen[False] >= 200 and seen["deficient"] >= 20, seen


@pytest.mark.parametrize("prime", [3, network.CERTIFICATE_PRIME])
def test_sweep_falls_back_to_flow_when_minors_vanish(monkeypatch, prime):
    """With path-matrix weights over GF(3) many minors vanish on pairs that
    are linked, so max-flow must decide them. At GF(3) and at the default
    prime, reports equal the flow oracle's, and every pair the certificate
    accepts has the flow it claims."""
    monkeypatch.setattr(network, "CERTIFICATE_PRIME", prime)
    flows = []
    flow = network.max_vertex_disjoint_paths

    def counting_flow(net, S, T):
        flows.append((S, T))
        return flow(net, S, T)

    offers = []
    certifies = network.PathMatrix.certifies

    def recording_certifies(self, X, Y, r):
        ok = certifies(self, X, Y, r)
        offers.append((X, Y, r, ok))
        return ok

    monkeypatch.setattr(network, "max_vertex_disjoint_paths", counting_flow)
    monkeypatch.setattr(network.PathMatrix, "certifies", recording_certifies)
    rng = random.Random(7)
    decided = Counter()
    for i in range(400):
        net = sweep_network(rng, i)
        if net is None:
            continue
        m, n = len(net.inputs), len(net.outputs)
        p = rng.randrange(0, min(m, n) + 1)
        q = rng.randrange(0, p + 1)
        for budget in (DEFAULT_BUDGET, rng.randrange(1, 9)):
            seed = rng.randrange(100)
            for sweep, oracle, args in (
                (verify_superconcentrator, superconcentrator_oracle, ()),
                (verify_partial_sc, partial_sc_oracle, (p, q)),
            ):
                want = oracle(net, *args, budget, seed)
                flows.clear()
                offers.clear()
                got = sweep(net, *args, budget, seed)
                assert tuple(got) == tuple(want), (i, budget)
                accepted = [(X, Y, r) for X, Y, r, ok in offers if ok]
                assert len(accepted) + len(flows) == got.subsets_checked
                mode = "exhaustive" if got.sample_seed is None else "sampled"
                decided[mode, "certificate"] += len(accepted)
                decided[mode, "flow"] += len(flows)
                for X, Y, r, ok in offers:
                    linked = flow(net, X, Y) >= r
                    assert linked or not ok, (i, X, Y, r)
                    decided[mode, "zero minor"] += linked and not ok
    for mode in ("exhaustive", "sampled"):
        assert decided[mode, "certificate"] and decided[mode, "flow"], (mode, decided)
        if prime == 3:
            assert decided[mode, "zero minor"], (mode, decided)


def test_sweep_builds_the_path_matrix_only_when_it_pays(monkeypatch):
    # A pair sweep offers every pair to the path matrix when the network is
    # deeper than one edge and the sweep makes more checks than the network
    # has inputs; a concentrator sweep never offers one.
    offered = []
    certifies = network.PathMatrix.certifies

    def recording_certifies(self, X, Y, r):
        offered.append(len(X))
        return certifies(self, X, Y, r)

    monkeypatch.setattr(network.PathMatrix, "certifies", recording_certifies)
    flat = complete_bipartite(8, 8)
    for budget in (0, 8, 80, DEFAULT_BUDGET):
        assert verify_superconcentrator(flat, budget).verdict != "refuted"
    assert "path_matrix" not in vars(flat) and not offered
    # partial(6, 4) sweeps the sizes 4..6 of a graph with 6 inputs: budgets 3
    # and 6 make 3 and 6 checks, budget 9 makes 9.
    deep = build_partial_sc_depth2(6, 6, 1.0, 3)
    assert deep.depth == 2
    for budget in (3, 6):
        assert verify_partial_sc(deep, 6, 4, budget).subsets_checked == budget
    assert "path_matrix" not in vars(deep) and not offered
    assert verify_partial_sc(deep, 6, 4, 9).subsets_checked == 9
    assert "path_matrix" in vars(deep) and set(offered) == {4, 5, 6}
    offered.clear()
    assert verify_partial_sc(deep, 6, 4).verdict == "proved"
    assert set(offered) == {4, 5, 6}
    offered.clear()
    for budget in (12, DEFAULT_BUDGET):
        assert verify_concentrator(deep, 3, budget).subsets_checked > len(deep.inputs)
    assert not offered


# Flow queries as they were before the split graph was shared: the arc list
# and the residual graph rebuilt per query, and Dinic's algorithm run on it.
# Kept verbatim (renamed) as the oracle for the flow queries.


def rebuilding_max_vertex_disjoint_paths(net: Network, S, T) -> int:
    """Maximum number of vertex-disjoint paths from S (inputs) to T (outputs).

    Every vertex is split into an (in, out) pair joined by a capacity-1
    arc, so the flow value equals the minimum vertex cut by Menger.
    """
    S = tuple(S)
    T = tuple(T)
    in_set = set(net.inputs)
    out_set = set(net.outputs)
    for v in S:
        if v not in in_set:
            raise TerminalNotInNetwork(f"{v} is not an input vertex")
    for v in T:
        if v not in out_set:
            raise TerminalNotInNetwork(f"{v} is not an output vertex")
    if not S or not T:
        return 0
    V = net.vertex_count
    source, sink = 2 * V, 2 * V + 1
    tails = []
    heads = []
    for v in range(V):
        tails.append(v)
        heads.append(v + V)
    for u, v in net.edges:
        tails.append(u + V)
        heads.append(v)
    for v in S:
        tails.append(source)
        heads.append(v)
    for v in T:
        tails.append(v + V)
        heads.append(sink)
    return rebuilding_maxflow_unit(2 * V + 2, tails, heads, source, sink)


def rebuilding_maxflow_unit(num_nodes, tails, heads, source, sink):
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


def flow_network(rng, i):
    """Networks of five kinds: random DAGs with parallel and skip edges and
    vertices numbered in random order, complete bipartite graphs, matchings,
    depth-1 concentrators and depth-2 partial superconcentrators."""
    kind = i % 5
    m, n = rng.randrange(1, 7), rng.randrange(1, 7)
    if kind == 0:
        mid = rng.randrange(0, 8)
        V = m + n + mid
        rank = list(range(V))  # topological position -> vertex number
        rng.shuffle(rank)
        inputs, inner, outputs = rank[:m], rank[m:m + mid], rank[m + mid:]
        edges = []
        for a in range(m + mid):  # skip edges jump over layers
            for b in range(max(a + 1, m), V):
                if rng.random() < 0.3:
                    edges.extend([(rank[a], rank[b])] * rng.choice((1, 1, 2, 3)))
        rng.shuffle(edges)
        return Network(V, edges, inputs, outputs)
    if kind == 1:
        return complete_bipartite(m, n)
    if kind == 2:
        return Network(m + n, [(j, m + j) for j in range(min(m, n))],
                       range(m), range(m, m + n))
    if kind == 3:
        k = rng.randrange(0, min(m, n) + 1)
        return build_depth1(m, n, k, rng_seed=i)[0]
    side = rng.randrange(3, 6)
    return build_partial_sc_depth2(side, rng.randrange(side, 7), 1, rng_seed=i)


def flow_queries(rng, net):
    """At least ten (S, T) queries in shuffled order, with repeats: both
    terminal sets whole, empty ones, single vertices and random subsets,
    some listed out of order."""
    xs, ys = list(net.inputs), list(net.outputs)

    def subset(universe):
        return rng.sample(universe, rng.randrange(1, len(universe) + 1))

    queries = [(xs, ys), (xs, subset(ys)), (subset(xs), ys), ((), subset(ys)),
               (subset(xs), ()), ((), ()), ([rng.choice(xs)], [rng.choice(ys)])]
    queries += [(subset(xs), subset(ys)) for _ in range(6)]
    queries += rng.sample(queries, 4)
    rng.shuffle(queries)
    return queries


def test_shared_split_graph_matches_the_rebuilding_oracle():
    rng = random.Random(55)
    kinds = Counter()
    for i in range(420):
        net = flow_network(rng, i)
        for S, T in flow_queries(rng, net):
            want = rebuilding_max_vertex_disjoint_paths(net, S, T)
            assert max_vertex_disjoint_paths(net, S, T) == want, (i, S, T)
            kinds[i % 5, want > 0] += 1
    for kind in range(5):
        assert kinds[kind, True] and kinds[kind, False], kind


def depth1_network(rng):
    """A valid network of depth at most 1, vertices numbered in random order:
    input-to-output edges with repeats, and dangling non-terminal vertices.
    A dead end is entered from inputs, outputs and strays; a stray enters
    outputs and dead ends and is reached from nowhere."""
    m, n = rng.randrange(1, 8), rng.randrange(1, 8)
    ends, strays = rng.randrange(0, 3), rng.randrange(0, 3)
    number = list(range(m + n + ends + strays))
    rng.shuffle(number)
    xs, ys = number[:m], number[m:m + n]
    dead, stray = number[m + n:m + n + ends], number[m + n + ends:]
    density = rng.random()
    edges = [(x, y) for x in xs for y in ys if rng.random() < density]
    edges += rng.choices(edges, k=rng.randrange(0, 4)) if edges else []
    for tails, heads in ((xs + ys + stray, dead), (stray, ys)):
        edges += [(u, v) for u in tails for v in heads if rng.random() < 0.3]
    rng.shuffle(edges)
    return Network(len(number), edges, xs, ys)


def test_depth1_matching_matches_the_split_graph_oracle():
    # A depth-1 network runs the same kernel as a deeper one; on it the
    # search is a bipartite matching.
    rng = random.Random(91)
    seen = Counter()
    for i in range(320):
        net = depth1_network(rng)
        assert net.depth <= 1
        xs, ys = list(net.inputs), list(net.outputs)
        some_ys = rng.sample(ys, rng.randrange(1, len(ys) + 1))
        queries = [(xs, net.outputs), (xs, ys[::-1]), ((), ys), (xs, ()),
                   (rng.choices(xs, k=len(xs) + 2), rng.choices(ys, k=len(ys) + 2)),
                   (rng.sample(xs, rng.randrange(1, len(xs) + 1)), some_ys)]
        for S, T in queries:
            want = rebuilding_max_vertex_disjoint_paths(net, S, T)
            assert max_vertex_disjoint_paths(net, S, T) == want, (i, S, T)
            seen["proper T" if len(set(T)) < len(ys) else "all outputs", want > 0] += 1
            seen["repeats"] += len(set(S)) < len(S) or len(set(T)) < len(T)
        seen["dangling"] += net.vertex_count > len(xs) + len(ys)
    assert seen["repeats"] >= 320 and seen["dangling"] >= 100
    for T in ("proper T", "all outputs"):
        assert seen[T, True] and seen[T, False], T
    assert max_vertex_disjoint_paths(complete_bipartite(2, 3), [0, 0], [2, 3, 4]) == 1


def test_depth1_queries_check_terminals_without_a_split_graph():
    # 0, 1, 2 are inputs, 3, 4 outputs, 5 a stray and 6 a dead end. The
    # deeper network adds the edge (6, 4), so it has depth 2.
    net = Network(7, [(0, 3), (1, 3), (1, 4), (0, 6), (5, 4)], (0, 1, 2), (3, 4))
    deeper = Network(7, net.edges + ((6, 4),), net.inputs, net.outputs)
    assert net.depth == 1 and deeper.depth == 2
    bad = [((9,), (3,)), ((-1,), (3,)), ((3,), (4,)), ((5,), (4,)), ((0, 6), (3,)),
           ((0,), (0,)), ((0,), (3, 6)), ((1,), (9,)), ((), (2,)), ((7,), (8,))]
    for S, T in bad:
        with pytest.raises(TerminalNotInNetwork) as want:
            rebuilding_max_vertex_disjoint_paths(net, S, T)
        for queried in (net, deeper):
            with pytest.raises(TerminalNotInNetwork) as got:
                max_vertex_disjoint_paths(queried, S, T)
            assert str(got.value) == str(want.value), (queried.depth, S, T)
    assert max_vertex_disjoint_paths(net, (0, 1, 2), (3, 4)) == 2
    assert max_vertex_disjoint_paths(deeper, (0, 1, 2), (3, 4)) == 2
    # a query caches the successor lists, the terminal sets and the order,
    # and builds nothing else (the depth is this test's own)
    for queried in (net, deeper):
        cached = set(vars(queried)) - {"vertex_count", "edges", "inputs", "outputs"}
        assert cached == {"successors", "terminal_sets", "order", "depth"}


def test_flow_query_on_a_cyclic_network_raises():
    # no flow query can see a cyclic network: building one raises
    with pytest.raises(CyclicGraph):
        cyclic = Network(3, [(0, 1), (1, 2), (2, 1)], (0,), (2,))
        max_vertex_disjoint_paths(cyclic, (0,), (2,))


def test_topological_order_and_cycle():
    net = Network(3, [(0, 1), (1, 2)], (0,), (2,))
    order = topological_order(net)
    assert order.index(0) < order.index(1) < order.index(2)
    with pytest.raises(CyclicGraph):
        topological_order(Network(2, [(0, 1), (1, 0)], (), ()))


def test_network_is_frozen():
    net = complete_bipartite(2, 3)
    fresh = complete_bipartite(2, 3)
    # validating fills the successor lists, the terminal sets and the order
    built = ("successors", "terminal_sets", "order")
    cached = built + ("depth", "path_matrix")
    assert set(vars(net)) - {"vertex_count", "edges", "inputs", "outputs"} == set(built)
    assert net.order == tuple(topological_order(net))
    assert net.depth == 1 and net.path_matrix
    assert set(cached) <= set(vars(net))
    for name, value in (("vertex_count", 9), ("edges", ()), ("inputs", (1,)),
                        ("outputs", (4,)), ("successors", None),
                        ("terminal_sets", None), ("order", None), ("depth", None),
                        ("path_matrix", None)):
        with pytest.raises(AttributeError):
            setattr(net, name, value)
    # equality and hashing see the fields, never the cached values
    assert net == fresh and hash(net) == hash(fresh)
    assert not {"depth", "path_matrix"} & set(vars(fresh))
    assert net != complete_bipartite(2, 2)


def test_one_topological_order_per_network(monkeypatch):
    calls = Counter()

    def counted(net):
        calls[id(net)] += 1
        return topological_order(net)

    monkeypatch.setattr(network, "topological_order", counted)
    net = Network(6, [(3, 4), (0, 2), (2, 3), (1, 3), (0, 4), (2, 5)], (0, 1), (4, 5))
    assert list(calls.values()) == [1]
    assert net.depth == 3 and net.order == tuple(topological_order(net))
    max_vertex_disjoint_paths(net, net.inputs, net.outputs)
    circ = synthesize(net, FieldModulus(7))
    assert circ.net is net and list(calls.values()) == [1]
    again = circuit_from_dict(circuit_to_dict(circ))
    assert calls[id(net)] == 1 and calls[id(again.net)] == 1
    for _ in range(2):
        with pytest.raises(CyclicGraph):
            Network(3, [(0, 1), (1, 2), (2, 1)], (0,), (2,))


def test_validate_errors():
    # a network validates itself when it is built
    with pytest.raises(TerminalNotInNetwork):
        Network(2, [(0, 3)], (0,), (1,))
    with pytest.raises(DuplicateTerminal):
        Network(3, [(0, 2)], (0, 0), (2,))
    with pytest.raises(DuplicateTerminal):
        Network(2, [], (0,), (0,))
    with pytest.raises(DanglingInputOutput):
        Network(2, [(1, 0)], (0,), (1,))
    # vertices are ints: no float, bool or string is truncated or parsed into one
    for args in ((2.0, [(0, 1)], (0,), (1,)), (True, [], (0,), ()),
                 (3, [(0, 2.9)], (0,), (2,)), (3, [(False, 2)], (0,), (2,)),
                 (3, [(0, "2")], (0,), (2,)), (3, [(0, 2)], (0.0,), (2,)),
                 (3, [(0, 2)], (0,), (True,))):
        with pytest.raises(InvalidArguments, match="integer"):
            Network(*args)
    # an edge is a [tail, head] pair, and the message names the one that is not
    for bad in ([0], [0, 1, 2], 7, ()):
        message = f"edges must be [tail, head] pairs, got {bad!r}"
        with pytest.raises(InvalidArguments, match=re.escape(message) + "$"):
            Network(3, [(0, 2), bad], (0,), (2,))
    Network(2, [(0, 1)], (0,), (1,))


def test_a_negative_vertex_count_is_refused_not_called_a_cycle():
    # The vertex count once went unchecked below 0, so the topological
    # order came up short and the network was reported as cyclic.
    for n in (-1, -3, -(10**30)):
        with pytest.raises(InvalidArguments, match=f"vertex_count must be at least 0, got {n}$"):
            Network(n, [], (), ())
    assert Network(0, [], (), ()).order == ()


def test_sizes_above_the_maximum_are_refused_before_allocating():
    # Each of these would allocate 0.2 GB or more if it got past its check;
    # the CLI tests cover a graph file's vertex count.
    with pytest.raises(InvalidArguments, match=f"{MAX_SIZE + 1} vertices exceed"):
        complete_bipartite(1, MAX_SIZE)
    with pytest.raises(InvalidArguments, match=f"{4 * MAX_SIZE} edges exceed"):
        complete_bipartite(8, MAX_SIZE // 2)
    with pytest.raises(InvalidArguments, match=f"{4 * MAX_SIZE} edges exceed"):
        build_depth1(MAX_SIZE // 2, 8, 4, degree=8)
    with pytest.raises(InvalidArguments, match=f"{MAX_SIZE + 1} vertices exceed"):
        _bipartite_block(1, 1, MAX_SIZE)
    with pytest.raises(InvalidArguments, match=f"{4 * MAX_SIZE} edges exceed"):
        _bipartite_block(1, 8, MAX_SIZE // 2)


def test_a_network_at_the_maximum_size_stays_under_its_stated_memory():
    # check_size states under 80 MB at the peak of building a network of
    # MAX_SIZE isolated vertices; a tenth of it, scaled, measures that.
    tracemalloc.start()
    try:
        Network(MAX_SIZE // 10, [], (0,), (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * 10 < 80e6, peak


def test_disjoint_paths_examples():
    k35 = complete_bipartite(3, 5)
    assert max_vertex_disjoint_paths(k35, k35.inputs, k35.outputs) == 3
    assert max_vertex_disjoint_paths(k35, k35.inputs[:2], k35.outputs) == 2
    # funnel: both inputs pass through one middle vertex
    funnel = Network(4, [(0, 2), (1, 2), (2, 3)], (0, 1), (3,))
    assert max_vertex_disjoint_paths(funnel, (0, 1), (3,)) == 1
    assert max_vertex_disjoint_paths(funnel, (), (3,)) == 0
    with pytest.raises(TerminalNotInNetwork):
        max_vertex_disjoint_paths(funnel, (2,), (3,))


def test_disjoint_paths_match_brute_force_oracle():
    tested = 0
    for seed in range(400):
        rng = random.Random(seed)
        net = random_dag(rng)
        if net is None:
            continue
        S = tuple(sorted(rng.sample(net.inputs, rng.randrange(1, len(net.inputs) + 1))))
        T = tuple(sorted(rng.sample(net.outputs, rng.randrange(1, len(net.outputs) + 1))))
        assert max_vertex_disjoint_paths(net, S, T) == brute_max_disjoint_paths(net, S, T)
        tested += 1
    assert tested > 300


def test_disjoint_paths_reverse_symmetry():
    # reversing turns outputs into inputs, so it needs outputs that are sinks
    covered = 0
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        net = random_dag(rng)
        if net is None or any(u in net.outputs for u, _ in net.edges):
            continue
        rev = Network(net.vertex_count, [(v, u) for u, v in net.edges],
                      net.outputs, net.inputs)
        forward = max_vertex_disjoint_paths(net, net.inputs, net.outputs)
        backward = max_vertex_disjoint_paths(rev, rev.inputs, rev.outputs)
        assert forward == backward
        covered += 1
    assert covered == 79


def test_disjoint_paths_monotone_in_terminals():
    net = complete_bipartite(4, 4)
    prev = 0
    for k in range(1, 5):
        cur = max_vertex_disjoint_paths(net, net.inputs[:k], net.outputs)
        assert cur >= prev
        prev = cur


def test_verify_concentrator_examples():
    good = complete_bipartite(4, 2)
    rep = verify_concentrator(good, 2)
    assert rep.verdict == "proved" and rep.subsets_checked == 6
    # two inputs forced through a single output cannot route 2 paths
    bad = Network(3, [(0, 2), (1, 2)], (0, 1), (2,))
    rep = verify_concentrator(bad, 1)
    assert rep.verdict == "proved"
    rep = verify_concentrator(complete_bipartite(3, 1), 1)
    assert rep.verdict == "proved"


def test_verify_concentrator_refuted_with_witness():
    # output 3 is isolated; the pair {0,1} only reaches output 2
    bad = Network(4, [(0, 2), (1, 2)], (0, 1), (2, 3))
    rep = verify_concentrator(bad, 2)
    assert rep.verdict == "refuted"
    assert rep.witness == ((0, 1),)


def test_verify_concentrator_checks_at_least_one_subset():
    edgeless = Network(5, [], (0, 1, 2), (3, 4))
    rep = verify_concentrator(edgeless, 2, budget=0)
    assert rep.verdict == "refuted" and rep.subsets_checked == 1


def test_verify_concentrator_size_range():
    net = complete_bipartite(3, 1)
    for c in (-1, 4):
        with pytest.raises(ArityMismatch):
            verify_concentrator(net, c)
    # more inputs than outputs is a refutation, not an error
    rep = verify_concentrator(net, 2)
    assert rep.verdict == "refuted" and rep.witness == ((0, 1),)


def test_verify_superconcentrator_examples():
    rep = verify_superconcentrator(complete_bipartite(3, 3))
    assert rep.verdict == "proved"
    # a perfect matching is not a superconcentrator for n >= 2: inputs {0}
    # and outputs {matched elsewhere} fail at k = 1 already
    matching = Network(4, [(0, 2), (1, 3)], (0, 1), (2, 3))
    rep = verify_superconcentrator(matching)
    assert rep.verdict == "refuted"
    X, Y = rep.witness
    assert max_vertex_disjoint_paths(matching, X, Y) < len(X)


def test_verify_superconcentrator_sampled_mode():
    net = complete_bipartite(8, 8)
    rep = verify_superconcentrator(net, budget=50, rng_seed=3)
    assert rep.verdict == "sampled_pass"
    assert rep.sample_seed == 3
    assert rep.subsets_checked <= 56


def test_verify_partial_sc_examples():
    net = complete_bipartite(4, 4)
    rep = verify_partial_sc(net, 4, 1)
    assert rep.verdict == "proved"
    # q = p makes every requirement k - q <= 0: vacuously proved even for
    # an empty graph
    empty = Network(4, [], (0, 1), (2, 3))
    rep = verify_partial_sc(empty, 2, 2)
    assert rep.verdict == "proved"
    rep = verify_partial_sc(empty, 2, 1)
    assert rep.verdict == "refuted"
    for p, q in ((5, 1), (1, 2)):
        with pytest.raises(ArityMismatch):
            verify_partial_sc(net, p, q)


def test_verify_partial_sc_refuses_a_negative_slack():
    # q < 0 once asked for more paths than k: with p = q = -1 the size range
    # was empty, so K_{3,5} was proved with 0 checks.
    net = complete_bipartite(3, 5)
    for p, q in ((-1, -1), (0, -1), (3, -1)):
        with pytest.raises(ArityMismatch, match="need 0 <= slack"):
            verify_partial_sc(net, p, q)
    assert verify_partial_sc(net, 0, 0).verdict == "proved"


def test_parallel_union_shares_terminals():
    a = complete_bipartite(3, 2)
    b = complete_bipartite(3, 2)
    net = parallel_union([a, b], 3, 2)
    assert net.inputs == (0, 1, 2)
    assert net.outputs == (3, 4)
    assert len(net.edges) == 12  # edge multiset is the union
    assert net.vertex_count == 5
    with pytest.raises(ArityMismatch):
        parallel_union([complete_bipartite(4, 2)], 3, 2)


def test_json_round_trip_and_canonical_edges(tmp_path):
    net = Network(4, [(1, 3), (0, 2), (0, 3)], (0, 1), (2, 3))
    path = tmp_path / "net.json"
    write_network(net, path)
    doc = json.loads(path.read_text())
    assert doc["edges"] == sorted(doc["edges"])
    loaded = read_network(path)
    assert sorted(loaded.edges) == sorted(net.edges)
    assert loaded.inputs == net.inputs and loaded.outputs == net.outputs
    # writing the loaded network again is byte-identical
    path2 = tmp_path / "net2.json"
    write_network(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_network_from_dict_validates():
    with pytest.raises(DuplicateTerminal):
        network_from_dict(
            {"vertex_count": 2, "inputs": [0], "outputs": [0], "edges": []}
        )
    doc = network_to_dict(complete_bipartite(2, 2))
    assert network_from_dict(doc).vertex_count == 4
