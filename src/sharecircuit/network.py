"""Directed-acyclic (m,n)-network model, valid from the moment it is built:
vertex-disjoint path counts by augmenting paths, connectivity verification
sweeps, the weighted path pass (a gate schedule under per-edge weights and
the rows over the inputs it gives) behind both a circuit's transfer matrix
and the path matrix, whose rows are packed once and ranked by the packed
GF(p) elimination of `_kernels`: the one rank test of the sweeps'
certificate and of a circuit's sampled threshold conditions; and the two
graphs that the builders return whole: the complete bipartite network and
the parallel union of networks on shared terminals."""

import json
import random
from collections import deque, namedtuple
from functools import cached_property
from itertools import combinations
from math import comb

from ._kernels import eliminate, maxflow_unit, pack
from .errors import (
    ArityMismatch,
    CyclicGraph,
    DanglingInputOutput,
    DuplicateTerminal,
    InvalidArguments,
    TerminalNotInNetwork,
    quote,
)
from .field import DEFAULT_PRIME, Frozen

DEFAULT_BUDGET = 200_000

# The largest vertex or edge count that check_size lets through.
MAX_SIZE = 10**6


def check_size(what: str, count: int) -> None:
    """Raise InvalidArguments when `count` vertices or edges exceed MAX_SIZE.

    At the maximum a network holds about 48 MB for its vertices, isolated
    ones included (73 MB at the peak of building it, under 80 MB on Python
    3.10-3.13), and about 0.1 GB for its edges (0.17 GB at the peak of
    `complete_bipartite`), by tracemalloc at a tenth of the maximum, scaled;
    so a builder calls this before it allocates either.
    """
    if count > MAX_SIZE:
        raise InvalidArguments(f"{quote(count)} {what} exceed the maximum of {MAX_SIZE}")

# The path matrix's edge weights come from a fixed stream of their own, so
# that drawing them moves no sampled pair of a sweep. Its certificate is
# sound for any weights; random ones over a large prime only make a zero
# minor on a true linkage unlikely (at most k * depth / p, Schwartz-Zippel).
CERTIFICATE_PRIME = DEFAULT_PRIME
CERTIFICATE_SEED = 0


class Network(Frozen):
    """DAG with designated ordered input and output vertices.

    Multi-edges are allowed (parallel composition can create them);
    vertex-disjointness is unaffected since vertex capacities bind. The edge
    order is whatever the caller gave: nothing computed from a network
    depends on it, and only the serialized form sorts the edges.

    Construction validates: it raises InvalidArguments on a vertex_count
    below 0 or above MAX_SIZE before it allocates anything per vertex,
    TerminalNotInNetwork on an edge or a terminal out of range,
    DuplicateTerminal on a terminal listed twice or both an input and an
    output, DanglingInputOutput on an edge into an input, and CyclicGraph on
    a directed cycle. So every network that exists is valid, and no caller
    checks one again.

    The successor lists, the terminal sets and the topological order are
    computed at construction, the depth and the path matrix of the pair
    sweeps on first use, and all are cached; the network is frozen (see
    `field.Frozen`) so that they never go stale, and equality and hashing
    see only its fields.
    """

    _fields = ("vertex_count", "edges", "inputs", "outputs")

    def __init__(self, vertex_count: int, edges, inputs, outputs):
        # Vertices are ints; bool is an int subclass but no vertex.
        n = vertex_count
        if type(n) is not int:
            raise InvalidArguments(f"vertex_count must be an integer, got {quote(n)}")
        if n < 0:
            raise InvalidArguments(f"vertex_count must be at least 0, got {quote(n)}")
        check_size("vertices", n)
        try:
            pairs = tuple((u, v) for u, v in edges)
        except (TypeError, ValueError):
            bad = next(e for e in edges if type(e) not in (list, tuple) or len(e) != 2)
            raise InvalidArguments(f"edges must be [tail, head] pairs, got {quote(bad)}") from None
        super().__init__(n, pairs, tuple(inputs), tuple(outputs))
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                raise InvalidArguments(f"edge endpoints must be integers, got {quote([u, v])}")
            if not (0 <= u < n and 0 <= v < n):
                raise TerminalNotInNetwork(f"edge {quote((u, v))} out of range")
        for name, seq in (("input", self.inputs), ("output", self.outputs)):
            seen = set()
            for v in seq:
                if type(v) is not int:
                    raise InvalidArguments(f"{name} vertices must be integers, got {quote(v)}")
                if not 0 <= v < n:
                    raise TerminalNotInNetwork(f"{name} vertex {quote(v)} out of range")
                if v in seen:
                    raise DuplicateTerminal(f"{name} vertex {v} listed twice")
                seen.add(v)
        inputs, outputs = self.terminal_sets
        if not inputs.isdisjoint(outputs):
            raise DuplicateTerminal("inputs and outputs must be disjoint")
        heads = {v for _, v in self.edges}
        for v in self.inputs:
            if v in heads:
                raise DanglingInputOutput(f"input vertex {v} has incoming edges")
        self.order  # raises CyclicGraph

    @cached_property
    def successors(self) -> tuple:
        """The heads of each vertex's outgoing edges, in edge order (cached);
        the one adjacency that the order, the depth and the flow queries
        walk."""
        succ = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            succ[u].append(v)
        return tuple(map(tuple, succ))

    @cached_property
    def terminal_sets(self) -> tuple:
        """The inputs and the outputs as two frozensets (cached)."""
        return frozenset(self.inputs), frozenset(self.outputs)

    @cached_property
    def order(self) -> tuple:
        """The vertices in topological order (cached); raises CyclicGraph."""
        return tuple(topological_order(self))

    @cached_property
    def depth(self) -> int:
        """Longest input-to-output path length in edges (cached)."""
        dist = [-1] * self.vertex_count
        for v in self.inputs:
            dist[v] = 0
        succ = self.successors
        for u in self.order:
            if dist[u] < 0:
                continue
            for v in succ[u]:
                if dist[v] < dist[u] + 1:
                    dist[v] = dist[u] + 1
        return max((dist[v] for v in self.outputs if dist[v] >= 0), default=0)

    @cached_property
    def path_matrix(self) -> "PathMatrix":
        """The path matrix the pair sweeps certify with (cached), under one
        weight per edge drawn in edge order from the certificate's own
        stream."""
        p, rng = CERTIFICATE_PRIME, random.Random(CERTIFICATE_SEED)
        return PathMatrix(self, self.gates([rng.randrange(p) for _ in self.edges]), p)

    def gates(self, weights) -> tuple:
        """The gate schedule under one weight per edge, parallel to `edges`:
        every non-input vertex in topological order, with the (predecessor,
        weight) pair of each of its incoming edges in edge order."""
        incoming = [[] for _ in range(self.vertex_count)]
        for (u, v), w in zip(self.edges, weights):
            incoming[v].append((u, w))
        inputs = set(self.inputs)
        return tuple((v, tuple(incoming[v])) for v in self.order if v not in inputs)


def input_rows(net: Network, gates, p: int, targets) -> list:
    """The rows over the inputs of the vertices `targets`, mod p, under a
    gate schedule of `net` (see `Network.gates`): entry j of a vertex's row
    is the sum, over the paths from input j to the vertex, of the products
    of their weights. One pass, in topological order, over the gates that
    are ancestors of `targets`, in which input j carries the j-th unit
    vector and each row is one int with entry j in bits [width*j,
    width*(j+1)) (Kronecker substitution): a gate costs one big-int
    multiply-add per incoming edge and one reduction of its slots mod p.
    The weights must lie in [0, p). Then so do the entries, and a slot of a
    gate with deg incoming edges stays at most deg * (p-1)^2 < 2^width for
    width = 2 * p.bit_length() + maxdeg.bit_length(), maxdeg the largest
    in-degree among the gates visited, parallel edges counted: no slot
    carries into the next."""
    needed = set(targets)
    ancestors = []
    for v, preds in reversed(gates):
        if v in needed:
            ancestors.append((v, preds))
            needed.update(u for u, _ in preds)
    maxdeg = max((len(preds) for _, preds in ancestors), default=0)
    width = 2 * p.bit_length() + maxdeg.bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * len(net.inputs), width)
    row = [None] * net.vertex_count
    for j, v in zip(shifts, net.inputs):
        row[v] = 1 << j
    for v, preds in reversed(ancestors):
        acc = 0
        for u, w in preds:
            acc += w * row[u]
        row[v] = sum((acc >> j & mask) % p << j for j in shifts)
    return [[row[v] >> j & mask for j in shifts] for v in targets]


class PathMatrix:
    """The transfer matrix M of a network under one weight per edge over
    GF(p): entry column[x] of the row ``rows[y]`` is the sum, over the paths
    from input x to output y, of the products of their edge weights. It is
    computed from a gate schedule of the network (see `Network.gates`) by
    one pass, `input_rows`, and each row is kept packed for
    `_kernels.eliminate` (see `_kernels.pack`).

    It answers both directions' rank question. Under a circuit's own
    coefficients M is the circuit's transfer matrix, and the rank of M[Y, X]
    *is* the threshold condition on coalition Y. Under the random weights
    of `Network.path_matrix` it certifies linkages: by the
    Lindstrom-Gessel-Viennot lemma, det M[Y, X] is a signed sum over the
    systems of |X| vertex-disjoint paths from X to Y, so it is zero whatever
    the weights when there is no such system. A nonzero minor therefore
    proves one, and rank M[Y, X] >= r proves r vertex-disjoint paths from X
    to Y. A zero minor proves nothing.
    """

    def __init__(self, net: Network, gates, p: int):
        rows = input_rows(net, gates, p, net.outputs)
        self.p = p
        self.column = {x: j for j, x in enumerate(net.inputs)}  # input vertex -> index
        self.rows = {y: pack(row, p) for y, row in zip(net.outputs, rows)}  # output vertex -> row

    def certifies(self, X, Y, r: int) -> bool:
        """True when rank M[Y, X] >= r: Y's rows have r independent entries
        on the columns of X. For a circuit's own coefficients that is the
        threshold condition itself; for the certificate's weights it proves
        r vertex-disjoint paths from X to Y, and False proves nothing. One
        `_kernels.eliminate` over the full packed rows of Y, pivoting on the
        columns of X only, stopped at the r-th pivot."""
        if r <= 0:
            return True
        rows, column = self.rows, self.column
        cols = [column[x] for x in X]
        return len(eliminate([rows[y] for y in Y], cols, self.p, r)) == r


class VerificationReport(namedtuple("VerificationReport", "property verdict subsets_checked "
                                    "witness sample_seed", defaults=(None, None))):
    """Outcome of a connectivity sweep: property, verdict, subsets_checked,
    witness (None) and sample_seed (None).

    verdict is "proved" only when the check was exhaustive over the
    property's quantifier: a complete sweep, or the complete Hall search of
    `concentrator.build_depth1`; sampled sweeps report "sampled_pass".
    """

    __slots__ = ()


def topological_order(net: Network) -> list:
    succ = net.successors
    indeg = [0] * net.vertex_count
    for _, v in net.edges:
        indeg[v] += 1
    queue = deque(v for v in range(net.vertex_count) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != net.vertex_count:
        raise CyclicGraph("graph contains a directed cycle")
    return order


def max_vertex_disjoint_paths(net: Network, S, T) -> int:
    """Maximum number of vertex-disjoint paths from S (inputs) to T (outputs),
    a vertex listed twice counting once; by Menger's theorem, the size of a
    smallest vertex set meeting every path from S to T.

    One augmenting-path search per input of S over the network's successor
    lists (`_kernels.maxflow_unit`), at every depth; on a depth-1 network it
    is a bipartite matching. Raises TerminalNotInNetwork unless S is a set
    of inputs and T a set of outputs.
    """
    S, T = tuple(S), tuple(T)
    inputs, outputs = net.terminal_sets
    if not (inputs.issuperset(S) and outputs.issuperset(T)):
        for given, allowed, role in ((S, inputs, "input"), (T, outputs, "output")):
            for v in given:
                if v not in allowed:
                    raise TerminalNotInNetwork(f"{v} is not an {role} vertex")
    return maxflow_unit(net.successors, S, frozenset(T))


def _sample_subsets(rng, universe, size, count):
    """Distinct uniformly-sampled `size`-subsets, at most `count` of them."""
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < 20 * count:
        seen.add(tuple(sorted(rng.sample(universe, size))))
        attempts += 1
    return sorted(seen)


def check_budget(budget: int) -> None:
    """A budget counts the checks a sweep may make exhaustively, so it is
    at least 0; a sweep over budget 0 still draws one check per size."""
    if budget < 0:
        raise InvalidArguments(f"need a budget >= 0, got {budget}")


def _sweep(net, name, lo, hi, slack, budget, rng_seed, all_outputs=False):
    """The connectivity sweep behind every verifier. For each size k in
    lo..hi, each k-subset X of the inputs, paired with each k-subset Y of
    the outputs (or with all outputs when `all_outputs`), needs at least
    k - slack vertex-disjoint paths. Exhaustive when the pairs fit the
    budget; otherwise max(1, budget // number of sizes) seeded draws per
    size, so a sampled sweep never passes without a check.

    A pair may first be offered to the network's path matrix: rank
    M[Y, X] >= k - slack proves it, and no flow runs. Otherwise max-flow
    decides, so every refutation and every report is the flow sweep's. A
    pair sweep offers every pair when the network is deeper than one edge
    and the sweep makes more checks than the network has inputs
    (BENCH_certify_by_depth.json): at depth 1 a flow query is a matching
    that beats the elimination at every k (sc on K_{8,8}: 24 ms, 68 ms with
    k <= 4 certified); deeper, the elimination stopped at the (k - slack)-th
    pivot wins at every k (partial(9,6) on build_partial_sc_depth2(9, 9, 1.0,
    3): 4 ms, 173 ms by flow); one check per input does not repay the
    matrix. The all-outputs sweep certifies nothing: each of its rank tests
    eliminates every output's row (a sampled concentrator(8) sweep of
    build_sc_depth2(16, 64, 1, 100): 60 ms by flow, 1.3 s certified)."""
    check_budget(budget)
    xs, ys = sorted(net.inputs), sorted(net.outputs)
    limit = len(xs) if all_outputs else min(len(xs), len(ys))
    if not 0 <= slack <= hi <= limit:
        raise ArityMismatch(f"{name}: need 0 <= slack {slack} <= size {hi} <= {limit}")
    sizes = range(lo, hi + 1)
    total = sum(comb(len(xs), k) * (1 if all_outputs else comb(len(ys), k))
                for k in sizes)
    exhaustive = total <= budget
    draws = max(1, budget // max(1, len(sizes)))
    rng = random.Random(rng_seed)

    def pairs(k):
        if all_outputs:
            subsets = (combinations(xs, k) if exhaustive
                       else _sample_subsets(rng, xs, k, draws))
            return ((X, net.outputs) for X in subsets)
        if exhaustive:
            return ((X, Y) for X in combinations(xs, k) for Y in combinations(ys, k))
        return ((tuple(sorted(rng.sample(xs, k))), tuple(sorted(rng.sample(ys, k))))
                for _ in range(draws))

    checks = total if exhaustive else draws * len(sizes)
    certify = not all_outputs and checks > len(xs) and net.depth > 1
    paths = net.path_matrix if certify else None
    checked, witness = 0, None
    for k, X, Y in ((k, X, Y) for k in sizes for X, Y in pairs(k)):
        checked += 1
        if certify and paths.certifies(X, Y, k - slack):
            continue
        if max_vertex_disjoint_paths(net, X, Y) < k - slack:
            witness = (X,) if all_outputs else (X, Y)
            break
    verdict = "refuted" if witness else "proved" if exhaustive else "sampled_pass"
    return VerificationReport(name, verdict, checked, witness,
                              None if exhaustive else rng_seed)


def verify_concentrator(
    net: Network, c: int, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check that every c-subset of inputs has c vertex-disjoint paths to
    the outputs; exhaustive when the subset count fits the budget. Raises
    ArityMismatch unless 0 <= c <= len(inputs)."""
    return _sweep(net, f"concentrator({c})", c, c, 0, budget, rng_seed, all_outputs=True)


def verify_superconcentrator(
    net: Network, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check that every equal-size input/output subset pair is joined by
    that many vertex-disjoint paths."""
    kmax = min(len(net.inputs), len(net.outputs))
    return _sweep(net, "superconcentrator", 1, kmax, 0, budget, rng_seed)


def verify_partial_sc(
    net: Network, p: int, q: int, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> VerificationReport:
    """Check the (p, q)-partial superconcentrator property: equal-size
    subset pairs with size k in [q, p] need at least k - q disjoint paths.
    Raises ArityMismatch unless 0 <= q <= p <= min(len(inputs), len(outputs))."""
    return _sweep(net, f"partial_sc({p},{q})", max(q, 1), p, q, budget, rng_seed)


def parallel_union(nets, shared_inputs: int, shared_outputs: int) -> Network:
    """Merge networks onto one shared set of input and output vertices.

    Member k's input j is identified with shared input j (vertices
    0..shared_inputs-1), likewise outputs; internal vertices stay disjoint
    and the edge multiset is the union.
    """
    for net in nets:
        if len(net.inputs) > shared_inputs or len(net.outputs) > shared_outputs:
            raise ArityMismatch("member exceeds the shared terminal counts")
    inputs = tuple(range(shared_inputs))
    outputs = tuple(range(shared_inputs, shared_inputs + shared_outputs))
    next_id = shared_inputs + shared_outputs
    edges = []
    for net in nets:
        remap = {}
        for j, v in enumerate(net.inputs):
            remap[v] = inputs[j]
        for j, v in enumerate(net.outputs):
            remap[v] = outputs[j]
        for v in range(net.vertex_count):
            if v not in remap:
                remap[v] = next_id
                next_id += 1
        edges.extend((remap[u], remap[v]) for u, v in net.edges)
    return Network(next_id, edges, inputs, outputs)


def complete_bipartite(m: int, n: int) -> Network:
    """Depth-1 network with m inputs each connected to all n outputs."""
    check_size("vertices", m + n)
    check_size("edges", m * n)
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return Network(m + n, edges, tuple(range(m)), tuple(range(m, m + n)))


def network_to_dict(net: Network) -> dict:
    return {
        "vertex_count": net.vertex_count,
        "inputs": list(net.inputs),
        "outputs": list(net.outputs),
        "edges": sorted([list(e) for e in net.edges]),
    }


def check_fields(doc, what: str, **fields) -> None:
    """Raise InvalidArguments unless doc is a JSON object holding every named
    field with a value of the given type."""
    if not isinstance(doc, dict):
        raise InvalidArguments(f"{what} must be a JSON object, not {type(doc).__name__}")
    for name, kind in fields.items():
        if not isinstance(doc.get(name), kind):
            raise InvalidArguments(f"{what} needs a field {name!r} of type {kind.__name__}")


def network_from_dict(doc, what: str = "network") -> Network:
    """The network that a graph or circuit document holds, with its edges in
    the document's order; raises InvalidArguments when the document is not
    shaped like one, and what `Network` raises when it is not valid."""
    check_fields(doc, what, vertex_count=int, edges=list, inputs=list, outputs=list)
    return Network(doc["vertex_count"], doc["edges"], doc["inputs"], doc["outputs"])


def read_json(path):
    """The JSON document in a file; the one load path of every reader."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidArguments(f"{path}: JSON nested too deeply to read") from None


def write_json(doc, path) -> None:
    # json.dumps encodes in C; json.dump would take the pure-Python encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def write_network(net: Network, path) -> None:
    write_json(network_to_dict(net), path)


def read_network(path) -> Network:
    return network_from_dict(read_json(path))
