"""Linear share-distribution circuits: random coefficient assignment on a
network, transfer-matrix extraction, threshold-scheme rank validation, and
the share / reconstruct protocol."""

import random
from collections import namedtuple
from functools import cached_property
from math import comb

from . import _kernels
from .errors import InvalidArguments, SingularSubmatrix, quote
from .field import FieldModulus, Frozen, Matrix
from .network import (
    DEFAULT_BUDGET,
    Network,
    PathMatrix,
    check_budget,
    check_fields,
    input_rows,
    network_from_dict,
    network_to_dict,
    read_json,
    write_json,
)


class LinearCircuit(Frozen):
    """A network with a field modulus and one coefficient per edge.

    Input 0 carries the secret; the remaining inputs carry randomness, so
    the threshold t is the input count. Coefficients are parallel to
    net.edges, in the network's own edge order. The network is valid, as
    every network is; construction refuses a coefficient that is not an int
    in [0, p) or a network without 1 <= inputs <= outputs, so every circuit
    can run.

    Every non-input vertex is an addition gate. The gate schedule lists them
    in topological order, each with its (predecessor, coefficient) pairs; it
    is built on first use, and the circuit is frozen (see `field.Frozen`) so
    that it never goes stale.
    """

    _fields = ("net", "modulus", "coefficients")

    def __init__(self, net: Network, modulus: FieldModulus, coefficients: tuple):
        super().__init__(net, modulus, coefficients)
        if len(coefficients) != len(net.edges):
            raise InvalidArguments("one coefficient per edge required")
        # Field elements are ints in [0, p); bool is an int subclass but no element.
        p = modulus.p
        if not set(map(type, coefficients)) <= {int} or (
            coefficients and not 0 <= min(coefficients) <= max(coefficients) < p
        ):
            bad = next(c for c in coefficients if type(c) is not int or not 0 <= c < p)
            raise InvalidArguments(f"coefficients must be integers in [0, {p}), got {quote(bad)}")
        if not 1 <= len(net.inputs) <= len(net.outputs):
            raise InvalidArguments(
                f"need 1 <= inputs <= outputs, got {len(net.inputs)} inputs "
                f"and {len(net.outputs)} outputs"
            )

    @property
    def threshold(self) -> int:
        """t, the input count: the secret and t - 1 random elements."""
        return len(self.net.inputs)

    @cached_property
    def schedule(self) -> tuple:
        """The gate schedule under the coefficients (cached)."""
        return self.net.gates(self.coefficients)


class SchemeReport(namedtuple("SchemeReport", "recover_checks privacy_checks mode verdict witness",
                              defaults=(None,))):
    """Outcome of the rank sweep over coalitions: recover_checks,
    privacy_checks, mode ("exhaustive" | "sampled"), verdict ("proved" |
    "sampled_pass" | "refuted") and witness (None)."""

    __slots__ = ()


def synthesize(net: Network, modulus: FieldModulus, rng_seed: int = 0) -> LinearCircuit:
    """Draw an independent uniform coefficient in [0, p) for every edge of
    `net`, in the stable sorted order of the edges that a circuit file lists
    them in, so the file depends only on the seed and the edge multiset.
    """
    rng = random.Random(rng_seed)
    coeffs = [0] * len(net.edges)
    for i in sorted(range(len(net.edges)), key=net.edges.__getitem__):
        coeffs[i] = rng.randrange(modulus.p)
    return LinearCircuit(net, modulus, tuple(coeffs))


def evaluate(circ: LinearCircuit, x) -> list:
    """Run the circuit on input vector x by one pass over its gate schedule:
    each gate's value is the coefficient-weighted sum over incoming edges."""
    net = circ.net
    p = circ.modulus.p
    if len(x) != len(net.inputs):
        raise InvalidArguments("input vector length mismatch")
    values = [0] * net.vertex_count
    for j, v in enumerate(net.inputs):
        values[v] = x[j] % p
    for v, preds in circ.schedule:
        values[v] = sum(c * values[u] for u, c in preds) % p
    return [values[v] for v in net.outputs]


def transfer_matrix(circ: LinearCircuit, rows=None) -> Matrix:
    """The n x t matrix of the circuit's linear map (entry (i, j) is the sum
    over all input-j to output-i paths of the edge-coefficient products), by
    one pass over its gate schedule, `network.input_rows`, in which each
    vertex's row is one packed integer: one big-int multiply-add per edge.

    Given `rows`, output indices in any order that pass
    `check_share_indices`, returns only those rows, in that order, and the
    pass visits only the ancestors of those outputs.
    """
    net = circ.net
    if rows is None:
        rows = range(len(net.outputs))
    else:
        rows = list(rows)
        check_share_indices(circ, rows)
    found = input_rows(net, circ.schedule, circ.modulus.p, [net.outputs[i] for i in rows])
    return Matrix(len(rows), len(net.inputs), tuple(x for row in found for x in row))


def _walk_coalitions(M: Matrix, t: int, p: int):
    """The exhaustive sweep of an n x t matrix M, n >= t, as one depth-first
    walk over the coalitions of size <= t, in the lexicographic order of
    `combinations`.

    Returns (recover_checks, privacy_checks, witness), witness None when every
    coalition passes, equal to checking every size-t coalition and then every
    size-(t-1) one in that order and stopping at the first failure.

    Columns are ordered randomness first, secret last. A node T carries each
    later row reduced against the echelon basis of M_T (up to a nonzero
    scalar) and cut to the columns that are not pivots of M_T, in that order:
    a child that pivots on column c clears c from every row below it by one
    fraction-free reduction and drops it. rank(M_T) is |T| while no row
    reduces to zero, and since a row pivots on the secret column only when
    its randomness part is zero, rank(M_{T,R}) is the number of pivots left
    of it: one elimination answers both conditions. While the secret is not
    a pivot it is every row's last entry.

    A node of size t-2 settles its children (the privacy checks) and
    grandchildren (the recovery checks) itself, in the order a deeper walk
    would visit them. Its rows have two entries, as M has t columns, and
    T + (i, j) recovers iff the 2 x 2 determinant of rows i and j is nonzero
    mod p: one scalar test per size-t coalition. Plain integer arithmetic
    mod p keeps this exact for every prime.

    A row that reduces to zero fails every size-t coalition that holds it
    and T, and the walk returns where it finds one. If it is T's first later
    row i, T + (i, i+1, ...) is the first failure, as every coalition before
    T passed. It fits below n: else n >= t leaves indices below i outside T
    to complete a failing coalition that sorts before T. A later zero row i
    is never reached, as T + (first, i, ...) fails first.
    """
    n = M.rows
    rows = [list(M.row(j)[1:] + M.row(j)[:1]) for j in range(n)]
    if t == 1:
        # The root is the one size-0 privacy coalition, which holds; a single
        # row, its secret entry alone, recovers iff that entry is nonzero.
        for j, (s,) in enumerate(rows):
            if not s:
                return j + 1, 0, (j,)
        return n, 1, None
    recover_checks = privacy_checks = 0
    leak = None  # first size-(t-1) coalition that fails privacy
    # (T, later rows reduced against M_T, whether M_T has a pivot on the
    #  secret column); every node has a later row
    stack = [((), list(enumerate(rows)), False)]
    while stack:
        T, later, secret = stack.pop()
        i, r = later[0]
        if not any(r):
            return recover_checks + 1, 0, T + tuple(range(i, i + t - len(T)))
        if len(T) == t - 2:
            for pos, (i, (r0, r1)) in enumerate(later):
                if leak is None:
                    privacy_checks += 1
                    if secret or not r0:  # (0, r1) pivots on the secret, the last entry
                        leak = T + (i,)
                rest = later[pos + 1 :]
                # Reducing q against r leaves +-(r0 * q1 - q0 * r1) in the one
                # free column, which is the pivot M_{T+(i,)} lacks.
                for k, (j, (q0, q1)) in enumerate(rest, 1):
                    if not (r0 * q1 - q0 * r1) % p:
                        return recover_checks + k, 0, T + (i, j)
                recover_checks += len(rest)
            continue
        # A child must leave room for the rest of a size-(t-1) coalition.
        children = []
        for pos, (i, r) in enumerate(later[: len(later) - (t - 2 - len(T))]):
            c = 0 if r[0] else next((k for k, x in enumerate(r) if x), None)
            if c is None:
                continue  # a zero row, which fails first under the first child
            # Fraction-free: r[c] * q - q[c] * r clears column c of q and is
            # a nonzero multiple of the reduced row, with no field inverse.
            a = r[c]
            tail = []
            for j, q in later[pos + 1 :]:
                b = q[c]
                if b:
                    q = [(a * x - b * y) % p for x, y in zip(q, r)]
                    del q[c]
                else:
                    q = q[:c] + q[c + 1 :]
                tail.append((j, q))
            children.append((T + (i,), tail, secret or c == len(r) - 1))
        stack.extend(reversed(children))
    return recover_checks, privacy_checks, leak


def validate_scheme(
    circ: LinearCircuit, budget: int = DEFAULT_BUDGET, rng_seed: int = 0
) -> SchemeReport:
    """Sweep coalitions: every size-t subset T needs rank(M_T) = t and
    rank(M_{T,R}) = t-1; every size-(t-1) subset needs rank(M_{T,R}) = t-1.

    When all C(n,t) + C(n,t-1) coalitions fit in the budget the sweep is
    exhaustive (one prefix-tree walk over the transfer matrix); otherwise
    budget // 2 coalitions of each size are drawn from rng_seed, each asked
    of the circuit's `PathMatrix`, whose rows are packed once, before the
    draws. A size-t coalition holds iff its rows have rank t on all the
    inputs, which makes M_T invertible and so M_{T,R} of rank t-1; a
    size-(t-1) one iff they have rank t-1 on the randomness inputs. Raises
    InvalidArguments when the budget is below 0."""
    check_budget(budget)
    net, t, p = circ.net, circ.threshold, circ.modulus.p
    n = len(net.outputs)
    if comb(n, t) + comb(n, t - 1) <= budget:
        recover_checks, privacy_checks, witness = _walk_coalitions(transfer_matrix(circ), t, p)
        verdict = "proved" if witness is None else "refuted"
        return SchemeReport(recover_checks, privacy_checks, "exhaustive", verdict, witness)
    rng = random.Random(rng_seed)
    paths = PathMatrix(net, circ.schedule, p)
    checks = {t: 0, t - 1: 0}
    for size, X in ((t, net.inputs), (t - 1, net.inputs[1:])):
        for _ in range(max(1, budget // 2)):
            T = tuple(sorted(rng.sample(range(n), size)))
            checks[size] += 1
            if not paths.certifies(X, [net.outputs[i] for i in T], size):
                return SchemeReport(checks[t], checks[t - 1], "sampled", "refuted", witness=T)
    return SchemeReport(checks[t], checks[t - 1], "sampled", "sampled_pass")


def share(circ: LinearCircuit, s: int, rng_seed: int = 0) -> tuple:
    """The share values y = M (s, r_1, ..., r_{t-1})^T with fresh uniform
    randomness, by one forward evaluation of the circuit. The secret s is a
    field element, an int in [0, p): InvalidArguments otherwise, as
    reduction mod p would hand back another secret than the one dealt."""
    p = circ.modulus.p
    # bool is an int subclass but no field element.
    if type(s) is not int or not 0 <= s < p:
        raise InvalidArguments(f"the secret must be an integer in [0, {p}), got {quote(s)}")
    rng = random.Random(rng_seed)
    x = [s] + [rng.randrange(p) for _ in range(circ.threshold - 1)]
    return tuple(evaluate(circ, x))


def check_share_indices(circ: LinearCircuit, indices) -> None:
    """Raise InvalidArguments, naming the index, unless every index names an
    output of the circuit, an int in [0, n), and none is listed twice."""
    n = len(circ.net.outputs)
    seen = set()
    for i in indices:
        # bool is an int subclass but no index.
        if type(i) is not int or not 0 <= i < n:
            raise InvalidArguments(f"share index {quote(i)} is not an output of the "
                                   f"circuit, whose {n} outputs are indexed [0, {n})")
        if i in seen:
            raise InvalidArguments(f"share index {i} is listed twice")
        seen.add(i)


def reconstruct(circ: LinearCircuit, T, y_T) -> int:
    """Recover the secret from the t shares y_T (taken mod p) of coalition T,
    y_T[j] being the share of output T[j], with T in any order, by one
    `_kernels.eliminate` of the packed rows [M_T | y_T] over the columns of
    M_T, the randomness columns 1..t-1 first and the secret's column 0 last.
    M_T is invertible iff that gives t pivots; then the last pivot row, on
    the secret column, is (a, 0, ..., 0, a*s) mod p, and the secret costs
    one field inverse. `transfer_matrix` checks T."""
    t = circ.threshold
    if len(T) != t or len(y_T) != t:
        raise InvalidArguments(f"need exactly t = {t} shares")
    M_T = transfer_matrix(circ, T)
    p = circ.modulus.p
    rows = [_kernels.pack([*M_T.row(i), y % p], p) for i, y in enumerate(y_T)]
    pivots = _kernels.eliminate(rows, [*range(1, t), 0], p)
    if len(pivots) < t:
        raise SingularSubmatrix(f"M_T singular for coalition {sorted(T)}; circuit not validated?")
    a, *_, b = _kernels.unpack(pivots[-1][1], t + 1, p)
    return b * pow(a, -1, p) % p


def failure_bound(depth: int, n: int, t: int, modulus: FieldModulus) -> float:
    """Union bound on the probability that a random coefficient draw fails
    either rank condition: d * (C(n,t) + C(n,t-1)) / p, capped at 1.

    Schwartz-Zippel bounds each coalition's failure by d / p only when that
    coalition's determinant polynomial in the coefficients is nonzero, which
    takes the graph's connection properties (enough vertex-disjoint paths
    from the inputs to every coalition). The bound assumes them and does not
    check them: on a graph without them every draw fails, whatever it reads.
    """
    # Int true division rounds correctly, as the float of the exact fraction does.
    p = modulus.p
    return min(depth * (comb(n, t) + comb(n, t - 1)), p) / p


def circuit_to_dict(circ: LinearCircuit) -> dict:
    doc = network_to_dict(circ.net)
    order = sorted(range(len(circ.net.edges)), key=lambda i: circ.net.edges[i])
    doc["modulus"] = circ.modulus.p
    doc["threshold"] = circ.threshold
    doc["secret_input"] = 0
    doc["coefficients"] = [circ.coefficients[i] for i in order]
    return doc


def circuit_from_dict(doc: dict) -> LinearCircuit:
    """Read a circuit document, keeping its (edge, coefficient) pairs in the
    document's order; input 0 must carry the secret, the threshold must be
    the input count, and every coefficient must be an integer in [0, p)."""
    net = network_from_dict(doc, "circuit")
    check_fields(doc, "circuit", modulus=int, threshold=int, coefficients=list)
    if doc.get("secret_input", 0) != 0:
        raise InvalidArguments(
            "secret_input must be 0 (input 0 carries the secret), "
            f"got {quote(doc['secret_input'])}"
        )
    if doc["threshold"] != len(net.inputs):
        raise InvalidArguments(
            f"threshold must equal the input count {len(net.inputs)}, "
            f"got {quote(doc['threshold'])}"
        )
    return LinearCircuit(net, FieldModulus(doc["modulus"]), tuple(doc["coefficients"]))


def write_circuit(circ: LinearCircuit, path) -> None:
    write_json(circuit_to_dict(circ), path)


def read_circuit(path) -> LinearCircuit:
    return circuit_from_dict(read_json(path))


def write_shares(circ: LinearCircuit, values, path) -> None:
    write_json({"modulus": circ.modulus.p, "shares": [[i, v] for i, v in enumerate(values)]}, path)


def read_shares(path, circ: LinearCircuit) -> list:
    """The (index, value) pairs of a share file for `circ`: its modulus must
    be the circuit's, every value a field element, an int in [0, p), and
    every index pass `check_share_indices`."""
    doc = read_json(path)
    check_fields(doc, "share file", modulus=int, shares=list)
    p = circ.modulus.p
    if doc["modulus"] != p:
        raise InvalidArguments(
            f"share file modulus {quote(doc['modulus'])} differs from the circuit's {p}")
    for entry in doc["shares"]:
        # Indices and values are ints; bool is an int subclass but neither.
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is type(entry[1]) is int):
            raise InvalidArguments(
                f"share file entries must be [index, value] pairs of integers, got {quote(entry)}"
            )
        if not 0 <= entry[1] < p:
            raise InvalidArguments(
                f"share values must lie in [0, modulus) = [0, {p}), got {quote(entry)}"
            )
    entries = [tuple(entry) for entry in doc["shares"]]
    check_share_indices(circ, [i for i, _ in entries])
    return entries
