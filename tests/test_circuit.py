import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from scipy.stats import chisquare

from sharecircuit.circuit import (
    LinearCircuit,
    SchemeReport,
    circuit_from_dict,
    circuit_to_dict,
    check_share_indices,
    evaluate,
    failure_bound,
    read_circuit,
    read_shares,
    reconstruct,
    share,
    synthesize,
    transfer_matrix,
    validate_scheme,
    write_circuit,
    write_shares,
)
from sharecircuit import _kernels, network
from sharecircuit.errors import (
    CyclicGraph,
    DuplicateTerminal,
    InvalidArguments,
    SingularMatrix,
    SingularSubmatrix,
)
from sharecircuit.field import FieldModulus, Matrix, mat_inverse, mat_vec, submatrix
from sharecircuit.network import Network, complete_bipartite, topological_order
from sharecircuit.superconcentrator import _bipartite_block, build_sc_depth2

GF7 = FieldModulus(7)
GF101 = FieldModulus(101)


def shamir_like_circuit(xs, p=7):
    """Depth-1 circuit whose transfer matrix has rows (1, x_i)."""
    n = len(xs)
    net = Network(
        2 + n,
        sorted([(0, 2 + i) for i in range(n)] + [(1, 2 + i) for i in range(n)]),
        (0, 1),
        tuple(range(2, 2 + n)),
    )
    coeffs = tuple(1 if u == 0 else xs[v - 2] for u, v in net.edges)
    return LinearCircuit(net, FieldModulus(p), coeffs)


def path_enumeration_transfer(circ):
    """Independent oracle: M[i][j] is the sum over all input-j to output-i
    paths of the product of edge coefficients."""
    net = circ.net
    p = circ.modulus.p
    succ = [[] for _ in range(net.vertex_count)]
    for idx, (u, v) in enumerate(net.edges):
        succ[u].append((v, circ.coefficients[idx]))
    out_pos = {v: i for i, v in enumerate(net.outputs)}
    rows = [[0] * len(net.inputs) for _ in net.outputs]

    def dfs(v, prod, j):
        if v in out_pos:
            rows[out_pos[v]][j] = (rows[out_pos[v]][j] + prod) % p
        for w, c in succ[v]:
            dfs(w, prod * c % p, j)

    for j, v in enumerate(net.inputs):
        dfs(v, 1, j)
    return rows


def test_synthesize_basic():
    net = complete_bipartite(2, 3)
    circ = synthesize(net, GF7, rng_seed=0)
    assert len(circ.coefficients) == 6
    assert all(0 <= c < 7 for c in circ.coefficients)
    assert circ.threshold == 2
    again = synthesize(net, GF7, rng_seed=0)
    assert again.coefficients == circ.coefficients
    other = synthesize(net, GF7, rng_seed=1)
    assert other.coefficients != circ.coefficients


def test_synthesize_computes_one_topological_order(monkeypatch):
    # the circuit keeps the given network, whose order was computed when it
    # was built, and its gate schedule runs every edge forward
    calls = []
    monkeypatch.setattr(network, "topological_order",
                        lambda net: calls.append(net) or topological_order(net))
    net = Network(5, [(3, 4), (0, 2), (2, 3), (1, 3), (0, 4), (1, 2)], (0, 1), (3, 4))
    circ = synthesize(net, GF101, rng_seed=3)
    assert calls == [net] and circ.net is net
    position = {v: i for i, v in enumerate(circ.net.order)}
    assert all(position[u] < position[v] for u, v in circ.net.edges)
    M = transfer_matrix(circ)
    assert [list(M.row(i)) for i in range(M.rows)] == path_enumeration_transfer(circ)


def test_threshold_is_the_input_count():
    # The secret and t - 1 random elements are the t inputs, so a network
    # with no input or with more inputs than outputs holds no circuit.
    for ell, n in ((1, 1), (1, 4), (2, 3), (3, 3)):
        net = complete_bipartite(ell, n)
        assert synthesize(net, GF7).threshold == ell
        doc = circuit_to_dict(synthesize(net, GF7))
        assert doc["threshold"] == ell and circuit_from_dict(doc).threshold == ell
        for bad in (ell - 1, ell + 1):
            with pytest.raises(InvalidArguments, match=f"input count {ell}, got {bad}"):
                circuit_from_dict(dict(doc, threshold=bad))
    for net in (complete_bipartite(3, 2), complete_bipartite(2, 1),
                Network(2, [], (), (0, 1))):
        with pytest.raises(InvalidArguments, match="need 1 <= inputs <= outputs"):
            synthesize(net, GF7)
        with pytest.raises(InvalidArguments, match="need 1 <= inputs <= outputs"):
            LinearCircuit(net, GF7, (1,) * len(net.edges))


def test_coefficient_uniformity_chi_squared():
    net = complete_bipartite(4, 8)
    counts = [0] * 101
    for seed in range(200):
        for c in synthesize(net, GF101, rng_seed=seed).coefficients:
            counts[c] += 1
    result = chisquare(counts)
    assert result.pvalue > 1e-6


def test_evaluate_identity_matching():
    net = Network(4, [(0, 2), (1, 3)], (0, 1), (2, 3))
    circ = LinearCircuit(net, GF7, (1, 1))
    assert evaluate(circ, [3, 5]) == [3, 5]
    M = transfer_matrix(circ)
    assert M.entries == (1, 0, 0, 1)
    with pytest.raises(InvalidArguments, match="input vector length mismatch"):
        evaluate(circ, [3])


def test_transfer_matrix_sums_parallel_edges():
    net = Network(2, [(0, 1), (0, 1)], (0,), (1,))
    circ = LinearCircuit(net, GF7, (3, 5))
    assert transfer_matrix(circ).entries == ((3 + 5) % 7,)


def test_transfer_matrix_matches_path_enumeration():
    for seed in range(60):
        rng = random.Random(seed)
        # random 3-layer DAG: 2 inputs, hidden layer, outputs
        h = rng.randrange(1, 4)
        n_out = rng.randrange(2, 4)
        V = 2 + h + n_out
        edges = []
        for u in range(2):
            for v in range(2, 2 + h):
                if rng.random() < 0.7:
                    edges.append((u, v))
        for v in range(2, 2 + h):
            for w in range(2 + h, V):
                if rng.random() < 0.7:
                    edges.append((v, w))
        # occasional skip edge input -> output
        for u in range(2):
            for w in range(2 + h, V):
                if rng.random() < 0.2:
                    edges.append((u, w))
        net = Network(V, sorted(edges), (0, 1), tuple(range(2 + h, V)))
        coeffs = tuple(rng.randrange(7) for _ in edges)
        circ = LinearCircuit(net, GF7, coeffs)
        M = transfer_matrix(circ)
        oracle = path_enumeration_transfer(circ)
        assert [list(M.row(i)) for i in range(M.rows)] == oracle


def evaluate_per_call(circ, x):
    """Oracle: a forward pass that rebuilds the incoming-edge lists and the
    topological order on every call."""
    net = circ.net
    p = circ.modulus.p
    incoming = [[] for _ in range(net.vertex_count)]
    for idx, (u, v) in enumerate(net.edges):
        incoming[v].append((u, circ.coefficients[idx]))
    values = [0] * net.vertex_count
    for j, v in enumerate(net.inputs):
        values[v] = x[j] % p
    input_set = set(net.inputs)
    for v in topological_order(net):
        if v in input_set:
            continue
        values[v] = sum(c * values[u] for u, c in incoming[v]) % p
    return [values[v] for v in net.outputs]


def transfer_by_columns(circ):
    """Oracle: M one column at a time, one forward pass per input."""
    ell, n = len(circ.net.inputs), len(circ.net.outputs)
    cols = [evaluate_per_call(circ, [1 if i == j else 0 for i in range(ell)])
            for j in range(ell)]
    return [[cols[j][i] for j in range(ell)] for i in range(n)]


def share_by_matrix(circ, s, rng_seed):
    """Oracle: y = M x, with share's randomness draws."""
    p = circ.modulus.p
    rng = random.Random(rng_seed)
    x = [s % p] + [rng.randrange(p) for _ in range(len(circ.net.inputs) - 1)]
    M = transfer_by_columns(circ)
    return [sum(a * b for a, b in zip(row, x)) % p for row in M]


def reconstruct_by_matrix(circ, T, y_T, M=None):
    """Oracle: invert the rows of the full M (by default the column
    oracle's) that belong to T; None when they are singular."""
    M = transfer_by_columns(circ) if M is None else M
    M_T = Matrix(len(T), len(M[0]), tuple(x for i in sorted(T) for x in M[i]))
    try:
        inv = mat_inverse(M_T, circ.modulus)
    except SingularMatrix:
        return None
    return mat_vec(inv, list(y_T), circ.modulus)[0]


def random_dag_circuit(rng, p):
    """A random circuit with ell = t: vertices are numbered in a random
    order (inputs are not numbered first), every non-input vertex takes edges
    from earlier vertices, including input -> output skip edges, some of
    them doubled into parallel edges, and the edge list is shuffled."""
    ell = rng.randrange(1, 5)
    n = rng.randrange(ell, ell + 5)
    V = ell + n + rng.randrange(6)
    order = list(range(V))
    rng.shuffle(order)  # order[k] is the k-th vertex in a topological order
    inputs = tuple(order[:ell])
    outputs = tuple(rng.sample(order[ell:], n))
    edges = []
    for k in range(ell, V):
        for _ in range(rng.randrange(4)):
            edge = (order[rng.randrange(k)], order[k])
            edges.extend([edge] * (2 if rng.random() < 0.2 else 1))
    rng.shuffle(edges)
    coeffs = tuple(rng.randrange(p) for _ in edges)
    return LinearCircuit(Network(V, edges, inputs, outputs), FieldModulus(p), coeffs)


@pytest.mark.parametrize("p", [7, 101, 2**61 - 1, 2**64 - 59])
def test_schedule_pass_matches_column_oracle(p):
    rng = random.Random(p)
    recovered = singular = skip_edges = parallel_edges = 0
    for trial in range(60):
        circ = random_dag_circuit(rng, p)
        net, t = circ.net, circ.threshold
        n = len(net.outputs)
        skip_edges += any(u in net.inputs and v in net.outputs for u, v in net.edges)
        parallel_edges += len(set(net.edges)) < len(net.edges)
        M = transfer_by_columns(circ)
        assert [list(transfer_matrix(circ).row(i)) for i in range(n)] == M
        rows = sorted(rng.sample(range(n), rng.randrange(n + 1)))
        M_rows = transfer_matrix(circ, rows)
        assert (M_rows.rows, M_rows.cols) == (len(rows), t)
        assert [list(M_rows.row(k)) for k in range(len(rows))] == [M[i] for i in rows]
        s = rng.randrange(p)
        y = share(circ, s, rng_seed=trial)
        assert list(y) == share_by_matrix(circ, s, trial)
        T = sorted(rng.sample(range(n), t))
        y_T = [y[i] for i in T]
        want = reconstruct_by_matrix(circ, T, y_T)
        if want is None:
            singular += 1
            with pytest.raises(SingularSubmatrix):
                reconstruct(circ, T, y_T)
        else:
            recovered += 1
            assert reconstruct(circ, T, y_T) == want == s
    assert recovered and singular and skip_edges and parallel_edges


@pytest.mark.parametrize("p", [3, 7, 2**61 - 1, 2**89 - 1, 2**127 - 1])
def test_packed_rows_hold_the_slot_bound_at_its_worst_case(p):
    # Every input feeds vertex 3 with weight p - 1, so each of its entries is
    # p - 1; vertex 4 takes 127 parallel edges of weight p - 1 from it, so
    # each of its slots sums 127 * (p-1)^2, the largest value that an
    # in-degree of 7 bits allows. For p >= 7 near a power of two that needs
    # every bit of its slot: one bit narrower and it carries into the next.
    ell, deg = 3, 127
    edges = [(j, 3) for j in range(ell)] + [(3, 4)] * deg + [(4, 5), (3, 5), (5, 6)]
    net = Network(7, edges, tuple(range(ell)), (4, 5, 6))
    circ = LinearCircuit(net, FieldModulus(p), (p - 1,) * len(edges))
    assert net.depth == 4
    assert deg * (p - 1) ** 2 >= 2 ** (2 * p.bit_length() + deg.bit_length() - 1) or p == 3
    M = transfer_by_columns(circ)
    assert network.input_rows(net, circ.schedule, p, net.outputs) == M
    assert M[0] == [deg % p] * ell
    assert [list(transfer_matrix(circ).row(i)) for i in range(3)] == M


def test_reconstruct_matches_the_inverse_oracle_at_deal_size():
    # The deal benchmark's shape, t = 16 inputs and n = 64 outputs, on the
    # 4,080-edge depth-2 union.
    net = build_sc_depth2(16, 64, 1, 100)
    circ = synthesize(net, FieldModulus(2**61 - 1), rng_seed=2)
    p = circ.modulus.p
    M = transfer_by_columns(circ)
    rng = random.Random(16)
    for trial in range(200):
        s = rng.randrange(p)
        y = share(circ, s, rng_seed=trial)
        T = sorted(rng.sample(range(64), 16))
        y_T = [y[i] for i in T]
        assert reconstruct(circ, T, y_T) == reconstruct_by_matrix(circ, T, y_T, M) == s
        if trial < 16:
            # The library takes share values mod p; read_shares refuses them.
            y_T[trial] += p
            assert reconstruct(circ, T, y_T) == s
    # Over GF(7), output 3's row (2, 6) is twice output 2's (1, 3), and
    # output 4's is (1, 1). Shares consistent with that leave a zero row,
    # others a row that pivots on the share column: both are singular.
    net = Network(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)], (0, 1), (2, 3, 4))
    small = LinearCircuit(net, GF7, (1, 3, 2, 6, 1, 1))
    assert reconstruct(small, [0, 2], [3, 2]) == 5  # (s, r) = (5, 4)
    # T = [1, 0] takes y_T in its own order: [2, 1] gives output 3 the share
    # 2 and output 2 the share 1, consistent with the rows; [3, 1] does not.
    for y_T in ([2, 1], [3, 1]):
        with pytest.raises(SingularSubmatrix) as info:
            reconstruct(small, [1, 0], y_T)
        assert str(info.value) == "M_T singular for coalition [0, 1]; circuit not validated?"


def test_path_matrix_is_the_transfer_matrix_under_its_weights():
    # The certificate's matrix is the circuit's transfer matrix when the
    # circuit's coefficients are the certificate's own weights, drawn one per
    # edge in edge order from its stream.
    p = network.CERTIFICATE_PRIME
    rng = random.Random(10)
    seen = Counter()
    for trial in range(60):
        net = random_dag_circuit(rng, 7).net
        draw = random.Random(network.CERTIFICATE_SEED)
        weights = tuple(draw.randrange(p) for _ in net.edges)
        circ = LinearCircuit(net, FieldModulus(p), weights)
        paths = net.path_matrix
        assert paths.p == p
        assert paths.column == {x: j for j, x in enumerate(net.inputs)}
        n = len(net.outputs)
        M = transfer_by_columns(circ)
        assert [paths.rows[y] for y in net.outputs] == [_kernels.pack(row, p) for row in M]
        for rows in (range(n), sorted(rng.sample(range(n), rng.randrange(n)))):
            got = transfer_matrix(circ, rows)
            assert [_kernels.pack(got.row(k), p) for k in range(got.rows)] == [
                paths.rows[net.outputs[i]] for i in rows], (trial, rows)
        inputs, outputs = set(net.inputs), set(net.outputs)
        live = set(outputs)
        for v in reversed(net.order):
            if v in live:
                live.update(u for u, w in net.edges if w == v)
        seen["skip"] += any(u in inputs and v in outputs for u, v in net.edges)
        seen["parallel"] += len(set(net.edges)) < len(net.edges)
        seen["dead"] += any(v not in live for v in range(net.vertex_count))
    assert seen["skip"] and seen["parallel"] and seen["dead"], seen


def test_linear_circuit_refuses_a_circuit_that_cannot_run():
    net = Network(5, [(0, 2), (1, 2), (2, 3), (2, 4)], (0, 1), (3, 4))
    LinearCircuit(net, GF7, (1, 6, 2, 3))
    # a cyclic network or one with a terminal listed twice cannot be built,
    # so no circuit can hold one
    for edges, inputs, error in (([(0, 2), (2, 3), (3, 2)], (0, 1), CyclicGraph),
                                 ([(0, 2), (1, 2), (2, 3)], (0, 0), DuplicateTerminal)):
        with pytest.raises(error):
            LinearCircuit(Network(5, edges, inputs, (3, 4)), GF7, (1, 1, 1))
        with pytest.raises(error):
            synthesize(Network(5, edges, inputs, (3, 4)), GF7)
    for coeffs in ((1, 7, 2, 3), (1, True, 2, 3)):
        with pytest.raises(InvalidArguments):
            LinearCircuit(net, GF7, coeffs)


def test_linear_circuit_is_frozen():
    circ = shamir_like_circuit([1, 2, 3])
    for name, value in (("threshold", 1), ("coefficients", (0,) * 6),
                        ("net", circ.net), ("schedule", ())):
        with pytest.raises(AttributeError):
            setattr(circ, name, value)


def test_circuit_from_dict_pairs_coefficients_with_unsorted_edges():
    doc = {"vertex_count": 4, "inputs": [0, 1], "outputs": [2, 3],
           "edges": [[1, 2], [0, 2], [1, 3]], "modulus": 7, "threshold": 2,
           "coefficients": [3, 5, 4]}
    circ = circuit_from_dict(doc)
    assert evaluate(circ, [1, 0]) == [5, 0]
    assert evaluate(circ, [0, 1]) == [3, 4]
    out = circuit_to_dict(circ)
    assert out["edges"] == [[0, 2], [1, 2], [1, 3]] and out["coefficients"] == [5, 3, 4]


def test_synthesize_file_does_not_depend_on_edge_order(tmp_path):
    # a two-layer graph with parallel edges and an input-to-output skip
    base = _bipartite_block(3, 5, 4)
    net = Network(base.vertex_count, sorted(base.edges + ((0, 7), (0, 7), (1, 3), (2, 8))),
                  base.inputs, base.outputs)
    rng = random.Random(7)
    for seed in range(20):
        write_circuit(synthesize(net, GF101, rng_seed=seed), tmp_path / "sorted.json")
        shuffled = Network(net.vertex_count, rng.sample(net.edges, len(net.edges)),
                           net.inputs, net.outputs)
        assert shuffled.edges != net.edges
        circ = synthesize(shuffled, GF101, rng_seed=seed)
        assert circ.net is shuffled
        write_circuit(circ, tmp_path / "shuffled.json")
        assert (tmp_path / "shuffled.json").read_bytes() == (tmp_path / "sorted.json").read_bytes()


def test_circuit_file_does_not_depend_on_its_pair_order(tmp_path):
    # the reader keeps the document's (edge, coefficient) pairs as they are
    # and the writer sorts them, so shuffling the pairs moves no byte
    net = _bipartite_block(3, 5, 4)
    write_circuit(synthesize(net, GF101, rng_seed=1), tmp_path / "sorted.json")
    doc = json.loads((tmp_path / "sorted.json").read_text())
    rng = random.Random(8)
    for _ in range(20):
        pairs = list(zip(doc["edges"], doc["coefficients"]))
        rng.shuffle(pairs)
        shuffled = dict(doc, edges=[e for e, _ in pairs], coefficients=[c for _, c in pairs])
        (tmp_path / "shuffled.json").write_text(json.dumps(shuffled))
        circ = read_circuit(tmp_path / "shuffled.json")
        assert [list(e) for e in circ.net.edges] == shuffled["edges"]
        assert list(circ.coefficients) == shuffled["coefficients"]
        write_circuit(circ, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "sorted.json").read_bytes()


def test_circuit_from_dict_secret_input():
    doc = circuit_to_dict(shamir_like_circuit([1, 2, 3]))
    assert doc["secret_input"] == 0
    assert circuit_from_dict(doc).coefficients == tuple(doc["coefficients"])
    del doc["secret_input"]
    assert circuit_from_dict(doc).coefficients == tuple(doc["coefficients"])
    doc["secret_input"] = 1
    with pytest.raises(InvalidArguments, match="secret_input"):
        circuit_from_dict(doc)


def test_evaluate_is_linear():
    net = complete_bipartite(3, 4)
    circ = synthesize(net, GF101, rng_seed=9)
    rng = random.Random(0)
    for _ in range(20):
        x = [rng.randrange(101) for _ in range(3)]
        y = [rng.randrange(101) for _ in range(3)]
        lhs = evaluate(circ, [(a + b) % 101 for a, b in zip(x, y)])
        rhs = [(a + b) % 101 for a, b in zip(evaluate(circ, x), evaluate(circ, y))]
        assert lhs == rhs


def test_validate_scheme_shamir_proved():
    circ = shamir_like_circuit([1, 2, 3])
    report = validate_scheme(circ)
    assert report.verdict == "proved"
    assert report.mode == "exhaustive"
    assert report.recover_checks == 3 and report.privacy_checks == 3


def test_validate_scheme_refuted_with_witness():
    # share 0 is the constant 0: any coalition containing it fails recovery
    circ = shamir_like_circuit([1, 2, 3])
    coeffs = list(circ.coefficients)
    for idx, (u, v) in enumerate(circ.net.edges):
        if v == 2:
            coeffs[idx] = 0
    bad = LinearCircuit(circ.net, circ.modulus, tuple(coeffs))
    report = validate_scheme(bad)
    assert report.verdict == "refuted"
    assert report.witness is not None and 0 in report.witness


def matrix_circuit(rows, p):
    """Depth-1 circuit whose n x t transfer matrix is `rows`."""
    t = len(rows[0])
    net = complete_bipartite(t, len(rows))
    coeffs = tuple(rows[v - t][u] for u, v in net.edges)
    return LinearCircuit(net, FieldModulus(p), coeffs)


def coalition_by_coalition(circ, budget, rng_seed=0):
    """Oracle for validate_scheme: every coalition checked on its own by
    eliminations from scratch, all size-t coalitions before size t-1, with
    the sampled mode's draws. Ranks come from the rank kernel, which is exact
    for every modulus."""
    M = transfer_matrix(circ)
    t, n, p = circ.threshold, M.rows, circ.modulus.p

    def rank(T, cols):
        S = submatrix(M, list(T), list(cols))
        return _kernels.gf_rank(S.rows, S.cols, list(S.entries), p)

    exhaustive = comb(n, t) + comb(n, t - 1) <= budget
    rng = random.Random(rng_seed)
    recover_checks = privacy_checks = 0
    for size in (t, t - 1):
        if exhaustive:
            subsets = combinations(range(n), size)
        else:
            subsets = (tuple(sorted(rng.sample(range(n), size)))
                       for _ in range(max(1, budget // 2)))
        for T in subsets:
            if size == t:
                recover_checks += 1
            else:
                privacy_checks += 1
            if (size == t and rank(T, range(t)) != t) or rank(T, range(1, t)) != t - 1:
                return "refuted", tuple(T), recover_checks, privacy_checks
    return ("proved" if exhaustive else "sampled_pass"), None, recover_checks, privacy_checks


def drawn_rows(rng, p, t, n):
    """A random n x t matrix with planted rows that break the rank
    conditions: zero rows, secret-only rows and copies of earlier rows."""
    # t = 1 passes only when every row is secret-only
    secret_only = 0.6 if t == 1 else 0.1
    rows = []
    for i in range(n):
        row = [rng.randrange(p) for _ in range(t)]
        u = rng.random()
        if u < 0.04:
            row = [0] * t
        elif u < secret_only:
            row = [rng.randrange(1, p)] + [0] * (t - 1)
        elif u < secret_only + 0.05 and i:
            row = list(rows[rng.randrange(i)])
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [3, 5, 7, 101, 2**61 - 1, 2**64 - 59])
def test_validate_scheme_matches_coalition_oracle(p):
    rng = random.Random(p)
    outcomes = Counter()
    for trial in range(200):
        t = 1 + trial % 4
        n = rng.randrange(t, t + 5)
        circ = matrix_circuit(drawn_rows(rng, p, t, n), p)
        for budget in (6, 10**6):
            report = validate_scheme(circ, budget, rng_seed=trial)
            got = (report.verdict, report.witness, report.recover_checks,
                   report.privacy_checks)
            assert got == coalition_by_coalition(circ, budget, rng_seed=trial)
        stage = "privacy" if report.privacy_checks else "recovery"
        outcomes[(t == 1, report.verdict if report.verdict != "refuted" else stage)] += 1
    # Proofs at t = 1 (with its empty privacy coalition) and above;
    # refutations at both stages.
    assert outcomes[(True, "proved")] and outcomes[(False, "proved")]
    assert outcomes[(False, "recovery")] and outcomes[(False, "privacy")]


def sampled_by_list_elimination(circ, budget, rng_seed):
    """Oracle for sampled validate_scheme: its draws, each coalition checked
    by list-row fraction-free elimination, one row at a time, over the
    columns ordered randomness first, secret last. A row pivots on the
    secret column only when its randomness part reduces to zero."""
    M = transfer_matrix(circ)
    t, n, p = circ.threshold, M.rows, circ.modulus.p
    rows = [list(M.row(i)[1:] + M.row(i)[:1]) for i in range(n)]

    def holds(T):
        basis, secret = [], False
        for i in T:
            row = rows[i]
            for c, b in basis:
                if row[c]:
                    row = [(b[c] * x - row[c] * z) % p for x, z in zip(row, b)]
            c = next((c for c, x in enumerate(row) if x), None)
            if c is None:
                return False
            basis.append((c, row))
            secret |= c == M.cols - 1
        return secret == (len(T) == t)

    rng = random.Random(rng_seed)
    checks = {t: 0, t - 1: 0}
    for size in (t, t - 1):
        for _ in range(max(1, budget // 2)):
            T = tuple(sorted(rng.sample(range(n), size)))
            checks[size] += 1
            if not holds(T):
                return SchemeReport(checks[t], checks[t - 1], "sampled", "refuted", T)
    return SchemeReport(checks[t], checks[t - 1], "sampled", "sampled_pass")


@pytest.mark.parametrize("p", [3, 5, 7, 2**61 - 1])
def test_sampled_validate_scheme_matches_list_elimination(p):
    # Packed rows and column-first elimination give the same report, field by
    # field, as eliminating list rows one at a time, on matrices with planted
    # failures (t = 1 included) and on random DAG circuits.
    rng = random.Random(p + 1)
    outcomes = Counter()
    for trial in range(240):
        if trial % 3:
            t = 1 + trial % 4
            n = rng.randrange(t + 2, t + 7)
            circ = matrix_circuit(drawn_rows(rng, p, t, n), p)
        else:
            circ = random_dag_circuit(rng, p)
            t, n = circ.threshold, len(circ.net.outputs)
        budget = rng.choice((2, 6, 20))
        if comb(n, t) + comb(n, t - 1) <= budget:
            continue
        report = validate_scheme(circ, budget, rng_seed=trial)
        assert report == sampled_by_list_elimination(circ, budget, trial), trial
        stage = "privacy" if report.privacy_checks else "recovery"
        outcomes[(t == 1, report.verdict if report.verdict != "refuted" else stage)] += 1
    assert outcomes[(True, "sampled_pass")] and outcomes[(False, "sampled_pass")]
    assert outcomes[(False, "recovery")] and outcomes[(False, "privacy")]


# The sampled sweep as it was before it asked the circuit's PathMatrix: its
# own copy of M packed randomness first, secret last, and one elimination per
# coalition over its first |T| columns. Kept verbatim (renamed) as the oracle.
def coalition_holds_on_reordered_rows(rows, T, p: int) -> bool:
    return len(_kernels.eliminate([rows[i] for i in T], range(len(T)), p)) == len(T)


def sampled_on_reordered_rows(circ, budget, rng_seed):
    M = transfer_matrix(circ)
    t = circ.threshold
    n = M.rows
    p = circ.modulus.p
    rng = random.Random(rng_seed)
    rows = [_kernels.pack(M.row(i)[1:] + M.row(i)[:1], p) for i in range(n)]
    outputs = list(range(n))
    recover_checks = privacy_checks = 0
    for size in (t, t - 1):
        for _ in range(max(1, budget // 2)):
            T = tuple(sorted(rng.sample(outputs, size)))
            if size == t:
                recover_checks += 1
            else:
                privacy_checks += 1
            if not coalition_holds_on_reordered_rows(rows, T, p):
                return SchemeReport(
                    recover_checks, privacy_checks, "sampled", "refuted", witness=T
                )
    return SchemeReport(recover_checks, privacy_checks, "sampled", "sampled_pass")


def two_layer_circuit(rng, p, t, n):
    """K_{t,mid} followed by K_{mid,n}, every coefficient uniform in [0, p),
    zeros included."""
    mid = rng.randrange(1, t + 3)
    net = _bipartite_block(t, n, mid)
    return LinearCircuit(net, FieldModulus(p), tuple(rng.randrange(p) for _ in net.edges))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sampled_validate_scheme_matches_the_reordered_row_oracle(p):
    # Asking the circuit's PathMatrix for rank |T| on the inputs (size t) or
    # on the randomness inputs (size t-1) gives the report, field by field,
    # that eliminating a secret-last copy of M gave, on K_{t,n} circuits with
    # planted failures and on two-layer circuits, t = 1 included.
    rng = random.Random(p + 2)
    outcomes = Counter()
    for trial in range(150):
        t = 1 + trial % 4
        n = rng.randrange(t + 2, t + 6)
        if trial % 2:
            circ = matrix_circuit(drawn_rows(rng, p, t, n), p)
        else:
            circ = two_layer_circuit(rng, p, t, n)
        for budget in (1, 4, 10):
            if comb(n, t) + comb(n, t - 1) <= budget:
                continue
            report = validate_scheme(circ, budget, rng_seed=trial)
            assert report == sampled_on_reordered_rows(circ, budget, trial), (trial, budget)
            stage = "privacy" if report.privacy_checks else "recovery"
            outcomes[(t == 1, report.verdict if report.verdict != "refuted" else stage)] += 1
    assert outcomes[(True, "sampled_pass")] and outcomes[(False, "sampled_pass")], outcomes
    assert outcomes[(True, "recovery")] and outcomes[(False, "recovery")], outcomes
    assert outcomes[(False, "privacy")], outcomes


def walk_by_full_rows(M, t, p):
    """Oracle for the exhaustive sweep: the prefix-tree walk as it was before
    rows dropped their pivot columns, kept verbatim. Every node carries full
    rows reduced against its prefix's echelon basis, and every coalition
    costs one reduction of a full row."""
    n, s = M.rows, M.cols - 1
    recover_checks = privacy_checks = 0
    leak = None  # first size-(t-1) coalition that fails privacy
    # (T, later rows reduced against M_T or None when M_T is singular,
    #  whether M_T has a pivot on the secret column)
    stack = [((), [(j, M.row(j)[1:] + M.row(j)[:1]) for j in range(n)], False)]
    while stack:
        T, later, secret = stack.pop()
        if later is None:
            # M_T is singular, so every size-t coalition containing T fails
            # recovery. The first one below T is the first failure of the
            # walk. When T has none below it, one still comes later in the
            # walk, since none before this node failed.
            last, d = T[-1], len(T)
            if last + t - d < n:
                return recover_checks + 1, 0, T + tuple(range(last + 1, last + 1 + t - d))
            continue
        if len(T) == t - 1:
            if leak is None:
                privacy_checks += 1
                if secret:
                    leak = T
            for j, r in later:
                recover_checks += 1
                # The last row must add the one pivot M_T lacks: a randomness
                # pivot when M_T has the secret pivot, else the secret pivot.
                if not (any(r) if secret else r[s] and not any(r[:s])):
                    return recover_checks, 0, T + (j,)
            continue
        # A child must leave room for the rest of a size-(t-1) coalition.
        children = []
        for pos, (i, r) in enumerate(later[: len(later) - (t - 2 - len(T))]):
            c = next((k for k, x in enumerate(r) if x), None)
            if c is None:
                children.append((T + (i,), None, secret))
                continue
            # Fraction-free: r[c] * q - q[c] * r clears column c of q and is
            # a nonzero multiple of the reduced row, with no field inverse.
            a = r[c]
            tail = []
            for j, q in later[pos + 1 :]:
                b = q[c]
                if b:
                    q = [(a * x - b * y) % p for x, y in zip(q, r)]
                tail.append((j, q))
            children.append((T + (i,), tail, secret or c == s))
        stack.extend(reversed(children))
    return recover_checks, privacy_checks, leak


def scheme_rows(rng, p, t, n, plant):
    """An n x t matrix of a scheme that can prove: with t = 1 every row is
    secret-only. Each row is then replaced, with probability `plant`, by a
    zero row, a secret-only row, a uniform row, a copy of an earlier row, or
    a*row_i + b*row_k of two earlier rows; the last makes a failure land at
    the last level, behind a nonsingular prefix."""
    rows = []
    for i in range(n):
        row = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(t - 1)]
        if rng.random() < plant:
            kind = rng.choice(("zero", "secret", "uniform", "copy", "combination"))
            if kind == "zero":
                row = [0] * t
            elif kind == "secret":
                row = [rng.randrange(1, p)] + [0] * (t - 1)
            elif kind == "uniform":
                row = [rng.randrange(p) for _ in range(t)]
            elif kind == "copy" and i:
                row = list(rows[rng.randrange(i)])
            elif kind == "combination" and i > 1:
                j, k = rng.sample(range(i), 2)
                a, b = rng.randrange(1, p), rng.randrange(1, p)
                row = [(a * x + b * y) % p for x, y in zip(rows[j], rows[k])]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [3, 7, 101, 2**61 - 1, 2**64 - 59, 2**127 - 1])
def test_exhaustive_validate_scheme_matches_full_row_walk(p):
    # The walk over free-column rows, with its 2 x 2 determinant at the last
    # level, gives the same report as the full-row walk, up to t = 6 and
    # n = 16.
    rng = random.Random(p + 2)
    outcomes = Counter()
    largest_proof = 0
    for trial in range(180):
        t = 1 + trial % 6
        n = rng.randrange(t, rng.randrange(t, 17) + 1)
        circ = matrix_circuit(scheme_rows(rng, p, t, n, rng.choice((0, 0.04, 0.2))), p)
        report = validate_scheme(circ, comb(n, t) + comb(n, t - 1))
        recover_checks, privacy_checks, witness = walk_by_full_rows(transfer_matrix(circ), t, p)
        verdict = "proved" if witness is None else "refuted"
        assert report == SchemeReport(
            recover_checks, privacy_checks, "exhaustive", verdict, witness), trial
        stage = "privacy" if report.privacy_checks else "recovery"
        if stage == "recovery" and t > 1 and report.verdict == "refuted":
            M = transfer_matrix(circ, report.witness[:-1])
            prefix = [_kernels.pack(M.row(i), p) for i in range(M.rows)]
            if len(_kernels.eliminate(prefix, range(t), p)) == t - 1:
                stage = "recovery behind a nonsingular prefix"
        outcomes[report.verdict if report.verdict != "refuted" else stage] += 1
        if report.verdict != "refuted" and t > 1:
            largest_proof = max(largest_proof, comb(n, t))
    assert outcomes["proved"] and outcomes["privacy"] and outcomes["recovery"]
    assert outcomes["recovery behind a nonsingular prefix"]
    # Above p = 101 a proof reaches the scale of the scheme-verify circuits.
    assert p <= 101 or largest_proof >= 462


def test_share_reconstruct_worked_example():
    circ = shamir_like_circuit([1, 2, 3])
    # x = (s, r) = (4, 5): shares are (s + r, s + 2r, s + 3r) mod 7
    assert evaluate(circ, [4, 5]) == [2, 0, 5]
    assert reconstruct(circ, [0, 1], [2, 0]) == 4
    assert reconstruct(circ, [1, 2], [0, 5]) == 4
    assert reconstruct(circ, [0, 2], [2, 5]) == 4
    # T in any order, each share listed in the same order as its index
    assert reconstruct(circ, [1, 0], [0, 2]) == 4
    assert reconstruct(circ, [2, 0], [5, 2]) == 4


def test_share_reconstruct_round_trip_random():
    circ = shamir_like_circuit([1, 2, 3, 4], p=10007)
    assert validate_scheme(circ).verdict == "proved"
    rng = random.Random(1)
    for trial in range(100):
        s = rng.randrange(10007)
        shares = share(circ, s, rng_seed=trial)
        T = sorted(rng.sample(range(4), 2))
        assert reconstruct(circ, T, [shares[i] for i in T]) == s


@pytest.mark.parametrize("secret", [-1, 7, 8, 7 * 10**20 + 4, True, False, 4.0],
                         ids=["negative", "p", "p_plus_1", "large", "true", "false", "float"])
def test_share_refuses_a_secret_outside_the_field(secret):
    # Reduction mod p would deal shares of another secret than the one given.
    circ = shamir_like_circuit([1, 2, 3])
    with pytest.raises(InvalidArguments, match=r"secret must be an integer in \[0, 7\)"):
        share(circ, secret)
    assert [reconstruct(circ, [0, 1], share(circ, s)[:2]) for s in (0, 6)] == [0, 6]


def test_reconstruct_errors():
    circ = shamir_like_circuit([1, 2, 3])
    with pytest.raises(InvalidArguments):
        reconstruct(circ, [0], [2])
    # two identical share rows give a singular coalition matrix
    dup = shamir_like_circuit([1, 1, 3])
    with pytest.raises(SingularSubmatrix):
        reconstruct(dup, [0, 1], [2, 2])


NOT_AN_OUTPUT = "share index {} is not an output of the circuit, whose 5 outputs are indexed [0, 5)"


@pytest.mark.parametrize("T, error", [
    ([1, 1, 0], "share index 1 is listed twice"),
    ([0, 1, 9], NOT_AN_OUTPUT.format(9)),
    ([0, 1, -1], NOT_AN_OUTPUT.format(-1)),
    ([0, True, 2], NOT_AN_OUTPUT.format(True)),
    ([0, 1.0, 2], NOT_AN_OUTPUT.format(1.0)),
], ids=["repeated", "past_n", "negative", "bool", "float"])
def test_reconstruct_names_a_bad_share_index(T, error):
    # The repeated and the out-of-range index were once reported as "row
    # indices must be strictly increasing" and "row index 9 out of range".
    # `transfer_matrix` makes the check that `reconstruct` relies on.
    circ = synthesize(complete_bipartite(3, 5), GF101, rng_seed=1)
    for refuse in (lambda: reconstruct(circ, T, [1, 2, 3]), lambda: transfer_matrix(circ, T),
                   lambda: check_share_indices(circ, [*T, 3])):
        with pytest.raises(InvalidArguments) as refused:
            refuse()
        assert str(refused.value) == error
    y = share(circ, 42, rng_seed=2)
    assert reconstruct(circ, [4, 0, 2], [y[4], y[0], y[2]]) == 42


def test_failure_bound_examples():
    assert failure_bound(1, 3, 2, GF101) == pytest.approx(6 / 101)
    assert failure_bound(2, 3, 2, GF101) == pytest.approx(12 / 101)
    assert failure_bound(5, 10, 5, FieldModulus(3)) == 1.0
    big = FieldModulus(2**61 - 1)
    assert failure_bound(3, 20, 10, big) < 1e-12


def test_failure_bound_is_the_float_of_the_exact_fraction():
    # The oracle rounds the exact fraction, capped at 1, once; 2^1279 - 1
    # puts p beyond the float range.
    capped = uncapped = 0
    for p in (3, 7, 101, 1009, 2**61 - 1, 2**1279 - 1):
        modulus = FieldModulus(p)
        for depth in range(1, 6):
            for n in range(1, 41):
                for t in range(1, n + 1):
                    exact = min(Fraction(depth * (comb(n, t) + comb(n, t - 1)), p), 1)
                    got = failure_bound(depth, n, t, modulus)
                    assert got == float(exact), (depth, n, t, p)
                    capped += exact == 1
                    uncapped += exact < 1
    assert capped and uncapped


def test_failure_bound_assumes_the_connection_properties():
    # Both inputs reach both outputs only through vertex 2, so M has rank 1
    # and no draw recovers at t = 2, though the bound reads about 2.6e-18:
    # the bound holds only on graphs with the connection properties.
    net = network.network_from_dict({"vertex_count": 5, "inputs": [0, 1], "outputs": [3, 4],
                                     "edges": [[0, 2], [1, 2], [2, 3], [2, 4]]})
    big = FieldModulus(2**61 - 1)
    assert failure_bound(net.depth, 2, 2, big) < 1e-17
    for seed in range(20):
        report = validate_scheme(synthesize(net, big, rng_seed=seed))
        assert report.verdict == "refuted" and report.witness == (0, 1)


def test_circuit_json_round_trip(tmp_path):
    net = complete_bipartite(3, 5)
    circ = synthesize(net, GF101, rng_seed=4)
    path = tmp_path / "circ.json"
    write_circuit(circ, path)
    loaded = read_circuit(path)
    assert loaded.coefficients == circ.coefficients
    assert loaded.threshold == 3 and loaded.modulus.p == 101
    path2 = tmp_path / "circ2.json"
    write_circuit(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_shares_json_round_trip(tmp_path):
    circ = shamir_like_circuit([1, 2, 3])
    values = share(circ, 4, rng_seed=0)
    path = tmp_path / "shares.json"
    write_shares(circ, values, path)
    doc = json.loads(path.read_text())
    assert doc["modulus"] == 7
    assert read_shares(path, circ) == list(enumerate(values))


@pytest.mark.parametrize("modulus", [101, 8, 2**61 - 1, True],
                         ids=["another_prime", "not_prime", "large_prime", "bool"])
def test_read_shares_refuses_a_modulus_other_than_the_circuits(tmp_path, modulus):
    # The file's modulus is compared with the circuit's proved prime, so a
    # composite one is refused as any other, without a primality test of its own.
    circ = shamir_like_circuit([1, 2, 3])
    path = tmp_path / "shares.json"
    write_shares(circ, share(circ, 4), path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), modulus=modulus)))
    with pytest.raises(InvalidArguments) as refused:
        read_shares(path, circ)
    assert str(refused.value) == f"share file modulus {modulus} differs from the circuit's 7"


def test_transfer_matrix_takes_rows_in_any_order():
    rng = random.Random(30)
    for trial in range(40):
        circ = random_dag_circuit(rng, 101)
        n = len(circ.net.outputs)
        full = transfer_matrix(circ)
        rows = rng.sample(range(n), rng.randrange(n + 1))
        got = transfer_matrix(circ, rows)
        assert (got.rows, got.cols) == (len(rows), circ.threshold)
        assert [got.row(k) for k in range(len(rows))] == [full.row(i) for i in rows]


def test_reconstruct_takes_a_coalition_in_any_order():
    # Each order of a coalition recovers the dealt secret, or each is refused
    # as singular, naming the coalition in increasing order.
    net = complete_bipartite(4, 12)
    kinds = Counter()
    for p in (7, 2**61 - 1):
        circ = synthesize(net, FieldModulus(p), rng_seed=3)
        rng = random.Random(p)
        for trial in range(30):
            s = rng.randrange(p)
            y = share(circ, s, rng_seed=trial)
            T = sorted(rng.sample(range(12), 4))
            outcomes = set()
            for _ in range(4):
                order = rng.sample(T, 4)
                try:
                    outcomes.add(reconstruct(circ, order, [y[i] for i in order]))
                except SingularSubmatrix as singular:
                    outcomes.add(str(singular))
            assert outcomes == {s} or outcomes == {
                f"M_T singular for coalition {T}; circuit not validated?"}, (p, trial, outcomes)
            kinds[p, outcomes == {s}] += 1
    assert kinds[7, True] and kinds[7, False] and kinds[2**61 - 1, True] == 30
