import itertools
import math
import random
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from math import log

import pytest

from sharecircuit import cli, infocheck
from sharecircuit.circuit import LinearCircuit, evaluate, synthesize, write_circuit
from sharecircuit.errors import InvalidArguments, StateSpaceTooLarge
from sharecircuit.field import FieldModulus
from sharecircuit.infocheck import (
    MAX_STATES,
    JointDistribution,
    cond_entropy,
    entropy,
    enumerate_distribution,
    han_check,
    verify_entropy_bounds,
    verify_threshold_definition,
)
from sharecircuit.network import Network, complete_bipartite
from sharecircuit.superconcentrator import _bipartite_block


def xor_distribution():
    """(2,2) one-time-pad: S uniform bit, Y1 = R, Y2 = S xor R."""
    counts = {(s, r, s ^ r): 1 for s in range(2) for r in range(2)}
    return JointDistribution(3, 2, counts)


def leaky_distribution():
    """Both shares equal the secret: correct for t=1 but not private for t=2."""
    return JointDistribution(3, 2, {(s, s, s): 1 for s in range(2)})


def random_counts(rng):
    """(variable count, alphabet, counts) of a random table, as built into a
    `JointDistribution` by `random_distribution`."""
    v = rng.randrange(2, 5)
    q = rng.randrange(2, 4)
    tuples = list(itertools.product(range(q), repeat=v))
    weights = [rng.randrange(0, 5) for _ in tuples]
    if sum(weights) == 0:
        weights[0] = 1
    return v, q, {t: w for t, w in zip(tuples, weights) if w}


def random_distribution(rng):
    return JointDistribution(*random_counts(rng))


def linear_circuit_gf3():
    """shares (s + r, s + 2r) over GF(3): a (2,2)-threshold scheme."""
    net = Network(4, [(0, 2), (0, 3), (1, 2), (1, 3)], (0, 1), (2, 3))
    return LinearCircuit(net, FieldModulus(3), (1, 1, 1, 2))


def test_distribution_quotes_a_bad_size_briefly():
    # The message once quoted the value in full: a 500-deep list as 1 KB.
    nested = []
    for _ in range(499):
        nested = [nested]
    for v, q in ((nested, 2), (1, nested), (1, "x" * 5000)):
        with pytest.raises(InvalidArguments, match="need variable_count >= 1") as info:
            JointDistribution(v, q, {(0,): 1})
        assert len(str(info.value)) < 200, len(str(info.value))


def test_distribution_refuses_bad_counts():
    # Counts are positive ints; bool is an int subclass but not a count.
    for bad in (0, -1, True, 1.0, Fraction(1, 2), Fraction(1)):
        with pytest.raises(InvalidArguments, match="positive int"):
            JointDistribution(1, 2, {(0,): 1, (1,): bad})
    with pytest.raises(InvalidArguments, match="at least one tuple"):
        JointDistribution(1, 2, {})
    dist = JointDistribution(1, 2, {(0,): 3, (1,): 1})
    assert dist.total == 4
    assert entropy(dist, [0]) == pytest.approx(-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))


def test_entropy_examples():
    dist = xor_distribution()
    assert entropy(dist, [0]) == pytest.approx(1.0)
    assert entropy(dist, [1]) == pytest.approx(1.0)
    assert entropy(dist, [0, 1, 2]) == pytest.approx(2.0)
    leaky = leaky_distribution()
    assert entropy(leaky, [0, 1, 2]) == pytest.approx(1.0)
    with pytest.raises(InvalidArguments):
        entropy(dist, [])
    with pytest.raises(InvalidArguments):
        entropy(dist, [3])


def test_entropy_base_is_alphabet_size():
    # uniform pair of independent trits has entropy exactly 2 digits
    dist = JointDistribution(2, 3, {(a, b): 1 for a in range(3) for b in range(3)})
    assert entropy(dist, [0, 1]) == pytest.approx(2.0)
    # consistency with bits: H_q = H_2 / log2(q)
    h_bits = -sum(c / 9 * math.log2(c / 9) for c in dist.counts.values())
    assert entropy(dist, [0, 1]) == pytest.approx(h_bits / math.log2(3))


def test_cond_entropy_examples():
    dist = xor_distribution()
    assert cond_entropy(dist, [0], [1]) == pytest.approx(1.0)  # one share: nothing
    assert cond_entropy(dist, [0], [1, 2]) == pytest.approx(0.0)  # both: everything
    assert cond_entropy(dist, [0], [0]) == pytest.approx(0.0)
    assert cond_entropy(dist, [0], []) == pytest.approx(1.0)
    with pytest.raises(InvalidArguments, match="A must be nonempty"):
        cond_entropy(dist, [], [1])


def test_verify_threshold_definition_xor():
    report = verify_threshold_definition(xor_distribution(), 2)
    assert report.verdict == "proved"
    assert report.subsets_checked == 1 + 2  # one pair, two singletons


def test_verify_threshold_definition_refuted():
    report = verify_threshold_definition(leaky_distribution(), 2)
    assert report.verdict == "refuted"
    # the first singleton coalition already reveals the secret
    assert report.witness == ((1,),)
    # but the same distribution is a valid t = 1 scheme... except privacy
    # with zero shares is vacuous, so t = 1 is proved
    assert verify_threshold_definition(leaky_distribution(), 1).verdict == "proved"


def test_verify_threshold_definition_bad_t():
    with pytest.raises(InvalidArguments):
        verify_threshold_definition(xor_distribution(), 3)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_verifiers_refuse_a_tolerance_outside_zero_to_inf(tol):
    # NaN or inf would prove the leaky table, and a negative tolerance would
    # refute the xor scheme: each comparison against tol decides nothing.
    for dist in (xor_distribution(), leaky_distribution()):
        for verify in (verify_threshold_definition, verify_entropy_bounds):
            with pytest.raises(InvalidArguments, match="0 <= tol < inf"):
                verify(dist, 2, tol)
    assert verify_threshold_definition(xor_distribution(), 2, 0.0).verdict == "proved"


def test_verify_entropy_bounds_xor():
    report = verify_entropy_bounds(xor_distribution(), 2)
    assert report.verdict == "proved"
    assert report.subsets_checked == 1 + 2


def test_both_verifiers_count_the_empty_coalition_at_t1():
    # The leaky table is a t = 1 scheme: both sweeps check the two
    # singletons and then the empty coalition.
    leaky = leaky_distribution()
    for verify in (verify_threshold_definition, verify_entropy_bounds):
        report = verify(leaky, 1)
        assert (report.verdict, report.subsets_checked) == ("proved", 3), verify
    # A constant share refutes the bound H(Y_1) >= H(S) at the first
    # coalition, before the empty one is reached.
    constant = JointDistribution(3, 2, {(s, 0, s): 1 for s in range(2)})
    report = verify_entropy_bounds(constant, 1)
    assert (report.verdict, report.subsets_checked, report.witness) == ("refuted", 1, ((1,),))


def test_enumerate_distribution_gf3():
    dist = enumerate_distribution(linear_circuit_gf3())
    assert dist.variable_count == 3 and dist.alphabet == 3
    assert dist.total == 9 == sum(dist.counts.values())
    assert entropy(dist, [0]) == pytest.approx(1.0)
    assert verify_threshold_definition(dist, 2).verdict == "proved"
    assert verify_entropy_bounds(dist, 2).verdict == "proved"


def test_enumerate_distribution_state_guard():
    net = Network(4, [(0, 2), (0, 3), (1, 2), (1, 3)], (0, 1), (2, 3))
    circ = LinearCircuit(net, FieldModulus(10007), (1, 1, 1, 2))
    with pytest.raises(StateSpaceTooLarge):
        enumerate_distribution(circ)


def test_han_check_examples():
    # independent uniform bits: residual = n*(n-1) - (n-1)*n ... for n = 2
    # variables each of entropy 1: sum H(single) = 2, (n-1) H(pair) = 2
    dist = JointDistribution(2, 2, {(a, b): 1 for a in range(2) for b in range(2)})
    assert han_check(dist, [0, 1]) == pytest.approx(0.0)
    # fully correlated pair: 1 + 1 - 1 = 1
    dist = JointDistribution(2, 2, {(a, a): 1 for a in range(2)})
    assert han_check(dist, [0, 1]) == pytest.approx(1.0)
    with pytest.raises(InvalidArguments):
        han_check(dist, [0])


def test_han_nonnegative_on_random_distributions():
    for seed in range(200):
        dist = random_distribution(random.Random(seed))
        variables = range(dist.variable_count)
        if dist.variable_count >= 2:
            assert han_check(dist, variables) >= -1e-9


def test_chain_rule_and_subadditivity_random():
    for seed in range(100):
        rng = random.Random(500 + seed)
        dist = random_distribution(rng)
        v = dist.variable_count
        a, b = rng.sample(range(v), 2)
        # chain rule: H(A,B) = H(B) + H(A|B)
        assert entropy(dist, [a, b]) == pytest.approx(
            entropy(dist, [b]) + cond_entropy(dist, [a], [b])
        )
        # subadditivity / nonnegative mutual information
        assert cond_entropy(dist, [a], [b]) <= entropy(dist, [a]) + 1e-9


def test_conditioning_reduces_entropy_random():
    for seed in range(100):
        rng = random.Random(900 + seed)
        dist = random_distribution(rng)
        v = dist.variable_count
        if v < 3:
            continue
        a, b, c = rng.sample(range(v), 3)
        # conditional mutual information I(A;B | C) >= 0
        assert cond_entropy(dist, [a], [c]) >= cond_entropy(dist, [a], [b, c]) - 1e-9


# Oracles for the enumeration and the entropy, over exact rationals. They
# share no code with the library's: the oracle's table holds each tuple's
# probability as a Fraction, and each entropy term is the float of a
# marginal's Fraction.

OracleDistribution = namedtuple("OracleDistribution", "variable_count alphabet table")


def oracle_enumerate_distribution(circ: LinearCircuit) -> OracleDistribution:
    """Exhaust all uniform input assignments (s, r) in GF(q)^ell and
    accumulate the induced joint distribution of (s, y_1, ..., y_n)."""
    q = circ.modulus.p
    ell = len(circ.net.inputs)
    states = q**ell
    if states > MAX_STATES:
        raise StateSpaceTooLarge(f"q^ell = {states} exceeds {MAX_STATES}")
    weight = Fraction(1, states)
    table = defaultdict(Fraction)
    for x in itertools.product(range(q), repeat=ell):
        y = evaluate(circ, list(x))
        table[(x[0], *y)] += weight
    n = len(circ.net.outputs)
    return OracleDistribution(n + 1, q, dict(table))


def oracle_marginal(dist: OracleDistribution, idx: tuple) -> dict:
    """Marginal probabilities, keyed by the values of the variables in idx."""
    marg = defaultdict(Fraction)
    for tup, w in dist.table.items():
        marg[tuple(tup[i] for i in idx)] += w
    return marg


def oracle_entropy(dist: OracleDistribution, A) -> float:
    """Marginal Shannon entropy of the variables in A, in base-q digits
    (a uniform field element has entropy exactly 1)."""
    idx = tuple(sorted(set(A)))
    if not idx:
        raise InvalidArguments("variable set must be nonempty")
    if any(not 0 <= i < dist.variable_count for i in idx):
        raise InvalidArguments("variable index out of range")
    lq = log(dist.alphabet)
    h = 0.0
    for w in oracle_marginal(dist, idx).values():
        if w > 0:
            pf = float(w)  # the correctly rounded float of the rational w
            h -= pf * log(pf) / lq
    return h


def seeded_circuits():
    """Circuits over q in {3, 5, 7} (FieldModulus refuses 2): random
    coefficients on complete bipartite graphs, mostly proved, and on graphs
    with a one-vertex-short bottleneck, which are always refuted."""
    rng = random.Random(77)
    for q in (3, 5, 7):
        for draw in range(5):
            t = rng.choice((2, 3))
            n = rng.randrange(t, 6)
            net = complete_bipartite(t, n)
            if draw == 4:
                net = _bipartite_block(t, n, t - 1)
            yield synthesize(net, FieldModulus(q), rng.randrange(1000))


def assert_entropies_match(dist, want):
    """Every nonempty variable set, asked twice, in two orders."""
    variables = range(dist.variable_count)
    for size in range(1, dist.variable_count + 1):
        for A in itertools.combinations(variables, size):
            h = oracle_entropy(want, A)
            assert entropy(dist, A) == h and entropy(dist, A[::-1]) == h, A


def test_memoised_entropy_matches_the_fraction_oracle(capsys, monkeypatch, tmp_path):
    # Binary alphabets come from tables, as no circuit runs over GF(2).
    alphabets = set()
    for seed in range(40):
        v, q, counts = random_counts(random.Random(3000 + seed))
        alphabets.add(q)
        total = sum(counts.values())
        want = OracleDistribution(v, q, {k: Fraction(c, total) for k, c in counts.items()})
        assert_entropies_match(JointDistribution(v, q, counts), want)
    assert 2 in alphabets
    verdicts = set()
    stdout = []
    for i, circ in enumerate(seeded_circuits()):
        dist, want = enumerate_distribution(circ), oracle_enumerate_distribution(circ)
        # The same tuples in the same order, so marginals sum in the same order.
        assert list(dist.counts) == list(want.table)
        assert all(Fraction(c, dist.total) == want.table[k] for k, c in dist.counts.items())
        assert_entropies_match(dist, want)
        path = tmp_path / f"c{i}.json"
        write_circuit(circ, path)
        cli.main(["entropy-verify", "--circuit", str(path)])
        stdout.append(capsys.readouterr().out)
        verdicts.add(verify_threshold_definition(dist, circ.threshold).verdict)
    assert verdicts == {"proved", "refuted"}
    monkeypatch.setattr(infocheck, "enumerate_distribution", oracle_enumerate_distribution)
    monkeypatch.setattr(infocheck, "entropy", oracle_entropy)
    for i, _ in enumerate(seeded_circuits()):
        cli.main(["entropy-verify", "--circuit", str(tmp_path / f"c{i}.json")])
        assert capsys.readouterr().out == stdout[i], i


@pytest.mark.parametrize("v, q, counts", [
    (2, 2, {(0,): 1}),
    (2, 2, {(0, 5): 1}),
    (2, 2, {(0, -1): 1}),
    (2, 2, {(0, True): 1}),
    (2, 2, {(0, 1.0): 1}),
    (2, 2, {(0, 1, 1): 1}),
    (2, 2, {(0, 1): 1, (1,): 1}),
    (2, 2, {(0, 1): 1, (1, 0): 1, (1, True): 1}),
    (2, 2, {(0, 1): 1, "01": 1}),
    (2, 1, {(0, 0): 1}),
    (0, 2, {(): 1}),
    (True, 2, {(0,): 1}),
    (1, True, {(0,): 1}),
], ids=["short", "symbol_too_large", "negative_symbol", "bool_symbol", "float_symbol",
        "long", "mixed_lengths", "bool_beside_int", "not_a_tuple", "alphabet_1",
        "no_variables", "bool_variable_count", "bool_alphabet"])
def test_distribution_refuses_malformed_tables(v, q, counts):
    # Each was accepted, and several then ended entropy() in an IndexError or
    # a ZeroDivisionError; packing relies on every symbol fitting its slot.
    with pytest.raises(InvalidArguments):
        JointDistribution(v, q, counts)


def test_distribution_refuses_more_outcomes_than_max_states():
    JointDistribution(2, 2, {(0, 0): MAX_STATES - 1, (1, 1): 1})
    with pytest.raises(StateSpaceTooLarge):
        JointDistribution(2, 2, {(0, 0): MAX_STATES, (1, 1): 1})


def test_outcomes_pack_each_tuple_count_over_gcd_times_in_counts_order():
    # alphabet 5 gives 3 bits per variable
    codes = [4 | 1 << 6, 3 << 3, 1 | 1 << 3 | 4 << 6]
    tuples = [(4, 0, 1), (0, 3, 0), (1, 1, 4)]
    dist = JointDistribution(3, 5, dict(zip(tuples, (2, 1, 3))))
    assert dist.outcomes == [codes[0]] * 2 + [codes[1]] + [codes[2]] * 3
    dist = JointDistribution(3, 5, dict(zip(tuples, (4, 2, 6))))
    assert (dist.total, dist.outcomes) == (12, [codes[0]] * 2 + [codes[1]] + [codes[2]] * 3)
    dist = JointDistribution(3, 5, dict(zip(tuples, (7, 7, 7))))
    assert (dist.total, dist.outcomes) == (21, codes)
    assert entropy(dist, [0]) == entropy(dist, [0, 1, 2]) == pytest.approx(log(3) / log(5))


def test_a_common_factor_of_the_counts_leaves_every_entropy_bit_identical():
    for seed in range(40):
        v, q, counts = random_counts(random.Random(3000 + seed))
        total = sum(counts.values())
        want = OracleDistribution(v, q, {k: Fraction(c, total) for k, c in counts.items()})
        for factor in (2, 7, 12):
            dist = JointDistribution(v, q, {k: c * factor for k, c in counts.items()})
            assert dist.total == factor * total and len(dist.outcomes) <= total
            assert_entropies_match(dist, want)


@pytest.mark.parametrize("cells", [1, 2, 7, 10, 64])
def test_blocked_enumeration_matches_the_oracle_across_block_boundaries(monkeypatch, cells):
    # With a few cells per block, blocks hold one or a handful of
    # assignments, and the counts must still come out in product order.
    monkeypatch.setattr(infocheck, "BLOCK_CELLS", cells)
    for circ in seeded_circuits():
        dist, want = enumerate_distribution(circ), oracle_enumerate_distribution(circ)
        assert list(dist.counts) == list(want.table)
        assert all(Fraction(c, dist.total) == want.table[k] for k, c in dist.counts.items())
        # A linear map hits every image point equally often.
        assert len(dist.outcomes) == len(dist.counts)


def determined_counts(rng):
    """A table whose variables outside a random base set are functions of
    the base ones, with random counts 1-4, so the base set and every
    superset of it have injective marginals."""
    v = rng.randrange(2, 6)
    q = rng.randrange(2, 5)
    base = sorted(rng.sample(range(v), rng.randrange(1, v)))
    rest = {i: {} for i in range(v) if i not in base}
    counts = {}
    for x in itertools.product(range(q), repeat=len(base)):
        if rng.random() < 0.3:
            continue
        values = dict(zip(base, x))
        for i, f in rest.items():
            values[i] = f.setdefault(x, rng.randrange(q))
        counts[tuple(values[i] for i in range(v))] = rng.randrange(1, 5)
    return v, q, counts or {(0,) * v: 1}


def test_injective_shortcut_matches_the_fraction_oracle_in_either_order(monkeypatch):
    # Subsets first record the injective masks before their supersets come;
    # supersets first count them before the masks are known. Both orders
    # must give the oracle's float, bit for bit; the first counts fewer.
    counted = []
    monkeypatch.setattr(infocheck, "Counter", lambda it: counted.append(1) or Counter(it))
    saved = 0
    for seed in range(60):
        v, q, counts = determined_counts(random.Random(7000 + seed))
        total = sum(counts.values())
        want = OracleDistribution(v, q, {k: Fraction(c, total) for k, c in counts.items()})
        sets = [A for size in range(1, v + 1) for A in itertools.combinations(range(v), size)]
        expected = [oracle_entropy(want, A) for A in sets]
        for order in (sets, sets[::-1]):
            counted.clear()
            dist = JointDistribution(v, q, counts)
            got = {A: entropy(dist, A) for A in order}
            assert [got[A] for A in sets] == expected, (seed, order is sets)
            assert dist._injective  # the full set's marginal at least
            if order is sets:
                saved += len(sets) - len(counted)
    assert saved > 0


def test_cond_entropy_counts_no_superset_of_an_injective_condition(monkeypatch):
    # H(B) comes first: (Y_1, Y_2) determines the xor table, so H(S, Y_1, Y_2)
    # is H(all variables) with no second count, and exactly H(Y_1, Y_2).
    counted = []
    monkeypatch.setattr(infocheck, "Counter", lambda it: counted.append(1) or Counter(it))
    assert cond_entropy(xor_distribution(), [0], [1, 2]) == 0.0
    assert len(counted) == 1


def test_entropy_verify_stdout_matches_the_fraction_oracle_at_benchmark_shape(
        capsys, monkeypatch, tmp_path):
    # The pipeline workload's small circuit: K_{3,6} over GF(7), t = 3,
    # 343 states, at synth seeds 0-4.
    graph = tmp_path / "k36.json"
    cli.main(["gen-sc", "--inputs", "3", "--outputs", "6", "--out", str(graph)])
    paths = []
    for seed in range(5):
        paths.append(tmp_path / f"c{seed}.json")
        cli.main(["synth-ss", "--graph", str(graph), "--t", "3", "--modulus", "7",
                  "--seed", str(seed), "--out", str(paths[-1])])
    capsys.readouterr()
    stdout = []
    for path in paths:
        cli.main(["entropy-verify", "--circuit", str(path)])
        stdout.append(capsys.readouterr().out)
    assert all(out.count("\n") == 38 for out in stdout)
    monkeypatch.setattr(infocheck, "enumerate_distribution", oracle_enumerate_distribution)
    monkeypatch.setattr(infocheck, "entropy", oracle_entropy)
    for path, out in zip(paths, stdout):
        cli.main(["entropy-verify", "--circuit", str(path)])
        assert capsys.readouterr().out == out, path
