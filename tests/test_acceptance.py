"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line. Tolerances are pinned here and must not be loosened."""

import itertools
import math
import random

import pytest

from sharecircuit.ackermann import lam
from sharecircuit.circuit import (
    failure_bound,
    reconstruct,
    share,
    synthesize,
    validate_scheme,
)
from sharecircuit.field import FieldModulus
from sharecircuit.infocheck import (
    JointDistribution,
    entropy,
    enumerate_distribution,
    han_check,
    verify_entropy_bounds,
    verify_threshold_definition,
)
from sharecircuit.network import (
    complete_bipartite,
    max_vertex_disjoint_paths,
    verify_partial_sc,
    verify_superconcentrator,
)
from sharecircuit.superconcentrator import (
    build_partial_sc_depth2,
    build_sc_depth2,
    build_sc_depth2_linear,
    build_sc_depth3_linear,
    build_sc_general,
    partial_sc_guarantee,
)

ENTROPY_TOL = 1e-9
HAN_TOL = 1e-9
SIZE_RATIO_BOUND_DEPTH2 = 8.0  # edges / (m log2 m log2 n); measured <= 5.4
SIZE_RATIO_BOUND_LINEAR = 16.0  # edges / m; measured <= 9.2


def f_star(f, n):
    """Reference star of f: the applications of f that take n to 1 or below."""
    count = 0
    while n > 1:
        nxt = f(n)
        assert nxt < n, (n, nxt)
        n, count = nxt, count + 1
    return count


def log_star(n):
    return f_star(math.log2, n)


def _verdict(number, title, ok):
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {title}"


@pytest.fixture(scope="module")
def desk_corpus():
    """Every (t, n, q, seed) instance for the privacy criterion: the rank
    verdict, the entropy verdict, and the circuit itself."""
    instances = []
    for t, n in ((2, 3), (2, 4)):
        net = build_sc_depth2(t, n)
        assert verify_superconcentrator(net).verdict == "proved"
        for q in (3, 5):
            mod = FieldModulus(q)
            for seed in range(40):
                circ = synthesize(net, mod, rng_seed=seed)
                rank_ok = validate_scheme(circ).verdict == "proved"
                dist = enumerate_distribution(circ)
                ent_ok = (
                    verify_threshold_definition(dist, t, ENTROPY_TOL).verdict
                    == "proved"
                )
                instances.append((t, n, q, seed, circ, dist, rank_ok, ent_ok))
    return instances


def test_criterion_1_end_to_end_threshold_correctness():
    ok = True
    p = FieldModulus(10007)
    for t, n in ((1, 3), (2, 3), (2, 4), (3, 5), (3, 6)):
        net = build_sc_depth2(t, n)
        ok &= verify_superconcentrator(net).verdict == "proved"
        circ = synthesize(net, p, rng_seed=1)
        ok &= validate_scheme(circ).verdict == "proved"
        rng = random.Random(42)
        for _ in range(100):
            s = rng.randrange(10007)
            shares = share(circ, s, rng_seed=rng.randrange(2**32))
            for T in itertools.combinations(range(n), t):
                got = reconstruct(circ, T, [shares[i] for i in T])
                ok &= got == s
    _verdict(1, "end-to-end threshold correctness", ok)


def test_criterion_2_privacy_oracle_agreement(desk_corpus):
    ok = True
    proved_by_combo = {}
    for t, n, q, seed, circ, dist, rank_ok, ent_ok in desk_corpus:
        ok &= rank_ok == ent_ok  # the two oracles must agree on every instance
        if rank_ok:
            proved_by_combo[(t, n, q)] = proved_by_combo.get((t, n, q), 0) + 1
    # every feasible combination yields proved circuits; (2,4) over GF(3)
    # is infeasible (only 4 admissible share directions exist for 4 shares,
    # and one coincides with the pure-randomness direction)
    for combo in ((2, 3, 3), (2, 3, 5), (2, 4, 5)):
        ok &= proved_by_combo.get(combo, 0) >= 1
    ok &= (2, 4, 3) not in proved_by_combo
    _verdict(2, "privacy at desk scale, rank vs entropy oracles", ok)


def test_criterion_3_failure_probability_bound():
    net = complete_bipartite(2, 4)
    assert verify_superconcentrator(net).verdict == "proved"
    mod = FieldModulus(101)
    failures = 0
    trials = 1000
    for seed in range(trials):
        circ = synthesize(net, mod, rng_seed=seed)
        failures += validate_scheme(circ).verdict == "refuted"
    bound = failure_bound(1, 4, 2, mod)
    assert bound == pytest.approx(10 / 101)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    rate = failures / trials
    ok = rate <= bound + 3 * sigma
    _verdict(3, f"failure rate {rate:.4f} <= bound {bound:.4f} + 3 sigma", ok)


def test_criterion_4_connectivity_necessity(desk_corpus):
    ok = True
    checked = 0
    for t, n, q, seed, circ, dist, rank_ok, ent_ok in desk_corpus:
        if not (rank_ok and ent_ok):
            continue
        net = circ.net
        nonsecret = tuple(v for v in net.inputs if v != net.inputs[0])
        for T in itertools.combinations(net.outputs, t):
            ok &= max_vertex_disjoint_paths(net, net.inputs, T) >= t
            checked += 1
        for T in itertools.combinations(net.outputs, t - 1):
            ok &= max_vertex_disjoint_paths(net, nonsecret, T) >= t - 1
            checked += 1
    ok &= checked > 0
    _verdict(4, "connectivity necessity over the proved corpus", ok)


def test_criterion_5_construction_validity():
    ok = True
    net = build_partial_sc_depth2(9, 9, 1.5, rng_seed=1)
    p, q = partial_sc_guarantee(9, 1.5)
    ok &= (p, q) == (6, 4)
    ok &= verify_partial_sc(net, p, q).verdict == "proved"
    ok &= verify_superconcentrator(build_sc_depth2(8, 8, rng_seed=1)).verdict == "proved"
    ok &= verify_superconcentrator(build_sc_depth2(4, 16, rng_seed=1)).verdict == "proved"
    ok &= (
        verify_superconcentrator(build_sc_depth3_linear(4, 23, 0.5, rng_seed=1)).verdict
        == "proved"
    )
    ok &= (
        verify_superconcentrator(build_sc_general(5, 15, 3, 0.5, rng_seed=1)).verdict
        == "proved"
    )
    _verdict(5, "construction validity, exhaustive sweeps", ok)


def test_criterion_6_size_scaling():
    ok = True
    worst_d2 = 0.0
    for n in (8, 16, 32, 64):
        net = build_sc_depth2(n, n, rng_seed=1, budget=500)
        ratio = len(net.edges) / (n * math.log2(n) ** 2)
        worst_d2 = max(worst_d2, ratio)
        ok &= ratio <= SIZE_RATIO_BOUND_DEPTH2
    worst_lin = 0.0
    for n in (3, 4, 5, 6):
        m = math.ceil(n**2.5)
        net = build_sc_depth2_linear(n, m, 0.5, rng_seed=1, budget=500)
        ratio = len(net.edges) / m
        worst_lin = max(worst_lin, ratio)
        ok &= ratio <= SIZE_RATIO_BOUND_LINEAR
    _verdict(
        6,
        f"size scaling, depth2 ratio <= {worst_d2:.2f}, linear ratio <= {worst_lin:.2f}",
        ok,
    )


def test_criterion_7_inverse_ackermann_suite():
    ok = True
    # 1) f*(n) <= f(n), strict whenever f(n) >= 4 (the chain argument is
    #    tight for tiny values)
    functions = (lambda x: x // 2, math.isqrt, lambda x: (x - 1).bit_length())
    sample = list(range(2, 1 << 12)) + [
        random.Random(0).randrange(2, 1 << 20) for _ in range(5000)
    ]
    for f in functions:
        for n in sample:
            s = f_star(f, n)
            ok &= s <= f(n)
            if f(n) >= 4:
                ok &= s < f(n)
    # 2) lambda_3(n) <= floor(log log n) + 2 for all n in [2, 2^20]
    for n in range(2, (1 << 20) + 1):
        if lam(3, n) > math.floor(math.log2(math.log2(n))) + 2:
            ok = False
            break
    # 3) lambda_4(n) <= 2 log*(n) for all n in [3, 2^20]
    for n in range(3, (1 << 20) + 1):
        if lam(4, n) > 2 * log_star(n):
            ok = False
            break
    # 4) lambda_d(n) <= n - 2 for n >= 4, d <= 12
    grid = list(range(4, 1025)) + [1 << k for k in range(11, 21)]
    for n in grid:
        for d in range(1, 13):
            ok &= lam(d, n) <= n - 2
    # 5) lambda_d(d) <= 4 for d <= 64
    for d in range(1, 65):
        ok &= lam(d, d) <= 4
    _verdict(7, "inverse Ackermann property suite, n <= 2^20, d <= 64", ok)


def _random_distribution(rng):
    v = rng.randrange(2, 5)
    q = rng.randrange(2, 4)
    tuples = list(itertools.product(range(q), repeat=v))
    weights = [rng.randrange(0, 5) for _ in tuples]
    if sum(weights) == 0:
        weights[0] = 1
    return JointDistribution(v, q, {t: w for t, w in zip(tuples, weights) if w})


def test_criterion_8_shannon_inequality_suite(desk_corpus):
    ok = True
    for seed in range(200):
        dist = _random_distribution(random.Random(seed))
        ok &= han_check(dist, range(dist.variable_count)) >= -HAN_TOL
    schemes = 0
    for t, n, q, seed, circ, dist, rank_ok, ent_ok in desk_corpus:
        if not (rank_ok and ent_ok):
            continue
        schemes += 1
        ok &= verify_entropy_bounds(dist, t, ENTROPY_TOL).verdict == "proved"
        ok &= entropy(dist, [0]) == pytest.approx(1.0, abs=ENTROPY_TOL)
    ok &= schemes > 0
    _verdict(8, "Shannon-type inequalities on 200 random + scheme corpus", ok)
