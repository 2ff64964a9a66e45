"""Exact information-theoretic oracle: enumerate the joint distribution of
(secret, shares) for a small circuit over a small field, compute entropies
in base q, and verify the threshold-scheme entropy conditions."""

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, log
from operator import itemgetter

from .circuit import LinearCircuit, evaluate
from .errors import InvalidArguments, StateSpaceTooLarge
from .network import VerificationReport

MAX_STATES = 10**7


@dataclass
class JointDistribution:
    """Exact probability table over tuples (S, Y_1, ..., Y_n); S is
    variable 0. Probabilities are exact rationals; entropies go to float
    only at the final logarithm.

    `weights` holds the table as integers over the common denominator
    `denominator`, in the table's order, so that marginals are integer sums.
    `_entropies` memoises `entropy` per sorted variable set; the table is
    not to be changed once the distribution is built.
    """

    variable_count: int
    alphabet: int
    table: dict  # tuple -> Fraction
    denominator: int = field(init=False, repr=False, compare=False)
    weights: tuple = field(init=False, repr=False, compare=False)
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = [Fraction(p) for p in self.table.values()]
        D = lcm(*(p.denominator for p in probs))
        weights = [p.numerator * (D // p.denominator) for p in probs]
        if sum(weights) != D:
            raise InvalidArguments("probabilities must sum to exactly 1")
        self.denominator = D
        self.weights = tuple(zip(self.table, weights))


def enumerate_distribution(circ: LinearCircuit) -> JointDistribution:
    """Exhaust all uniform input assignments (s, r) in GF(q)^ell and
    accumulate the induced joint distribution of (s, y_1, ..., y_n)."""
    q = circ.modulus.p
    ell = len(circ.net.inputs)
    states = q**ell
    if states > MAX_STATES:
        raise StateSpaceTooLarge(f"q^ell = {states} exceeds {MAX_STATES}")
    counts = defaultdict(int)
    for x in itertools.product(range(q), repeat=ell):
        y = evaluate(circ, list(x))
        counts[(x[0], *y)] += 1
    n = len(circ.net.outputs)
    table = {tup: Fraction(c, states) for tup, c in counts.items()}
    return JointDistribution(n + 1, q, table)


def _marginal(dist: JointDistribution, idx: tuple) -> dict:
    """Marginal weights over `dist.denominator`, keyed by the values of the
    variables in idx."""
    key = itemgetter(*idx)
    marg = defaultdict(int)
    for tup, w in dist.weights:
        marg[key(tup)] += w
    return marg


def entropy(dist: JointDistribution, A) -> float:
    """Marginal Shannon entropy of the variables in A, in base-q digits
    (a uniform field element has entropy exactly 1). Computed once per
    variable set and distribution."""
    idx = tuple(sorted(set(A)))
    h = dist._entropies.get(idx)
    if h is not None:
        return h
    if not idx:
        raise InvalidArguments("variable set must be nonempty")
    if any(not 0 <= i < dist.variable_count for i in idx):
        raise InvalidArguments("variable index out of range")
    lq = log(dist.alphabet)
    D = dist.denominator
    h = 0.0
    for c in _marginal(dist, idx).values():
        if c > 0:
            pf = c / D  # the correctly rounded float of the rational c / D
            h -= pf * log(pf) / lq
    dist._entropies[idx] = h
    return h


def cond_entropy(dist: JointDistribution, A, B) -> float:
    """H(A | B) = H(A u B) - H(B); empty B gives the plain entropy."""
    A = set(A)
    B = set(B)
    if not A:
        raise InvalidArguments("A must be nonempty")
    if not B:
        return entropy(dist, A)
    return entropy(dist, A | B) - entropy(dist, B)


def verify_threshold_definition(
    dist: JointDistribution, t: int, tol: float = 1e-9
) -> VerificationReport:
    """Exhaustively check H(S | Y_T) = 0 for all |T| = t (correctness) and
    H(S | Y_T) = H(S) for all |T| = t-1 (privacy)."""
    n = dist.variable_count - 1
    if not 1 <= t <= n:
        raise InvalidArguments(f"need 1 <= t <= {n}, got t={t}")
    h_s = entropy(dist, [0])
    checked = 0
    for T in itertools.combinations(range(1, n + 1), t):
        checked += 1
        if abs(cond_entropy(dist, [0], T)) > tol:
            return VerificationReport(
                f"threshold_definition(t={t})", "refuted", checked, witness=(T,)
            )
    for T in itertools.combinations(range(1, n + 1), t - 1):
        checked += 1
        if abs(cond_entropy(dist, [0], T) - h_s) > tol:
            return VerificationReport(
                f"threshold_definition(t={t})", "refuted", checked, witness=(T,)
            )
    return VerificationReport(f"threshold_definition(t={t})", "proved", checked)


def verify_entropy_bounds(
    dist: JointDistribution, t: int, tol: float = 1e-9
) -> VerificationReport:
    """Check the share-entropy lower bounds implied by the threshold
    definition: H(Y_T) >= t H(S) for |T| = t and H(Y_T | S) >= (t-1) H(S)
    for |T| = t-1."""
    n = dist.variable_count - 1
    if not 1 <= t <= n:
        raise InvalidArguments(f"need 1 <= t <= {n}, got t={t}")
    h_s = entropy(dist, [0])
    checked = 0
    for T in itertools.combinations(range(1, n + 1), t):
        checked += 1
        if entropy(dist, T) < t * h_s - tol:
            return VerificationReport(
                f"entropy_bounds(t={t})", "refuted", checked, witness=(T,)
            )
    for T in itertools.combinations(range(1, n + 1), t - 1):
        if not T:
            continue
        checked += 1
        if cond_entropy(dist, T, [0]) < (t - 1) * h_s - tol:
            return VerificationReport(
                f"entropy_bounds(t={t})", "refuted", checked, witness=(T,)
            )
    return VerificationReport(f"entropy_bounds(t={t})", "proved", checked)


def han_check(dist: JointDistribution, variables) -> float:
    """Residual of the subadditivity inequality
    sum_j H(Y_{vars minus j}) - (|vars|-1) H(Y_vars); nonnegative for every
    distribution, up to the caller's floating-point tolerance."""
    variables = tuple(sorted(set(variables)))
    if len(variables) < 2:
        raise InvalidArguments("need at least two variables")
    full = entropy(dist, variables)
    n = len(variables)
    lhs = sum(
        entropy(dist, [v for v in variables if v != j]) for j in variables
    )
    return lhs - (n - 1) * full
