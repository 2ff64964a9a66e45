"""Exact information-theoretic oracle: count the joint outcomes of (secret,
shares) for a small circuit over a small field, compute entropies in base q,
and verify the threshold-scheme entropy conditions by one coalition sweep."""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from math import inf, log
from operator import itemgetter

from .circuit import LinearCircuit, evaluate
from .errors import InvalidArguments, StateSpaceTooLarge
from .network import VerificationReport

MAX_STATES = 10**7


@dataclass
class JointDistribution:
    """Exact distribution over tuples (S, Y_1, ..., Y_n), S being variable 0:
    the positive integer count of each tuple that occurs, a probability
    being a count over their sum `total`. Marginals are integer sums;
    entropies go to float only at the final logarithm. `_entropies` memoises
    `entropy` per sorted variable set; the counts are not to be changed once
    the distribution is built."""

    variable_count: int
    alphabet: int
    counts: dict  # tuple -> positive int
    total: int = field(init=False, repr=False, compare=False)
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.counts:
            raise InvalidArguments("the distribution needs at least one tuple")
        # bool is an int subclass but not a count.
        if any(type(c) is not int or c < 1 for c in self.counts.values()):
            raise InvalidArguments("every count must be a positive int")
        self.total = sum(self.counts.values())


def enumerate_distribution(circ: LinearCircuit) -> JointDistribution:
    """Exhaust all uniform input assignments (s, r) in GF(q)^ell and count
    the induced tuples (s, y_1, ..., y_n)."""
    q = circ.modulus.p
    ell = len(circ.net.inputs)
    states = q**ell
    if states > MAX_STATES:
        raise StateSpaceTooLarge(f"q^ell = {states} exceeds {MAX_STATES}")
    counts = Counter((x[0], *evaluate(circ, list(x))) for x in product(range(q), repeat=ell))
    return JointDistribution(len(circ.net.outputs) + 1, q, counts)


def _marginal(dist: JointDistribution, idx: tuple) -> dict:
    """Marginal counts, keyed by the values of the variables in idx."""
    key = itemgetter(*idx)
    marg = defaultdict(int)
    for tup, c in dist.counts.items():
        marg[key(tup)] += c
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
    total = dist.total
    h = 0.0
    for c in _marginal(dist, idx).values():
        pf = c / total  # the correctly rounded float of the rational c / total
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


def _coalition_sweep(dist: JointDistribution, t: int, name: str, fails) -> VerificationReport:
    """Check every coalition T of shares of size t, then every one of size
    t-1, each size in lexicographic order, and refute at the first T for
    which fails(T, H(S)) holds, with T as the witness."""
    n = dist.variable_count - 1
    if not 1 <= t <= n:
        raise InvalidArguments(f"need 1 <= t <= {n}, got t={t}")
    name = f"{name}(t={t})"
    h_s = entropy(dist, [0])
    shares = range(1, n + 1)
    for checked, T in enumerate(chain(combinations(shares, t), combinations(shares, t - 1)), 1):
        if fails(T, h_s):
            return VerificationReport(name, "refuted", checked, witness=(T,))
    return VerificationReport(name, "proved", checked)


def _check_tol(tol) -> None:
    """A tolerance must be finite and >= 0: every check compares against it,
    and no comparison with NaN holds, so a NaN tolerance would pass every
    coalition, as would an infinite one, and a negative one fail them all."""
    if not 0 <= tol < inf:
        raise InvalidArguments(f"need a tolerance 0 <= tol < inf, got {tol!r}")


def verify_threshold_definition(
    dist: JointDistribution, t: int, tol: float = 1e-9
) -> VerificationReport:
    """Exhaustively check H(S | Y_T) = 0 for all |T| = t (correctness) and
    H(S | Y_T) = H(S) for all |T| = t-1 (privacy). Raises InvalidArguments
    unless 0 <= tol < inf."""
    _check_tol(tol)

    def fails(T, h_s):
        h = cond_entropy(dist, [0], T)
        return abs(h if len(T) == t else h - h_s) > tol

    return _coalition_sweep(dist, t, "threshold_definition", fails)


def verify_entropy_bounds(
    dist: JointDistribution, t: int, tol: float = 1e-9
) -> VerificationReport:
    """Check the share-entropy lower bounds implied by the threshold
    definition: H(Y_T) >= t H(S) for |T| = t and H(Y_T | S) >= (t-1) H(S)
    for |T| = t-1, which holds trivially for the empty coalition. Raises
    InvalidArguments unless 0 <= tol < inf."""
    _check_tol(tol)

    def fails(T, h_s):
        if len(T) == t:
            return entropy(dist, T) < t * h_s - tol
        return bool(T) and cond_entropy(dist, T, [0]) < (t - 1) * h_s - tol

    return _coalition_sweep(dist, t, "entropy_bounds", fails)


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
