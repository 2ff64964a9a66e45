"""Exact information-theoretic oracle: count the joint outcomes of (secret,
shares) for a small circuit over a small field, compute entropies in base q,
and verify the threshold-scheme entropy conditions by one coalition sweep.

Each outcome is one packed int, variable i in bits [w*i, w*(i+1)) for
w = bits(q - 1), so the marginal of a variable set A is one C-level count of
the outcomes under A's bit mask. A set whose marginal is injective on the
table makes every superset's marginal the table relabelled, whose entropy is
H(all variables): such supersets are not counted again. The enumeration
evaluates each gate once per block of input assignments, over a column."""

from collections import Counter
from functools import reduce
from itertools import chain, combinations, islice, product, repeat
from math import gcd, inf, log
from operator import add, and_, floordiv, lshift, mod, mul, sub

from .circuit import LinearCircuit
from .errors import InvalidArguments, StateSpaceTooLarge, quote
from .network import VerificationReport

MAX_STATES = 10**7
BLOCK_CELLS = 1 << 18  # column entries live at once while enumerating or packing


class JointDistribution:
    """Exact distribution over tuples (S, Y_1, ..., Y_n), S being variable 0:
    the positive integer count of each tuple that occurs, a probability
    being a count over their sum `total`. Every tuple holds `variable_count`
    ints in [0, alphabet); `total` is at most MAX_STATES.

    `outcomes` packs each tuple (x_0, x_1, ...) into the int
    sum x_i << w*i, with w = bits(alphabet - 1), so the marginal of a
    variable set is a count of the outcomes under its mask. It holds each
    tuple c / g times, c its count and g the gcd of the counts, in the order
    of `counts`. A marginal count over len(outcomes) is then the same
    rational as the summed counts over `total`, so every float is the same
    as with g = 1; and a linear circuit's table, whose tuples all occur
    q^(ell - rank) times, has one outcome per tuple. Marginals are integer
    counts; entropies go to float only at the final logarithm. `_entropies`
    memoises `entropy` per sorted variable set, and `_injective` holds the
    masks of the sets whose marginal has one key per tuple; the counts are
    not to be changed once the distribution is built."""

    def __init__(self, variable_count: int, alphabet: int, counts: dict):
        self.variable_count = v = variable_count
        self.alphabet = q = alphabet
        self.counts = counts  # tuple -> positive int
        self._entropies, self._injective = {}, []
        # bool is an int subclass but no count, variable or symbol.
        if type(v) is not int or type(q) is not int or v < 1 or q < 2:
            raise InvalidArguments(
                "need variable_count >= 1 and alphabet >= 2, "
                f"got {quote(v)} and {quote(q)}")
        if not counts:
            raise InvalidArguments("the distribution needs at least one tuple")
        if any(type(c) is not int or c < 1 for c in counts.values()):
            raise InvalidArguments("every count must be a positive int")
        if set(map(type, counts)) != {tuple} or set(map(len, counts)) != {v}:
            raise InvalidArguments(f"every tuple must hold {v} symbols")
        w = self._width = (q - 1).bit_length()
        # Pack a block of tuples at a time, so one column of it is live at once.
        codes, tuples = [], iter(counts)
        while block := list(islice(tuples, max(1, BLOCK_CELLS // v))):
            packed = repeat(0)
            for i, column in enumerate(zip(*block)):
                if not set(map(type, column)) <= {int} or not 0 <= min(column) <= max(column) < q:
                    raise InvalidArguments(f"every symbol must be an int in [0, {q})")
                packed = list(map(add, packed, map(lshift, column, repeat(w * i))))
            codes += packed
        self.total = sum(counts.values())
        if self.total > MAX_STATES:
            raise StateSpaceTooLarge(f"{self.total} outcomes exceed {MAX_STATES}")
        unit = gcd(*counts.values())
        if self.total > unit * len(codes):
            units = map(floordiv, counts.values(), repeat(unit))
            codes = list(chain.from_iterable(map(repeat, codes, units)))
        self.outcomes = codes


def enumerate_distribution(circ: LinearCircuit) -> JointDistribution:
    """Exhaust all uniform input assignments (s, r) in GF(q)^ell and count
    the induced tuples (s, y_1, ..., y_n), in product order.

    The assignments go in blocks, slices of product order. A block is a
    column per vertex: the inputs' columns are the block transposed, and a
    gate's column is sum c * column(u) mod q over its (u, c) pairs, one pass
    over the gate schedule per block. A block has at most BLOCK_CELLS
    entries over all the vertices, so one block's columns are the only ones
    live."""
    q = circ.modulus.p
    net = circ.net
    ell = len(net.inputs)
    states = q**ell
    if states > MAX_STATES:
        raise StateSpaceTooLarge(f"q^ell = {states} exceeds {MAX_STATES}")
    assignments = product(range(q), repeat=ell)
    size = max(1, BLOCK_CELLS // net.vertex_count)
    counts = Counter()
    while block := list(islice(assignments, size)):
        columns = dict(zip(net.inputs, zip(*block)))
        for v, preds in circ.schedule:
            terms = [map(mul, columns[u], repeat(c)) for u, c in preds]
            column = terms.pop() if terms else repeat(0, len(block))
            for term in terms:
                column = list(map(add, column, term))
            columns[v] = list(map(mod, column, repeat(q)))
        counts.update(zip(columns[net.inputs[0]], *map(columns.get, net.outputs)))
    return JointDistribution(len(net.outputs) + 1, q, counts)


def _entropy_of(counts, total: int, alphabet: int) -> float:
    """Shannon entropy in base `alphabet` of integer counts over `total`,
    summed in the order given."""
    lq = log(alphabet)
    # c / total is the correctly rounded float of the rational c / total.
    term = {c: c / total * log(c / total) / lq for c in set(counts)}
    return reduce(sub, map(term.__getitem__, counts), 0.0)


def entropy(dist: JointDistribution, A) -> float:
    """Marginal Shannon entropy of the variables in A, in base-q digits
    (a uniform field element has entropy exactly 1). Computed once per
    variable set and distribution.

    The marginal is one count of the outcomes under A's mask; its keys come
    in order of first occurrence, which is the order of the first tuples of
    `counts` that show them. When it has one key per tuple, A's projection
    is injective on the table and its mask is recorded. The marginal of any
    superset B of such a set is then injective too, so its keys are the
    tuples relabelled, in the same order with the same outcome counts, and H(B)
    sums the same floats in the same order as H(all variables): it is that
    sum, bit for bit, with no count."""
    idx = tuple(sorted(set(A)))
    h = dist._entropies.get(idx)
    if h is not None:
        return h
    if not idx:
        raise InvalidArguments("variable set must be nonempty")
    if any(not 0 <= i < dist.variable_count for i in idx):
        raise InvalidArguments("variable index out of range")
    w = dist._width
    mask = sum(((1 << w) - 1) << w * i for i in idx)
    everything = tuple(range(dist.variable_count))
    if any(m & mask == m for m in dist._injective):
        h = dist._entropies[everything]
    else:
        marginal = Counter(map(and_, dist.outcomes, repeat(mask))).values()
        h = _entropy_of(marginal, len(dist.outcomes), dist.alphabet)
        if len(marginal) == len(dist.counts):
            dist._injective.append(mask)
            dist._entropies[everything] = h
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
    # H(B) first: when B's marginal is injective, H(A u B) needs no count.
    h_b = entropy(dist, B)
    return entropy(dist, A | B) - h_b


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
