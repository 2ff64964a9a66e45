"""Slowly-growing depth-selection functions: lambda_d, built by the star
operator, and the two-parameter inverse Ackermann function."""

import math
from functools import lru_cache

from .errors import InvalidArguments

# Memoized lambda values stay exact; the argument bound keeps iteration
# counts finite for adversarial callers.
MAX_ARGUMENT = 2**40


def lam(d: int, n: int) -> int:
    """lambda_d(n): floor sqrt for d=1, ceil log2 for d=2, and the star of
    lambda_{d-2} for higher d. Exact for every d >= 1, and the star nests at
    most three levels deep, however large d is.

    For n <= MAX_ARGUMENT, lambda_d(n) repeats with period 2 in d from d = 7
    on. Every lambda_d is nondecreasing in n, and lambda_5(4) = 2,
    lambda_5(2^40) = 3, lambda_6(5) = 3 and lambda_6(2^40) = 4, so lambda_7
    is 0, 1, 1 at n = 1, 2, 3 and 2 above, and lambda_8 is 0, 1, 2, 2 at
    n = 1..4 and 3 above. Each of these two is its own star on that range,
    so lambda_9 = lambda_7 and lambda_10 = lambda_8 there, and so on. A
    larger d is therefore read as 7 or 8, whichever has its parity."""
    if d < 1 or n < 1:
        raise InvalidArguments(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if n > MAX_ARGUMENT:
        raise InvalidArguments("n exceeds supported bound 2**40")
    if d > 8:
        d = 8 - d % 2
    if d == 1:
        return math.isqrt(n)
    if d == 2:
        return (n - 1).bit_length()  # exact ceil(log2 n) for n >= 1
    return _lam_star(d, n)


# The base cases are cheaper than a cache lookup; only the recursive star
# levels are memoized, with a bound so full-range sweeps stay in memory.
# Each step of the star is a lookup of its own, so the counts of the values
# a sweep passes through are shared. The star of f counts the applications
# of f that take n down to 1 or below; lambda_{d-2}(x) < x for x > 1 keeps
# the recursion finite.
@lru_cache(maxsize=1 << 16)
def _lam_star(d: int, n: int) -> int:
    return 0 if n <= 1 else 1 + _lam_star(d, lam(d - 2, n))


def alpha(m: int, n: int) -> int:
    """Two-parameter inverse Ackermann: the minimal depth index d at which
    lambda_d(n) drops below the aspect ratio m/n (or below 4 when m < 128n).

    The ratio test is exact: m >= n * lambda_d(n).
    """
    if m < n or n < 1:
        raise InvalidArguments(f"need m >= n >= 1, got m={m}, n={n}")
    if m >= 128 * n:
        d = 1
        while m < n * lam(d, n):
            d += 1
        return d
    d = 1
    while lam(d, n) > 4:
        d += 1
    return d
