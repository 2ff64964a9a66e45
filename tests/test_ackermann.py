import math
import random

import pytest

from sharecircuit.ackermann import alpha, lam
from sharecircuit.errors import InvalidArguments


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


def test_lam_examples():
    assert lam(1, 16) == 4
    assert lam(1, 17) == 4
    assert lam(2, 16) == 4
    assert lam(2, 17) == 5
    assert lam(3, 3) == 1
    assert lam(3, 16) == 3  # 16 -> 4 -> 2 -> 1 under floor-sqrt
    assert lam(4, 16) == 3
    assert lam(1, 1) == 1 and lam(2, 1) == 0


def test_lam_argument_errors():
    with pytest.raises(InvalidArguments):
        lam(0, 5)
    with pytest.raises(InvalidArguments):
        lam(1, 0)
    with pytest.raises(InvalidArguments):
        lam(3, 2**41)


def test_lam_2_matches_ceil_log2():
    assert lam(2, 1) == 0
    for n in range(2, 5000):
        # oracle: k = ceil(log2 n) is the unique k with 2^(k-1) < n <= 2^k
        k = lam(2, n)
        assert 2 ** (k - 1) < n <= 2**k


def test_lam_1_matches_isqrt_oracle():
    for n in range(1, 2000):
        r = lam(1, n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_lam_is_the_star_of_lam_two_below():
    # lambda_d is memoised one star step at a time; f_star is the reference
    assert [f_star(lambda x: x // 2, 8), f_star(lambda x: x // 2, 1)] == [3, 0]
    assert f_star(math.isqrt, 16) == 3  # 16 -> 4 -> 2 -> 1
    rng = random.Random(40)
    ns = list(range(1, 2**12)) + [rng.randrange(1, 2**40 + 1) for _ in range(300)] + [2**40]
    for d in range(3, 9):
        for n in ns:
            assert lam(d, n) == f_star(lambda x: lam(d - 2, x), n), (d, n)


def test_lam_repeats_with_period_two_from_depth_seven():
    # lam reads a d above 8 as 7 or 8; the reference nests the star all the
    # way down, memoised, and agrees up to d = 16.
    memo = {}

    def reference(d, n):
        if d <= 2:
            return lam(d, n)
        if (d, n) not in memo:
            memo[d, n] = f_star(lambda x: reference(d - 2, x), n)
        return memo[d, n]

    rng = random.Random(41)
    ns = list(range(1, 2**10)) + [rng.randrange(1, 2**40 + 1) for _ in range(200)] + [2**40]
    for d in range(1, 17):
        for n in ns:
            assert lam(d, n) == reference(d, n), (d, n)
    # The values that pin lambda_7 and lambda_8 between them, as lam's
    # docstring states: both are nondecreasing in n.
    assert (lam(5, 4), lam(5, 2**40), lam(6, 5), lam(6, 2**40)) == (2, 3, 3, 4)
    assert [lam(7, n) for n in (1, 2, 3, 4, 2**40)] == [0, 1, 1, 2, 2]
    assert [lam(8, n) for n in (1, 2, 3, 4, 5, 2**40)] == [0, 1, 2, 2, 3, 3]
    # No depth is too deep: `sharecircuit lambda 800 5` once overflowed the
    # interpreter's stack.
    assert lam(800, 5) == lam(10**9, 2**40) == 3 and lam(10**9 + 1, 2**40) == 2


def test_lam_monotone_decreasing_in_d():
    # within a parity class the sequence is non-increasing in d
    for n in (5, 17, 100, 1024, 10**6):
        for d in range(1, 11):
            assert lam(d + 2, n) <= lam(d, n)


def test_lam_4_vs_log_star():
    assert [log_star(n) for n in (1, 2, 16, 65536)] == [0, 1, 3, 4]
    for n in range(3, 3000):
        assert lam(4, n) <= 2 * log_star(n)


def test_alpha_examples():
    assert alpha(32768, 256) == 1
    assert alpha(256, 256) == 3
    # m = 128 n takes the ratio test, and n * lam(1, n) > m moves it to d = 2.
    assert alpha(2_560_000, 20_000) == 2
    with pytest.raises(InvalidArguments):
        alpha(10, 20)


def test_alpha_wide_case_boundary():
    # m >= 128 n triggers the ratio test: smallest d with m >= n * lam(d, n)
    n = 256
    m = 128 * n
    d = alpha(m, n)
    assert m >= n * lam(d, n)
    assert all(m < n * lam(dd, n) for dd in range(1, d))


def test_alpha_narrow_case_boundary():
    # m < 128 n: smallest d with lam_d(n) <= 4
    for n in (5, 64, 1000, 4096):
        d = alpha(n, n)
        assert lam(d, n) <= 4
        assert all(lam(dd, n) > 4 for dd in range(1, d))


def test_alpha_weakly_decreasing_in_m():
    n = 300
    prev = None
    for m in (300, 600, 1200, 38400, 76800, 10**6, 10**8):
        a = alpha(m, n)
        if prev is not None and m >= 128 * n:
            assert a <= prev
        prev = a
