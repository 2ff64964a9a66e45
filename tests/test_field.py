import random

import pytest

from sharecircuit.errors import (
    IndexOutOfRange,
    InvalidArguments,
    SingularMatrix,
)
from sharecircuit.field import (
    MR_BOUND,
    FieldModulus,
    Matrix,
    is_prime,
    mat_inverse,
    mat_rank,
    submatrix,
)

GF7 = FieldModulus(7)


def test_matrix_refuses_an_entry_count_off_its_shape():
    with pytest.raises(InvalidArguments, match=r"entry count 3 != 2x2"):
        Matrix(2, 2, (1, 2, 3))


def test_field_values_are_frozen_and_compare_by_their_fields():
    for value, name in ((FieldModulus(7), "p"), (Matrix(1, 2, (3, 4)), "entries")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    for a, b in ((FieldModulus(7), FieldModulus(7)), (Matrix(1, 2, (3, 4)), Matrix(1, 2, (3, 4)))):
        assert a is not b and a == b and hash(a) == hash(b)
    assert FieldModulus(7) != (7,) and (7,) != FieldModulus(7) and FieldModulus(7) != 7
    assert FieldModulus(7) != FieldModulus(11) and Matrix(1, 2, (3, 4)) != Matrix(2, 1, (3, 4))
    assert repr(FieldModulus(7)) == "FieldModulus(p=7)"
    assert repr(Matrix(1, 2, (3, 4))) == "Matrix(rows=1, cols=2, entries=(3, 4))"


def identity(n):
    return Matrix(n, n, tuple(int(r == c) for r in range(n) for c in range(n)))


def mat_mul(a, b, p):
    """Schoolbook product over GF(p), the oracle for mat_inverse."""
    return Matrix(a.rows, b.cols, tuple(
        sum(a.at(r, k) * b.at(k, c) for k in range(a.cols)) % p
        for r in range(a.rows) for c in range(b.cols)
    ))


def test_modulus_rejects_composite_and_small():
    with pytest.raises(InvalidArguments):
        FieldModulus(9)
    with pytest.raises(InvalidArguments):
        FieldModulus(2)
    assert FieldModulus(2**61 - 1).p == 2**61 - 1


def test_modulus_rejects_a_strong_pseudoprime_to_the_bases_up_to_37():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    with pytest.raises(InvalidArguments):
        FieldModulus(n)


def test_modulus_from_the_miller_rabin_bound_on_needs_a_proof():
    # The least strong pseudoprime to the 13 bases 2..41 passes Miller-Rabin;
    # a circuit over it once proved a scheme whose shares cannot be opened.
    n = 1_287_836_182_261 * 2_575_672_364_521
    assert n == MR_BOUND
    named = f"modulus {n} is at least {MR_BOUND}"
    with pytest.raises(InvalidArguments, match=named):
        FieldModulus(n)
    # From there on only a Mersenne number has a proof here (Lucas-Lehmer),
    # so the prime 2^255 - 19 is refused too, as is every other number.
    for other in (2**255 - 19, MR_BOUND + 2):
        with pytest.raises(InvalidArguments, match=f"is at least {MR_BOUND}"):
            FieldModulus(other)
    for k in (89, 107, 127, 521):
        assert FieldModulus(2**k - 1).p == 2**k - 1
    # 2^83 - 1 = 167 * 57912614113275649087721, and 2^85 - 1 has the factor 31.
    for composite in (2**83 - 1, 2**85 - 1):
        assert not is_prime(composite)
        with pytest.raises(InvalidArguments, match="is not prime"):
            FieldModulus(composite)
    # Every modulus the tests and the benchmark use is still accepted.
    for p in (3, 5, 7, 11, 13, 101, 10007, 2**31 - 1, 2**61 - 1, 2**64 - 59,
              2**89 - 1, 2**127 - 1, 2**521 - 1):
        assert FieldModulus(p).p == p


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_a_second_modulus_reuses_the_primality_check():
    FieldModulus(2**61 - 1)
    hits = is_prime.cache_info().hits
    FieldModulus(2**61 - 1)
    assert is_prime.cache_info().hits == hits + 1


def test_rank_examples():
    assert mat_rank(identity(3), GF7) == 3
    assert mat_rank(Matrix(2, 4, (0,) * 8), GF7) == 0
    m = Matrix(3, 2, (1, 1, 1, 2, 1, 3))
    # oracle: no row is a scalar multiple of another and a 2x2 minor is
    # nonzero mod 7, so rank is exactly 2
    assert (1 * 2 - 1 * 1) % 7 != 0
    assert mat_rank(m, GF7) == 2


def test_inverse_examples():
    assert mat_inverse(identity(4), GF7).entries == identity(4).entries
    m = Matrix(2, 2, (1, 1, 1, 2))
    inv = mat_inverse(m, GF7)
    assert inv.entries == (2, 6, 6, 1)
    assert mat_mul(m, inv, 7).entries == identity(2).entries
    with pytest.raises(SingularMatrix):
        mat_inverse(Matrix(2, 2, (1, 1, 2, 2)), GF7)


def test_submatrix_examples():
    m = Matrix(2, 2, (4, 5, 6, 7))
    assert submatrix(m, [0, 1], [0, 1]).entries == m.entries
    assert submatrix(m, [0], [0]).entries == (4,)
    m3 = Matrix(3, 2, (1, 2, 3, 4, 5, 6))
    assert submatrix(m3, [0, 2], [1]).entries == (2, 6)


def test_submatrix_index_errors():
    m = Matrix(2, 2, (1, 2, 3, 4))
    with pytest.raises(IndexOutOfRange):
        submatrix(m, [0, 2], [0])
    with pytest.raises(IndexOutOfRange):
        submatrix(m, [1, 0], [0])


def _random_matrix(rng, rows, cols, p):
    return Matrix(rows, cols, tuple(rng.randrange(p) for _ in range(rows * cols)))


def test_inverse_times_matrix_is_identity_100_seeds():
    p = 10007
    mod = FieldModulus(p)
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        a = _random_matrix(rng, n, n, p)
        if mat_rank(a, mod) != n:
            continue
        hits += 1
        assert mat_mul(a, mat_inverse(a, mod), p).entries == identity(n).entries
    assert hits > 50


def test_rank_equals_rank_of_transpose():
    mod = FieldModulus(13)
    for seed in range(30):
        rng = random.Random(seed)
        rows, cols = rng.randrange(1, 21), rng.randrange(1, 21)
        a = _random_matrix(rng, rows, cols, 13)
        at = Matrix(cols, rows, tuple(a.at(r, c) for c in range(cols) for r in range(rows)))
        assert mat_rank(a, mod) == mat_rank(at, mod)


def test_rank_invariant_under_row_swap_and_scaling():
    mod = FieldModulus(11)
    for seed in range(20):
        rng = random.Random(1000 + seed)
        rows, cols = rng.randrange(2, 10), rng.randrange(1, 10)
        a = _random_matrix(rng, rows, cols, 11)
        base = mat_rank(a, mod)
        r1, r2 = rng.sample(range(rows), 2)
        rows_list = [list(a.row(r)) for r in range(rows)]
        rows_list[r1], rows_list[r2] = rows_list[r2], rows_list[r1]
        scale = rng.randrange(1, 11)
        rows_list[r1] = [x * scale % 11 for x in rows_list[r1]]
        flat = tuple(x for row in rows_list for x in row)
        assert mat_rank(Matrix(rows, cols, flat), mod) == base
