"""Exact arithmetic and dense linear algebra over a prime field GF(p)."""

from functools import lru_cache

from . import _kernels
from .errors import IndexOutOfRange, InvalidArguments, SingularMatrix, quote

# Word-size Mersenne prime; large enough for the synthesizer's
# Schwartz-Zippel failure bound at any desk-scale (depth, n, t).
DEFAULT_PRIME = 2**61 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all 13 bases above (Sorenson and Webster,
# 2017), 1,287,836,182,261 x 2,575,672,364,521: Miller-Rabin to them is exact
# below it.
MR_BOUND = 3_317_044_064_679_887_385_961_981


# Every FieldModulus checks its p, and a deal reads three of them; a program
# meets few distinct moduli, so the 13 exponentiations run once per modulus.
@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly: below MR_BOUND (about 3.3e24) by
    Miller-Rabin to the 13 prime bases 2..41, and from it on by the
    Lucas-Lehmer test, which decides the Mersenne numbers 2^k - 1. Raises
    InvalidArguments for every other n >= MR_BOUND, which no test here can
    prove prime."""
    if n >= MR_BOUND:
        k = n.bit_length()
        if n != (1 << k) - 1:
            raise InvalidArguments(
                f"modulus {quote(n)} is at least {MR_BOUND}, from where only a Mersenne "
                "prime 2^k - 1 is accepted, as only its primality is proved"
            )
        # Lucas-Lehmer: with s_0 = 4 and s_(i+1) = s_i^2 - 2 mod n, n is
        # prime iff s_(k-2) = 0. Its proof that s_(k-2) = 0 makes n prime
        # holds for every k > 2, so a composite k needs no test of its own.
        x = 4
        for _ in range(k - 2):
            x = (x * x - 2) % n
        return x == 0
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frozen:
    """Base of the frozen value classes. A subclass names its fields in
    `_fields`, and its `__init__` sets them once by `Frozen.__init__`; after
    that, assigning or deleting any attribute raises AttributeError.
    Equality, hashing and repr see the fields only, and a value equals only
    a value of its own class. A `cached_property` writes the instance dict
    directly, so it still caches on a frozen value."""

    _fields = ()

    def __init__(self, *values):
        vars(self).update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class FieldModulus(Frozen):
    _fields = ("p",)

    def __init__(self, p: int):
        super().__init__(p)
        if p < 3:
            raise InvalidArguments(f"modulus must be >= 3, got {quote(p)}")
        if not is_prime(p):
            raise InvalidArguments(f"modulus {quote(p)} is not prime")


class Matrix(Frozen):
    """Dense row-major matrix with entries in [0, p)."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        super().__init__(rows, cols, entries)
        if len(entries) != rows * cols:
            raise InvalidArguments(f"entry count {len(entries)} != {rows}x{cols}")

    def at(self, r: int, c: int) -> int:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols : (r + 1) * self.cols]


def mat_rank(m: Matrix, modulus: FieldModulus) -> int:
    return _kernels.gf_rank(m.rows, m.cols, list(m.entries), modulus.p)


def mat_inverse(m: Matrix, modulus: FieldModulus) -> Matrix:
    """Gauss-Jordan inverse; raises SingularMatrix below full rank."""
    if m.rows != m.cols:
        raise InvalidArguments("inverse requires a square matrix")
    n = m.rows
    p = modulus.p
    aug = [list(m.row(r)) + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if pivot is None:
            raise SingularMatrix(f"matrix is singular at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p != 0:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], aug[col])]
    flat = []
    for r in range(n):
        flat.extend(aug[r][n:])
    return Matrix(n, n, tuple(flat))


def check_indices(name: str, idx, bound: int) -> None:
    """Require a strictly increasing index sequence inside [0, bound)."""
    prev = -1
    for i in idx:
        if not 0 <= i < bound:
            raise IndexOutOfRange(f"{name} index {i} out of range [0, {bound})")
        if i <= prev:
            raise IndexOutOfRange(f"{name} indices must be strictly increasing")
        prev = i


def submatrix(m: Matrix, row_idx, col_idx) -> Matrix:
    """Slice by strictly increasing row and column index sequences."""
    check_indices("row", row_idx, m.rows)
    check_indices("col", col_idx, m.cols)
    flat = [m.at(r, c) for r in row_idx for c in col_idx]
    return Matrix(len(row_idx), len(col_idx), tuple(flat))


def mat_vec(m: Matrix, vec, modulus: FieldModulus) -> list:
    if len(vec) != m.cols:
        raise InvalidArguments("vector length does not match column count")
    p = modulus.p
    return [
        sum(m.at(r, c) * vec[c] for c in range(m.cols)) % p for r in range(m.rows)
    ]
