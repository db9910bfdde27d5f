"""Partitions, the S_k cycle-type law, and exact counting oracles.

All probabilities are exact `Fraction`s; counting formulas return Python
integers and are valid without overflow at any size.  `Record` and
`FrozenRecord` are the package's plain value classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

PARTITION_BOUND = 30


class Record:
    """A mutable value record whose fields are its class's `__slots__`, in order, each also annotated.

    Fields are given by position or by name, and one given neither way takes
    its value in the class's `_defaults`.  `__post_init__` then checks them.
    Two records are equal when they are of one class with equal fields, and a
    record prints as `Name(field=value, ...)`.  No source is generated or
    compiled per class: defining one builds only the getter behind `_values`.
    """

    __slots__ = ()
    _defaults: dict = {}
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:  # `_values`: every field in one C call, for equality and hashing
            get = attrgetter(*cls.__slots__)
            cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *values, **named):
        cls = type(self)
        names = cls.__slots__
        if named or len(values) != len(names):
            given = dict(cls._defaults, **dict(zip(names, values)), **named)
            if len(values) > len(names) or sorted(given) != sorted(names):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
            values = [given[name] for name in names]
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other is self:  # the common case: every polynomial of a field holds one FieldSpec
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A `Record` that refuses assignment and hashes as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(FrozenRecord):
    """Nonincreasing tuple of positive parts; text form "p1+p2+...+pr"."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty partition")
        prev = None
        for part in self.parts:
            if part < 1:
                raise ValueError(f"part {part} must be >= 1")
            if prev is not None and part > prev:
                raise ValueError("parts must be nonincreasing")
            prev = part

    @property
    def k(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        mults: dict[int, int] = {}
        for part in self.parts:
            mults[part] = mults.get(part, 0) + 1
        return mults

    def __str__(self) -> str:
        return "+".join(str(part) for part in self.parts)


@lru_cache(maxsize=None)
def _partition_tuples(k: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    out = []
    for first in range(min(k, cap), 0, -1):
        for rest in _partition_tuples(k - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(k: int) -> list[Partition]:
    """All partitions of k in reverse-lexicographic order: (k) first, (1,...,1) last."""
    if not 1 <= k <= PARTITION_BOUND:
        raise ValueError(f"k = {k} out of range 1..{PARTITION_BOUND}")
    return [Partition(t) for t in _partition_tuples(k, k)]


def cycle_type_probability(lam: Partition) -> Fraction:
    """Probability that a uniform permutation of S_k has cycle type lam.

    Equals 1 / prod_i (i^{m_i} * m_i!) where m_i is the multiplicity of
    part i; the denominator counts the centralizer of any permutation of
    that type.
    """
    denom = 1
    for part, mult in lam.multiplicities().items():
        denom *= part**mult * math.factorial(mult)
    return Fraction(1, denom)


def frac_str(fr: Fraction) -> str:
    """A rational in the report's text form "num/den"."""
    return f"{fr.numerator}/{fr.denominator}"


def moebius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def exact_prime_count(q: int, k: int) -> int:
    """Number of monic irreducibles of degree k over F_q: (1/k) sum_{d|k} mu(d) q^{k/d}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(moebius(d) * q ** (k // d) for d in divisors(k))
    assert total % k == 0
    return total // k


def exact_type_count(q: int, k: int, lam: Partition) -> int:
    """Number of monic degree-k polynomials over F_q with factorization type lam.

    A polynomial of type lam is a multiset of irreducibles, m_i of each
    part size i, so the count is prod_i C(pi_q(i) + m_i - 1, m_i).
    """
    if lam.k != k:
        raise ValueError(f"{lam} is not a partition of {k}")
    count = 1
    for part, mult in lam.multiplicities().items():
        count *= math.comb(exact_prime_count(q, part) + mult - 1, mult)
    return count
