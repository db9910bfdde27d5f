"""Partitions, the S_k cycle-type law, and exact counting oracles.

All probabilities are exact `Fraction`s; counting formulas return Python
integers and are valid without overflow at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

PARTITION_BOUND = 30


@dataclass(frozen=True)
class Partition:
    """Nonincreasing tuple of positive parts; text form "p1+p2+...+pr"."""

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
