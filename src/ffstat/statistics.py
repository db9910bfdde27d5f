"""Counting objects over F_q[t]: censuses, totient, von Mangoldt sums.

Short intervals I(f, m) = f + {polynomials of degree <= m} and residue
classes {f + D*g} are the two enumeration domains.  Both are
specializations f + g*h, deg h <= m: the interval is g = 1, a contiguous
block of codes, and the degree-k members of f mod D are (f + D*t^r) + D*h
with deg h < r = k - deg D.  Every census takes one of two routes,
chosen by one rule in `census_tables`: a lookup of its members' codes
(listed by `tables.member_codes`) in the field's type tables, or
factoring each member, built by polynomial arithmetic, with `polyring`.
Tables already built are always used; new ones are built only when
importing numpy and sieving them is estimated to cost no more than
factoring every member.  The censuses of all q^k monic polynomials of
degree k, summed per interval by `block_sums` for `mean_variance_nu` and
`verify.scan_intervals`, take the same rule.  The two routes give the
same counts and are cross-checked in the tests.  `tables`, and with it
numpy, is imported only once the rule has picked the table route, so
totients, radical sets, the nu decomposition and every census that
factors never load it.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from ffstat import gf, polyring as pr
from ffstat.combinatorics import Partition, divisors, partitions_of
from ffstat.gf import DEFAULT_BUDGET, BudgetError, FieldSpec
from ffstat.polyring import Poly

if TYPE_CHECKING:  # annotations only
    import numpy as np

    from ffstat import tables


def check_center(f: Poly) -> None:
    """Reject an interval center that is not monic of degree >= 1."""
    if not f.is_monic:
        raise ValueError("interval center must be monic")
    if f.degree < 1:
        raise ValueError("interval center must have degree >= 1")


@dataclass(frozen=True)
class IntervalSpec:
    """The interval around a monic degree-k polynomial: all g with deg(f - g) <= m."""

    f: Poly
    m: int

    def __post_init__(self):
        check_center(self.f)
        if not 0 <= self.m < self.k:
            raise ValueError(f"m = {self.m} out of range 0..{self.k - 1}")

    @property
    def spec(self) -> FieldSpec:
        return self.f.spec

    @property
    def k(self) -> int:
        return self.f.degree

    @property
    def size(self) -> int:
        return self.spec.q ** (self.m + 1)

    def canonical(self) -> "IntervalSpec":
        """Representative with coefficients 0..m zeroed; same member set."""
        ci = list(self.f.ci)
        for i in range(self.m + 1):
            ci[i] = 0
        return IntervalSpec(Poly(self.spec, tuple(ci)), self.m)

    def base_code(self) -> int:
        """Shared top-coefficient block index: member codes are base*size .. base*size+size-1."""
        return pr.monic_code(self.f) // self.size

    def codes(self) -> range:
        """The q^{m+1} member codes, in order."""
        lo = self.base_code() * self.size
        return range(lo, lo + self.size)

    def members(self):
        """All q^{m+1} members in code order."""
        for code in self.codes():
            yield pr.monic_from_code(self.spec, self.k, code)


@dataclass(frozen=True)
class ProgressionSpec:
    """Monic degree-k members of the residue class f mod D."""

    D: Poly
    f: Poly
    k: int

    def __post_init__(self):
        if self.D.spec != self.f.spec:
            raise ValueError("modulus and residue over different fields")
        if not self.D.is_monic or self.D.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if not self.f.degree < self.D.degree:
            raise ValueError("residue must satisfy deg f < deg D (reduce f mod D first)")
        if pr.poly_gcd(self.f, self.D).degree != 0:
            raise ValueError("residue must be coprime to the modulus")
        if not self.k > self.D.degree:
            raise ValueError("target degree must exceed deg D")

    @property
    def spec(self) -> FieldSpec:
        return self.D.spec

    @property
    def size(self) -> int:
        return self.spec.q ** (self.k - self.D.degree)

    def members(self):
        """All f + D*g with g monic of degree k - deg D, in g-code order."""
        r = self.k - self.D.degree
        for g in pr.all_monic(self.spec, r):
            yield pr.poly_add(self.f, pr.poly_mul(self.D, g))

    def codes(self) -> np.ndarray:
        """Member codes in the order of `members`: the specialization (f + D*t^r) + D*h, deg h < r."""
        from ffstat import tables

        r = self.k - self.D.degree
        top = pr.poly_add(self.f, pr.poly_mul(self.D, pr.monomial(self.spec, r)))
        ft = gf.field_table(self.spec)
        return tables.member_codes(ft, top.ci, tables.multiplier_rows(ft, self.D.ci, r - 1, self.k))


@dataclass
class TypeCensus:
    """Counts per factorization type over an enumeration domain (zero counts omitted)."""

    k: int
    counts: dict[Partition, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, lam: Partition) -> int:
        return self.counts.get(lam, 0)

    def dense(self) -> list[tuple[Partition, int]]:
        """Every partition of k in canonical order, zeros included."""
        return [(lam, self.counts.get(lam, 0)) for lam in partitions_of(self.k)]


# ---------------------------------------------------------------------------
# The census engine
# ---------------------------------------------------------------------------

# The route rule compares two costs in microseconds.  The table route pays
# once for importing numpy and `tables`, then for sieving each of the
# q + q^2 + ... + q^k codes of degrees 1..k; the factoring route pays for
# each member.  `python tools/route_costs.py` measures all three in fresh
# processes.  Two runs on a 2-core x86 machine with Python 3.11.7 and numpy
# 2.4.6 gave a start-up of 104-110 ms and, at (q, k) in (2, 14), (3, 9),
# (5, 6), (9, 5), (7, 5), a sieve of 0.15-1.19 us a code (medians 0.23 and
# 0.25) and 187-402 us to factor a member (medians 216 and 223): a
# break-even of 325-1450 codes a member.  The constants are rounded
# medians.  Tables pay off from about 500 members, and past that while the
# sieve stays under about 880 codes a member.  These figures were taken
# when `polyring.factor` still split out every prime by equal-degree
# splitting.  On a faster 2-core machine with the same Python and numpy,
# that factorizer took medians of 99-129 us a member at these points, and
# the degree-only `factor` takes 82-83 us; all three constants are kept.
TABLE_START_US = 110_000
SIEVE_US_PER_CODE = 0.25
FACTOR_US_PER_MEMBER = 220


def census_tables(spec: FieldSpec, k: int, members: int, budget: int = DEFAULT_BUDGET) -> tables.PolyTables | None:
    """The route for a census of `members` monic degree-k polynomials.

    Returns type tables covering degree k, or None when each member is to
    be factored.  Tables already built are always used.  Otherwise they
    are built only when q^k fits the enumeration budget `budget` and
    building them costs no more than factoring every member:
    TABLE_START_US + SIEVE_US_PER_CODE * (q + ... + q^k) <= FACTOR_US_PER_MEMBER * members.
    The start-up is charged whether or not numpy is loaded yet, so the route
    depends only on (q, k, members) and the tables already built.  The rule
    is decided before `tables` is imported: a census that factors never
    loads numpy.
    """
    tables = sys.modules.get("ffstat.tables")  # no tables exist before the module is imported
    if tables is not None:
        pt = tables.cached_poly_tables(spec, k)
        if pt is not None:
            return pt
    q = spec.q
    table_us = TABLE_START_US + SIEVE_US_PER_CODE * sum(q**d for d in range(1, k + 1))
    if q**k > budget or table_us > FACTOR_US_PER_MEMBER * members:
        return None
    from ffstat import tables

    return tables.poly_tables(spec, k, budget)


def block_sums(spec: FieldSpec, k: int, block: int, budget: int, value, table_sums) -> list[int]:
    """Sums of `value(g)` over each run of `block` consecutive codes of the monic degree-k g.

    A census of all q^k members, by the route `census_tables` picks:
    `table_sums(tables)` returns the sums as an array read from type
    tables, or else `value` is called on every member in code order.
    `block` divides q^k, and the caller has checked q^k against `budget`.
    """
    qk = spec.q**k
    pt = census_tables(spec, k, qk, budget)
    if pt is not None:
        return table_sums(pt).tolist()
    values = map(value, pr.all_monic(spec, k))
    return [sum(islice(values, block)) for _ in range(qk // block)]


def _route(spec: FieldSpec, k: int, size: int, codes, members):
    """(tables, index of the members in their degree-k arrays), or (None, the members) when each is factored.

    `codes()` lists the `size` member codes (a range or an array) and
    `members()` yields them as polynomials; each is called only on its own
    route, so the factoring route builds no numpy array.
    """
    pt = census_tables(spec, k, size)
    if pt is None:
        return None, members()
    index = codes()
    if isinstance(index, range):  # an interval's block of codes, read as a view
        return pt, slice(index.start, index.stop)
    return pt, index


def _census(spec: FieldSpec, k: int, size: int, codes, members) -> TypeCensus:
    """Census of the factorization types of `size` monic degree-k polynomials, given as in `_route`."""
    parts = partitions_of(k)
    pt, index = _route(spec, k, size, codes, members)
    if pt is None:
        found = Counter(map(pr.factorization_type, index))
        counts = [found[lam] for lam in parts]
    else:
        counts = pt.degree_census(k, index).tolist()
    return TypeCensus(k, {lam: n for lam, n in zip(parts, counts) if n})


def specialization_counts(f: Poly, g: Poly, m: int) -> TypeCensus:
    """Census of factorization types of f + g*h over all h with deg h <= m.

    The h of degree <= m run over the q^{m+1} coefficient vectors
    (a_0, ..., a_m); every specialization keeps degree deg f, so the
    census totals q^{m+1}.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("polynomials over different fields")
    if m < 0:
        raise ValueError("m must be >= 0")
    if f.is_zero or g.is_zero:
        raise ValueError("f and g must be nonzero")
    if pr.poly_gcd(f, g).degree != 0:
        raise ValueError("f and g must be coprime")
    k = f.degree
    if not k > g.degree + m:
        raise ValueError("need deg f > deg g + m")
    # scaling by the inverse leading coefficient changes neither gcds nor types
    if not f.is_monic:
        scale = Poly(spec, (gf.field_table(spec).inv[f.ci[-1]],))
        f = pr.poly_mul(f, scale)
        g = pr.poly_mul(g, scale)
    if g.degree == 0:  # f + g*h runs over the whole interval around f
        interval = IntervalSpec(f, m)
        return _census(spec, k, interval.size, interval.codes, interval.members)
    q = spec.q

    def codes():
        from ffstat import tables

        ft = gf.field_table(spec)
        return tables.member_codes(ft, f.ci, tables.multiplier_rows(ft, g.ci, m, k))

    def members():  # h runs over the coefficient vectors (a_0, ..., a_m)
        for code in range(q ** (m + 1)):
            h = pr.poly_from_indices(spec, pr.code_to_coeffs(code, m + 1, q)[:-1])
            yield pr.poly_add(f, pr.poly_mul(g, h))

    return _census(spec, k, q ** (m + 1), codes, members)


def interval_counts(interval: IntervalSpec) -> TypeCensus:
    """Census over a short interval; the entry at (k) is the prime count."""
    return specialization_counts(interval.f, pr.one_poly(interval.spec), interval.m)


def progression_counts(prog: ProgressionSpec) -> TypeCensus:
    """Census over the monic degree-k members of a residue class."""
    return _census(prog.spec, prog.k, prog.size, prog.codes, prog.members)


# ---------------------------------------------------------------------------
# Totient and von Mangoldt
# ---------------------------------------------------------------------------

def poly_totient(d: Poly) -> int:
    """Number of units in F_q[t]/(d): q^{deg d} * prod_{P | d} (1 - q^{-deg P})."""
    if d.is_zero:
        raise ValueError("totient of the zero polynomial")
    q = d.spec.q
    result = 1
    for deg, mult in pr.factor(d):
        result *= q ** (deg * (mult - 1)) * (q**deg - 1)
    return result


def von_mangoldt(g: Poly) -> int:
    """deg P when g is a unit times P^e (P irreducible, e >= 1); otherwise 0."""
    if g.is_zero:
        raise ValueError("von Mangoldt of the zero polynomial")
    fact = pr.factor(g)
    return fact[0][0] if len(fact) == 1 else 0


def nu(f: Poly, m: int) -> int:
    """Sum of the von Mangoldt function over interval members with nonzero constant term."""
    check_center(f)
    k = f.degree
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    interval = IntervalSpec(f, m)
    pt, index = _route(f.spec, k, interval.size, interval.codes, interval.members)
    total = sum(map(von_mangoldt, index)) if pt is None else int(pt.lambda_table(k)[index].sum())
    # the only prime power with zero constant term is t^k (code 0, Lambda = 1)
    return total - (interval.base_code() == 0)


def mean_variance_nu(spec: FieldSpec, k: int, m: int, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of nu(.; m) over all monic degree-k polynomials.

    One pass over M(k, q): members of a common interval share their nu
    value, so the q^k centers reduce to q^{k-m-1} interval sums each
    weighted by q^{m+1}.
    """
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    if spec.q**k > budget:
        raise BudgetError(f"q^k = {spec.q**k} exceeds the enumeration budget {budget}")
    block = spec.q ** (m + 1)
    sums = block_sums(spec, k, block, budget, von_mangoldt, lambda pt: pt.lambda_block_sums(k, block))
    sums[0] -= 1  # t^k lies in the base-0 interval and is filtered out
    n_blocks = len(sums)
    s1 = sum(sums)
    s2 = sum(s * s for s in sums)
    qk = spec.q**k
    mean = Fraction(block * s1, qk)
    var = (Fraction(s2) - 2 * mean * s1 + n_blocks * mean * mean) * Fraction(block, qk)
    return mean, var


# ---------------------------------------------------------------------------
# Radical sets and the nu decomposition
# ---------------------------------------------------------------------------

def radical_set(interval: IntervalSpec, d: int) -> list[Poly]:
    """All monic g of degree k/d with g^d in the interval, in code order."""
    k = interval.k
    if d <= 1 or k % d != 0:
        raise ValueError(f"d = {d} must be a divisor of k = {k} greater than 1")
    spec = interval.spec
    base = interval.base_code()
    size = interval.size
    out = []
    for g in pr.all_monic(spec, k // d):
        power = pr.poly_pow(g, d)
        if pr.monic_code(power) // size == base:
            out.append(g)
    return out


@dataclass(frozen=True)
class NuDecomposition:
    """nu(f; m) split into prime, proper prime-power and t^k contributions."""

    k_pi: int
    proper_terms: dict[int, int]
    epsilon: int
    reconstructed: int


def nu_decomposition(f: Poly, m: int) -> NuDecomposition:
    """Independent reconstruction of nu(f, m) from interval prime counts.

    reconstructed = k*pi(I) + sum over divisors 1 < d <= k of
    (k/d)*pi(I^{1/d}), minus epsilon = 1 when t^k lies in the interval:
    t^k is the unique prime power in a degree-k interval with vanishing
    constant term, so the constant-term filter in nu removes exactly
    epsilon.  (Verified against direct enumeration; the sign is pinned
    by the q=2, k=2, m=1 case where the filtered sum is 3 = 4 - 1.)
    """
    check_center(f)
    k = f.degree
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    interval = IntervalSpec(f, m).canonical()
    k_pi = k * sum(1 for g in interval.members() if pr.is_irreducible(g))
    proper: dict[int, int] = {}
    for d in divisors(k):
        if d == 1:
            continue
        rad = radical_set(interval, d)
        pi_rad = sum(1 for g in rad if pr.is_irreducible(g))
        proper[d] = (k // d) * pi_rad
    epsilon = 1 if interval.base_code() == 0 else 0
    reconstructed = k_pi + sum(proper.values()) - epsilon
    return NuDecomposition(k_pi=k_pi, proper_terms=proper, epsilon=epsilon, reconstructed=reconstructed)
