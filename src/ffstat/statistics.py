"""Counting objects over F_q[t]: censuses, totient, von Mangoldt sums.

Short intervals I(f, m) = f + {polynomials of degree <= m} and residue
classes {f + D*g} are the two enumeration domains.  Both are
specializations f + g*h, deg h <= m: the interval is g = 1, a contiguous
block of codes, and the degree-k members of f mod D are (f + D*t^r) + D*h
with deg h < r = k - deg D, listed by `tables.member_codes`.  Every
census lists its members' codes and takes one of two routes, chosen by
one rule in `census_tables`: a lookup in the field's type tables, or
factoring each member with `polyring`.  Tables already built are always
used; new ones are built only when sieving them costs at most
TABLE_COST_RATIO codes per member.  The two routes give the same counts
and are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ffstat import gf, polyring as pr, tables
from ffstat.combinatorics import Partition, divisors, partitions_of
from ffstat.gf import FieldSpec
from ffstat.polyring import Poly
from ffstat.tables import DEFAULT_BUDGET, BudgetError


@dataclass(frozen=True)
class IntervalSpec:
    """The interval around a monic degree-k polynomial: all g with deg(f - g) <= m."""

    f: Poly
    m: int

    def __post_init__(self):
        if not self.f.is_monic:
            raise ValueError("interval center must be monic")
        k = self.f.degree
        if k < 1:
            raise ValueError("interval center must have degree >= 1")
        if not 0 <= self.m < k:
            raise ValueError(f"m = {self.m} out of range 0..{k - 1}")

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

    def contains(self, g: Poly) -> bool:
        if g.spec != self.spec or not g.is_monic or g.degree != self.k:
            return False
        return pr.monic_code(g) // self.size == self.base_code()


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
        r = self.k - self.D.degree
        top = pr.poly_add(self.f, pr.poly_mul(self.D, pr.monomial(self.spec, r)))
        return tables.member_codes(tables.field_table(self.spec), top.ci, self.D.ci, r - 1)


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

# Building type tables sieves every monic code of degree 1..k.  On a 2-core
# x86 machine with Python 3.11 a code costs 2.6-7.8 us to sieve and a
# member 120-330 us to factor (q in {2,3,5,7,9}, q^k up to 3^9), so tables
# break even at 37-74 codes a member.  A smaller ratio keeps the tables,
# and the memory they take, to queries that clearly repay them.
TABLE_COST_RATIO = 8


def census_tables(spec: FieldSpec, k: int, members: int) -> tables.PolyTables | None:
    """The route for a census of `members` monic degree-k polynomials.

    Returns type tables covering degree k, or None when each member is to
    be factored.  Tables already built are always used.  Otherwise they
    are built only when they fit the enumeration budget and sieving every
    code of degree 1..k costs at most TABLE_COST_RATIO codes per member.
    """
    pt = tables.cached_poly_tables(spec, k)
    if pt is not None:
        return pt
    q = spec.q
    if q**k > DEFAULT_BUDGET or sum(q**d for d in range(1, k + 1)) > TABLE_COST_RATIO * members:
        return None
    return tables.poly_tables(spec, k)


def _member_values(spec: FieldSpec, k: int, codes: range | np.ndarray, table, of_member):
    """One integer per member code: `table(pt)[codes]` on the table route, else `of_member` of each member."""
    pt = census_tables(spec, k, len(codes))
    if pt is None:  # members are built from Python ints, not numpy scalars
        return [of_member(pr.monic_from_code(spec, k, c)) for c in map(int, codes)]
    if isinstance(codes, range):  # an interval's block of codes, read as a view
        codes = slice(codes.start, codes.stop)
    return table(pt)[codes]


def _census(spec: FieldSpec, k: int, codes: range | np.ndarray) -> TypeCensus:
    """Factorization-type census of the monic degree-k polynomials with these codes."""
    parts = partitions_of(k)
    pid = {lam: i for i, lam in enumerate(parts)}
    ids = _member_values(spec, k, codes, lambda pt: pt.types[k], lambda g: pid[pr.factorization_type(g)])
    counts = np.bincount(ids, minlength=len(parts)).tolist()
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
        scale = pr.constant_poly(spec, gf.fe_inv(spec, f.leading()))
        f = pr.poly_mul(f, scale)
        g = pr.poly_mul(g, scale)
    if g.degree == 0:  # f + g*h runs over the whole interval around f
        return _census(spec, k, IntervalSpec(f, m).codes())
    return _census(spec, k, tables.member_codes(tables.field_table(spec), f.ci, g.ci, m))


def interval_counts(interval: IntervalSpec) -> TypeCensus:
    """Census over a short interval; the entry at (k) is the prime count."""
    return specialization_counts(interval.f, pr.one_poly(interval.spec), interval.m)


def progression_counts(prog: ProgressionSpec) -> TypeCensus:
    """Census over the monic degree-k members of a residue class."""
    return _census(prog.spec, prog.k, prog.codes())


# ---------------------------------------------------------------------------
# Totient and von Mangoldt
# ---------------------------------------------------------------------------

def poly_totient(d: Poly) -> int:
    """Number of units in F_q[t]/(d): q^{deg d} * prod_{P | d} (1 - q^{-deg P})."""
    if d.is_zero:
        raise ValueError("totient of the zero polynomial")
    q = d.spec.q
    result = 1
    for prime, mult in pr.factor(d).factors:
        deg = prime.degree
        result *= q ** (deg * (mult - 1)) * (q**deg - 1)
    return result


def von_mangoldt(g: Poly) -> int:
    """deg P when g is a unit times P^e (P irreducible, e >= 1); otherwise 0."""
    if g.is_zero:
        raise ValueError("von Mangoldt of the zero polynomial")
    if g.degree < 1:
        return 0
    fact = pr.factor(g)
    if len(fact.factors) != 1:
        return 0
    return fact.factors[0][0].degree


def nu(f: Poly, m: int) -> int:
    """Sum of the von Mangoldt function over interval members with nonzero constant term."""
    k = f.degree
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    codes = IntervalSpec(f, m).codes()
    values = _member_values(f.spec, k, codes, lambda pt: pt.lambda_table(k), von_mangoldt)
    # the only prime power with zero constant term is t^k (code 0, Lambda = 1)
    return int(np.sum(values)) - (codes[0] == 0)


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
    pt = tables.poly_tables(spec, k, budget)
    block = spec.q ** (m + 1)
    sums = pt.lambda_block_sums(k, block).tolist()
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
