"""Counting objects over F_q[t]: censuses, totient, von Mangoldt sums.

Short intervals I(f, m) = f + {polynomials of degree <= m} and residue
classes {f + D*g} are the two enumeration domains.  Both are
specializations f + g*h, deg h <= m: the interval is g = 1, a contiguous
block of codes, and the degree-k members of f mod D are (f + D*t^r) + D*h
with deg h < r = k - deg D.  One private engine, `_specializations`,
lists both, for one of two member routes: a lookup of the members' codes
(from `tables.member_codes`) in the field's type tables, or factoring
each member, built by polynomial arithmetic, with `polyring`.  A residue
class has a third route that lists no members: `ResidueRing` counts
every class mod D at once in the monoid ring Z[F_q[t]/D], from the zeta
function of F_q[t], at a cost set by deg D rather than by the
q^(k - deg D) members.  An interval I(f; m) takes the same route in the
ring of the principal units mod t^(k - m) (`ResidueRing.principal_units`):
the reversal g -> t^k g(1/t) sends its members with nonzero constant term
to one class there, and those exactly divisible by t^j, j <= m, to the
same class at degree k - j, so one ring and one psi vector count every
interval of degree k at once; the one member t^(m+1) F with no such
image is factored alone.

Prime counts of an interval alone, for the nu decomposition and the
counterexamples of `verify`, take no route: `interval_prime_count`
strikes out every member with an irreducible factor of degree <= m + 1,
for all such factors at once over lists of digits (`_strike`), and tests
what is left with Rabin's test only when k // 2 > m + 1.  The same
striking over all monic polynomials of degree d leaves the irreducibles
of degree d (`irreducible_codes`).

One rule, `census_route`, picks the route of every census, in one order:
tables already built to degree k; else the ring, when its pair products
fit the budget and it is priced cheapest, in microseconds; else, for an
interval scan of one type, the strike route, when its work fits the
budget and it is priced no dearer than tables or factoring; else new
tables, when importing numpy and sieving them is estimated to cost no
more than factoring every member; else factoring.  A census with a ring
passes its price lazily, so a census on built tables never prices one:
`interval_route` for intervals, in the ring mod t^(k - m),
`progression_route` for residue classes and `scan_route` for interval
scans, which also passes the typed routes' work (`scan_work`), each
returning the work of the route taken, which is what the budget bounds.
The censuses of all q^k monic polynomials of degree k, summed per
interval by `block_sums` for `mean_variance_nu` and
`verify.scan_intervals`, and the progression scans of `verify` take the
same rule.  An interval scan of one type lam needs only the members of
that type, products of irreducibles whose degrees are lam's parts: the
strike route (`strike_block_counts`) lists the irreducibles by striking
and multiplies the members in pure Python, and the table route without
tables built to degree k lists them from tables up to lam's largest
part.  The routes give the same counts and are cross-checked in the
tests.  `tables`, and with it numpy, is imported only once the rule has
picked the table route, so totients, radical sets, the nu decomposition,
every ring census, every struck scan and every census that factors never
load it: an interval census loads numpy only when its ring mod t^(k - m)
is priced dearer than tables, that is when k - m is large and so are the
members, or when its pair products exceed the budget, and an interval
scan only when, besides, the strike route is priced dearer, that is when
lam has a large part or many members.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from ffstat import gf, polyring as pr
from ffstat.combinatorics import (FrozenRecord, Partition, Record, divisors, exact_prime_count, exact_type_count,
                                  partitions_of)
from ffstat.gf import DEFAULT_BUDGET, BudgetError, FieldSpec
from ffstat.polyring import Poly

def check_center(f: Poly) -> None:
    """Reject an interval center that is not monic of degree >= 1."""
    if not f.is_monic:
        raise ValueError("interval center must be monic")
    if f.degree < 1:
        raise ValueError("interval center must have degree >= 1")


class IntervalSpec(FrozenRecord):
    """The interval around a monic degree-k polynomial: all g with deg(f - g) <= m."""

    __slots__ = ("f", "m")
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

    def base_code(self) -> int:
        """Shared top-coefficient block index: member codes are base*size .. base*size+size-1."""
        return pr.monic_code(self.f) // self.size

    def codes(self) -> range:
        """The q^{m+1} member codes, in order."""
        lo = self.base_code() * self.size
        return range(lo, lo + self.size)


class ProgressionSpec(FrozenRecord):
    """Monic degree-k members of the residue class f mod D."""

    __slots__ = ("D", "f", "k")
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


class TypeCensus(Record):
    """Counts per factorization type over an enumeration domain (zero counts omitted)."""

    __slots__ = ("k", "counts")
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

# `census_route` compares the routes' costs in microseconds.  The table
# route pays once for importing numpy and `tables`, then for sieving each
# of the q + q^2 + ... + q^k codes of degrees 1..k (for an interval scan
# of one type, up to its largest part, and a product a member and part);
# the factoring route pays for each member; the ring route pays for each
# pair product it may multiply, q^(2 delta) for R's multiplication table
# and for each convolution, in pure Python, so it has no start-up.  The
# ring of principal units, which counts intervals, is priced with the
# same constant, which over-prices it (ROADMAP item 5).  The strike route
# of an interval scan pays, in pure Python, for each code it strikes and
# each product it makes (`scan_work`); its constant is the striking's,
# which is dearer than its products.  `python tools/route_costs.py`
# measures them all.
TABLE_START_US = 110_000
SIEVE_US_PER_CODE = 0.25
FACTOR_US_PER_MEMBER = 220
RING_US_PER_PRODUCT = 0.12
STRIKE_US_PER_CODE = 1.0


def census_route(spec: FieldSpec, k: int, members: int | None = None, products: Callable[[], int] | None = None,
                 budget: int = DEFAULT_BUDGET, typed: Callable[[], tuple[int, int, int]] | None = None) -> str:
    """The route of a census of monic degree-k polynomials: "ring", "strike", "tables" or "factor".

    `members` is how many a census would factor, None for a progression
    scan, which never factors; `products`, where a residue ring can count
    the census, is a function returning the ring's pair products
    (`ring_products`, `interval_products`), else None; `typed`, for an
    interval scan of one type, is a function returning `scan_work`: the
    codes struck and products made on the strike route, the codes
    sieved and products made on the table route, and the cells, whose
    counts both keep.  The first that holds:

    - "tables" when tables covering degree k are already built, since a
      lookup in them costs far less than factoring or any ring;
    - "ring" when its pair products fit the enumeration budget `budget`
      and RING_US_PER_PRODUCT * products costs no more than any other
      route priced here;
    - "strike" when its work and the cells fit `budget` and
      STRIKE_US_PER_CODE * its work costs no more than the tables, nor
      than factoring `members`;
    - "tables" for a progression scan, or when q^k (for a typed scan, the
      work and the cells) fits `budget` and building them costs no more
      than factoring every member:
      TABLE_START_US + SIEVE_US_PER_CODE * (q + ... + q^k) <= FACTOR_US_PER_MEMBER * members,
      or the table route's work in place of q + ... + q^k;
    - "factor".

    `products` and `typed` are called only when no built tables cover
    degree k.  The start-up is charged whether or not numpy is loaded
    yet, so the route depends only on the query, the budget and the
    tables already built.  The cells are priced on no route, since each
    keeps one count a cell.  The rule builds and imports nothing: a
    caller on "tables" reads them from `tables.poly_tables`, and a census
    that factors, strikes or counts in the ring never loads numpy.
    """
    if _tables_built(spec, k):
        return "tables"
    factor_us = math.inf if members is None else FACTOR_US_PER_MEMBER * members
    strike_us = math.inf
    if typed is None:
        sieved, table_work = sum(spec.q**d for d in range(1, k + 1)), spec.q**k
    else:
        struck, sieved, cells = typed()
        table_work = sieved + cells
        if struck + cells <= budget:
            strike_us = STRIKE_US_PER_CODE * struck
    table_us = TABLE_START_US + SIEVE_US_PER_CODE * sieved
    if products is not None:
        pairs = products()
        if pairs <= budget and RING_US_PER_PRODUCT * pairs <= min(table_us, strike_us, factor_us):
            return "ring"
    if strike_us <= min(table_us, factor_us):
        return "strike"
    if members is None or (table_work <= budget and table_us <= factor_us):
        return "tables"
    return "factor"


def _tables_built(spec: FieldSpec, k: int) -> bool:
    """Whether tables covering degree k are built, without importing `tables`."""
    tables = sys.modules.get("ffstat.tables")  # none are built before it is imported
    return tables is not None and tables.cached_poly_tables(spec, k) is not None


def block_sums(spec: FieldSpec, k: int, m: int, route: str, value, ring_vector, table_sums) -> list[int]:
    """Per-interval sums over the monic degree-k g, one for each I(f; m) in base-code order, on `route`.

    On "ring", `ring_vector(ring)` is handed `ResidueRing.principal_units(spec,
    k - m)` and returns a vector over its classes, read at each interval's
    class.  On "tables", `table_sums(tables)` is handed the `tables`
    module, builds or reads the type tables it needs and returns the sums
    as an array.  Otherwise `value(g)` is summed over every member in code
    order.  The caller has picked the route (`interval_route`,
    `scan_route`) and checked its budget.
    """
    if route == "ring":
        vec = ring_vector(ResidueRing.principal_units(spec, k - m))
        return [vec[code] for code in _unit_codes(spec.q, k - m)]
    if route == "tables":
        from ffstat import tables

        return table_sums(tables).tolist()
    block = spec.q ** (m + 1)
    values = map(value, pr.all_monic(spec, k))
    return [sum(islice(values, block)) for _ in range(spec.q**k // block)]


def _specializations(f: Poly, g: Poly, m: int, route: str):
    """The monic f + g*h for every h of degree <= m, listed for a census on `route`, "tables" or "factor".

    f is monic and deg f > deg g + m.  Returns the type tables for degree
    deg f and the index of the members' codes in them, or, on "factor",
    None and the members as polynomials, built as they are read.  A
    constant g lists the interval around f, a block of codes read as a
    slice; any other g lists f + g*h in h-code order, through the digit
    kernel `tables.member_codes` or by polynomial arithmetic.
    """
    spec, k, q = f.spec, f.degree, f.spec.q
    size = q ** (m + 1)
    # a constant g: the interval around f, codes lo .. lo + size - 1, found without building an IntervalSpec,
    # which would cost a warm session's nu calls about a fifth of their time
    lo = pr.monic_code(f) // size * size if g.degree == 0 else None
    if route == "factor":
        if lo is not None:
            return None, (pr.monic_from_code(spec, k, code) for code in range(lo, lo + size))
        hs = (pr.poly_from_indices(spec, pr.code_to_coeffs(code, m + 1, q)[:-1]) for code in range(size))
        return None, (pr.poly_add(f, pr.poly_mul(g, h)) for h in hs)
    from ffstat import tables

    pt = tables.poly_tables(spec, k)
    if lo is not None:
        return pt, slice(lo, lo + size)
    return pt, tables.member_codes(pt, f.ci, g.ci, m)


def _census(f: Poly, g: Poly, m: int, route: str) -> TypeCensus:
    """Census of the factorization types of the f + g*h that `_specializations` lists on `route`."""
    k = f.degree
    parts = partitions_of(k)
    pt, members = _specializations(f, g, m, route)
    if pt is None:
        found = Counter(map(pr.factorization_type, members))
        counts = [found[lam] for lam in parts]
    else:
        counts = pt.degree_census(k, members).tolist()
    return TypeCensus(k, {lam: n for lam, n in zip(parts, counts) if n})


# ---------------------------------------------------------------------------
# The residue ring
# ---------------------------------------------------------------------------

def ring_products(q: int, delta: int, lams, size: int | None = None) -> int:
    """Pair products of `ResidueRing.type_counts` for these partitions, modulus degree delta.

    The table takes size^2, size = q^delta unless given (the principal
    units mod t^delta have q^(delta - 1) elements), and so does each
    convolution: for n up to the largest part, psi_n takes one with the
    tail sum when n > delta and one with each Z_i, 0 < i < delta, that its
    recurrence reads; H_{d,m} takes m - 1; and each partition one per part
    size after its first.
    """
    mults, top = _part_sizes(lams)
    convolutions = sum((n > delta) + min(n - 1, delta - 1) for n in range(1, max(top) + 1))
    convolutions += sum(m * (m - 1) // 2 for m in top.values())
    convolutions += sum(len(mult) - 1 for mult in mults.values())
    return (q**delta if size is None else size) ** 2 * (1 + convolutions)


def _part_sizes(lams) -> tuple[dict[Partition, dict[int, int]], dict[int, int]]:
    """The multiplicity of each part size in each partition, and the largest over all of them."""
    mults = {lam: lam.multiplicities() for lam in lams}
    top: dict[int, int] = {}
    for mult in mults.values():
        for d, m in mult.items():
            top[d] = max(top.get(d, 0), m)
    return mults, top


def residue_code(f: Poly) -> int:
    """The code of a residue of degree < deg D: the base-q integer of its coefficient indices, low first."""
    q = f.spec.q
    return sum(c * q**i for i, c in enumerate(f.ci))


class ResidueRing:
    """The monoid ring Z[R] of R = F_q[t]/D, delta = deg D >= 1, in exact Python ints.

    An element is a list of q^delta integers indexed by `residue_code`,
    and `rows[a][b]` is the code of a*b mod D.  The zeta function of
    F_q[t] pushed into Z[R], Z(u) = sum over monic g of [g mod D] u^deg g
    = prod over primes P of 1/(1 - [P mod D] u^deg P), has known
    coefficients: Z_n is the sum of the monic residues of degree n when
    n < delta and q^(n - delta) times the sum of all residues when
    n >= delta.  Its logarithmic derivative gives psi_n, the sum of
    Lambda(g) [g mod D] over monic g of degree n; taking the proper prime
    powers out of psi_d leaves the primes of degree d per class; Newton's
    identity gives the multisets of primes of one degree, hence each
    factorization type per class (Rosen, Number Theory in Function
    Fields, ch. 4).

    `principal_units` builds the same ring for the group U1 of the
    principal units mod t^delta, which counts intervals (see there).
    """

    def __init__(self, d_poly: Poly):
        if not d_poly.is_monic or d_poly.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        spec = d_poly.spec
        q, delta = spec.q, d_poly.degree
        zeta = []
        for n in range(delta):  # the monic residues of degree n have codes q^n .. 2 q^n - 1
            z = [0] * q**delta
            z[q**n : 2 * q**n] = [1] * q**n
            zeta.append(z)
        self._setup(q, delta, _ring_rows(gf.field_table(spec), d_poly.ci), zeta + [[1] * q**delta], 1, False)

    @classmethod
    def principal_units(cls, spec: FieldSpec, delta: int) -> ResidueRing:
        """Z[U1] for U1 = 1 + t F_q[t] mod t^delta, delta >= 1, the ring of the intervals I(f; k - delta).

        The unit 1 + t a, deg a < delta - 1, has code `residue_code(a)`, so
        1 has code 0.  Z(u) sums the polynomials with constant term 1:
        Z_0 is the class of 1, Z_n for 0 < n < delta the codes
        q^(n-1) .. q^n - 1 once each, and Z_n for n >= delta (q - 1)
        q^(n - delta) in every class.  U1 is a group, so a product with
        that constant vector is a scalar sum.  The reversal g -> t^deg g
        g(1/t) maps the polynomials with nonzero constant term and leading
        coefficient 1 onto those with constant term 1, keeping degree,
        Lambda and the factorization type (Keating-Rudnick, IMRN 2014).
        """
        q, size = spec.q, spec.q ** (delta - 1)
        zeta = [[0] * size for _ in range(delta)]
        zeta[0][0] = 1
        for n in range(1, delta):
            zeta[n][q ** (n - 1) : q**n] = [1] * (q**n - q ** (n - 1))
        ring = cls.__new__(cls)
        d_ci = (0,) * (delta - 1) + (1,)  # digits of a mod t^(delta - 1)
        ring._setup(q, delta, _ring_rows(gf.field_table(spec), d_ci, units=True), zeta + [[q - 1] * size], 0, True)
        return ring

    def _setup(self, q: int, delta: int, rows: list[list[int]], zeta: list[list[int]], one: int, group: bool):
        """`zeta` holds Z_0 .. Z_delta, with Z_n = q^(n - delta) Z_delta for n >= delta; `one` is the code of 1."""
        self.q, self.delta, self.size = q, delta, len(rows)
        self.rows, self.zeta, self.one, self.group = rows, zeta, one, group
        self._powers = [list(range(self.size))]  # _powers[e - 1][r] = the code of r^e

    def conv(self, a: list[int], b: list[int]) -> list[int]:
        """The product a*b in Z[R]."""
        out = [0] * self.size
        support = [(j, y) for j, y in enumerate(b) if y]
        for x, row in zip(a, self.rows):
            if x:
                for j, y in support:
                    out[row[j]] += x * y
        return out

    def push(self, v: list[int], e: int) -> list[int]:
        """The image of v under r -> r^e."""
        while len(self._powers) < e:  # r^n = r * r^(n-1)
            self._powers.append([row[p] for row, p in zip(self.rows, self._powers[-1])])
        out = [0] * self.size
        for x, r in zip(v, self._powers[e - 1]):
            if x:
                out[r] += x
        return out

    def psi(self, top: int) -> list[list[int]]:
        """[None, psi_1, ..., psi_top] from n Z_n = sum_{j=1..n} Z_{n-j} psi_j.

        The terms with n - j >= delta sum to Z_delta * W_n with
        W_n = q W_(n-1) + psi_(n-delta), one convolution, or on a group a
        scalar sum; the others read the sparse Z_i, 0 < i < delta.
        """
        q, delta, zeta = self.q, self.delta, self.zeta
        tail = [0] * self.size
        psi: list = [None]
        for n in range(1, top + 1):
            acc = [n * x for x in zeta[n]] if n < delta else [n * q ** (n - delta) * x for x in zeta[delta]]
            if n > delta:
                tail = [q * w + x for w, x in zip(tail, psi[n - delta])]
                if self.group:  # Z_delta is constant, and so is its product with anything
                    scalar = zeta[delta][0] * sum(tail)
                    acc = [x - scalar for x in acc]
                else:
                    acc = [x - y for x, y in zip(acc, self.conv(tail, zeta[delta]))]
            for j in range(max(1, n - delta + 1), n):
                acc = [x - y for x, y in zip(acc, self.conv(psi[j], zeta[n - j]))]
            psi.append(acc)
        return psi

    def type_counts(self, k: int, lams) -> dict[Partition, list[int]]:
        """For each partition lam, the monic g of type lam counted per class of g mod D.

        The g have degree lam.k, which may differ between lams (k is not
        read), and on `principal_units` constant term 1 instead of leading
        coefficient 1.  psi_n, the primes of each degree and the multisets
        H_{d,m} are computed once and shared by every lam.
        """
        mults, top = _part_sizes(lams)
        psi = self.psi(max(top))
        primes: dict[int, list[int]] = {}
        for d in range(1, max(top) + 1):  # psi_d = sum over e | d of e * push(primes of degree e, d/e)
            acc = psi[d]
            for e in divisors(d)[:-1]:
                acc = [x - e * y for x, y in zip(acc, self.push(primes[e], d // e))]
            primes[d] = [x // d for x in acc]
        multisets = {d: self._multisets(primes[d], m) for d, m in top.items()}
        out = {}
        for lam, mult in mults.items():
            vec = None
            for d, m in mult.items():
                vec = multisets[d][m] if vec is None else self.conv(vec, multisets[d][m])
            out[lam] = vec
        return out

    def _multisets(self, primes: list[int], top: int) -> list[list[int]]:
        """[H_0, ..., H_top], H_m the multisets of m of these primes by class, from m H_m = sum_{j=1..m} p_j H_(m-j).

        p_j is the image of the primes under r -> r^j; H_0 is the class of 1.
        """
        power_sums = [None] + [self.push(primes, j) for j in range(1, top + 1)]
        one = [0] * self.size
        one[self.one] = 1
        out = [one]
        for m in range(1, top + 1):
            acc = power_sums[m]  # the j = m term, p_m H_0
            for j in range(1, m):
                acc = [x + y for x, y in zip(acc, self.conv(power_sums[j], out[m - j]))]
            out.append([x // m for x in acc])
        return out


def _ring_rows(ft: gf.FieldTable, d_ci, units: bool = False) -> list[list[int]]:
    """rows[a][b] = the code of a*b mod D, for residue codes a, b < q^delta.

    Row a lists the products a * (sum_j b_j t^j) in b-code order, one
    output digit at a time: each digit list grows by a factor q per b_j,
    adding b_j times digit i of a t^j mod D.  With `units` it lists
    a + (1 + t a) b instead, the product (1 + t a)(1 + t b) = 1 + t(a +
    (1 + t a) b) of two principal units mod t D: the same lockstep, its
    digits started at a's and its multiplier 1 + t a.
    """
    q, delta = ft.q, len(d_ci) - 1
    add_rows = [ft.add[s * q : (s + 1) * q] for s in range(q)]  # add_rows[s][x] = x + s
    mul_rows = [ft.mul[c * q : (c + 1) * q] for c in range(q)]  # mul_rows[c][x] = c * x
    reduce_rows = [mul_rows[ft.neg[c]] for c in d_ci[:-1]]  # t^delta = -(d_0 + ... + d_(delta-1) t^(delta-1))
    rows = []
    for a in range(q**delta):
        u = list(pr.code_to_coeffs(a, delta, q)[:-1])  # a t^j mod D, starting at j = 0
        digits = [[0] for _ in range(delta)]
        if units:
            digits = [[x] for x in u]
            u = ([1] + u)[:delta]
        for _ in range(delta):
            for i in range(delta):
                if not u[i]:  # adds nothing: q copies
                    digits[i] *= q
                    continue
                scaled = [add_rows[row[u[i]]] for row in mul_rows]  # x -> x + b_j u_i, b_j = 0 .. q-1
                digits[i] = [shift[x] for shift in scaled for x in digits[i]]
            top = u[-1]
            u = [0] + u[:-1]
            if top:
                u = [add_rows[row[top]][x] for x, row in zip(u, reduce_rows)]
        code = digits[-1] if digits else [0]  # the one unit mod t
        for column in reversed(digits[:-1]):
            code = [c * q + x for c, x in zip(code, column)]
        rows.append(code)
    return rows


# ---------------------------------------------------------------------------
# Intervals in the ring of principal units
# ---------------------------------------------------------------------------

def _levels(lam: Partition, m: int) -> list[Partition]:
    """lam less j of its parts equal to 1, for j = 0, 1, ... up to m while it has them.

    A member g of I(f; m) with t^j || g, j <= m, is t^j g'' with g'' of
    type lam less 1^j, and its reversal is that of g'': a polynomial of
    degree k - j with constant term 1 in the class of f's reversed top.
    """
    parts, out = lam.parts, [lam]
    for j in range(1, m + 1):
        if len(parts) <= j or parts[-j] != 1:
            break
        out.append(Partition(parts[:-j]))
    return out


def interval_route(spec: FieldSpec, k: int, m: int, lams, members: int, budget: int = DEFAULT_BUDGET) -> tuple[str, int]:
    """The route of counting the types `lams` over `members` members of intervals I(f; m) of degree k, and its work.

    `census_route` picks it, offered the ring `principal_units(spec, k - m)`
    at the price of its `interval_products`, which it asks for only when
    no built tables cover degree k.  `lams` is a list of types, or None
    for the prime type (k) alone, built only when the ring is priced.  The
    work is those pair products on "ring", else `members`.
    """

    def products() -> int:
        return interval_products(spec.q, k, m, lams)

    route = census_route(spec, k, members, products, budget)
    return route, products() if route == "ring" else members


def interval_products(q: int, k: int, m: int, lams) -> int:
    """Pair products of counting the types `lams` over intervals I(f; m) of degree k in the ring mod t^(k - m).

    The ring of principal units counts each type at every level of
    `_levels`; `lams` None is the prime type (k) alone.
    """
    lams = [Partition((k,))] if lams is None else lams
    levels = {mu for lam in lams for mu in _levels(lam, m)}
    return ring_products(q, k - m, levels, size=q ** (k - m - 1))


def scan_route(spec: FieldSpec, k: int, m: int, lam: Partition, budget: int = DEFAULT_BUDGET) -> tuple[str, int]:
    """The route of an interval scan for type lam over every I(f; m) of degree k, and its work.

    `census_route` picks it over q^k members, offered the ring
    `principal_units(spec, k - m)` at the price of its `interval_products`
    and the typed routes at their `scan_work`, asked for only when no
    built tables cover degree k.  The work is those pair products on
    "ring"; on "strike" the codes struck and products made, and on
    "tables" the codes sieved and products made, each with the cells, or
    q^k on tables already built; else the q^k members.
    """
    q = spec.q

    def products() -> int:
        return interval_products(q, k, m, [lam])

    def typed() -> tuple[int, int, int]:
        return scan_work(q, k, m, lam)

    route = census_route(spec, k, q**k, products, budget, typed)
    if route == "ring":
        return route, products()
    if route == "factor" or _tables_built(spec, k):
        return route, q**k
    struck, sieved, cells = typed()
    return route, (struck if route == "strike" else sieved) + cells


def scan_work(q: int, k: int, m: int, lam: Partition) -> tuple[int, int, int]:
    """The work of an interval scan for type lam on its typed routes: (struck, sieved, cells).

    Both make one product a member and part, for the exact_type_count
    members of type lam.  The strike route (`strike_block_counts`) also
    strikes pi_q(e) q^(d - e) codes for each factor degree
    e = 1 .. d // 2 of each part size d (`_strike`); the table route
    (`tables.PolyTables.type_block_counts`) sieves the q + ... + q^(lam_1)
    codes of tables up to the largest part.  Both keep a count for each
    of the q^(k - m - 1) cells.
    """
    made = exact_type_count(q, k, lam) * len(lam.parts)
    struck = sum(exact_prime_count(q, e) * q ** (d - e) for d in set(lam.parts) for e in range(1, d // 2 + 1))
    sieved = sum(q**d for d in range(1, lam.parts[0] + 1))
    return struck + made, sieved + made, q ** (k - m - 1)


def _unit_code(f: Poly, m: int) -> int:
    """The code in U1 mod t^(k - m) of F* for the top t^(m+1) F of f: F's low coefficients, read from the top down."""
    code = 0
    for x in f.ci[m + 1 : -1]:
        code = code * f.spec.q + x
    return code


def _unit_codes(q: int, delta: int) -> list[int]:
    """`_unit_code` of every interval I(f; k - delta) of degree k, in base-code order: its delta - 1 digits reversed."""
    codes = [0]
    for i in range(delta - 1):  # base b + x q^i, b < q^i, reverses to rev(b) + x q^(delta - 2 - i)
        codes = [c + x * q ** (delta - 2 - i) for x in range(q) for c in codes]
    return codes


def lone_type(top: Poly, m: int) -> Partition:
    """The type of t^(m+1) top, the one member of an interval whose reversal has degree below k - m."""
    ones = (1,) * (m + 1)
    return Partition(pr.factorization_type(top).parts + ones if top.degree else ones)


def interval_type_counts(ring: ResidueRing, lams, m: int) -> dict[Partition, list[int]]:
    """For each lam, the members of type lam of I(f; m) other than t^(m+1) F, per U1 class of F*.

    The sum over the levels of `_levels`, all read from one `type_counts`.
    """
    levels = {lam: _levels(lam, m) for lam in lams}
    counts = ring.type_counts(max(lam.k for lam in lams), {mu for mus in levels.values() for mu in mus})
    return {lam: [sum(column) for column in zip(*(counts[mu] for mu in mus))] for lam, mus in levels.items()}


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
    return _census(f, g, m, census_route(spec, k, spec.q ** (m + 1)))


def interval_counts(interval: IntervalSpec, budget: int = DEFAULT_BUDGET) -> TypeCensus:
    """Census over a short interval; the entry at (k) is the prime count.

    On the ring route every type is read at the interval's class in
    `principal_units(spec, k - m)`, and t^(m+1) F is factored alone.
    `budget` bounds the ring's pair products and the tables the census
    may build (`interval_route`).
    """
    spec, k, m = interval.spec, interval.k, interval.m
    parts = partitions_of(k)
    route, _ = interval_route(spec, k, m, parts, interval.size, budget)
    if route != "ring":
        return _census(interval.f, pr.one_poly(spec), m, route)
    code = _unit_code(interval.f, m)
    vectors = interval_type_counts(ResidueRing.principal_units(spec, k - m), parts, m)
    counts = {lam: vec[code] for lam, vec in vectors.items()}
    lone = lone_type(Poly(spec, interval.f.ci[m + 1 :]), m)
    counts[lone] += 1
    return TypeCensus(k, {lam: n for lam, n in counts.items() if n})


def interval_prime_count(interval: IntervalSpec) -> int:
    """The primes of I(f; m), counted by striking out the members with a small factor (`_strike`).

    A member is reducible exactly when a monic factor of degree
    1 <= d <= k // 2 divides it.  When k // 2 <= m + 1 the striking
    reaches every such factor; otherwise Rabin's test runs on the members
    left.
    """
    spec, k, m, size = interval.spec, interval.k, interval.m, interval.size
    struck = _strike(spec, interval.f.ci, m, min(m + 1, k // 2))
    if k // 2 <= m + 1:
        return size - struck.count(1)
    return sum(pr.is_irreducible(pr.monic_from_code(spec, k, code)) for code, hit in zip(interval.codes(), struck) if not hit)


def irreducible_codes(spec: FieldSpec, d: int) -> list[int]:
    """The codes of the monic irreducibles of degree d, in increasing order.

    They are the members of I(t^d; d - 1), all q^d monic polynomials of
    degree d, that `_strike` leaves with no monic factor of degree
    1 .. d // 2.
    """
    struck = _strike(spec, (0,) * d + (1,), d - 1, d // 2)
    return [code for code, hit in enumerate(struck) if not hit]


def _irreducible_digits(spec: FieldSpec, d: int) -> list[list[int]]:
    """The d digits below the leading 1 of the monic irreducibles of degree d, one list a digit, low first."""
    q = spec.q
    codes = irreducible_codes(spec, d)
    return [[code // q**i % q for code in codes] for i in range(d)]


def strike_block_counts(spec: FieldSpec, lam: Partition, m: int) -> list[int]:
    """The members of type lam of every interval I(f; m) of degree lam.k, in base-code order, without numpy.

    `tables.PolyTables.type_block_counts` in pure Python: a member is a
    product of irreducibles (`irreducible_codes`) whose degrees are lam's
    parts, each product once: for a part d of multiplicity r, r
    irreducibles of degree d in nondecreasing index order.  The parts are
    multiplied in ascending order, one product so far at a time against
    all its irreducibles of the next part in lockstep (`_row_products`).
    Of the last part's products only the digits m + 1 .. k - 1 that name
    the block are made, and they are counted one product so far at a
    time, never all held.
    """
    ft = gf.field_table(spec)
    q, k, parts = ft.q, lam.k, lam.parts[::-1]
    # times[a][x * q + y] = x + a * y: adding a multiple of one digit takes one lookup
    times = [[ft.add[x * q + ft.mul[a * q + y]] for x in range(q) for y in range(q)] for a in range(q)]
    irr = {d: _irreducible_digits(spec, d) for d in set(parts)}
    counts = [0] * q ** (k - m - 1)
    prods, last, prev = [[]], [0], None  # the empty product 1, no digits below its leading 1; its last index
    for n, d in enumerate(parts):
        b, size = irr[d], len(irr[d][0])
        final = n == len(parts) - 1
        joined, indices = [[] for _ in range(len(prods[0]) + d)], []
        for a, first in zip(prods, last if d == prev else [0] * len(prods)):  # a repeated part: indices >= the last
            digits = _row_products(times, q, a, [col[first:] for col in b] if first else b, m + 1 if final else 0)
            if final:  # the block of each product: its digits m + 1 .. k - 1
                blocks = [0] * (size - first)
                for col in reversed(digits):
                    blocks = [x * q + y for x, y in zip(blocks, col)]
                for x in blocks:
                    counts[x] += 1
            else:
                for out, col in zip(joined, digits):
                    out += col
                indices += range(first, size)
        prods, last, prev = [list(row) for row in zip(*joined)], indices, d
    return counts


def _row_products(times: list[list[int]], q: int, a: list[int], b: list[list[int]], lo: int) -> list[list[int]]:
    """Digits lo .. da + db - 1 of the products a * b[.][x] over all x in lockstep, as lists, one a digit.

    `a` holds the da digits below the leading 1 of one monic polynomial
    and `b` those of many of degree db, one list a digit.  Digit s of a
    product sums a_i b_(s-i), with a_da = b_db = 1, through `times`.
    """
    da, db, n = len(a), len(b), len(b[0])
    out = []
    for s in range(lo, da + db):
        c = b[s - da] if s >= da else [0] * n  # a's leading 1
        for i in range(max(0, s - db), min(da - 1, s) + 1):
            if a[i]:
                row = times[a[i]]  # b's leading 1 at s - i = db
                c = [row[x * q + 1] for x in c] if s - i == db else [row[x * q + y] for x, y in zip(c, b[s - i])]
        out.append(c)
    return out


def _strike(spec: FieldSpec, f_ci, m: int, top: int) -> bytearray:
    """The members of I(f; m) with a factor of degree 1 .. top, top <= m + 1, marked 1 by the code of h.

    A member is g = f' + h, with f' the center f (index tuple `f_ci`)
    with its m + 1 low coefficients zeroed and deg h <= m.  It has a
    monic factor of degree 1 .. top exactly when an irreducible one
    divides it, and the irreducible A of degree d <= m + 1
    (`irreducible_codes`, which strikes up to degree d // 2) divide
    exactly the members h = -(f' mod A) + A*u, deg u <= m - d.  Those
    are listed for every A at once, in lockstep over digit lists, as
    `_ring_rows` lists its products: f' mod A by long division, then q
    times as many entries for each coefficient of u, and each h's code
    built a digit at a time, low digits first, as they become final.
    Each degree d lists pi_q(d) q^(m + 1 - d) codes.
    """
    ft = gf.field_table(spec)
    q, add, mul, neg = ft.q, ft.add, ft.mul, ft.neg
    k = len(f_ci) - 1
    struck = bytearray(q ** (m + 1))  # indexed by the code of h
    for d in range(1, top + 1):
        a = _irreducible_digits(spec, d)  # a[i]: coefficient i of every A
        n = len(a[0])
        a.append([1] * n)
        rem = [[0] * n] * (m + 1) + [[c] * n for c in f_ci[m + 1 :]]  # f', one entry per A
        for s in range(k, d - 1, -1):  # subtract rem_s t^(s-d) A
            lead = [neg[x] for x in rem[s]]
            for i in range(d):
                rem[s - d + i] = [add[x * q + mul[y * q + z]] for x, y, z in zip(rem[s - d + i], lead, a[i])]
        h = [[neg[x] for x in rem[i]] for i in range(d)] + [[0] * n for _ in range(d, m + 1)]
        codes = [0] * n
        for j in range(m + 1):
            if j <= m - d:  # add u_j t^j A, u_j varying slowest so far
                codes *= q
                for i in range(j, j + d + 1):
                    aq = a[i - j] * q**j
                    h[i] = [add[x * q + mul[y * q + z]] for y in range(q) for x, z in zip(h[i], aq)]
                for i in range(j + d + 1, m + 1):
                    h[i] *= q
            w = q**j  # digit j of h is final
            codes = [c + x * w for c, x in zip(codes, h[j])]
            h[j] = None
        for c in codes:
            struck[c] = 1
    return struck


def progression_route(prog: ProgressionSpec, budget: int = DEFAULT_BUDGET) -> tuple[str, int]:
    """The route of `progression_counts` and its work.

    The work is the pair products of `ResidueRing(prog.D)` on "ring", else
    the members; `census_route` asks for the ring's price only when no
    built tables cover degree k.
    """

    def products() -> int:
        return ring_products(prog.spec.q, prog.D.degree, partitions_of(prog.k))

    route = census_route(prog.spec, prog.k, prog.size, products, budget)
    return route, products() if route == "ring" else prog.size


def progression_counts(prog: ProgressionSpec, budget: int = DEFAULT_BUDGET) -> TypeCensus:
    """Census over the monic degree-k members of a residue class.

    The ring route reads the class of f from `ResidueRing.type_counts`;
    the others list the members (f + D*t^r) + D*h, deg h < r = k - deg D,
    as `specialization_counts` lists f + g*h.  `budget` bounds the ring's
    pair products and the tables the census may build (`progression_route`).
    """
    spec, k, r = prog.spec, prog.k, prog.k - prog.D.degree
    parts = partitions_of(k)
    route, _ = progression_route(prog, budget)
    if route != "ring":
        return _census(pr.poly_add(prog.f, pr.poly_mul(prog.D, pr.monomial(spec, r))), prog.D, r - 1, route)
    classes = ResidueRing(prog.D).type_counts(k, parts)
    f = residue_code(prog.f)
    return TypeCensus(k, {lam: classes[lam][f] for lam in parts if classes[lam][f]})


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


def nu(f: Poly, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Sum of the von Mangoldt function over interval members with nonzero constant term.

    On the ring route it is psi_k at the interval's class in
    `principal_units(spec, k - m)`, which leaves out the members with zero
    constant term by construction.  `budget` bounds the ring's pair
    products and the tables it may build (`interval_route`).
    """
    check_center(f)
    k = f.degree
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    spec = f.spec
    size = spec.q ** (m + 1)
    # the prime type (k), built only if the ring is priced: warm tables answer a session's nu calls in a few microseconds
    route, _ = interval_route(spec, k, m, None, size, budget)
    if route == "ring":
        return _unit_psi(spec, k - m, k)[_unit_code(f, m)]
    pt, members = _specializations(f, pr.one_poly(spec), m, route)
    total = sum(map(von_mangoldt, members)) if pt is None else int(pt.lambda_table(k)[members].sum())
    # the only prime power with zero constant term is t^k (code 0, Lambda = 1), a member when f's code is below size
    return total - (pr.monic_code(f) < size)


@lru_cache(maxsize=8)
def _unit_psi(spec: FieldSpec, delta: int, k: int) -> list[int]:
    """psi_k in the ring of principal units mod t^delta, for `nu`, shared and never modified.

    The last few are kept, so the intervals of one degree k and one m
    read one vector, as they read one table.
    """
    return ResidueRing.principal_units(spec, delta).psi(k)[k]


def mean_variance_nu(spec: FieldSpec, k: int, m: int, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of nu(.; m) over all monic degree-k polynomials.

    One pass over M(k, q): members of a common interval share their nu
    value, so the q^k centers reduce to q^{k-m-1} interval sums each
    weighted by q^{m+1}.  `budget` bounds the work of the route taken:
    the ring's pair products, else q^k.
    """
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    qk = spec.q**k
    route, work = interval_route(spec, k, m, None, qk, budget)
    if work > budget:
        raise BudgetError(f"q^k = {qk} exceeds the enumeration budget {budget}")
    block = spec.q ** (m + 1)
    sums = block_sums(spec, k, m, route, von_mangoldt, lambda ring: ring.psi(k)[k],
                      lambda tables: tables.poly_tables(spec, k, budget).lambda_block_sums(k, block))
    if route != "ring":
        sums[0] -= 1  # t^k lies in the base-0 interval and is filtered out
    n_blocks = len(sums)
    s1 = sum(sums)
    s2 = sum(s * s for s in sums)
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


class NuDecomposition(FrozenRecord):
    """nu(f; m) split into prime, proper prime-power and t^k contributions."""

    __slots__ = ("k_pi", "proper_terms", "epsilon", "reconstructed")
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
    interval = IntervalSpec(f, m)
    k_pi = k * interval_prime_count(interval)
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
