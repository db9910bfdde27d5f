"""Dense enumeration kernels over monic polynomials: the numpy layer.

This is the one module that imports numpy.  It works on arrays of monic
codes (`polyring.code_to_coeffs`): the codes of degree d are 0 .. q^d - 1
and a short interval is a contiguous block of them.  `statistics` and
`verify` import it inside the functions that build or read tables, so a
query that needs none never loads numpy.

The central structure is a per-field table of factorization types, built
degree by degree without any gcd machinery: a reducible monic polynomial
f of degree d whose largest irreducible factors have degree e is P * g
for each irreducible P of degree e dividing f, where g = f / P has no
factor of degree above e, and the type of f is the type of g with one
part e added.  So the sieve multiplies, for each factor degree e < d,
every irreducible P of degree e by every code g of degree d - e whose
type has largest part <= e (every code when 2e >= d), and writes the
joined type at each product.  A product with r distinct irreducible
factors of degree e is written r times, each time with the same type;
the codes never written are the irreducibles of degree d.  This
construction imports nothing from `polyring` and is independent of its
division-based factorization; the test suite cross-checks the two.

Every kernel here has one digit format: the base-q digits of monic
codes as int32 arrays, combined through the field's add and mul tables,
which each `PolyTables` holds as two flat int32 index arrays, 8 B a pair
of field elements (8 MiB at q = 1024), converted from `gf.FieldTable`'s
lists once per table.  The sieve, the von Mangoldt tables and the typed
interval counts multiply through `PolyTables.product`, and
`member_codes` lists the f + r + g*h of a residue class, or of every
monic polynomial of one degree a modulus at a time, by convolving g with
all h at once.

The sieve works on numpy arrays.  Per degree d it keeps, per code, the
type (int16, kept in `types[d]`), and the g of a factor degree e are
read from the types of degree d - e.  The pairs of one e are multiplied
in chunks, as a segmented sieve of Eratosthenes works in blocks (Bays
and Hudson, BIT 17, 1977): a chunk is a run of whole P with at most
`SIEVE_CHUNK_PAIRS` pairs, or the next `SIEVE_CHUNK_PAIRS` pairs of one P
with more, and its products are written to the types before the next
chunk is built.  The products go through the field's add/mul index
tables on int32 digits, or at q = 2, where a code is the bit vector of
the coefficients below the leading 1, as a carry-less multiply with no
table lookups.  So the transient is capped at one chunk's arrays, and
the build peaks (tracemalloc, over the q + q^2 + ... + q^k codes of
degrees 1..k) at about 7.6 B per sieved code at q = 2, k = 16, 6.0 B at
q = 2, k = 18, 6.5 B at q = 9, k = 6, 8.0 B at q = 13, k = 5, 12.8 B at
q = 3, k = 11 and 4.0 B at q = 3, k = 13 (unchunked: 24 B at q = 9,
k = 6 and at q = 13, k = 5).  The rest is the kept types, 2 B a
code of each degree, and the int64 codes g of the current factor degree.

An interval scan for one type lam needs only the members of that type,
and those are products of irreducibles whose degrees are lam's parts.
`PolyTables.type_block_counts` lists them from tables up to lam's largest
part: for a part d of multiplicity r, the multisets of r irreducibles of
degree d; the parts are multiplied in ascending order with the sieve's
kernels and chunks, and the last part's products are counted per block.
Its work is the q + ... + q^(lam_1) codes of those tables plus at most
one product per member and per part, where full tables sieve all
q + ... + q^k codes: at q = 2, k = 18 and lam = 5+3+2+2+1^6 that is 62
codes and 84 members against 524,286 codes.  `statistics` lists the
same members without numpy (`statistics.strike_block_counts`, its
irreducibles struck out as `interval_prime_count` strikes an interval),
and `statistics.census_route` builds tables for such a scan only when
numpy's start-up and this work are priced below that strike route
(`statistics.scan_work`): a type with a part of 16 or more at q = 2,
k = 18, or with many members, such as 3+2+1 at q = 9, k = 6.

No kernel here calls BLAS, yet numpy's bundled OpenBLAS starts a pool of
one worker thread per core when it loads, and on 2 cores the idle worker
spins beside the sieve: the bench's `sieve-scans` took 1.32 s of CPU in
0.82 s of wall time, and 0.79 s in 0.79 s with one thread.  So this
module sets OPENBLAS_NUM_THREADS to 1 before it imports numpy, unless
the variable is already set, and every process that loads numpy through
ffstat runs one OS thread.  The setting stays in `os.environ`, so child
processes started afterwards inherit it.
"""

from __future__ import annotations

import os

# ffstat calls no BLAS routine; OpenBLAS reads this only when it loads, so it
# must precede the first numpy import and does nothing once numpy is loaded
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ffstat import gf
from ffstat.combinatorics import Partition, divisors, partitions_of
from ffstat.gf import DEFAULT_BUDGET, BudgetError, FieldSpec, FieldTable  # FieldTable: the bench times tables.FieldTable.__init__


# ---------------------------------------------------------------------------
# Code kernels
# ---------------------------------------------------------------------------

def _product_codes(add: np.ndarray, mul: np.ndarray, q: int, a: np.ndarray, da: int, b: np.ndarray, db: int) -> np.ndarray:
    """Codes of the products a[i] * b[i] of monic codes of degrees da and db.

    `add` and `mul` are the flat field tables as int32 index arrays.  The
    product's coefficients are convolved one at a time over all pairs, on
    int32 digits (every table index is below q^2 <= 2^22) read through
    `take`, which numpy runs faster than indexing by an int32 array, and
    its code is built in int64 by Horner from the top coefficient down.
    """
    a_digits, b_digits = _digits(a, da, q), _digits(b, db, q)
    code = np.zeros(len(a), dtype=np.int64)
    for k in reversed(range(da + db)):
        coeff = None
        for i in range(max(0, k - db), min(da, k) + 1):
            j = k - i  # the leading coefficients a_da = b_db = 1 need no lookup
            term = b_digits[j] if i == da else a_digits[i] if j == db else mul.take(a_digits[i] * q + b_digits[j])
            coeff = term if coeff is None else add.take(coeff * q + term)
        code *= q
        code += coeff
    return code


def _digits(codes: np.ndarray, n: int, q: int) -> list[np.ndarray]:
    """The n base-q digits of the codes, least significant first, as int32 arrays.

    Each digit is the rest less q times the quotient: numpy divides an
    array by a scalar through a precomputed multiplier, but runs `%`
    element by element (numpy 2.4, 32,768 codes: `// 9` 10 us, `% 9` 67 us).
    """
    rest = codes.astype(np.int32)
    digits = []
    for _ in range(n):
        quot = rest // q
        rest -= quot * q
        digits.append(rest)
        rest = quot
    return digits


def _clmul_codes(a: np.ndarray, da: int, b: np.ndarray, db: int) -> np.ndarray:
    """`_product_codes` at q = 2, as a carry-less multiply with no table lookups.

    A monic code over F_2 is the bit vector of the coefficients below the
    leading 1, so the product XORs shifted copies of the longer factor, one
    for each set bit of the shorter one.
    """
    if da < db:
        a, da, b, db = b, db, a, da
    full = a.astype(np.int64) | (1 << da)
    code = (full << db) ^ (1 << (da + db))  # b's leading 1, less the product's
    b = b.copy()
    for _ in range(db):
        code ^= full * (b & 1)
        full <<= 1
        b >>= 1
    return code


def member_codes(pt: PolyTables, f_ci, g_ci, m: int, lead: int = 0) -> np.ndarray:
    """Codes of the monic f + r + g*h for every r of degree < lead and every h of degree <= m.

    `f_ci` and `g_ci` are the index tuples of monic f and of g, with
    deg g + m < deg f.  The codes run in h-code order, r's code fastest.
    Like `_product_codes`, g is convolved with all h at once on their
    base-q digits through the tables' int32 add/mul arrays, r's digits are
    added to the lowest `lead` coefficients, and each code is built by
    Horner from the top coefficient down: the coefficients at and above
    `lead` over the q^(m+1) h alone, then over every (h, r) pair.
    """
    q, k = pt.spec.q, len(f_ci) - 1
    if len(g_ci) + m > k:
        raise ValueError("need deg g + m < deg f")
    h = _digits(np.arange(q ** (m + 1)), m + 1, q)
    r = _digits(np.arange(q**lead), lead, q)
    codes = np.zeros((q ** (m + 1), 1), dtype=np.int64)  # one row per h; r's columns join at coefficient lead - 1
    for t in reversed(range(k)):
        coeff = np.full(q ** (m + 1), f_ci[t], dtype=np.int32)
        for i in range(max(0, t - m), min(len(g_ci), t + 1)):
            if g_ci[i]:  # a zero coefficient of g adds nothing
                coeff = pt.add.take(coeff * q + pt.mul.take(g_ci[i] * q + h[t - i]))
        coeff = pt.add.take(coeff[:, None] * q + r[t]) if t < lead else coeff[:, None]
        if t == lead - 1:
            codes = codes * q + coeff
        else:
            codes *= q
            codes += coeff
    return codes.reshape(-1)


# ---------------------------------------------------------------------------
# Tables of factorization types
# ---------------------------------------------------------------------------

# Pairs multiplied at once: whole rows, at most this many pairs, or this many of one longer row.  In-process builds
# (2 cores, Python 3.11.7, numpy 2.4.6; medians of 3-7 interleaved rounds, tracemalloc peak), 2^14 / 2^15 / 2^16 /
# unchunked: (q, k) = (9, 6) 38 / 41 / 50 / 54 ms, 3.4 / 4.5 / 7.0 / 12.8 MiB; (3, 13) 647 / 640 / 677 / 707 ms,
# 14.6 / 15.4 / 18.8 / 35.3 MiB; (2, 21) 193 / 216 / 225 / 280 ms, 29.7 / 29.1 / 30.0 / 36.0 MiB (a longer row
# was one chunk then, and the sieve also held every code of each degree below the top in the order of its
# largest factor).
SIEVE_CHUNK_PAIRS = 1 << 15


def _pair_chunks(counts: np.ndarray):
    """The pairs (i, j), j < counts[i], in (i, j) order, in chunks of at most `SIEVE_CHUNK_PAIRS` pairs.

    Yields each chunk as its arrays of i and of j.  A chunk is a run of
    whole rows i where one fits, and otherwise the next `SIEVE_CHUNK_PAIRS`
    pairs of a longer row: the pair at position x of the whole list has
    its j = x - the position of row i's first pair.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    lo = 0
    while lo < total:
        within = np.searchsorted(ends, lo + SIEVE_CHUNK_PAIRS, side="right")  # rows that end within the cap
        hi = int(ends[within - 1]) if within and ends[within - 1] > lo else min(lo + SIEVE_CHUNK_PAIRS, total)
        # the rows that end past lo, up to the first that ends at or past hi
        rows = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(ends, hi, side="left") + 1)
        starts = ends[rows] - counts[rows]
        n = np.minimum(ends[rows], hi) - np.maximum(starts, lo)  # each row's pairs in this chunk
        yield np.repeat(rows, n), np.arange(lo, hi) - np.repeat(starts, n)
        lo = hi


class PolyTables:
    """Per-field tables of factorization types for every degree up to kmax.

    `types[d][code]` is the index (into `partitions_of(d)`) of the
    factorization type of the monic polynomial with that code, and
    `irr_codes[d]` lists the irreducible codes of degree d in increasing order.
    """

    def __init__(self, spec: FieldSpec, kmax: int, budget: int = DEFAULT_BUDGET):
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        if spec.q**kmax > budget:
            raise BudgetError(
                f"type tables for q^kmax = {spec.q}**{kmax} = {spec.q**kmax} "
                f"exceed the enumeration budget {budget}"
            )
        self.spec = spec
        self.field = gf.field_table(spec)
        # the flat field tables as int32 index arrays, 8 B a pair of elements, for every kernel on base-q digits
        self.add = np.array(self.field.add, dtype=np.int32)
        self.mul = np.array(self.field.mul, dtype=np.int32)
        self.kmax = kmax
        self.partitions: dict[int, list[Partition]] = {}
        self.types: dict[int, np.ndarray] = {}
        self.irr_codes: dict[int, np.ndarray] = {}
        self._pid: dict[int, dict[tuple[int, ...], int]] = {}
        self._lambda: dict[int, np.ndarray] = {}
        q = spec.q
        for d in range(1, kmax + 1):
            parts_list = partitions_of(d)
            pid = {lam.parts: i for i, lam in enumerate(parts_list)}
            self.partitions[d] = parts_list
            self._pid[d] = pid
            types = np.full(q**d, -1, dtype=np.int16)
            for e in range(1, d):
                # pairs (P, g): P irreducible of degree e, g of degree d - e with no factor of degree above e
                g_types, g_parts = self.types[d - e], self.partitions[d - e]
                largest = np.array([lam.parts[0] for lam in g_parts], dtype=np.int8)
                g_codes = np.flatnonzero(largest[g_types] <= e)
                join = np.array([pid.get((e,) + lam.parts, -1) for lam in g_parts], dtype=np.int16)
                irr = self.irr_codes[e]
                for p_idx, g_idx in _pair_chunks(np.full(len(irr), len(g_codes))):
                    g, p_codes = g_codes[g_idx], irr[p_idx]
                    del p_idx, g_idx  # freed before the product's digit arrays are made: 16 B a pair off the peak
                    types[self.product(g, d - e, p_codes, e)] = join[g_types[g]]
            # codes never produced as products are the irreducibles of degree d
            irr = np.flatnonzero(types < 0)
            types[irr] = pid[(d,)]
            self.types[d] = types
            self.irr_codes[d] = irr

    def product(self, a: np.ndarray, da: int, b: np.ndarray, db: int) -> np.ndarray:
        """Codes of the products a[i] * b[i] of monic codes of degrees da and db."""
        if self.spec.q == 2:
            return _clmul_codes(a, da, b, db)
        return _product_codes(self.add, self.mul, self.spec.q, a, da, b, db)

    # -- lookups ------------------------------------------------------------

    def pid_of(self, lam: Partition) -> int:
        return self._pid[lam.k][lam.parts]

    def degree_census(self, d: int, codes=slice(None)) -> np.ndarray:
        """Counts per partition index over the monic polynomials of degree d with these codes (default all)."""
        return np.bincount(self.types[d][codes], minlength=len(self.partitions[d]))

    # -- von Mangoldt -------------------------------------------------------

    def lambda_table(self, k: int) -> np.ndarray:
        """Lambda values (deg P on prime powers P^e, else 0) for all of M(k, q).

        Built directly from the irreducible lists: only codes of P^{k/d}
        with deg P = d | k are nonzero.  Independent of `polyring.factor`.
        """
        if k in self._lambda:
            return self._lambda[k]
        if k > self.kmax:
            raise ValueError(f"k = {k} exceeds kmax = {self.kmax}")
        lam = np.zeros(self.spec.q**k, dtype=np.int8)
        for d in divisors(k):
            irr = powers = self.irr_codes[d]
            for deg in range(d, k, d):
                powers = self.product(powers, deg, irr, d)
            lam[powers] = d
        self._lambda[k] = lam
        return lam

    # -- block aggregation ----------------------------------------------------

    def block_counts(self, k: int, pid: int, block: int) -> np.ndarray:
        """Per-block counts of one partition over contiguous code blocks."""
        return (self.types[k].reshape(-1, block) == pid).sum(axis=1, dtype=np.int64)

    def type_block_counts(self, lam: Partition, block: int) -> np.ndarray:
        """`block_counts` of one type lam at degree lam.k, from the members of that type alone.

        Needs tables up to lam's largest part only.  A member is a product
        of irreducibles whose degrees are lam's parts, each product once:
        for a part d of multiplicity r, r irreducibles of degree d in
        nondecreasing index order.  The parts are multiplied in ascending
        order, so the longest lists of irreducibles come last, and the
        last part's products are counted per block chunk by chunk, never
        all held.
        """
        def times(codes, deg, first, d):  # chunks of codes[i] * irr_codes[d][j] over j >= first[i], and j
            irr = self.irr_codes[d]
            for i, offset in _pair_chunks(len(irr) - first):
                j = first[i] + offset
                yield self.product(codes[i], deg, irr[j], d), j

        codes, last = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)  # the empty product 1
        deg, prev = 0, None
        parts = lam.parts[::-1]
        for n, d in enumerate(parts):
            chunks = times(codes, deg, last if d == prev else np.zeros_like(last), d)
            if n + 1 < len(parts):
                codes, last = (np.concatenate(arrays) for arrays in zip(*chunks))
            deg, prev = deg + d, d
        counts = np.zeros(self.spec.q**lam.k // block, dtype=np.int64)
        for prod, _ in chunks:
            counts += np.bincount(prod // block, minlength=len(counts))
        return counts

    def lambda_block_sums(self, k: int, block: int) -> np.ndarray:
        """Per-block sums of the von Mangoldt table."""
        lam = self.lambda_table(k)
        return lam.reshape(-1, block).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

_PT_CACHE: dict[FieldSpec, PolyTables] = {}


def poly_tables(spec: FieldSpec, kmax: int, budget: int = DEFAULT_BUDGET) -> PolyTables:
    """Build (or reuse) type tables covering degrees 1..kmax for this field."""
    pt = _PT_CACHE.get(spec)
    if pt is None or pt.kmax < kmax:
        pt = _PT_CACHE[spec] = PolyTables(spec, kmax, budget)
    return pt


def cached_poly_tables(spec: FieldSpec, k: int) -> PolyTables | None:
    """Already-built tables covering degree k, or None (never builds)."""
    pt = _PT_CACHE.get(spec)
    if pt is not None and pt.kmax >= k:
        return pt
    return None
