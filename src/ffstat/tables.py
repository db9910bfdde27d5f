"""Dense enumeration kernels over monic polynomials.

A monic polynomial of degree d is coded by the base-q integer of its d
lower coefficient indices (the leading 1 is implicit), so the monic
polynomials of degree d are exactly the codes 0 .. q^d - 1 and a short
interval is a contiguous block of codes.

The central structure is a per-field table of factorization types, built
degree by degree without any gcd machinery: order the monic irreducibles
globally by (degree, code); every reducible monic polynomial of degree d
is then the product g * P of its largest irreducible factor P and the
product g of the remaining factors, and that writing is unique.  Walking
the (g, P) pairs produces every reducible polynomial exactly once, and
the codes never produced are the irreducibles of degree d.  This
construction is independent of the division-based factorization in
`polyring`; the test suite cross-checks the two.
"""

from __future__ import annotations

import threading

import numpy as np

from ffstat import gf
from ffstat.combinatorics import Partition, divisors, partitions_of
from ffstat.gf import FieldSpec

DEFAULT_BUDGET = 1 << 26
TABLE_Q_LIMIT = 2048


class BudgetError(ValueError):
    """Projected enumeration size exceeds the configured budget."""


# ---------------------------------------------------------------------------
# Field element tables (index arithmetic)
# ---------------------------------------------------------------------------

class FieldTable:
    """Flat add/mul/neg/inv tables over element indices."""

    __slots__ = ("spec", "q", "add", "mul", "neg", "inv", "pth_root")

    def __init__(self, spec: FieldSpec):
        q = spec.q
        if q > TABLE_Q_LIMIT:
            raise BudgetError(f"element tables unsupported for q = {q} > {TABLE_Q_LIMIT}")
        self.spec = spec
        self.q = q
        elems = [gf.element_from_index(spec, i) for i in range(q)]
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for i in range(q):
            for j in range(i, q):
                s = gf.element_index(spec, gf.fe_add(spec, elems[i], elems[j]))
                m = gf.element_index(spec, gf.fe_mul(spec, elems[i], elems[j]))
                add[i * q + j] = add[j * q + i] = s
                mul[i * q + j] = mul[j * q + i] = m
        self.add = add
        self.mul = mul
        self.neg = [gf.element_index(spec, gf.fe_neg(spec, e)) for e in elems]
        self.inv = [0] + [gf.element_index(spec, gf.fe_inv(spec, e)) for e in elems[1:]]
        frob = [gf.element_index(spec, gf.fe_pow(spec, e, spec.p)) for e in elems]
        pth_root = [0] * q
        for i, fi in enumerate(frob):
            pth_root[fi] = i
        self.pth_root = pth_root


def code_to_coeffs(code: int, d: int, q: int) -> tuple[int, ...]:
    """Full coefficient index tuple (length d+1, leading 1) of a monic code."""
    out = []
    for _ in range(d):
        out.append(code % q)
        code //= q
    out.append(1)
    return tuple(out)


def coeffs_to_code(coeffs, q: int) -> int:
    """Code of a monic coefficient index tuple (leading coefficient dropped)."""
    code = 0
    for c in reversed(coeffs[:-1]):
        code = code * q + c
    return code


def coeffs_mul(a, b, ft: FieldTable):
    """Convolution of coefficient index tuples via the field tables."""
    q = ft.q
    addT = ft.add
    mulT = ft.mul
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            base = ai * q
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    res[k] = addT[res[k] * q + mulT[base + bj]]
    return res


def member_codes(ft: FieldTable, f_ci, g_ci, m: int) -> np.ndarray:
    """Codes of the monic f + g*h for every h of degree <= m, in h-code order.

    `f_ci` and `g_ci` are the index tuples of monic f and of g, with
    deg g + m < deg f.  The base-p digits of a code are the F_p-coordinates
    of its coefficients, and h -> f + g*h is F_p-affine in them: h-digit s,
    coordinate s % nu of h's coefficient s // nu, adds its multiple of the
    digits of g * t^(s // nu) * (the element of index p^(s % nu)).  Codes
    are built one digit at a time over all members, so no members x digits
    matrix is held: about 24 B a member (int64 codes and two digit columns).
    """
    q, p, nu = ft.q, ft.spec.p, ft.spec.nu
    k = len(f_ci) - 1
    if len(g_ci) + m > k:
        raise ValueError("need deg g + m < deg f")

    def digits(ci) -> list[int]:
        code = sum(c * q**i for i, c in enumerate(ci[:k]))
        return [code // p**t % p for t in range(k * nu)]

    f_digits = digits(f_ci)
    rows = [digits(coeffs_mul((0,) * (s // nu) + (p ** (s % nu),), g_ci, ft)) for s in range((m + 1) * nu)]
    codes = np.zeros(q ** (m + 1), dtype=np.int64 if q**k <= 2**63 else object)
    for t in reversed(range(k * nu)):  # Horner over the code's digits, most significant first
        col = np.array([f_digits[t]], dtype=np.int64)
        for row in rows:  # h-digit s becomes the slowest-varying axis so far
            col = ((np.arange(p) * row[t] % p)[:, None] + col).reshape(-1)
        codes *= p
        codes += col % p  # col holds digit sums, reduced once
    return codes


# ---------------------------------------------------------------------------
# Factorization-type tables
# ---------------------------------------------------------------------------

class PolyTables:
    """Per-field tables of factorization types for every degree up to kmax.

    `types[d][code]` is the index (into `partitions_of(d)`) of the
    factorization type of the monic polynomial with that code.
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
        self.field = field_table(spec)
        self.kmax = kmax
        self.partitions: dict[int, list[Partition]] = {}
        self.types: dict[int, np.ndarray] = {}
        self.irr_codes: dict[int, np.ndarray] = {}
        self._pid: dict[int, dict[tuple[int, ...], int]] = {}
        self._irr_entries: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._layers: dict[int, list] = {}
        self._lambda: dict[int, np.ndarray] = {}
        self._next_rank = 0
        for d in range(1, kmax + 1):
            self._build_degree(d, keep_layer=(d < kmax))

    def _build_degree(self, d: int, keep_layer: bool) -> None:
        ft = self.field
        q = ft.q
        parts_list = partitions_of(d)
        pid = {p.parts: i for i, p in enumerate(parts_list)}
        self.partitions[d] = parts_list
        self._pid[d] = pid
        tl = [-1] * (q**d)
        new_layer = []
        addT = ft.add
        mulT = ft.mul
        for e in range(1, d):
            glayer = self._layers[d - e]
            for rank_p, pc in self._irr_entries[e]:
                for gent in glayer:
                    if gent[0] > rank_p:
                        break
                    gc = gent[1]
                    res = [0] * (d + 1)
                    for i, ai in enumerate(gc):
                        if ai:
                            base = ai * q
                            for j, bj in enumerate(pc):
                                if bj:
                                    k = i + j
                                    res[k] = addT[res[k] * q + mulT[base + bj]]
                    code = 0
                    for c in reversed(res[:-1]):
                        code = code * q + c
                    fparts = (e,) + gent[2]
                    tl[code] = pid[fparts]
                    if keep_layer:
                        new_layer.append((rank_p, tuple(res), fparts))
        # codes never produced as products are the irreducibles of degree d
        irr_pid = pid[(d,)]
        irr_codes = []
        entries = []
        for code, v in enumerate(tl):
            if v < 0:
                tl[code] = irr_pid
                irr_codes.append(code)
        for code in irr_codes:
            entries.append((self._next_rank, code_to_coeffs(code, d, q)))
            self._next_rank += 1
        self._irr_entries[d] = entries
        self.irr_codes[d] = np.array(irr_codes, dtype=np.int64)
        self.types[d] = np.array(tl, dtype=np.int16)
        if keep_layer:
            new_layer.extend((rank, coeffs, (d,)) for rank, coeffs in entries)
            new_layer.sort(key=lambda ent: ent[0])
            self._layers[d] = new_layer

    # -- lookups ------------------------------------------------------------

    def pid_of(self, lam: Partition) -> int:
        return self._pid[lam.k][lam.parts]

    def type_of_code(self, d: int, code: int) -> Partition:
        return self.partitions[d][int(self.types[d][code])]

    def degree_census(self, d: int) -> np.ndarray:
        """Counts per partition index over all monic polynomials of degree d."""
        return np.bincount(self.types[d], minlength=len(self.partitions[d]))

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
        ft = self.field
        lam = np.zeros(ft.q**k, dtype=np.int8)
        for d in divisors(k):
            e = k // d
            if e == 1:
                lam[self.irr_codes[d]] = d
                continue
            for _, coeffs in self._irr_entries[d]:
                acc = coeffs
                for _ in range(e - 1):
                    acc = coeffs_mul(acc, coeffs, ft)
                lam[coeffs_to_code(acc, ft.q)] = d
        self._lambda[k] = lam
        return lam

    # -- block aggregation ----------------------------------------------------

    def block_counts(self, k: int, pid: int, block: int) -> np.ndarray:
        """Per-block counts of one partition over contiguous code blocks."""
        return (self.types[k].reshape(-1, block) == pid).sum(axis=1, dtype=np.int64)

    def census_matrix(self, k: int, block: int) -> np.ndarray:
        """Per-block full censuses: shape (blocks, #partitions)."""
        t = self.types[k]
        n = len(t) // block
        npart = len(self.partitions[k])
        rows = np.repeat(np.arange(n, dtype=np.int64), block)
        comb = rows * npart + t.astype(np.int64)
        return np.bincount(comb, minlength=n * npart).reshape(n, npart)

    def lambda_block_sums(self, k: int, block: int) -> np.ndarray:
        """Per-block sums of the von Mangoldt table."""
        lam = self.lambda_table(k)
        return lam.reshape(-1, block).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

_FT_CACHE: dict[FieldSpec, FieldTable] = {}
_PT_CACHE: dict[FieldSpec, PolyTables] = {}
_LOCK = threading.RLock()  # reentrant: building poly tables fetches field tables


def field_table(spec: FieldSpec) -> FieldTable:
    ft = _FT_CACHE.get(spec)
    if ft is None:
        with _LOCK:
            ft = _FT_CACHE.get(spec)
            if ft is None:
                ft = FieldTable(spec)
                _FT_CACHE[spec] = ft
    return ft


def poly_tables(spec: FieldSpec, kmax: int, budget: int = DEFAULT_BUDGET) -> PolyTables:
    """Build (or reuse) type tables covering degrees 1..kmax for this field."""
    pt = _PT_CACHE.get(spec)
    if pt is not None and pt.kmax >= kmax:
        return pt
    with _LOCK:
        pt = _PT_CACHE.get(spec)
        if pt is None or pt.kmax < kmax:
            pt = PolyTables(spec, kmax, budget)
            _PT_CACHE[spec] = pt
    return pt


def cached_poly_tables(spec: FieldSpec, k: int) -> PolyTables | None:
    """Already-built tables covering degree k, or None (never builds)."""
    pt = _PT_CACHE.get(spec)
    if pt is not None and pt.kmax >= k:
        return pt
    return None
