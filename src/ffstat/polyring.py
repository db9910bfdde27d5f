"""Polynomial arithmetic over F_q[t] and factorization into prime degrees.

A `Poly` stores its field spec and a trimmed tuple of coefficient
*indices*, low-to-high; an element's index is its digits over F_p read
as a base-p integer (see `gf`).  The zero polynomial has degree
`NEG_DEGREE`, a marker ordered below every integer, so conditions like
"deg f' <= 1" hold for a vanishing derivative.

A monic polynomial of degree d has a code: the base-q integer of its d
lower coefficient indices, the leading 1 left implicit
(`code_to_coeffs`, `coeffs_to_code`).  The monic polynomials of degree d
are the codes 0 .. q^d - 1, and a short interval is a block of them.
All arithmetic runs on index tuples through the field's index tables
(`gf.field_table`).

Factoring finds the degrees and multiplicities of the prime
factors, which is all that factorization types, the totient and the von
Mangoldt function read: squarefree decomposition (with p-th root
extraction when the derivative vanishes, valid since F_q is perfect),
then distinct-degree splitting via gcd(f, t^{q^d} - t).
`is_irreducible` is Rabin's test, independent of both.  It serves
`statistics.radical_set` and the members of an interval that
`statistics.interval_prime_count` leaves unstruck by its small factors,
and it is the tests' independent oracle for both.
"""

from __future__ import annotations

from ffstat import gf
from ffstat.combinatorics import Partition
from ffstat.gf import FieldSpec

NEG_DEGREE = float("-inf")


class Poly:
    """Immutable dense polynomial over a fixed field."""

    __slots__ = ("spec", "ci")

    def __init__(self, spec: FieldSpec, ci: tuple[int, ...]):
        self.spec = spec
        self.ci = ci

    @property
    def degree(self):
        return len(self.ci) - 1 if self.ci else NEG_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.ci

    @property
    def is_monic(self) -> bool:
        return bool(self.ci) and self.ci[-1] == 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.spec == other.spec and self.ci == other.ci

    def __hash__(self):
        return hash((self.spec, self.ci))

    def __str__(self):
        return poly_text(self)

    def __repr__(self):
        return f"Poly(q={self.spec.q}, {poly_text(self)})"


# ---------------------------------------------------------------------------
# Construction and rendering
# ---------------------------------------------------------------------------

def _trim(ci: list[int]) -> tuple[int, ...]:
    while ci and ci[-1] == 0:
        ci.pop()
    return tuple(ci)


def poly_from_indices(spec: FieldSpec, indices) -> Poly:
    ci = list(indices)
    for i in ci:
        if not 0 <= i < spec.q:
            raise ValueError(f"coefficient index {i} out of range for q = {spec.q}")
    return Poly(spec, _trim(ci))


def one_poly(spec: FieldSpec) -> Poly:
    return Poly(spec, (1,))


def monomial(spec: FieldSpec, n: int) -> Poly:
    """t^n."""
    return Poly(spec, (0,) * n + (1,))


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


def monic_code(f: Poly) -> int:
    """Base-q integer of the lower deg(f) coefficients (requires monic input)."""
    if not f.is_monic:
        raise ValueError("monic polynomial required")
    return coeffs_to_code(f.ci, f.spec.q)


def monic_from_code(spec: FieldSpec, d: int, code: int) -> Poly:
    return Poly(spec, code_to_coeffs(code, d, spec.q))


def all_monic(spec: FieldSpec, d: int):
    """All monic degree-d polynomials in code order."""
    for code in range(spec.q**d):
        yield monic_from_code(spec, d, code)


def poly_text(f: Poly) -> str:
    """Comma-separated coefficients low-to-high in field-element text form."""
    texts = gf.element_texts(f.spec)
    return ",".join(texts[i] for i in f.ci) if f.ci else texts[0]


# ---------------------------------------------------------------------------
# Index-tuple kernels
# ---------------------------------------------------------------------------

def _add_idx(ft, a, b):
    q = ft.q
    addT = ft.add
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for i, x in enumerate(b):
        res[i] = addT[res[i] * q + x]
    while res and res[-1] == 0:
        res.pop()
    return tuple(res)


def _neg_idx(ft, a):
    negT = ft.neg
    return tuple(negT[x] for x in a)


def _sub_idx(ft, a, b):
    return _add_idx(ft, a, _neg_idx(ft, b))


def mul_idx(ft: gf.FieldTable, a, b) -> tuple[int, ...]:
    """Product of two trimmed coefficient index tuples, convolved through the field tables."""
    if not a or not b:
        return ()
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
    return tuple(res)


def _scale_idx(ft, a, s):
    if s == 0:
        return ()
    if s == 1:
        return a
    q = ft.q
    mulT = ft.mul
    return tuple(mulT[x * q + s] for x in a)


def _divrem_idx(ft, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = ft.q
    addT = ft.add
    mulT = ft.mul
    negT = ft.neg
    inv_lead = ft.inv[b[-1]]
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), tuple(rem)
    quot = [0] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c:
            factor = mulT[c * q + inv_lead]
            quot[top - db] = factor
            shift = top - db
            nf = negT[factor]
            for i, bi in enumerate(b):
                if bi:
                    rem[shift + i] = addT[rem[shift + i] * q + mulT[nf * q + bi]]
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot), tuple(rem)


def _mod_idx(ft, a, b):
    return _divrem_idx(ft, a, b)[1]


def _monic_idx(ft, a):
    if not a or a[-1] == 1:
        return a
    return _scale_idx(ft, a, ft.inv[a[-1]])


def _gcd_idx(ft, a, b):
    while b:
        a, b = b, _mod_idx(ft, a, b)
    return _monic_idx(ft, a)


def _mulmod_idx(ft, a, b, mod):
    return _mod_idx(ft, mul_idx(ft, a, b), mod)


def _powmod_idx(ft, base, n, mod):
    result = (1,)
    base = _mod_idx(ft, base, mod)
    while n:
        if n & 1:
            result = _mulmod_idx(ft, result, base, mod)
        n >>= 1
        if n:
            base = _mulmod_idx(ft, base, base, mod)
    return result


def _derivative_idx(ft, spec, a):
    q = ft.q
    mulT = ft.mul
    p = spec.p
    res = [0] * max(len(a) - 1, 0)
    for n in range(1, len(a)):
        s = n % p
        if s and a[n]:
            res[n - 1] = mulT[a[n] * q + s]
    while res and res[-1] == 0:
        res.pop()
    return tuple(res)


# ---------------------------------------------------------------------------
# Public arithmetic
# ---------------------------------------------------------------------------

def _same_spec(a: Poly, b: Poly) -> FieldSpec:
    if a.spec != b.spec:
        raise ValueError("polynomials over different fields")
    return a.spec


def poly_add(a: Poly, b: Poly) -> Poly:
    spec = _same_spec(a, b)
    return Poly(spec, _add_idx(gf.field_table(spec), a.ci, b.ci))


def poly_mul(a: Poly, b: Poly) -> Poly:
    spec = _same_spec(a, b)
    return Poly(spec, mul_idx(gf.field_table(spec), a.ci, b.ci))


def poly_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative exponent")
    spec = a.spec
    ft = gf.field_table(spec)
    result = (1,)
    base = a.ci
    while n:
        if n & 1:
            result = mul_idx(ft, result, base)
        n >>= 1
        if n:
            base = mul_idx(ft, base, base)
    return Poly(spec, result)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; rejects gcd(0, 0)."""
    spec = _same_spec(a, b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return Poly(spec, _gcd_idx(gf.field_table(spec), a.ci, b.ci))


def derivative(f: Poly) -> Poly:
    return Poly(f.spec, _derivative_idx(gf.field_table(f.spec), f.spec, f.ci))


def rational_derivative_is_constant(f: Poly, d: Poly) -> bool:
    """Whether (f/D)' = (f'D - fD')/D^2 is an element of F_q (possibly 0)."""
    spec = _same_spec(f, d)
    if d.is_zero:
        raise ValueError("denominator must be nonzero")
    ft = gf.field_table(spec)
    if len(_gcd_idx(ft, f.ci, d.ci)) > 1:
        raise ValueError("f and D must be coprime")
    num = _sub_idx(
        ft,
        mul_idx(ft, _derivative_idx(ft, spec, f.ci), d.ci),
        mul_idx(ft, f.ci, _derivative_idx(ft, spec, d.ci)),
    )
    if not num:
        return True
    d2 = mul_idx(ft, d.ci, d.ci)
    quot, rem = _divrem_idx(ft, num, d2)
    return not rem and len(quot) == 1


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------

def _pth_root_idx(ft, spec, a):
    # a = b(t^p) with Frobenius-power coefficients; recover b
    p = spec.p
    root = ft.pth_root
    out = []
    for n in range(0, len(a), p):
        out.append(root[a[n]])
    return tuple(out)


def _squarefree_idx(ft, spec, m):
    """Squarefree decomposition of monic m: list of (squarefree part, multiplicity)."""
    if len(m) <= 1:
        return []
    deriv = _derivative_idx(ft, spec, m)
    if not deriv:
        inner = _pth_root_idx(ft, spec, m)
        return [(g, e * spec.p) for g, e in _squarefree_idx(ft, spec, inner)]
    out = []
    c = _gcd_idx(ft, m, deriv)
    w = _divrem_idx(ft, m, c)[0]
    i = 1
    while len(w) > 1:
        y = _gcd_idx(ft, w, c)
        fac = _divrem_idx(ft, w, y)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = _divrem_idx(ft, c, y)[0]
        i += 1
    if len(c) > 1:
        inner = _pth_root_idx(ft, spec, c)
        out.extend((g, e * spec.p) for g, e in _squarefree_idx(ft, spec, inner))
    return out


def _distinct_degree_idx(ft, spec, g):
    """Split squarefree monic g into (product, d) pieces of equal factor degree d."""
    q = spec.q
    out = []
    cur = g
    xq = (0, 1)
    d = 0
    while len(cur) - 1 >= 2 * (d + 1):
        d += 1
        xq = _powmod_idx(ft, xq, q, cur)
        piece = _gcd_idx(ft, _sub_idx(ft, xq, (0, 1)), cur)
        if len(piece) > 1:
            out.append((piece, d))
            cur = _divrem_idx(ft, cur, piece)[0]
            xq = _mod_idx(ft, xq, cur)
    if len(cur) > 1:
        out.append((cur, len(cur) - 1))
    return out


def factor(f: Poly) -> tuple[tuple[int, int], ...]:
    """Sorted (degree, multiplicity) of each distinct monic irreducible factor; () for a constant.

    A distinct-degree piece of degree n whose factors have degree d
    holds n/d of them, so the primes themselves are never split out.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    spec = f.spec
    ft = gf.field_table(spec)
    found = []
    for sf, mult in _squarefree_idx(ft, spec, _monic_idx(ft, f.ci)):
        for piece, d in _distinct_degree_idx(ft, spec, sf):
            found += [(d, mult)] * ((len(piece) - 1) // d)
    return tuple(sorted(found))


def factorization_type(f: Poly) -> Partition:
    """Degrees of the irreducible factors with multiplicity, as a partition of deg f."""
    if f.is_zero or len(f.ci) == 1:
        raise ValueError("factorization type needs degree >= 1")
    parts = [d for d, mult in factor(f) for _ in range(mult)]
    return Partition(tuple(sorted(parts, reverse=True)))


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_q (Rabin's iterated-Frobenius test)."""
    if f.is_zero or len(f.ci) == 1:
        raise ValueError("irreducibility needs degree >= 1")
    spec = f.spec
    ft = gf.field_table(spec)
    n = len(f.ci) - 1
    if n == 1:
        return True
    m = _monic_idx(ft, f.ci)
    q = spec.q
    prime_divs = set()
    nn = n
    dd = 2
    while dd * dd <= nn:
        if nn % dd == 0:
            prime_divs.add(dd)
            while nn % dd == 0:
                nn //= dd
        dd += 1
    if nn > 1:
        prime_divs.add(nn)
    checkpoints = {n // r for r in prime_divs}
    x = (0, 1)
    cur = x
    for i in range(1, n + 1):
        cur = _powmod_idx(ft, cur, q, m)
        if i in checkpoints:
            g = _gcd_idx(ft, _sub_idx(ft, cur, x), m)
            if len(g) > 1:
                return False
    return _sub_idx(ft, cur, x) == ()
