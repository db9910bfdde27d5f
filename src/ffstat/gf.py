"""Arithmetic in the finite field F_q, q = p^nu.

A field is described by a `FieldSpec` holding the characteristic p, the
exponent nu and a canonical monic irreducible modulus of degree nu over
F_p.  The modulus is the lexicographically least irreducible, where monic
polynomials are ordered by their coefficient vector (c0, ..., c_{nu-1})
read as a base-p integer; this makes field construction deterministic
without external tables.

Elements are digit vectors of length exactly nu over F_p, low-to-high
relative to the modulus.  The text form is `[d0,d1,...]`; prime fields
render a bare integer.  Elements also have a dense integer index in
[0, q): the digits read as a base-p integer.  The index representation
is what the bulk enumeration kernels use.

`FieldTable` holds the flat add/mul/neg/inv/p-th-root tables over
element indices that every polynomial operation reads; `field_table`
builds one per field and keeps it.  Both are pure Python, so working in
F_q[t] needs no numpy.  `DEFAULT_BUDGET` and `BudgetError` bound every
enumeration; element tables stop at `TABLE_Q_LIMIT` with the same error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

DEFAULT_Q_LIMIT = 1 << 16
DEFAULT_BUDGET = 1 << 26
TABLE_Q_LIMIT = 2048


class BudgetError(ValueError):
    """Projected enumeration size exceeds the configured budget."""


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{p^nu} with its canonical modulus (coefficients mod p, low-to-high)."""

    p: int
    nu: int
    modulus: tuple[int, ...]
    q: int


@dataclass(frozen=True)
class FieldElement:
    """Digit vector of length nu over F_p, low-to-high."""

    coeffs: tuple[int, ...]


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^nu with p prime, nu >= 1; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            nu = 0
            m = q
            while m % p == 0:
                m //= p
                nu += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, nu
        p += 1
    return q, 1  # q itself prime


# ---------------------------------------------------------------------------
# F_p[x] helpers on plain int lists (used only for modulus search/reduction)
# ---------------------------------------------------------------------------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divrem(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # b monic
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1]
        s = len(a) - len(b)
        q[s] = c
        for i, bi in enumerate(b):
            a[s + i] = (a[s + i] - c * bi) % p
        _fp_trim(a)
        if not a:
            break
    return _fp_trim(q), a


def _fp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    _fp_trim(res)
    if len(res) >= len(mod):
        _, res = _fp_divrem(res, mod, p)
    return res


def _fp_irreducible(mod: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(mod) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = [0] * (d + 1)
            c = code
            for i in range(d):
                div[i] = c % p
                c //= p
            div[d] = 1
            _, r = _fp_divrem(mod, div, p)
            if not r:
                return False
    return True


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

def make_field(p: int, nu: int, q_limit: int = DEFAULT_Q_LIMIT) -> FieldSpec:
    """Build F_{p^nu} with the canonical (lexicographically least) modulus.

    For nu = 1 the modulus is the degenerate placeholder x; elements are
    residues mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if nu < 1:
        raise ValueError(f"nu = {nu} must be >= 1")
    q = p**nu
    if q > q_limit:
        raise ValueError(f"q = {q} exceeds the field-size limit {q_limit}")
    if nu == 1:
        return FieldSpec(p=p, nu=1, modulus=(0, 1), q=p)
    for code in range(q):
        mod = [0] * (nu + 1)
        c = code
        for i in range(nu):
            mod[i] = c % p
            c //= p
        mod[nu] = 1
        if _fp_irreducible(mod, p):
            return FieldSpec(p=p, nu=nu, modulus=tuple(mod), q=q)
    raise AssertionError("no irreducible modulus found")  # unreachable: irreducibles exist


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

def element(spec: FieldSpec, digits) -> FieldElement:
    """Validating constructor; digits may be shorter than nu (zero-padded)."""
    ds = list(digits)
    if not 1 <= len(ds) <= spec.nu:
        raise ValueError(f"element needs 1..{spec.nu} digits, got {len(ds)}")
    for d in ds:
        if not 0 <= d < spec.p:
            raise ValueError(f"digit {d} out of range for p = {spec.p}")
    ds += [0] * (spec.nu - len(ds))
    return FieldElement(tuple(ds))


def one(spec: FieldSpec) -> FieldElement:
    return FieldElement((1,) + (0,) * (spec.nu - 1))


def is_zero(a: FieldElement) -> bool:
    return all(d == 0 for d in a.coeffs)


def element_index(spec: FieldSpec, a: FieldElement) -> int:
    """Digits read as a base-p integer."""
    idx = 0
    for d in reversed(a.coeffs):
        idx = idx * spec.p + d
    return idx


def element_from_index(spec: FieldSpec, idx: int) -> FieldElement:
    if not 0 <= idx < spec.q:
        raise ValueError(f"element index {idx} out of range for q = {spec.q}")
    ds = []
    for _ in range(spec.nu):
        ds.append(idx % spec.p)
        idx //= spec.p
    return FieldElement(tuple(ds))


def all_elements(spec: FieldSpec):
    """All q elements in index order."""
    for idx in range(spec.q):
        yield element_from_index(spec, idx)


def _check(spec: FieldSpec, a: FieldElement) -> None:
    if len(a.coeffs) != spec.nu:
        raise ValueError("element does not belong to this FieldSpec")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def fe_add(spec: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    _check(spec, a)
    _check(spec, b)
    p = spec.p
    return FieldElement(tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))


def fe_neg(spec: FieldSpec, a: FieldElement) -> FieldElement:
    _check(spec, a)
    p = spec.p
    return FieldElement(tuple((-x) % p for x in a.coeffs))


def fe_mul(spec: FieldSpec, a: FieldElement, b: FieldElement) -> FieldElement:
    _check(spec, a)
    _check(spec, b)
    p = spec.p
    if spec.nu == 1:
        return FieldElement(((a.coeffs[0] * b.coeffs[0]) % p,))
    res = _fp_mulmod(list(a.coeffs), list(b.coeffs), list(spec.modulus), p)
    res += [0] * (spec.nu - len(res))
    return FieldElement(tuple(res))


def fe_inv(spec: FieldSpec, a: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises ZeroDivisionError on zero."""
    _check(spec, a)
    if is_zero(a):
        raise ZeroDivisionError("inverse of zero field element")
    p = spec.p
    if spec.nu == 1:
        return FieldElement((pow(a.coeffs[0], p - 2, p),))
    # extended Euclid in F_p[x] against the modulus
    r0, r1 = list(spec.modulus), _fp_trim(list(a.coeffs))
    s0, s1 = [], [1]
    while r1:
        lead_inv = pow(r1[-1], p - 2, p)
        monic_r1 = [(c * lead_inv) % p for c in r1]
        q, r = _fp_divrem(r0, monic_r1, p)
        q = [(c * lead_inv) % p for c in q]
        qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] = (qs1[i + j] + qi * sj) % p
        new_s = [0] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            new_s[i] = c
        for i, c in enumerate(qs1):
            new_s[i] = (new_s[i] - c) % p
        r0, r1 = r1, r
        s0, s1 = s1, _fp_trim(new_s)
    # r0 = gcd, a nonzero constant (modulus irreducible)
    c_inv = pow(r0[0], p - 2, p)
    res = [(c * c_inv) % p for c in s0]
    if len(res) >= spec.nu + 1:
        _, res = _fp_divrem(res, list(spec.modulus), p)
    res += [0] * (spec.nu - len(res))
    return FieldElement(tuple(res[: spec.nu]))


def fe_pow(spec: FieldSpec, a: FieldElement, n: int) -> FieldElement:
    """a**n by square-and-multiply, with 0**0 = 1."""
    if n < 0:
        raise ValueError("negative exponent")
    result = one(spec)
    base = a
    while n:
        if n & 1:
            result = fe_mul(spec, result, base)
        n >>= 1
        if n:
            base = fe_mul(spec, base, base)
    return result


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def element_to_text(spec: FieldSpec, a: FieldElement) -> str:
    """`[d0,d1,...]` digits low-to-high; prime fields emit a bare integer."""
    _check(spec, a)
    return element_texts(spec)[element_index(spec, a)]


@lru_cache(maxsize=None)
def element_texts(spec: FieldSpec) -> tuple[str, ...]:
    """The text form of every element, in index order (built once per field)."""
    digits = [str(d) for d in range(spec.p)]
    if spec.nu == 1:
        return tuple(digits)
    # product varies its last place fastest, and the index its lowest digit d0
    return tuple("[" + ",".join(reversed(ds)) + "]" for ds in product(digits, repeat=spec.nu))


# ---------------------------------------------------------------------------
# Index tables
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
        elems = list(all_elements(spec))
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for i in range(q):
            for j in range(i, q):
                s = element_index(spec, fe_add(spec, elems[i], elems[j]))
                m = element_index(spec, fe_mul(spec, elems[i], elems[j]))
                add[i * q + j] = add[j * q + i] = s
                mul[i * q + j] = mul[j * q + i] = m
        self.add = add
        self.mul = mul
        self.neg = [element_index(spec, fe_neg(spec, e)) for e in elems]
        self.inv = [0] + [element_index(spec, fe_inv(spec, e)) for e in elems[1:]]
        frob = [element_index(spec, fe_pow(spec, e, spec.p)) for e in elems]
        pth_root = [0] * q
        for i, fi in enumerate(frob):
            pth_root[fi] = i
        self.pth_root = pth_root


@lru_cache(maxsize=None)
def field_table(spec: FieldSpec) -> FieldTable:
    """The index tables of this field, built on first use."""
    return FieldTable(spec)
