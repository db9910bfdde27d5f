"""The finite field F_q, q = p^nu: construction, element texts and index tables.

A field is described by a `FieldSpec` holding the characteristic p, the
exponent nu and a canonical monic irreducible modulus of degree nu over
F_p.  The modulus is the lexicographically least irreducible, where monic
polynomials are ordered by their coefficient vector (c0, ..., c_{nu-1})
read as a base-p integer; this makes field construction deterministic
without external tables.

An element is held as its index in [0, q): its digit vector
(d0, ..., d_{nu-1}) over F_p, low-to-high relative to the modulus, read
as the base-p integer sum d_i p^i.  Only text shows the digits: the form
is `[d0,d1,...]`, and prime fields render a bare integer
(`element_texts`).  All arithmetic runs on indices.

`FieldTable` holds the flat add/mul/neg/inv/p-th-root tables over
element indices that every polynomial operation reads; `field_table`
builds one per field and keeps it.  Addition is digit-wise; the rest
comes from log tables, the powers of one generator of F_q^*.  The
tables take about 16 bytes per element pair, and those at
`TABLE_Q_LIMIT` = 2048 build in about 0.5 s.  Both are pure Python, so
working in F_q[t] needs no numpy.  `DEFAULT_BUDGET` and `BudgetError`
bound every enumeration; element tables stop at `TABLE_Q_LIMIT` with the
same error.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ffstat.combinatorics import FrozenRecord

DEFAULT_Q_LIMIT = 1 << 16
DEFAULT_BUDGET = 1 << 26
TABLE_Q_LIMIT = 2048


class BudgetError(ValueError):
    """Projected enumeration size exceeds the configured budget."""


class FieldSpec(FrozenRecord):
    """The field F_{p^nu} with its canonical modulus (coefficients mod p, low-to-high)."""

    __slots__ = ("p", "nu", "modulus", "q")
    p: int
    nu: int
    modulus: tuple[int, ...]
    q: int


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
# F_p[x] helpers on plain int lists (modulus search, a generator's powers)
# ---------------------------------------------------------------------------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # b monic
    a = list(a)
    while len(a) >= len(b):
        c = a[-1]
        s = len(a) - len(b)
        for i, bi in enumerate(b):
            a[s + i] = (a[s + i] - c * bi) % p
        _fp_trim(a)
    return a


def _fp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    _fp_trim(res)
    if len(res) >= len(mod):
        res = _fp_rem(res, mod, p)
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
            if not _fp_rem(mod, div, p):
                return False
    return True


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def make_field(p: int, nu: int) -> FieldSpec:
    """Build F_{p^nu} with the canonical (lexicographically least) modulus.

    For nu = 1 the modulus is the degenerate placeholder x; elements are
    residues mod p.  A field is built once and kept, so repeated calls
    return the same spec; bad p or nu raise on every call.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if nu < 1:
        raise ValueError(f"nu = {nu} must be >= 1")
    q = p**nu
    if q > DEFAULT_Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the field-size limit {DEFAULT_Q_LIMIT}")
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
# Text form
# ---------------------------------------------------------------------------

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

def _generator_powers(spec: FieldSpec) -> list[int]:
    """Indices of g^0, ..., g^{q-2} for the least-index generator g of F_q^*."""
    p, q, mod = spec.p, spec.q, list(spec.modulus)
    for g in range(1, q):
        g_digits = _fp_trim([g // p**i % p for i in range(spec.nu)])
        powers, power = [1], [1]
        while True:
            power = _fp_mulmod(power, g_digits, mod, p)
            idx = sum(d * p**i for i, d in enumerate(power))
            if idx == 1:
                break
            powers.append(idx)
        if len(powers) == q - 1:
            return powers
    raise AssertionError("F_q^* has no generator")  # unreachable: F_q^* is cyclic


class FieldTable:
    """Flat add/mul/neg/inv/p-th-root tables over element indices.

    `add` and `mul` are q*q flat lists, entry a*q + b for the pair (a, b).
    Addition is digit-wise mod p, built one base-p digit at a time;
    multiplication, inverses and p-th roots read the discrete logarithms
    of the least-index generator g of F_q^* (Zech/log tables):
    a*b = g^(log a + log b), 1/a = g^(-log a), a^(1/p) = g^(log a * q/p).
    Every entry is one of q shared int objects, so the tables take about
    16 bytes per element pair: 64 MB at q = `TABLE_Q_LIMIT` = 2048, built
    in about 0.5 s.
    """

    __slots__ = ("spec", "q", "add", "mul", "neg", "inv", "pth_root")

    def __init__(self, spec: FieldSpec):
        q = spec.q
        if q > TABLE_Q_LIMIT:
            raise BudgetError(f"element tables unsupported for q = {q} > {TABLE_Q_LIMIT}")
        self.spec = spec
        self.q = q
        p = spec.p
        ints = list(range(q))
        # indices < n summed digit-wise; each pass puts one more digit on top
        add, n = [0], 1
        for _ in range(spec.nu):
            blocks = [ints[h * n:(h + 1) * n] for h in range(p)]  # top digit h
            wheels = []  # per low part: its sums with every top digit, in digit order
            for lo in range(n):
                sums = add[lo * n:(lo + 1) * n]
                wheel = []
                for block in blocks:
                    wheel += map(block.__getitem__, sums)
                wheels.append(wheel)
            add = []
            for hi in range(p):  # the row of lo + n*hi starts at top digit hi
                for wheel in wheels:
                    add += wheel[hi * n:]
                    add += wheel[:hi * n]
            n *= p
        self.add = add
        self.neg = [ints[add.index(0, a * q) - a * q] for a in range(q)]
        m = q - 1
        exp = [ints[e] for e in _generator_powers(spec)]
        log = [0] * q
        for k, e in enumerate(exp):
            log[e] = k
        exp += exp  # so a window of q - 1 powers from any log never wraps
        logs = log[1:]
        mul = [0] * q
        for a in range(1, q):
            powers = exp[log[a]:log[a] + m]  # a*g^k for k = 0 .. q-2
            mul.append(0)
            mul += map(powers.__getitem__, logs)
        self.mul = mul
        self.inv = [0] + [exp[-log[a] % m] for a in range(1, q)]
        self.pth_root = [0] + [exp[log[a] * (q // p) % m] for a in range(1, q)]


@lru_cache(maxsize=None)
def field_table(spec: FieldSpec) -> FieldTable:
    """The index tables of this field, built on first use."""
    return FieldTable(spec)
