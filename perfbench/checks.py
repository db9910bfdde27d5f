"""Independent checks of ffstat outputs.

Nothing here imports ffstat.  Every expected value is a closed form or is
recomputed from scratch with the small finite-field toolkit below (field
tables built from digit arithmetic, trial-division factorization), so a
fault in the program's sieve, factorizer or scan code cannot hide in the
checks.  Each `check_*` function returns a list of failure messages; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# Domains at most this large are recomputed member by member; larger ones
# are checked through closed forms and structural properties only.
RECOMPUTE_LIMIT = 4096


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def moebius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def prime_count(q: int, k: int) -> int:
    """Gauss-Moebius count of monic irreducibles of degree k over F_q."""
    return sum(moebius(d) * q ** (k // d) for d in divisors(k)) // k


def partitions(k: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of k as nonincreasing tuples, largest first part first."""
    cap = k if cap is None else cap
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(min(k, cap), 0, -1) for rest in partitions(k - first, first)]


def multiplicities(lam) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out


def type_count(q: int, k: int, lam) -> int:
    """Multiset count of monic degree-k polynomials with factorization type lam."""
    assert sum(lam) == k
    count = 1
    for part, mult in multiplicities(lam).items():
        count *= math.comb(prime_count(q, part) + mult - 1, mult)
    return count


def z_lambda(lam) -> int:
    """Centralizer size: 1/z_lambda is the cycle-type probability of lam in S_k."""
    z = 1
    for part, mult in multiplicities(lam).items():
        z *= part**mult * math.factorial(mult)
    return z


def euler_phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def lam_text(lam) -> str:
    return "+".join(str(part) for part in lam)


def parse_lam(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(tok) for tok in text.split("+")), reverse=True))


def frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Finite fields and polynomials over them
# ---------------------------------------------------------------------------

class Field:
    """F_q with q = p^nu, elements indexed by their base-p digit vectors.

    The modulus is the least irreducible in code order (digits low to
    high read as a base-p integer), the rule the README fixes.
    """

    def __init__(self, p: int, nu: int):
        self.p, self.nu, self.q = p, nu, p**nu
        if nu == 1:
            self.modulus = (0, 1)
        else:
            for code in range(self.q):
                mod = [(code // p**i) % p for i in range(nu)] + [1]
                if field(p).is_irreducible(tuple(mod)):
                    self.modulus = tuple(mod)
                    break
        q = self.q
        digits = [[(i // p**j) % p for j in range(nu)] for i in range(q)]
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                self.add[a][b] = self._index([(x + y) % p for x, y in zip(digits[a], digits[b])])
                self.mul[a][b] = self._index(self._digit_mul(digits[a], digits[b]))
        self.neg = [self._index([(-x) % p for x in digits[a]]) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)
        self._irr: dict[int, list[tuple[int, ...]]] = {}
        self._lam: dict[int, list[int]] = {}

    def _index(self, ds) -> int:
        return sum(d * self.p**i for i, d in enumerate(ds))

    def _digit_mul(self, a, b) -> list[int]:
        p, nu = self.p, self.nu
        prod = [0] * (2 * nu - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, nu - 1, -1):
            c = prod[top]
            if c:
                for i in range(nu + 1):
                    prod[top - nu + i] = (prod[top - nu + i] - c * self.modulus[i]) % p
        return prod[:nu]

    # -- text forms (README grammar) ---------------------------------------

    def elem_text(self, a: int) -> str:
        if self.nu == 1:
            return str(a)
        return "[" + ",".join(str((a // self.p**j) % self.p) for j in range(self.nu)) + "]"

    def poly_text(self, f) -> str:
        if not f:
            return self.elem_text(0)
        return ",".join(self.elem_text(c) for c in f)

    def field_dict(self) -> dict:
        return {"p": self.p, "nu": self.nu, "modulus": list(self.modulus)}

    # -- polynomial arithmetic on coefficient-index tuples, low to high -----

    def pmul(self, a, b) -> tuple[int, ...]:
        if not a or not b:
            return ()
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = self.mul[x]
                for j, y in enumerate(b):
                    if y:
                        res[i + j] = self.add[res[i + j]][row[y]]
        return trim(res)

    def padd(self, a, b) -> tuple[int, ...]:
        n = max(len(a), len(b))
        a = list(a) + [0] * (n - len(a))
        b = list(b) + [0] * (n - len(b))
        return trim([self.add[x][y] for x, y in zip(a, b)])

    def psub(self, a, b) -> tuple[int, ...]:
        return self.padd(a, [self.neg[y] for y in b])

    def pdivmod(self, a, b):
        """Quotient and remainder of a by nonzero b."""
        rem = list(a)
        db = len(b) - 1
        lead_inv = self.inv[b[-1]]
        quot = [0] * max(len(a) - db, 0)
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c:
                c = self.mul[c][lead_inv]
                quot[top - db] = c
                row = self.mul[self.neg[c]]
                for i, y in enumerate(b):
                    if y:
                        rem[top - db + i] = self.add[rem[top - db + i]][row[y]]
        return trim(quot), trim(rem)

    def pmonic(self, a) -> tuple[int, ...]:
        inv = self.inv[a[-1]]
        return tuple(self.mul[inv][x] for x in a)

    def pgcd(self, a, b) -> tuple[int, ...]:
        while b:
            a, b = b, self.pdivmod(a, b)[1]
        return self.pmonic(a) if a else ()

    def ppow(self, a, e: int) -> tuple[int, ...]:
        out = (1,)
        for _ in range(e):
            out = self.pmul(out, a)
        return out

    def pderiv(self, a) -> tuple[int, ...]:
        res = []
        for i in range(1, len(a)):
            c = 0
            for _ in range(i % self.p):
                c = self.add[c][a[i]]
            res.append(c)
        return trim(res)

    def monic(self, d: int, code: int) -> tuple[int, ...]:
        """Monic degree-d polynomial whose lower coefficients are the base-q digits of code."""
        return tuple((code // self.q**i) % self.q for i in range(d)) + (1,)

    def residue(self, d: int, code: int) -> tuple[int, ...]:
        """Polynomial of degree < d whose coefficients are the base-q digits of code."""
        return trim([(code // self.q**i) % self.q for i in range(d)])

    def code(self, f) -> int:
        return sum(c * self.q**i for i, c in enumerate(f[:-1]))

    def irreducibles(self, d: int) -> list[tuple[int, ...]]:
        """Monic irreducibles of degree d in code order: the codes no product of lower degrees reaches."""
        if d not in self._irr:
            reducible = set()
            for e in range(1, d // 2 + 1):
                for P in self.irreducibles(e):
                    for code in range(self.q ** (d - e)):
                        reducible.add(self.code(self.pmul(P, self.monic(d - e, code))))
            self._irr[d] = [self.monic(d, c) for c in range(self.q**d) if c not in reducible]
        return self._irr[d]

    def lambda_table(self, k: int) -> list[int]:
        """von Mangoldt values of every monic degree-k polynomial, indexed by code."""
        if k not in self._lam:
            lam = [0] * self.q**k
            for d in divisors(k):
                for P in self.irreducibles(d):
                    lam[self.code(self.ppow(P, k // d))] = d
            self._lam[k] = lam
        return self._lam[k]

    def factor(self, f) -> list[tuple[tuple[int, ...], int]]:
        """Monic irreducible factors with multiplicities, by trial division."""
        found = []
        d = 1
        while len(f) - 1 >= 2 * d:
            for cand in self.irreducibles(d):
                mult = 0
                while True:
                    quot, rem = self.pdivmod(f, cand)
                    if rem:
                        break
                    f, mult = quot, mult + 1
                if mult:
                    found.append((cand, mult))
                if len(f) - 1 < 2 * d:
                    break
            d += 1
        if len(f) > 1:
            found.append((self.pmonic(f), 1))
        return found

    def ftype(self, f) -> tuple[int, ...]:
        parts = [len(g) - 1 for g, mult in self.factor(f) for _ in range(mult)]
        return tuple(sorted(parts, reverse=True))

    def is_irreducible(self, f) -> bool:
        fac = self.factor(f)
        return len(fac) == 1 and fac[0][1] == 1

    def totient(self, d) -> int:
        out = 1
        for g, mult in self.factor(d):
            deg = len(g) - 1
            out *= self.q ** (deg * (mult - 1)) * (self.q**deg - 1)
        return out


def trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


_FIELDS: dict[tuple[int, int], Field] = {}


def field(p: int, nu: int = 1) -> Field:
    if (p, nu) not in _FIELDS:
        _FIELDS[(p, nu)] = Field(p, nu)
    return _FIELDS[(p, nu)]


def field_of_order(q: int) -> Field:
    for p in range(2, q + 1):
        if q % p == 0:
            nu = round(math.log(q, p))
            return field(p, nu)
    raise ValueError(q)


# ---------------------------------------------------------------------------
# Derived oracles
# ---------------------------------------------------------------------------

def interval_members(F: Field, f, m: int):
    """Members of I(f, m): f with coefficients 0..m replaced by every choice."""
    top = tuple(f[m + 1 :])
    for code in range(F.q ** (m + 1)):
        yield tuple((code // F.q**i) % F.q for i in range(m + 1)) + top


def nu_value(F: Field, f, m: int) -> int:
    """Sum of von Mangoldt over members of I(f, m) with nonzero constant term."""
    lam = F.lambda_table(len(f) - 1)
    return sum(lam[F.code(g)] for g in interval_members(F, f, m) if g[0] != 0)


def census(F: Field, members) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for g in members:
        lam = F.ftype(g)
        out[lam] = out.get(lam, 0) + 1
    return out


_MV_CACHE: dict[tuple[int, int, int], tuple[Fraction, Fraction]] = {}


def mean_variance(F: Field, k: int, m: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of nu(.; m) over M(k, q) by direct enumeration."""
    key = (F.q, k, m)
    if key not in _MV_CACHE:
        vals = [nu_value(F, F.monic(k, base * F.q ** (m + 1)), m) for base in range(F.q ** (k - m - 1))]
        mean = Fraction(sum(vals), len(vals))
        _MV_CACHE[key] = (mean, sum((Fraction(v) - mean) ** 2 for v in vals) / len(vals))
    return _MV_CACHE[key]


def nu_mean(q: int, k: int, m: int) -> Fraction:
    """Mean of nu(.; m): q^{m+1} (1 - q^{-k})."""
    return q ** (m + 1) * (1 - Fraction(1, q**k))


def interval_status(F: Field, k: int, m: int, rep) -> str:
    """Coverage status of an interval cell by the paper's hypotheses (README names)."""
    p = F.p
    if m < 1:
        return "ExcludedSmallM"
    if (k * (k - 1)) % p == 0 and m < 2:
        return "ExcludedCharDividesKKminus1"
    if p == 2 and m < 3 and len(F.pderiv(rep)) - 1 <= 1:
        return "ExcludedChar2LowDerivative"
    return "Covered"


def progression_status(F: Field, m: int, d, f) -> str:
    if m < 2:
        return "ExcludedSmallM"
    if F.p == 2 and m == 2:
        # (f/D)' = (f'D - fD')/D^2 is constant c exactly when f'D - fD' = c D^2
        num = F.psub(F.pmul(F.pderiv(f), d), F.pmul(f, F.pderiv(d)))
        d2 = F.pmul(d, d)
        if not num or (len(num) == len(d2) and F.pmul((num[-1],), d2) == num):
            return "ExcludedChar2ConstantRationalDerivative"
    return "Covered"


def coprime_residues(F: Field, d) -> list[int]:
    delta = len(d) - 1
    return [c for c in range(F.q**delta) if (r := F.residue(delta, c)) and F.pgcd(r, d) == (1,)]


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def check_interval_scan(F: Field, k: int, m: int, lam, res: dict) -> list[str]:
    """An un-truncated interval scan summary (library dict or CLI result)."""
    errors: list[str] = []
    q = F.q
    cells = q ** (k - m - 1)
    _expect(errors, "mode", res["mode"], "interval")
    _expect(errors, "q,k,m,lambda", (res["q"], res["k"], res["m"], res["lambda"]), (q, k, m, lam_text(lam)))
    _expect(errors, "cells", res["cells"], cells)
    _expect(errors, "total_count", res["total_count"], type_count(q, k, lam))
    _expect(errors, "expected", res["expected"], frac_text(Fraction(q ** (m + 1), z_lambda(lam))))
    _expect(errors, "truncated", res["truncated"], False)
    _expect(errors, "covered + excluded cells", res["covered_cells"] + sum(e["cells"] for e in res["excluded"].values()), res["cells"])
    if F.p == 2 and m == 2:  # the only case where the status depends on the representative
        statuses = [interval_status(F, k, m, F.monic(k, base * q ** (m + 1))) for base in range(cells)]
    else:
        statuses = [interval_status(F, k, m, None)] * cells
    want_excluded = {s: statuses.count(s) for s in set(statuses) if s != "Covered"}
    _expect(errors, "covered_cells", res["covered_cells"], statuses.count("Covered"))
    _expect(errors, "excluded cells", {s: e["cells"] for s, e in res["excluded"].items()}, want_excluded)
    if res["max_abs_dev"] is not None:
        dev = float(frac(res["max_abs_dev"]))
        _expect(errors, "normalized_constant", res["normalized_constant"], format(dev / (q**m * math.sqrt(q)), ".12g"))
    return errors


def check_interval_csv(F: Field, k: int, m: int, lam, text: str) -> list[str]:
    errors: list[str] = []
    q = F.q
    rows = list(csv.reader(io.StringIO(text)))
    _expect(errors, "header", rows[0], "q,k,m,lambda,cell_id,count,expected_num,expected_den,abs_dev,covered".split(","))
    rows = rows[1:]
    _expect(errors, "rows", len(rows), q ** (k - m - 1))
    expected = Fraction(q ** (m + 1), z_lambda(lam))
    total = 0
    for i, row in enumerate(rows):
        head = [int(x) for x in row[:3]] + [row[3], int(row[4])]
        if head != [q, k, m, lam_text(lam), i]:
            errors.append(f"row {i}: key columns {row[:5]}")
            continue
        count = int(row[5])
        total += count
        if Fraction(int(row[6]), int(row[7])) != expected or row[8] != frac_text(abs(count - expected)):
            errors.append(f"row {i}: expected/abs_dev columns {row[6:9]}")
        covered = interval_status(F, k, m, F.monic(k, i * q ** (m + 1))) == "Covered"
        if row[9] != ("1" if covered else "0"):
            errors.append(f"row {i}: covered flag {row[9]}")
        if len(errors) > 5:
            break
    _expect(errors, "sum of counts", total, type_count(q, k, lam))
    return errors


def check_progression_scan(F: Field, k: int, m: int, lam, max_cells, res: dict) -> list[str]:
    """A progression scan with per-cell records, lam = (k)."""
    errors: list[str] = []
    q = F.q
    delta = k - m - 1
    pi = type_count(q, k, lam)
    _expect(errors, "mode", res["mode"], "progression")
    _expect(errors, "covered + excluded cells", res["covered_cells"] + sum(e["cells"] for e in res["excluded"].values()), res["cells"])
    want = []
    phis: dict[int, int] = {}
    for dcode in range(q**delta):
        if max_cells is not None and len(want) > max_cells:
            break
        d = F.monic(delta, dcode)
        fcodes = coprime_residues(F, d)
        phis[dcode] = len(fcodes)
        want.extend((dcode, fcode, d) for fcode in fcodes)
    truncated = max_cells is not None and len(want) > max_cells
    if truncated:
        want = want[:max_cells]
    _expect(errors, "cells", res["cells"], len(want))
    _expect(errors, "truncated", res["truncated"], truncated)
    cells = res.get("per_cell")
    if cells is None:
        return errors
    _expect(errors, "cell ids", [c["cell_id"] for c in cells], [dc * q**delta + fc for dc, fc, _ in want])
    if errors:
        return errors
    sums: dict[int, int] = {}
    for (dcode, fcode, d), cell in zip(want, cells):
        f = F.residue(delta, fcode)
        exp = Fraction(pi, phis[dcode])
        _expect(errors, f"cell {cell['cell_id']} label", cell["label"], f"D={F.poly_text(d)};f={F.poly_text(f)}")
        _expect(errors, f"cell {cell['cell_id']} expected", cell["expected"], frac_text(exp))
        _expect(errors, f"cell {cell['cell_id']} abs_dev", cell["abs_dev"], frac_text(abs(cell["count"] - exp)))
        _expect(errors, f"cell {cell['cell_id']} status", cell["status"], progression_status(F, m, d, f))
        sums[dcode] = sums.get(dcode, 0) + cell["count"]
    if lam == (k,):
        last = want[-1][0] if truncated else None
        for dcode, total in sums.items():
            if dcode != last:
                _expect(errors, f"primes over residues of D code {dcode}", total, pi)
    return errors[:10]


def check_census(F: Field, k: int, members_fn, size: int, lam, res: dict, closed_form: bool = False) -> list[str]:
    errors: list[str] = []
    got = {parse_lam(t): n for t, n in res["census"].items()}
    _expect(errors, "census keys", sorted(got), sorted(partitions(k)))
    _expect(errors, "total", res["total"], size)
    if closed_form:
        want = {p: type_count(F.q, k, p) for p in partitions(k)}
    elif size <= RECOMPUTE_LIMIT:
        want = {p: 0 for p in partitions(k)}
        want.update(census(F, members_fn()))
    else:
        want = None
    if want is not None:
        _expect(errors, "census", got, want)
    if lam is not None:
        _expect(errors, "count", res.get("count"), got.get(tuple(lam)))
    return errors


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def check_cli(op: dict, text: str) -> list[str]:
    """Check one CLI operation's output against its inputs (`op`, see workloads.py)."""
    cmd = op["cmd"]
    if op.get("format") == "csv":
        return check_interval_csv(field(op["p"], op["nu"]), op["k"], op["m"], op["lam"], text)
    env = json.loads(text)
    errors: list[str] = []
    res = env["result"]
    F = field(op["p"], op.get("nu", 1)) if "p" in op else None
    if F is not None and cmd != "counterexample m1":
        _expect(errors, "field", env["field"], F.field_dict())
    _expect(errors, "command", env["command"], cmd)
    if cmd == "pi":
        _expect(errors, "pi", res, prime_count(F.q, op["k"]))
    elif cmd == "pi-type":
        _expect(errors, "pi-type", res, type_count(F.q, op["k"], op["lam"]))
    elif cmd == "partition-prob":
        _expect(errors, "partition-prob", res, f"1/{z_lambda(op['lam'])}")
    elif cmd == "totient":
        _expect(errors, "totient", res, F.totient(op["D"]))
    elif cmd == "interval":
        f, m, k = op["f"], op["m"], len(op["f"]) - 1
        errors += check_census(F, k, lambda: interval_members(F, f, m), F.q ** (m + 1), op.get("lam"), res, closed_form=(m == k - 1))
    elif cmd == "progression":
        d, f, k = op["D"], op["f"], op["k"]
        r = k - (len(d) - 1)
        members = lambda: (F.padd(f, F.pmul(d, F.monic(r, c))) for c in range(F.q**r))
        errors += check_census(F, k, members, F.q**r, op.get("lam"), res)
    elif cmd == "nu":
        errors += _check_nu(F, op["f"], op["m"], res)
    elif cmd == "radical":
        f, m, d = op["f"], op["m"], op["d"]
        k = len(f) - 1
        want = [g for c in range(F.q ** (k // d)) if (g := F.monic(k // d, c)) and F.ppow(g, d)[m + 1 :] == f[m + 1 :]]
        _expect(errors, "radical members", res["members"], [F.poly_text(g) for g in want])
        _expect(errors, "radical size", res["size"], len(want))
    elif cmd == "mean-variance":
        k, m = op["k"], op["m"]
        _expect(errors, "mean", frac(res["mean"]), nu_mean(F.q, k, m))
        if F.q**k <= RECOMPUTE_LIMIT:
            _expect(errors, "variance", frac(res["variance"]), mean_variance(F, k, m)[1])
    elif cmd == "variance-trend":
        k, m = op["k"], op["m"]
        _expect(errors, "limit", res["limit"], k - m - 2)
        _expect(errors, "q list", [e["q"] for e in res["per_q"]], op["q_list"])
        for entry in res["per_q"]:
            q = entry["q"]
            ratio = frac(entry["ratio"])
            if q**k <= RECOMPUTE_LIMIT:
                _expect(errors, f"ratio at q={q}", ratio, mean_variance(field_of_order(q), k, m)[1] / q ** (m + 1))
            elif ratio <= 0:
                errors.append(f"ratio at q={q} is not positive: {ratio}")
    elif cmd == "scan-intervals":
        errors += check_interval_scan(F, op["k"], op["m"], op["lam"], res)
    elif cmd == "scan-progressions":
        errors += check_progression_scan(F, op["k"], op["m"], op["lam"], op.get("max_cells"), res)
    elif cmd == "hypotheses":
        _expect(errors, "status", res["status"], interval_status(F, op["k"], op["m"], op["f"]))
    elif cmd == "counterexample m0":
        q, k = F.q, op["k"]
        want = euler_phi(k) * (q - 1) // k if q % k == 1 else 0
        _expect(errors, "m0 count", (res["actual"], res["expected"], res["agrees"]), (want, want, True))
    elif cmd == "counterexample m1":
        _expect(errors, "field", env["field"], field(op["p"], 2 * op["n"]).field_dict())
        _expect(errors, "m1 count at k = p^2", (res["k"], res["actual"], res["agrees"]), (op["p"] ** 2, 0, True))
    else:
        errors.append(f"no check for command {cmd!r}")
    return errors


def _check_nu(F: Field, f, m: int, res: dict) -> list[str]:
    errors: list[str] = []
    k = len(f) - 1
    want = nu_value(F, f, m)
    _expect(errors, "nu", res["nu"], want)
    dec = res.get("decomposition")
    if dec is not None:
        members = list(interval_members(F, f, m))
        _expect(errors, "k_pi", dec["k_pi"], k * sum(1 for g in members if F.is_irreducible(g)))
        proper = {}
        for d in divisors(k)[1:]:
            roots = [F.monic(k // d, c) for c in range(F.q ** (k // d))]
            hits = [g for g in roots if F.ppow(g, d)[m + 1 :] == tuple(f[m + 1 :])]
            proper[str(d)] = (k // d) * sum(1 for g in hits if F.is_irreducible(g))
        _expect(errors, "proper_terms", dec["proper_terms"], proper)
        _expect(errors, "epsilon", dec["epsilon"], int(all(c == 0 for c in f[m + 1 : k])))
        _expect(errors, "reconstructed", dec["reconstructed"], want)
    return errors
