"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expected values from first principles
(permutation census, direct member-by-member factoring, trial division,
digit-vector field arithmetic) so the library paths they check against
stay independent.
"""

from itertools import permutations, product

from ffstat import gf, polyring as pr
from ffstat import statistics as st


def brute_cycle_type_counts(k):
    """Census of cycle types over all k! permutations."""
    counts = {}
    for perm in permutations(range(k)):
        seen = [False] * k
        parts = []
        for i in range(k):
            if not seen[i]:
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                parts.append(length)
        parts.sort(reverse=True)
        key = tuple(parts)
        counts[key] = counts.get(key, 0) + 1
    return counts


def direct_interval_census(interval):
    """Type census by factoring every member, no table shortcuts."""
    counts = {}
    for g in interval.members():
        lam = pr.factorization_type(g)
        counts[lam] = counts.get(lam, 0) + 1
    return counts


def direct_progression_census(prog):
    """Type census of a residue class by factoring every member built by polynomial arithmetic."""
    counts = {}
    for g in prog.members():
        lam = pr.factorization_type(g)
        counts[lam] = counts.get(lam, 0) + 1
    return counts


def direct_specialization_census(f, g, m):
    """Type census of f + g*h by factoring it for every coefficient vector of h, deg h <= m."""
    counts = {}
    for coeffs in product(range(f.spec.q), repeat=m + 1):
        lam = pr.factorization_type(pr.poly_add(f, pr.poly_mul(g, pr.poly_from_indices(f.spec, coeffs))))
        counts[lam] = counts.get(lam, 0) + 1
    return counts


def direct_nu(f, m):
    """Filtered von Mangoldt sum by factoring every member."""
    total = 0
    for g in st.IntervalSpec(f, m).canonical().members():
        if g.ci[0] != 0:  # members are monic, so ci is never empty
            total += st.von_mangoldt(g)
    return total


def brute_totient(d_poly):
    """Count residues of degree < deg D coprime to D by direct gcd."""
    spec = d_poly.spec
    deg = d_poly.degree
    count = 0
    for code in range(spec.q**deg):
        digits = []
        c = code
        for _ in range(deg):
            digits.append(c % spec.q)
            c //= spec.q
        r = pr.poly_from_indices(spec, digits)
        if r.is_zero:
            continue
        if pr.poly_gcd(r, d_poly).degree == 0:
            count += 1
    if deg == 0:
        return 1
    return count


_IRR_CACHE = {}


def irreducibles(spec, d):
    """All monic irreducibles of degree d in code order (cached)."""
    key = (spec, d)
    if key not in _IRR_CACHE:
        _IRR_CACHE[key] = tuple(f for f in pr.all_monic(spec, d) if pr.is_irreducible(f))
    return _IRR_CACHE[key]


def fe_add(spec, a, b):
    """Sum of two `FieldElement`s, digit by digit mod p."""
    return gf.FieldElement(tuple((x + y) % spec.p for x, y in zip(a.coeffs, b.coeffs, strict=True)))


def fe_mul(spec, a, b):
    """Product of two `FieldElement`s: schoolbook product, then reduction by the monic modulus."""
    nu = spec.nu
    prod = [0] * (2 * nu - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    for top in range(2 * nu - 2, nu - 1, -1):  # t^top = t^top - t^(top-nu) * modulus
        c = prod[top]
        for i, m in enumerate(spec.modulus):
            prod[top - nu + i] -= c * m
    return gf.FieldElement(tuple(c % spec.p for c in prod[:nu]))


def poly_divrem(a, b):
    """The library's division kernel on `Poly`s: a = quot*b + rem with deg rem < deg b."""
    quot, rem = pr._divrem_idx(gf.field_table(a.spec), a.ci, b.ci)
    return pr.Poly(a.spec, quot), pr.Poly(a.spec, rem)


def factor_trial(f):
    """`polyring.factor` by trial division over the irreducibles of each degree (small domains only)."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    spec = f.spec
    rem = pr.poly_mul(pr.Poly(spec, (gf.field_table(spec).inv[f.ci[-1]],)), f)
    found = []
    d = 1
    while 2 * d <= rem.degree:
        for cand in irreducibles(spec, d):
            mult = 0
            while True:
                quot, r = poly_divrem(rem, cand)
                if not r.is_zero:
                    break
                rem = quot
                mult += 1
            if mult:
                found.append((d, mult))
            if rem.degree < 2 * d:
                break
        d += 1
    if rem.degree > 0:
        found.append((rem.degree, 1))
    return tuple(sorted(found))


def type_of_code(pt, d, code):
    """Factorization type that type tables `pt` record for the monic degree-d polynomial with this code."""
    return pt.partitions[d][int(pt.types[d][code])]
