"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expected values from first principles
(permutation census, direct member-by-member factoring, exact bivariate
expansion) so the library paths they check against stay independent.
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


def expand_at_shift(f):
    """Exact bivariate expansion of f(t + u) as {(i, j): coeff index of t^i u^j}.

    Built by Horner over the two-variable polynomial t + u, so binomial
    coefficients arise from repeated addition in the field rather than
    from any derivative formula.
    """
    ft = gf.field_table(f.spec)
    q = ft.q
    add = ft.add
    acc = {}
    for c in reversed(f.ci):
        new = {}
        for (i, j), v in acc.items():
            for di, dj in ((1, 0), (0, 1)):
                key = (i + di, j + dj)
                new[key] = add[new.get(key, 0) * q + v]
        if c:
            new[(0, 0)] = add[new.get((0, 0), 0) * q + c]
        acc = {key: v for key, v in new.items() if v}
    return acc


def u_coefficient(expansion, j, spec):
    """The coefficient of u^j in an expand_at_shift result, as a Poly."""
    if expansion:
        top = max(i for (i, jj) in expansion if jj == j) if any(jj == j for (_, jj) in expansion) else -1
    else:
        top = -1
    ci = [0] * (top + 1)
    for (i, jj), v in expansion.items():
        if jj == j:
            ci[i] = v
    return pr.poly_from_indices(spec, ci)


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


def factor_trial(f):
    """Factorization by trial division over the irreducibles of each degree (small domains only)."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    spec = f.spec
    unit = f.leading()
    rem = pr.poly_mul(pr.constant_poly(spec, gf.fe_inv(spec, unit)), f)
    found = []
    d = 1
    while 2 * d <= rem.degree:
        for cand in irreducibles(spec, d):
            mult = 0
            while True:
                quot, r = pr.poly_divrem(rem, cand)
                if not r.is_zero:
                    break
                rem = quot
                mult += 1
            if mult:
                found.append((cand, mult))
            if rem.degree < 2 * d:
                break
        d += 1
    if rem.degree > 0:
        found.append((rem, 1))
    found.sort(key=lambda pm: (pm[0].degree, pr.monic_code(pm[0])))
    return pr.Factorization(unit, tuple(found))


def type_of_code(pt, d, code):
    """Factorization type that type tables `pt` record for the monic degree-d polynomial with this code."""
    return pt.partitions[d][int(pt.types[d][code])]
