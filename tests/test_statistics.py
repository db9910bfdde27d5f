from fractions import Fraction

import pytest

from ffstat import gf, polyring as pr, tables, verify
from ffstat import statistics as st
from ffstat.combinatorics import Partition, divisors, exact_prime_count, exact_type_count, partitions_of
from ffstat.verify import ScanOptions

from helpers import (
    brute_totient,
    direct_interval_census,
    direct_nu,
    direct_progression_census,
    direct_specialization_census,
    irreducibles,
)


def P(spec, *indices):
    return pr.poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Interval and progression domains
# ---------------------------------------------------------------------------

def test_interval_membership(F2, F3):
    interval = st.IntervalSpec(pr.monomial(F3, 3), 1)
    members = list(interval.members())
    assert len(members) == 9 == interval.size
    assert all(g.is_monic and g.degree == 3 for g in members)
    assert pr.monic_code(P(F3, 2, 2, 0, 1)) in interval.codes()
    assert pr.monic_code(P(F3, 0, 0, 1, 1)) not in interval.codes()


def test_interval_canonicalization(F3):
    f = P(F3, 2, 1, 2, 1)  # low coefficients differ from the canonical rep
    interval = st.IntervalSpec(f, 1)
    canon = interval.canonical()
    assert canon.f.ci == (0, 0, 2, 1)
    assert interval.base_code() == canon.base_code()
    assert set(interval.members()) == set(canon.members())
    assert st.interval_counts(interval).counts == st.interval_counts(canon).counts


def test_interval_validation(F2):
    with pytest.raises(ValueError):
        st.IntervalSpec(P(F2, 1, 1), 2)  # m >= k
    with pytest.raises(ValueError):
        st.IntervalSpec(P(F2, 1), 0)  # constant center... degree 0
    with pytest.raises(ValueError):
        st.IntervalSpec(pr.poly_mul(P(F2, 1, 1), P(F2, 1)), -1)


def test_progression_membership(F3):
    prog = st.ProgressionSpec(pr.monomial(F3, 1), pr.one_poly(F3), 2)
    members = list(prog.members())
    assert len(members) == 3 == prog.size
    assert all(g.is_monic and g.degree == 2 for g in members)
    with pytest.raises(ValueError):
        st.ProgressionSpec(pr.monomial(F3, 1), pr.monomial(F3, 2), 3)  # deg f >= deg D
    with pytest.raises(ValueError):
        st.ProgressionSpec(pr.monomial(F3, 2), pr.monomial(F3, 1), 3)  # gcd != 1


# ---------------------------------------------------------------------------
# Censuses
# ---------------------------------------------------------------------------

def test_specialization_examples(F2):
    census = st.specialization_counts(pr.monomial(F2, 2), pr.one_poly(F2), 1)
    assert census.get(Partition((2,))) == 1
    assert census.get(Partition((1, 1))) == 3
    census = st.specialization_counts(pr.monomial(F2, 3), pr.one_poly(F2), 2)
    assert census.get(Partition((3,))) == 2
    assert census.total == 8


def test_specialization_general_g(F3, monkeypatch):
    f = P(F3, 1, 0, 0, 0, 1)  # t^4 + 1
    g = P(F3, 0, 1)  # t, coprime to f
    census = st.specialization_counts(f, g, 1)
    assert census.total == 9
    assert census.counts == direct_specialization_census(f, g, 1)
    # every (deg g, m) with deg g >= 1 up to deg f = 5 (4 at q = 4), on both routes, against factoring each f + g*h
    cases = 0
    for q, k in [(2, 5), (3, 5), (4, 4)]:
        spec = gf.make_field(*gf.prime_power(q))
        pt = tables.poly_tables(spec, k)
        for dg in range(1, k):
            for m in range(0, k - dg):
                f = pr.monic_from_code(spec, k, (7 * dg + 3 * m + 1) % q**k)
                for gcode in range(1, q ** (dg + 1), max(1, q ** (dg + 1) // 5)):
                    g = pr.poly_from_indices(spec, pr.code_to_coeffs(gcode, dg + 1, q)[:-1])
                    if g.degree != dg or pr.poly_gcd(f, g).degree != 0:
                        continue
                    expected = direct_specialization_census(f, g, m)
                    for route in (None, pt):
                        monkeypatch.setattr(st, "census_tables", lambda spec, k, members, route=route: route)
                        assert st.specialization_counts(f, g, m).counts == expected, (q, f, g, m)
                    cases += 1
    assert cases > 30


def test_specialization_nonmonic_scaling(F3):
    two = pr.constant_poly(F3, gf.element(F3, [2]))
    f = P(F3, 1, 0, 0, 1)
    census_monic = st.specialization_counts(f, pr.one_poly(F3), 1)
    census_scaled = st.specialization_counts(pr.poly_mul(two, f), two, 1)
    assert census_monic.counts == census_scaled.counts


def test_specialization_preconditions(F2):
    with pytest.raises(ValueError):
        st.specialization_counts(pr.monomial(F2, 2), pr.monomial(F2, 1), 1)  # gcd = t
    with pytest.raises(ValueError):
        st.specialization_counts(pr.monomial(F2, 2), pr.one_poly(F2), 2)  # deg f <= deg g + m
    with pytest.raises(ValueError):
        st.specialization_counts(pr.monomial(F2, 2), pr.one_poly(F2), -1)


@pytest.mark.parametrize("q,kmax", [(2, 5), (3, 4), (4, 4), (8, 3), (9, 3)])
def test_progression_codes_match_members(q, kmax):
    # the F_p-digit kernel against Poly arithmetic, for every coprime residue class; nu > 1 at q = 4, 8, 9
    spec = gf.make_field(*gf.prime_power(q))
    for k in range(2, kmax + 1):
        for delta in range(1, k):
            if q ** (delta + k) > 10**4:
                continue
            for dcode in range(q**delta):
                d_poly = pr.monic_from_code(spec, delta, dcode)
                for fcode in range(q**delta):
                    f = pr.poly_from_indices(spec, pr.code_to_coeffs(fcode, delta, q)[:-1])
                    if pr.poly_gcd(f, d_poly).degree == 0:
                        prog = st.ProgressionSpec(d_poly, f, k)
                        assert prog.codes().tolist() == [pr.monic_code(g) for g in prog.members()]


@pytest.mark.parametrize("p,nu,kmax", [(2, 1, 4), (3, 1, 3)])
def test_interval_census_vs_direct(p, nu, kmax):
    spec = gf.make_field(p, nu)
    for k in range(2, kmax + 1):
        for m in range(0, k):
            for base in range(spec.q ** (k - m - 1)):
                interval = st.IntervalSpec(
                    pr.monic_from_code(spec, k, base * spec.q ** (m + 1)), m
                )
                census = st.interval_counts(interval)
                assert census.counts == direct_interval_census(interval)
                assert census.total == interval.size


def test_full_degree_interval_is_global_census(F2, F3):
    for spec in (F2, F3):
        for k in range(1, 5):
            interval = st.IntervalSpec(pr.monomial(spec, k), k - 1)
            census = st.interval_counts(interval)
            for lam in partitions_of(k):
                assert census.get(lam) == exact_type_count(spec.q, k, lam)
            assert census.get(Partition((k,))) == exact_prime_count(spec.q, k)


def test_progression_examples(F2, F3):
    census = st.progression_counts(st.ProgressionSpec(pr.monomial(F3, 1), pr.one_poly(F3), 2))
    assert census.get(Partition((2,))) == 1
    assert census.get(Partition((1, 1))) == 2
    assert census.total == 3
    # oracle-pinned: both irreducible cubics over F_2 have constant term 1
    census = st.progression_counts(st.ProgressionSpec(pr.monomial(F2, 1), pr.one_poly(F2), 3))
    assert census.get(Partition((3,))) == 2


def test_progression_prime_partition_identity():
    # residue classes partition the degree-k primes whenever deg D < k
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for delta in (1, 2):
            for k in range(delta + 1, 5):
                for dcode in range(q**delta):
                    d_poly = pr.monic_from_code(spec, delta, dcode)
                    total = 0
                    for fcode in range(q**delta):
                        digits = []
                        c = fcode
                        for _ in range(delta):
                            digits.append(c % q)
                            c //= q
                        f = pr.poly_from_indices(spec, digits)
                        if pr.poly_gcd(f, d_poly).degree != 0:
                            continue
                        census = st.progression_counts(st.ProgressionSpec(d_poly, f, k))
                        assert census.total == q ** (k - delta)
                        total += census.get(Partition((k,)))
                    assert total == exact_prime_count(q, k), (q, delta, k, str(d_poly))


# ---------------------------------------------------------------------------
# The census route
# ---------------------------------------------------------------------------

def _scan_counts(spec, k, m):
    report = verify.scan_intervals(spec, k, m, Partition((k,)), ScanOptions(per_cell=True))
    return [rec.count for rec in report.per_cell]


def _direct_scan_counts(spec, k, m):
    block = spec.q ** (m + 1)
    return [
        direct_interval_census(st.IntervalSpec(pr.monic_from_code(spec, k, base * block), m)).get(Partition((k,)), 0)
        for base in range(spec.q ** (k - m - 1))
    ]


def _direct_mean_variance(spec, k, m):
    # the members of one interval share their nu value, and every interval has q^(m+1) members
    block = spec.q ** (m + 1)
    values = [direct_nu(pr.monic_from_code(spec, k, base * block), m) for base in range(spec.q ** (k - m - 1))]
    mean = Fraction(sum(values), len(values))
    return mean, sum((v - mean) ** 2 for v in values) / len(values)


def test_census_route_rule(monkeypatch):
    # each census, from an empty table cache, takes the route the rule names, then the table route once warm
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2, F3, F5 = (gf.make_field(p, 1) for p in (2, 3, 5))
    t2 = pr.monomial(F2, 1)
    f8 = P(F3, 2, 1, 0, 2, 1, 1, 0, 1, 1)
    cases = [
        # (field, k, census, oracle, tables built); tables are built when the estimate in microseconds
        # 110,000 + 0.25 * (q + ... + q^k) is at most 220 * members.  The first three sieve at most
        # 8 codes a member but are too small to repay the start-up; the middle three sieve 13.5 and repay it.
        (F5, 3, lambda: st.interval_counts(st.IntervalSpec(P(F5, 1, 2, 3, 1), 2)).counts,
         lambda: direct_interval_census(st.IntervalSpec(P(F5, 1, 2, 3, 1), 2)), False),  # 110,038.75 > 220 * 125
        (F3, 3, lambda: st.progression_counts(st.ProgressionSpec(P(F3, 1, 1), P(F3, 2), 3)).counts,
         lambda: direct_progression_census(st.ProgressionSpec(P(F3, 1, 1), P(F3, 2), 3)), False),  # > 220 * 9
        (F2, 4, lambda: st.nu(pr.poly_pow(t2, 4), 3), lambda: direct_nu(pr.poly_pow(t2, 4), 3), False),  # > 220 * 16
        (F3, 8, lambda: st.interval_counts(st.IntervalSpec(f8, 5)).counts,
         lambda: direct_interval_census(st.IntervalSpec(f8, 5)), True),  # 9,840 codes: 112,460 <= 220 * 729
        (F3, 8, lambda: st.progression_counts(st.ProgressionSpec(P(F3, 1, 0, 1), P(F3, 0, 1), 8)).counts,
         lambda: direct_progression_census(st.ProgressionSpec(P(F3, 1, 0, 1), P(F3, 0, 1), 8)), True),  # 729 members
        (F3, 8, lambda: st.nu(f8, 5), lambda: direct_nu(f8, 5), True),  # 729 members
        (F3, 5, lambda: st.interval_counts(st.IntervalSpec(P(F3, 2, 1, 0, 2, 1, 1), 1)).counts,
         lambda: direct_interval_census(st.IntervalSpec(P(F3, 2, 1, 0, 2, 1, 1), 1)), False),  # > 220 * 9
        (F3, 5, lambda: st.progression_counts(st.ProgressionSpec(P(F3, 1, 0, 1), P(F3, 0, 1), 5)).counts,
         lambda: direct_progression_census(st.ProgressionSpec(P(F3, 1, 0, 1), P(F3, 0, 1), 5)), False),  # > 220 * 27
        (F3, 5, lambda: st.nu(P(F3, 0, 0, 1, 2, 0, 1), 1), lambda: direct_nu(P(F3, 0, 0, 1, 2, 0, 1), 1), False),
        # interval scans and the nu mean and variance census all q^k members of degree k:
        # 81 at F_3, k = 4 factor (110,030 > 220 * 81); 1,024 at F_2, k = 10 build tables (110,511.5 <= 220 * 1,024)
        (F3, 4, lambda: _scan_counts(F3, 4, 2), lambda: _direct_scan_counts(F3, 4, 2), False),
        (F3, 4, lambda: st.mean_variance_nu(F3, 4, 1), lambda: _direct_mean_variance(F3, 4, 1), False),
        (F2, 10, lambda: _scan_counts(F2, 10, 1), lambda: _direct_scan_counts(F2, 10, 1), True),
        (F2, 10, lambda: st.mean_variance_nu(F2, 10, 1), lambda: _direct_mean_variance(F2, 10, 1), True),
    ]
    factored = []
    factor = pr.factor
    monkeypatch.setattr(pr, "factor", lambda f: factored.append(f) or factor(f))
    for spec, k, census, oracle, built in cases:
        tables._PT_CACHE.clear()
        expected = oracle()
        del factored[:]
        assert census() == expected
        assert (spec in tables._PT_CACHE) is built
        assert bool(factored) is not built
        tables.poly_tables(spec, k)
        del factored[:]
        assert census() == expected
        assert not factored


def test_census_tables_boundary(monkeypatch):
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2 = gf.make_field(2, 1)
    # 2 + 4 + ... + 2^10 = 2,046 codes: 110,000 + 0.25 * 2,046 = 110,511.5 us against 220 us a member
    assert st.census_tables(F2, 10, 502) is None  # 110,440 us of factoring is cheaper
    pt = st.census_tables(F2, 10, 503)  # 110,660 us of factoring is not
    assert pt is not None and pt.kmax == 10
    assert st.census_tables(F2, 3, 1) is pt  # tables already built cover any smaller degree
    assert st.census_tables(F2, 27, 2**27) is None  # PolyTables would exceed the enumeration budget
    assert tables._PT_CACHE[F2] is pt
    # the caller's budget bounds the tables a census may build, on both sides of q^k = 2^10
    tables._PT_CACHE.clear()
    assert st.census_tables(F2, 10, 10**6, budget=2**9) is None
    assert F2 not in tables._PT_CACHE
    pt = st.census_tables(F2, 10, 10**6, budget=2**10)
    assert pt is not None and pt.kmax == 10


@pytest.mark.parametrize("q,kmax", [(2, 5), (3, 4), (4, 3)])
def test_census_routes_agree(q, kmax, monkeypatch):
    # every interval and residue class, counted by factoring and by table lookup
    spec = gf.make_field(*gf.prime_power(q))
    pt = tables.poly_tables(spec, kmax)
    results = {}
    for route in (None, pt):
        monkeypatch.setattr(st, "census_tables", lambda spec, k, members, route=route: route)
        out = results[route is None] = []
        for k in range(2, kmax + 1):
            for m in range(0, k):
                for base in range(q ** (k - m - 1)):
                    f = pr.monic_from_code(spec, k, base * q ** (m + 1))
                    out.append(st.interval_counts(st.IntervalSpec(f, m)).counts)
                    if m >= 1:
                        out.append(st.nu(f, m))
            for delta in range(1, k):
                for dcode in range(q**delta):
                    d_poly = pr.monic_from_code(spec, delta, dcode)
                    for fcode in range(q**delta):
                        f = pr.poly_from_indices(spec, pr.code_to_coeffs(fcode, delta, q)[:-1])
                        if pr.poly_gcd(f, d_poly).degree == 0:
                            out.append(st.progression_counts(st.ProgressionSpec(d_poly, f, k)).counts)
    assert results[True] == results[False]


# ---------------------------------------------------------------------------
# Totient
# ---------------------------------------------------------------------------

def test_totient_examples(F3):
    assert st.poly_totient(pr.monomial(F3, 1)) == 2
    assert st.poly_totient(pr.monomial(F3, 2)) == 6
    for spec_q, d in [(2, 1), (2, 2), (3, 1), (3, 3)]:
        spec = gf.make_field(spec_q, 1)
        for f in irreducibles(spec, d):
            assert st.poly_totient(f) == spec.q**d - 1
    with pytest.raises(ValueError):
        st.poly_totient(pr.Poly(F3, ()))


def test_totient_vs_brute_force():
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for d in range(0, 4):
            for code in range(spec.q**d):
                poly = pr.monic_from_code(spec, d, code)
                assert st.poly_totient(poly) == brute_totient(poly), str(poly)
    # spot checks at larger q / degree 4 (monic, deterministic sample)
    for q in (4, 5):
        spec = gf.make_field(*gf.prime_power(q))
        for code in range(0, spec.q**4, max(1, spec.q**4 // 17)):
            poly = pr.monic_from_code(spec, 4, code)
            assert st.poly_totient(poly) == brute_totient(poly), str(poly)


def test_totient_multiplicative(F3):
    # phi(P^e) = q^{de} - q^{d(e-1)} and multiplicativity over coprime parts
    t = pr.monomial(F3, 1)
    assert st.poly_totient(pr.poly_pow(t, 3)) == 27 - 9
    f = pr.poly_mul(pr.poly_pow(t, 2), P(F3, 1, 1))
    assert st.poly_totient(f) == (9 - 3) * 2


# ---------------------------------------------------------------------------
# von Mangoldt, nu, mean and variance
# ---------------------------------------------------------------------------

def test_von_mangoldt_examples(F2):
    assert st.von_mangoldt(pr.monomial(F2, 2)) == 1
    assert st.von_mangoldt(P(F2, 0, 1, 1)) == 0  # t(t+1)
    assert st.von_mangoldt(P(F2, 1, 1, 1)) == 2
    assert st.von_mangoldt(pr.one_poly(F2)) == 0
    with pytest.raises(ValueError):
        st.von_mangoldt(pr.Poly(F2, ()))


def test_von_mangoldt_vs_lambda_table():
    for q, kmax in [(2, 5), (3, 5), (4, 4), (5, 4)]:
        spec = gf.make_field(*gf.prime_power(q))
        pt = tables.poly_tables(spec, kmax)
        for k in range(1, kmax + 1):
            lam = pt.lambda_table(k)
            for f in pr.all_monic(spec, k):
                assert st.von_mangoldt(f) == int(lam[pr.monic_code(f)])


def test_nu_examples(F2):
    assert st.nu(pr.monomial(F2, 2), 1) == 3
    with pytest.raises(ValueError):
        st.nu(pr.monomial(F2, 2), 0)
    with pytest.raises(ValueError):
        st.nu(pr.monomial(F2, 2), 2)


def test_nu_direct_vs_table_path():
    for q, k in [(2, 4), (3, 4)]:
        spec = gf.make_field(q, 1)
        tables.poly_tables(spec, k)  # warm the fast path
        for m in range(1, k):
            for base in range(q ** (k - m - 1)):
                f = pr.monic_from_code(spec, k, base * q ** (m + 1))
                assert st.nu(f, m) == direct_nu(f, m)


def test_nu_bounds(F3):
    for k in (3, 4):
        for m in range(1, k):
            for base in range(3 ** (k - m - 1)):
                f = pr.monic_from_code(F3, k, base * 3 ** (m + 1))
                value = st.nu(f, m)
                assert 0 <= value <= k * 3 ** (m + 1)
    # the center is checked before the m range, whose bound it gives
    for center in (pr.Poly(F3, ()), pr.one_poly(F3), P(F3, 0, 2)):
        for check in (st.nu, st.nu_decomposition):
            with pytest.raises(ValueError, match="interval center"):
                check(center, 1)


def test_ppt_identity_direct():
    # sum of Lambda over M(k, q) equals q^k, via direct factoring
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for k in range(1, 6):
            assert sum(st.von_mangoldt(f) for f in pr.all_monic(spec, k)) == q**k


def test_mean_variance_examples(F2, F3):
    mean, var = st.mean_variance_nu(F2, 2, 1)
    assert (mean, var) == (Fraction(3), Fraction(0))
    mean, _ = st.mean_variance_nu(F2, 4, 1)
    assert mean == Fraction(15, 4)
    mean, _ = st.mean_variance_nu(F3, 4, 1)
    assert mean == Fraction(80, 9)


def test_mean_matches_closed_form_small():
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for k in range(2, 6):
            for m in range(1, k):
                mean, _ = st.mean_variance_nu(spec, k, m)
                assert mean == Fraction(q ** (m + 1)) * (1 - Fraction(1, q**k))


def test_variance_direct_small(F2):
    # brute variance over all centers for q=2, k=3, m=1
    values = [direct_nu(f, 1) for f in pr.all_monic(F2, 3)]
    mean = Fraction(sum(values), len(values))
    var = sum((Fraction(v) - mean) ** 2 for v in values) / len(values)
    got_mean, got_var = st.mean_variance_nu(F2, 3, 1)
    assert (got_mean, got_var) == (mean, var)


def test_mean_variance_budget(F2):
    with pytest.raises(tables.BudgetError):
        st.mean_variance_nu(F2, 10, 1, budget=100)


# ---------------------------------------------------------------------------
# Radical sets and the decomposition
# ---------------------------------------------------------------------------

def test_radical_examples(F2):
    rad = st.radical_set(st.IntervalSpec(pr.monomial(F2, 4), 1), 2)
    assert [g.ci for g in rad] == [(0, 0, 1), (1, 0, 1)]
    rad = st.radical_set(st.IntervalSpec(pr.monomial(F2, 2), 1), 2)
    assert [g.ci for g in rad] == [(0, 1), (1, 1)]
    with pytest.raises(ValueError):
        st.radical_set(st.IntervalSpec(pr.monomial(F2, 4), 1), 3)
    with pytest.raises(ValueError):
        st.radical_set(st.IntervalSpec(pr.monomial(F2, 4), 1), 1)


def test_radical_size_bound_small():
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for k in (2, 4):
            for m in range(1, k):
                for base in range(q ** (k - m - 1)):
                    interval = st.IntervalSpec(pr.monic_from_code(spec, k, base * q ** (m + 1)), m)
                    for d in divisors(k):
                        if d > 1:
                            assert len(st.radical_set(interval, d)) <= q**m


def test_radical_members_verify(F3):
    interval = st.IntervalSpec(P(F3, 0, 0, 1, 0, 1), 1)  # t^4 + t^2, m = 1
    for g in st.radical_set(interval, 2):
        assert pr.monic_code(pr.poly_pow(g, 2)) in interval.codes()


def test_nu_decomposition_hand_case(F2):
    dec = st.nu_decomposition(pr.monomial(F2, 2), 1)
    assert dec.k_pi == 2
    assert dec.proper_terms == {2: 2}
    assert dec.epsilon == 1
    # the filtered sum is 3 = 4 - 1: epsilon enters with a minus sign
    assert dec.reconstructed == 3 == st.nu(pr.monomial(F2, 2), 1)


def test_nu_decomposition_identity_small():
    for q in (2, 3):
        spec = gf.make_field(q, 1)
        for k in range(2, 5):
            for m in range(1, k):
                for base in range(q ** (k - m - 1)):
                    f = pr.monic_from_code(spec, k, base * q ** (m + 1))
                    dec = st.nu_decomposition(f, m)
                    assert dec.reconstructed == st.nu(f, m), (q, k, m, base)
                    if base != 0:
                        assert dec.epsilon == 0


def test_nu_decomposition_prime_k(F2):
    dec = st.nu_decomposition(pr.monomial(F2, 5), 2)
    assert set(dec.proper_terms) == {5}
