import random
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
    interval_members,
    irreducibles,
)


def P(spec, *indices):
    return pr.poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Interval and progression domains
# ---------------------------------------------------------------------------

def test_interval_membership(F2, F3):
    interval = st.IntervalSpec(pr.monomial(F3, 3), 1)
    members = list(interval_members(interval))
    assert len(members) == 9 == interval.size
    assert all(g.is_monic and g.degree == 3 for g in members)
    assert pr.monic_code(P(F3, 2, 2, 0, 1)) in interval.codes()
    assert pr.monic_code(P(F3, 0, 0, 1, 1)) not in interval.codes()


def test_interval_canonicalization(F3):
    # centers that differ only in coefficients 0..m give the same interval
    interval = st.IntervalSpec(P(F3, 2, 1, 2, 1), 1)
    canon = st.IntervalSpec(P(F3, 0, 0, 2, 1), 1)
    assert interval.base_code() == canon.base_code()
    assert set(interval_members(interval)) == set(interval_members(canon))
    assert st.interval_counts(interval).counts == st.interval_counts(canon).counts


def test_interval_validation(F2):
    with pytest.raises(ValueError):
        st.IntervalSpec(P(F2, 1, 1), 2)  # m >= k
    with pytest.raises(ValueError):
        st.IntervalSpec(P(F2, 1), 0)  # constant center... degree 0
    with pytest.raises(ValueError):
        st.IntervalSpec(pr.poly_mul(P(F2, 1, 1), P(F2, 1)), -1)


def _class_members(prog, route):
    """The members of a residue class as the census engine lists them on `route`: (f + D*t^r) + D*h, deg h < r."""
    r = prog.k - prog.D.degree
    top = pr.poly_add(prog.f, pr.poly_mul(prog.D, pr.monomial(prog.spec, r)))
    return st._specializations(top, prog.D, r - 1, route)


def test_progression_membership(F3):
    prog = st.ProgressionSpec(pr.monomial(F3, 1), pr.one_poly(F3), 2)
    members = list(_class_members(prog, "factor")[1])
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
        tables.poly_tables(spec, k)
        for dg in range(1, k):
            for m in range(0, k - dg):
                f = pr.monic_from_code(spec, k, (7 * dg + 3 * m + 1) % q**k)
                for gcode in range(1, q ** (dg + 1), max(1, q ** (dg + 1) // 5)):
                    g = pr.poly_from_indices(spec, pr.code_to_coeffs(gcode, dg + 1, q)[:-1])
                    if g.degree != dg or pr.poly_gcd(f, g).degree != 0:
                        continue
                    expected = direct_specialization_census(f, g, m)
                    for route in ("factor", "tables"):
                        monkeypatch.setattr(st, "census_route", lambda spec, k, members, route=route: route)
                        assert st.specialization_counts(f, g, m).counts == expected, (q, f, g, m)
                    cases += 1
    assert cases > 30


def test_specialization_nonmonic_scaling(F3):
    two = P(F3, 2)
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
def test_progression_codes_match_members(q, kmax, monkeypatch):
    # the census engine's F_p-digit kernel against its Poly arithmetic and against f + D*g listed here, for every
    # coprime residue class; nu > 1 at q = 4, 8, 9
    monkeypatch.setattr(tables, "_PT_CACHE", {})
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
                        direct = [pr.monic_code(pr.poly_add(f, pr.poly_mul(d_poly, g))) for g in pr.all_monic(spec, k - delta)]
                        members = [pr.monic_code(g) for g in _class_members(prog, "factor")[1]]
                        assert _class_members(prog, "tables")[1].tolist() == members == direct


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


@pytest.mark.parametrize("p,nu", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_interval_prime_count_matches_rabin(p, nu):
    # every interval of q^(m+1) <= 3000 members, k <= 7, around t^k and a seeded random center
    spec = gf.make_field(p, nu)
    q = spec.q
    rng = random.Random(q)
    branches = set()
    for k in range(1, 8):
        centers = [pr.monomial(spec, k), pr.monic_from_code(spec, k, rng.randrange(q**k))]
        rabin = {}  # Rabin's verdict by member code; a center's intervals nest as m grows
        for m in range(k):
            if q ** (m + 1) > 3000:
                break
            branches.add(k // 2 > m + 1)  # whether Rabin's test runs on the members left unstruck
            for f in centers:
                interval = st.IntervalSpec(f, m)
                for code, g in zip(interval.codes(), interval_members(interval)):
                    if code not in rabin:
                        rabin[code] = pr.is_irreducible(g)
                        assert rabin[code] == (pr.factorization_type(g).parts == (k,))
                assert st.interval_prime_count(interval) == sum(rabin[code] for code in interval.codes()), (k, m, f)
    assert branches == {False, True}


@pytest.mark.parametrize("q,d", [(2, 12), (3, 7), (9, 4)])
def test_irreducible_codes_match_the_tables(q, d):
    # the codes the striking kernel of interval_prime_count leaves over I(t^e; e - 1) are the product sieve's
    # irreducibles of degree e, for every e <= d
    spec = gf.make_field(*gf.prime_power(q))
    pt = tables.PolyTables(spec, d)
    for e in range(1, d + 1):
        assert st.irreducible_codes(spec, e) == pt.irr_codes[e].tolist(), (q, e)


@pytest.mark.parametrize("q,kmax", [(2, 8), (3, 6), (4, 5), (5, 4), (9, 4)])
def test_strike_route_agrees(q, kmax):
    # the members of each type of every interval I(f; m), for every m and every type (1^k among them): struck out
    # and multiplied in pure Python, from the numpy typed route and by factoring every monic of degree k
    spec = gf.make_field(*gf.prime_power(q))
    pt = tables.PolyTables(spec, kmax)
    for k in range(1, kmax + 1):
        types = [pr.factorization_type(g) for g in pr.all_monic(spec, k)]
        for m in range(k):
            block = q ** (m + 1)
            for lam in partitions_of(k):
                factored = [sum(t == lam for t in types[lo : lo + block]) for lo in range(0, q**k, block)]
                assert st.strike_block_counts(spec, lam, m) == factored, (q, k, m, str(lam))
                assert pt.type_block_counts(lam, block).tolist() == factored, (q, k, m, str(lam))


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


def _progression(spec, d_indices, f_indices, k):
    return st.ProgressionSpec(pr.poly_from_indices(spec, d_indices), pr.poly_from_indices(spec, f_indices), k)


class CountingRing(st.ResidueRing):
    """A residue ring that counts the convolutions it makes."""

    def __init__(self, d_poly):
        super().__init__(d_poly)
        self.convolutions = 0

    def conv(self, a, b):
        self.convolutions += 1
        return super().conv(a, b)


def _record_rings(monkeypatch):
    """Patch `statistics.ResidueRing` to list every ring it builds; return that list."""
    rings = []

    class Recorded(st.ResidueRing):
        def __init__(self, d_poly):
            super().__init__(d_poly)
            rings.append(self)

    monkeypatch.setattr(st, "ResidueRing", Recorded)
    return rings


def test_census_route_rule(monkeypatch):
    # each census, from an empty table cache, takes the route the rule names; once tables for its degree are
    # built, every census reads them and none factors or builds a ring, residue classes included
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2, F3, F4, F5 = (gf.make_field(*gf.prime_power(q)) for q in (2, 3, 4, 5))
    t2 = pr.monomial(F2, 1)
    f8 = P(F3, 2, 1, 0, 2, 1, 1, 0, 1, 1)
    f9 = P(F4, 1, 2, 3, 0, 1, 2, 3, 0, 2, 1)
    prog3 = _progression(F3, (1, 1), (2,), 3)
    prog8 = _progression(F3, (1, 0, 1), (0, 1), 8)
    prog5 = _progression(F3, (1, 0, 1), (0, 1), 5)
    prog10 = _progression(F2, (1, 1, 0, 1, 1, 0, 0, 0, 1), (1,), 10)  # deg D = 8: 4 members
    prog17 = _progression(F2, (1, 1, 0, 0, 0, 0, 0, 1), (1,), 17)  # deg D = 7: 1,024 members
    cases = [
        # (field, k, census, oracle, route).  Tables are built when the estimate in microseconds
        # 110,000 + 0.25 * (q + ... + q^k) is at most 220 * members; a residue class is counted in its ring, and
        # an interval I(f; m) in the ring of principal units mod t^(k - m), when 0.12 us a pair product
        # (statistics.ring_products) costs no more than either.
        (F5, 3, lambda: st.interval_counts(st.IntervalSpec(P(F5, 1, 2, 3, 1), 2)).counts,
         lambda: direct_interval_census(st.IntervalSpec(P(F5, 1, 2, 3, 1), 2)), "ring"),  # mod t: 7 pair products
        (F3, 3, lambda: st.progression_counts(prog3).counts,
         lambda: direct_progression_census(prog3), "ring"),  # 63 pair products: 7.56 us < 220 * 9
        (F2, 4, lambda: st.nu(pr.poly_pow(t2, 4), 3), lambda: direct_nu(pr.poly_pow(t2, 4), 3), "ring"),  # 4 products
        # at F_3, k = 8 the ring mod t^3 takes m = 5 (8,829 and 1,539 pair products: 1.06 and 0.18 ms); at m = 3
        # the census of 81 members and at m = 2 nu of 27 factor (17,820 us against 741,393 products, 89.0 ms;
        # 5,940 us against 1,653,372, 198.4 ms)
        (F3, 8, lambda: st.interval_counts(st.IntervalSpec(f8, 5)).counts,
         lambda: direct_interval_census(st.IntervalSpec(f8, 5)), "ring"),
        (F3, 8, lambda: st.interval_counts(st.IntervalSpec(f8, 3)).counts,
         lambda: direct_interval_census(st.IntervalSpec(f8, 3)), "factor"),
        (F3, 8, lambda: st.progression_counts(prog8).counts,
         lambda: direct_progression_census(prog8), "ring"),  # 5,913 pair products: 709.56 us < 112,460
        (F3, 8, lambda: st.nu(f8, 5), lambda: direct_nu(f8, 5), "ring"),
        (F3, 8, lambda: st.nu(f8, 2), lambda: direct_nu(f8, 2), "factor"),
        # 1,024 members at F_4, k = 9, m = 4 build tables (197,381 us <= 225,280): the ring mod t^5 would cost
        # 10,813,440 pair products for the census and 2,031,616 for nu (1,297.6 and 243.8 ms)
        (F4, 9, lambda: st.interval_counts(st.IntervalSpec(f9, 4)).counts,
         lambda: direct_interval_census(st.IntervalSpec(f9, 4)), "tables"),
        (F4, 9, lambda: st.nu(f9, 4), lambda: direct_nu(f9, 4), "tables"),
        (F3, 5, lambda: st.interval_counts(st.IntervalSpec(P(F3, 2, 1, 0, 2, 1, 1), 1)).counts,
         lambda: direct_interval_census(st.IntervalSpec(P(F3, 2, 1, 0, 2, 1, 1), 1)), "factor"),  # 21,141 products
        (F3, 5, lambda: st.progression_counts(prog5).counts,
         lambda: direct_progression_census(prog5), "ring"),  # 1,944 pair products: 233.28 us < 220 * 27
        (F3, 5, lambda: st.nu(P(F3, 0, 0, 1, 2, 0, 1), 1), lambda: direct_nu(P(F3, 0, 0, 1, 2, 0, 1), 1),
         "ring"),  # 8,019 pair products: 962.28 us < 220 * 9
        # a large modulus makes the ring dear: 4 members factor (880 us against 10,485,760 pair products,
        # 1.26 s), and 1,024 build tables (175,535.5 <= 220 * 1,024 against 14,680,064, 1.76 s)
        (F2, 10, lambda: st.progression_counts(prog10).counts, lambda: direct_progression_census(prog10), "factor"),
        (F2, 17, lambda: st.progression_counts(prog17).counts, lambda: direct_progression_census(prog17), "tables"),
        # interval scans and the nu mean and variance read every interval of degree k: at F_3, k = 4 from one ring
        # (54 pair products mod t^2, 567 mod t^3); at F_2, k = 10, m = 1 the nu sums from tables (110,511.5 <= 220 *
        # 1,024, against 3,014,656 pair products mod t^9, 361.8 ms), and the scan for the prime type by striking out
        # the irreducibles of degree 10 (1,920 codes struck and 99 products, 2,019 us against 110,536.25 us of
        # tables up to degree 10)
        (F3, 4, lambda: _scan_counts(F3, 4, 2), lambda: _direct_scan_counts(F3, 4, 2), "ring"),
        (F3, 4, lambda: st.mean_variance_nu(F3, 4, 1), lambda: _direct_mean_variance(F3, 4, 1), "ring"),
        (F2, 10, lambda: _scan_counts(F2, 10, 1), lambda: _direct_scan_counts(F2, 10, 1), "strike"),
        (F2, 10, lambda: st.mean_variance_nu(F2, 10, 1), lambda: _direct_mean_variance(F2, 10, 1), "tables"),
    ]
    factored = []
    factor = pr.factor
    monkeypatch.setattr(pr, "factor", lambda f: factored.append(f.degree) or factor(f))
    rings = _record_rings(monkeypatch)
    units = st.ResidueRing.principal_units
    monkeypatch.setattr(st.ResidueRing, "principal_units", lambda spec, delta: rings.append(delta) or units(spec, delta))
    for spec, k, census, oracle, route in cases:
        tables._PT_CACHE.clear()
        st._unit_psi.cache_clear()  # nu keeps its last psi vectors, as the table cache keeps tables
        expected = oracle()
        del factored[:], rings[:]
        assert census() == expected
        assert (spec in tables._PT_CACHE) is (route == "tables")
        assert bool(rings) is (route == "ring")
        # the ring of principal units mod t^(k - m), for intervals, factors only the lone member t^(m+1) F's top F
        tops = {delta - 1 for delta in rings if isinstance(delta, int)}
        assert (set(factored) == {k}) if route == "factor" else (set(factored) <= tops)
        tables.poly_tables(spec, k)
        del factored[:], rings[:]
        assert census() == expected
        assert not factored
        assert not rings
    # the boundary of the ring of principal units: variance-trend --k 5 --m 1 counts q <= 5 in the ring mod t^4
    # (171,875 pair products at q = 5, 20.6 ms) and builds tables from q = 7 (1,294,139 products, 155.3 ms, against
    # 114,901.75 us); a census of all types of an interval of the sieve-scans workload's degrees stays on tables
    tables._PT_CACHE.clear()
    nu_k = [Partition((5,))]
    assert [st.interval_route(gf.make_field(*gf.prime_power(q)), 5, 1, nu_k, q**5)[0] for q in (2, 3, 4, 5, 7, 8, 9)] == [
        "ring"] * 4 + ["tables"] * 3
    assert st.interval_route(F5, 5, 1, nu_k, 5**5) == ("ring", 171_875)
    assert st.interval_products(7, 5, 1, nu_k) == 1_294_139
    assert st.interval_route(gf.make_field(7, 1), 5, 1, nu_k, 7**5) == ("tables", 7**5)
    for q, k, lam in [(9, 6, (6,)), (9, 6, (1,) * 6), (2, 18, (18,)), (2, 18, (1,) * 18)]:
        assert st.interval_route(gf.make_field(*gf.prime_power(q)), k, 1, [Partition(lam)], q**k)[0] == "tables"
    # the scans of the sieve-scans workload strike out their irreducibles below the prime type's (639,172 and
    # 1,031,037 us of striking against 244,704.5 and 281,577.5 us of tables), and at F_2, k = 18 up to a largest
    # part of 15 (79,392 us against 128,565.5 us of tables up to degree 15; 157,156 against 144,807.5 at 16)
    routes = {(q, k, lam): st.scan_route(gf.make_field(*gf.prime_power(q)), k, 1, Partition(lam))
              for q, k, lam in [(9, 6, (6,)), (9, 6, (1,) * 6), (2, 18, (18,)), (2, 18, (1,) * 18), (2, 18, (15, 3)),
                                (2, 18, (16, 2))]}
    assert routes == {
        (9, 6, (6,)): ("tables", 686_310 + 6_561), (9, 6, (1,) * 6): ("strike", 18_018 + 6_561),
        (2, 18, (18,)): ("tables", 538_818 + 65_536), (2, 18, (1,) * 18): ("strike", 342 + 65_536),
        (2, 18, (15, 3)): ("strike", 79_392 + 65_536), (2, 18, (16, 2)): ("tables", 139_230 + 65_536),
    }


def test_census_tables_boundary(monkeypatch):
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2 = gf.make_field(2, 1)
    # 2 + 4 + ... + 2^10 = 2,046 codes: 110,000 + 0.25 * 2,046 = 110,511.5 us against 220 us a member
    assert st.census_route(F2, 10, 502) == "factor"  # 110,440 us of factoring is cheaper
    assert st.census_route(F2, 10, 503) == "tables"  # 110,660 us of factoring is not
    assert F2 not in tables._PT_CACHE  # the rule builds nothing
    pt = tables.poly_tables(F2, 10)
    assert st.census_route(F2, 3, 1) == "tables"  # tables already built cover any smaller degree
    assert st.census_route(F2, 27, 2**27) == "factor"  # PolyTables would exceed the enumeration budget
    assert tables._PT_CACHE[F2] is pt
    # the caller's budget bounds the tables a census may build, on both sides of q^k = 2^10
    tables._PT_CACHE.clear()
    assert st.census_route(F2, 10, 10**6, budget=2**9) == "factor"
    assert st.census_route(F2, 10, 10**6, budget=2**10) == "tables"
    # a progression scan (members None) reads tables whatever they cost
    assert st.census_route(F2, 27) == "tables"
    assert F2 not in tables._PT_CACHE


def test_ring_route_boundary(monkeypatch):
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2 = gf.make_field(2, 1)
    # tables for F_2, k = 10 cost 110,511.5 us; at 0.12 us a pair product the ring is no dearer up to 920,929
    assert st.census_route(F2, 10, products=lambda: 920_929) == "ring"
    assert st.census_route(F2, 10, products=lambda: 920_930) == "tables"
    # and only within the budget: over it, the next route that fits
    assert st.census_route(F2, 10, products=lambda: 920_929, budget=920_929) == "ring"
    assert st.census_route(F2, 10, products=lambda: 920_929, budget=920_928) == "tables"
    assert st.census_route(F2, 10, 4, lambda: 7_333, budget=7_332) == "factor"
    # against factoring 4 members, 880 us: 7,333 pair products cost 879.96 us and 7,334 cost 880.08 us
    assert st.census_route(F2, 10, 4, lambda: 7_333) == "ring"
    assert st.census_route(F2, 10, 4, lambda: 7_334) == "factor"
    # a census of one class at k = 10: deg D = 4 takes the ring (37,376 pair products, 4,485.12 us against
    # 220 * 64), deg D = 5 factors its 32 members (154,624 pair products, 18,554.88 us against 7,040)
    d4, d5 = _progression(F2, (1, 1, 0, 0, 1), (1,), 10), _progression(F2, (1, 0, 1, 0, 0, 1), (1,), 10)
    parts = partitions_of(10)
    assert (d4.size, st.ring_products(2, 4, parts), d5.size, st.ring_products(2, 5, parts)) == (64, 37_376, 32, 154_624)
    assert st.census_route(F2, 10, 64, lambda: 37_376) == "ring"
    assert st.census_route(F2, 10, 32, lambda: 154_624) == "factor"
    # built tables take every census, and its ring is not priced
    tables.poly_tables(F2, 10)
    assert st.census_route(F2, 10, 64, lambda: 37_376) == "tables"
    assert st.census_route(F2, 10, 32, lambda: 154_624) == "tables"
    priced = []
    assert st.census_route(F2, 10, 64, lambda: priced.append(1) or 37_376) == "tables" and not priced
    tables._PT_CACHE.clear()
    # a progression scan prices a ring for each modulus it may reach, at most one a cell: at F_2, k = 8, m = 1
    # (deg D = 6, 114,688 pair products a ring) 8 rings cost 110,100.48 us, no more than the 110,127.5 us of
    # tables, and 9 rings cost more.  Here the first modulus, t^6, holds every cell, so one ring is built.
    lam = Partition((8,))
    rings = _record_rings(monkeypatch)
    cut = verify.scan_progressions(F2, 8, 1, lam, ScanOptions(per_cell=True, max_cells=8))
    assert len(rings) == 1 and F2 not in tables._PT_CACHE
    del rings[:]
    longer = verify.scan_progressions(F2, 8, 1, lam, ScanOptions(per_cell=True, max_cells=9))
    assert not rings and F2 in tables._PT_CACHE
    assert longer.per_cell[:8] == cut.per_cell


def test_strike_route_boundary(monkeypatch):
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    F2 = gf.make_field(2, 1)
    # a typed scan at k = 10 with 99 members of one part: tables up to degree 10, 2,046 codes sieved and 99
    # products, cost 110,536.25 us; at 1 us a unit of its work the strike route is no dearer up to 110,536
    assert st.census_route(F2, 10, 1024, typed=lambda: (110_536, 2_145, 256)) == "strike"
    assert st.census_route(F2, 10, 1024, typed=lambda: (110_537, 2_145, 256)) == "tables"
    # its work and the cells must fit the budget, as must the tables'; over both, the members are factored
    assert st.census_route(F2, 10, 1024, typed=lambda: (5_219, 2_145, 256), budget=5_475) == "strike"
    assert st.census_route(F2, 10, 1024, typed=lambda: (5_219, 2_145, 256), budget=5_474) == "tables"
    assert st.census_route(F2, 10, 1024, typed=lambda: (5_219, 2_145, 256), budget=2_400) == "factor"
    # against factoring 4 members, 880 us
    assert st.census_route(F2, 10, 4, typed=lambda: (880, 2_145, 1)) == "strike"
    assert st.census_route(F2, 10, 4, typed=lambda: (881, 2_145, 1)) == "factor"
    # the ring is taken only when no dearer than the strike route too: 1,200 us are 10,000 pair products
    assert st.census_route(F2, 10, 1024, lambda: 10_000, typed=lambda: (1_200, 2_145, 256)) == "ring"
    assert st.census_route(F2, 10, 1024, lambda: 10_001, typed=lambda: (1_200, 2_145, 256)) == "strike"
    # built tables take the scan, and neither typed route is priced
    tables.poly_tables(F2, 10)
    priced = []
    assert st.census_route(F2, 10, 1024, typed=lambda: priced.append(1) or (1, 2_145, 256)) == "tables" and not priced


def _force_route(monkeypatch, route):
    """Make every census take `route`: "factor", "tables" or "ring"."""
    monkeypatch.setattr(st, "census_route", lambda *args, **kwargs: route)


@pytest.mark.parametrize("q,kmax", [(2, 5), (3, 4), (4, 3), (9, 3)])
def test_census_routes_agree(q, kmax, monkeypatch):
    # every interval and residue class, counted by factoring and by table lookup, and every residue class in the
    # ring too, one ring a modulus; each ring's psi_n sums to q^n, and it makes the convolutions `ring_products`
    # projects
    spec = gf.make_field(*gf.prime_power(q))
    tables.poly_tables(spec, kmax)
    results = {}
    for route in ("factor", "tables", "ring"):
        _force_route(monkeypatch, route)
        intervals, classes = results[route] = [], []
        for k in range(2, kmax + 1):
            parts = partitions_of(k)
            if route != "ring":
                for m in range(0, k):
                    for base in range(q ** (k - m - 1)):
                        f = pr.monic_from_code(spec, k, base * q ** (m + 1))
                        intervals.append(st.interval_counts(st.IntervalSpec(f, m)).counts)
                        if m >= 1:
                            intervals.append(st.nu(f, m))
            for delta in range(1, k):
                for dcode in range(q**delta):
                    d_poly = pr.monic_from_code(spec, delta, dcode)
                    if route == "ring":
                        ring = CountingRing(d_poly)
                        counts = ring.type_counts(k, parts)
                        assert 1 + ring.convolutions == st.ring_products(q, delta, parts) // q ** (2 * delta)
                        psi = ring.psi(k)
                        assert [sum(psi[n]) for n in range(1, k + 1)] == [q**n for n in range(1, k + 1)]
                    for fcode in range(q**delta):
                        f = pr.poly_from_indices(spec, pr.code_to_coeffs(fcode, delta, q)[:-1])
                        if pr.poly_gcd(f, d_poly).degree != 0:
                            continue
                        if route == "ring":
                            classes.append({lam: counts[lam][fcode] for lam in parts if counts[lam][fcode]})
                        else:
                            classes.append(st.progression_counts(st.ProgressionSpec(d_poly, f, k)).counts)
    assert results["factor"] == results["tables"]
    assert results["ring"][1] == results["factor"][1]


@pytest.mark.parametrize("q,kmax", [(2, 6), (3, 5), (4, 4), (5, 4)])
def test_interval_routes_agree(q, kmax, monkeypatch):
    # every interval I(f; m) of every degree k <= kmax, counted in the ring of principal units mod t^(k - m), from
    # tables and by factoring: its census (m = 0 included) and nu; and every scan, for every m and every type
    # (1^k among them), with its per-cell rows, and the nu mean and variance.  The last interval of each k < 5 and
    # m is also counted directly.
    spec = gf.make_field(*gf.prime_power(q))
    tables.poly_tables(spec, kmax)
    results = {}
    for route in ("ring", "tables", "factor"):
        _force_route(monkeypatch, route)
        out = results[route] = []
        for k in range(2, kmax + 1):
            for m in range(k):
                for base in range(q ** (k - m - 1)):
                    f = pr.monic_from_code(spec, k, base * q ** (m + 1))
                    out.append(st.interval_counts(st.IntervalSpec(f, m)).counts)
                    if m >= 1:
                        out.append(st.nu(f, m))
                if m >= 1:
                    out.append(st.mean_variance_nu(spec, k, m))
                    for lam in partitions_of(k):
                        report = verify.scan_intervals(spec, k, m, lam, ScanOptions(per_cell=True))
                        out.append(verify.report_to_dict(report))
    assert results["ring"] == results["factor"]
    assert results["tables"] == results["factor"]
    _force_route(monkeypatch, "ring")
    for k in range(2, 5):
        for m in range(k):
            interval = st.IntervalSpec(pr.monic_from_code(spec, k, (q ** (k - m - 1) - 1) * q ** (m + 1)), m)
            assert st.interval_counts(interval).counts == direct_interval_census(interval)


@pytest.mark.parametrize("q,delta,kmax", [(2, 3, 20), (2, 5, 14), (3, 2, 16), (3, 3, 10), (4, 2, 8), (5, 2, 10)])
def test_weil_bound_for_residue_classes(q, delta, kmax):
    # each nontrivial character mod D has an L-function of degree <= delta - 1 whose inverse roots have absolute
    # value sqrt(q) or 1, so for every coprime class a, with psi0 the sum of psi_k over the coprime classes,
    # |phi(D) psi_k(a) - psi0| <= (phi(D) - 1)(delta - 1) q^(k/2); squared, the check stays in integers.
    # Every monic D of degree delta and every k <= kmax; the largest gap is 0.34-0.71 of the bound.
    spec = gf.make_field(*gf.prime_power(q))
    worst = 0
    for dcode in range(q**delta):
        d_poly = pr.monic_from_code(spec, delta, dcode)
        residues = [P(spec, *pr.code_to_coeffs(a, delta, q)[:-1]) for a in range(q**delta)]
        units = [a for a, r in enumerate(residues) if pr.poly_gcd(r, d_poly).degree == 0]
        phi = len(units)
        assert phi == st.poly_totient(d_poly)
        psi = st.ResidueRing(d_poly).psi(kmax)
        for k in range(1, kmax + 1):
            psi0 = sum(psi[k][a] for a in units)
            bound = ((phi - 1) * (delta - 1)) ** 2 * q**k
            for a in units:
                gap = (phi * psi[k][a] - psi0) ** 2
                assert gap <= bound, (str(d_poly), k, a)
                worst = max(worst, Fraction(gap, bound))
    assert worst > Fraction(1, 100)  # the bound is not met vacuously


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
