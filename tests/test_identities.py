"""Two exact identities and the interval Weil bound, which tie the residue-class and interval halves to q^k.

For a modulus D of degree 1, every character mod D but the trivial one has
L(u, chi) = 1, so the von Mangoldt mass q^k - 1 of the degree-k monic
polynomials prime to D is spread evenly over the phi(D) = q - 1 unit
classes: phi(D) psi(k; D, c) = q^k - 1.  An interval of codimension one,
m = k - 2, holds q^(k-1) of von Mangoldt mass, and nu leaves out t^k, the
one prime power with zero constant term, which is a member exactly when
the center's t^(k-1) coefficient is 0.  Wider intervals, k - m >= 3,
keep within the Weil bound of the even characters mod t^(k-m).
"""

import random
from fractions import Fraction

from ffstat import gf, polyring as pr
from ffstat import statistics as st

QS = [2, 3, 4, 5, 7, 8, 9]


def test_psi_is_even_over_the_unit_classes_of_a_linear_modulus():
    # every monic D of degree 1 and every unit class c, k = 1 .. 10
    top = 10
    for q in QS:
        spec = gf.make_field(*gf.prime_power(q))
        for dcode in range(q):
            d_poly = pr.monic_from_code(spec, 1, dcode)
            phi = st.poly_totient(d_poly)
            assert phi == q - 1
            psi = st.ResidueRing(d_poly).psi(top)
            for k in range(1, top + 1):
                units = psi[k][1:]  # the classes of the nonzero constants
                assert all(phi * value == q**k - 1 for value in units), (q, dcode, k)


def test_nu_of_a_codimension_one_interval():
    # seeded centers with every value of the t^(k-1) coefficient, zero among them, k = 3 .. while q^k <= 4096
    for q in QS:
        spec = gf.make_field(*gf.prime_power(q))
        rng = random.Random(20135 + q)
        for k in range(3, 13):
            if q**k > 4096:
                break
            for a in range(q):
                low = [rng.randrange(q) for _ in range(k - 1)]
                f = pr.poly_from_indices(spec, low + [a, 1])
                assert st.nu(f, k - 2) == q ** (k - 1) - (a == 0), (q, k, f.ci)


def test_weil_bound_for_intervals():
    """|q^(delta-1) nu(f; m) - (q^k - 1)| <= (q^(delta-1) - 1)(1 + (delta - 2) q^(k/2)), delta = k - m >= 3.

    The reversal g -> t^k g(1/t) maps the members of I(f; m) with nonzero
    constant term onto the degree-k polynomials with constant term 1 in one
    class of the principal units U1 mod t^delta, so q^(delta-1) nu is a sum
    over the q^(delta-1) characters of U1, the even characters mod t^delta,
    of psi(k, chi) (Keating-Rudnick, IMRN 2014).  The trivial one gives
    q^k - 1.  Every other L(u, chi) has degree at most delta - 1 and the
    trivial zero u = 1; its other inverse roots have absolute value sqrt(q).
    So |psi(k, chi)| <= 1 + (delta - 2) q^(k/2).  Those delta - 2 nontrivial
    zeros are the k - m - 2 that `variance-trend` reports as the limit of
    Var nu / q^(m+1).  The bound fails at delta = 2 (q = 2, k = 3, m = 1),
    where the codimension-one test above gives nu exactly.

    Every interval at q <= 9 and delta >= 3 with q^(2 delta) <= 10^6, for k =
    delta + 1 and delta + 2 while q^k <= 10^4, nu read on the route the rule
    picks (the ring, or factoring at the larger delta).  |x| <= a + b sqrt(y)
    is checked as x - a <= 0 or (x - a)^2 <= b^2 y, in integers.
    """
    worst = 0
    for q in QS:
        spec = gf.make_field(*gf.prime_power(q))
        delta = 3
        while q ** (2 * delta) <= 10**6:
            units = q ** (delta - 1)
            for k in (delta + 1, delta + 2):
                if q**k > 10**4:
                    break
                m = k - delta
                for base in range(units):
                    nu = st.nu(pr.monic_from_code(spec, k, base * q ** (m + 1)), m)
                    slack = abs(units * nu - (q**k - 1)) - (units - 1)
                    bound = ((units - 1) * (delta - 2)) ** 2 * q**k
                    assert slack <= 0 or slack * slack <= bound, (q, k, m, base)
                    worst = max(worst, Fraction(max(slack, 0) ** 2, bound))
            delta += 1
    assert worst > 0.5  # the bound is not met vacuously
