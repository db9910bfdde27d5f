"""Two exact identities that tie the residue-class and interval halves to q^k.

For a modulus D of degree 1, every character mod D but the trivial one has
L(u, chi) = 1, so the von Mangoldt mass q^k - 1 of the degree-k monic
polynomials prime to D is spread evenly over the phi(D) = q - 1 unit
classes: phi(D) psi(k; D, c) = q^k - 1.  An interval of codimension one,
m = k - 2, holds q^(k-1) of von Mangoldt mass, and nu leaves out t^k, the
one prime power with zero constant term, which is a member exactly when
the center's t^(k-1) coefficient is 0.
"""

import random

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
