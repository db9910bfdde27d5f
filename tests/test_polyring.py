import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ffstat import gf, polyring as pr, tables
from ffstat.combinatorics import exact_prime_count
from ffstat.cli import parse_poly
from ffstat.polyring import NEG_DEGREE

from helpers import factor_trial, irreducibles, poly_divrem, type_of_code

GRID_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def P(spec, *indices):
    return pr.poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Basic arithmetic
# ---------------------------------------------------------------------------

def test_divrem_examples(F2, F3):
    q, r = poly_divrem(P(F3, 1, 0, 1), P(F3, 1, 1))
    assert (q.ci, r.ci) == ((2, 1), (2,))
    q, r = poly_divrem(pr.monomial(F2, 3), pr.monomial(F2, 2))
    assert (q.ci, r.ci) == ((0, 1), ())
    # division by a nonzero constant
    q, r = poly_divrem(P(F3, 1, 2, 1), P(F3, 2))
    assert r.is_zero
    assert pr.poly_mul(q, P(F3, 2)) == P(F3, 1, 2, 1)
    with pytest.raises(ZeroDivisionError):
        poly_divrem(P(F3, 1), pr.Poly(F3, ()))


@settings(max_examples=200, deadline=None)
@given(
    a=hst.lists(hst.integers(0, 4), max_size=8),
    b=hst.lists(hst.integers(0, 4), max_size=5),
)
def test_divrem_property(a, b):
    spec = gf.make_field(5, 1)
    fa, fb = P(spec, *a), P(spec, *b)
    if fb.is_zero:
        return
    q, r = poly_divrem(fa, fb)
    assert pr.poly_add(pr.poly_mul(q, fb), r) == fa
    assert r.is_zero or r.degree < fb.degree


def test_gcd_examples(F2, F5):
    assert pr.poly_gcd(P(F5, 4, 0, 1), P(F5, 4, 1)).ci == (4, 1)  # monic t - 1
    f = P(F5, 3, 1, 2)
    g = pr.poly_gcd(f, pr.Poly(F5, ()))
    assert g.is_monic and poly_divrem(f, g)[1].is_zero
    assert pr.poly_gcd(P(F2, 1, 1, 1), P(F2, 1, 1)).ci == (1,)
    with pytest.raises(ValueError):
        pr.poly_gcd(pr.Poly(F2, ()), pr.Poly(F2, ()))


def test_zero_degree_marker(F2):
    z = pr.Poly(F2, ())
    assert z.degree == NEG_DEGREE
    assert z.degree < 0 and z.degree < -(10**9)
    # a vanishing derivative satisfies "deg f' <= 1"
    assert pr.derivative(pr.monomial(F2, 4)).degree <= 1


# ---------------------------------------------------------------------------
# Factorization: exhaustive three-way agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,nu", GRID_FIELDS)
def test_factor_exhaustive_grid(p, nu):
    """Degree sum, type-table agreement and irreducibility, deg <= 6, exhaustive."""
    spec = gf.make_field(p, nu)
    pt = tables.poly_tables(spec, 6)
    for d in range(1, 7):
        irr_found = 0
        for f in pr.all_monic(spec, d):
            assert sum(deg * mult for deg, mult in pr.factor(f)) == d
            lam = pr.factorization_type(f)
            assert lam == type_of_code(pt, d, pr.monic_code(f))
            irred = pr.is_irreducible(f)
            assert irred == (lam.parts == (d,))
            irr_found += irred
        assert irr_found == exact_prime_count(spec.q, d)


@pytest.mark.parametrize("p,nu", [(2, 1), (3, 1), (2, 2)])
def test_trial_backend_agrees(p, nu):
    spec = gf.make_field(p, nu)
    for d in range(1, 6):
        for f in pr.all_monic(spec, d):
            assert pr.factor(f) == factor_trial(f)


def test_factor_examples(F2, F3):
    assert pr.factor(P(F2, 0, 0, 1, 0, 1)) == ((1, 2), (1, 2))  # t^4 + t^2 = t^2 (t+1)^2
    assert pr.factor(P(F2, 0, 0, 1)) == ((1, 2),)  # t^2
    assert pr.factor(P(F2, 0, 1, 1)) == ((1, 1), (1, 1))  # t(t+1)
    assert pr.factor(P(F3, 1, 0, 1)) == ((2, 1),)  # t^2 + 1 is irreducible over F_3
    assert pr.factor(P(F3, 2)) == ()
    with pytest.raises(ValueError):
        pr.factor(pr.Poly(F2, ()))


def test_factor_nonmonic_unit(F5):
    f = P(F5, 2, 0, 3)  # 3t^2 + 2
    monic = pr.poly_mul(pr.constant_poly(F5, gf.element(F5, [2])), f)  # times 3^{-1} = 2
    assert monic.ci == (4, 0, 1)  # t^2 - 1 = (t - 1)(t + 1)
    assert pr.factor(f) == pr.factor(monic) == ((1, 1), (1, 1))


def test_factorization_type_examples(F2):
    assert pr.factorization_type(P(F2, 0, 1, 0, 1)).parts == (1, 1, 1)  # t^3 + t
    assert pr.factorization_type(P(F2, 1, 1, 0, 0, 1)).parts == (4,)  # t^4 + t + 1
    for d in range(1, 5):
        for f in irreducibles(F2, d):
            assert pr.factorization_type(f).parts == (d,)
    with pytest.raises(ValueError):
        pr.factorization_type(pr.one_poly(F2))


def test_is_irreducible_examples(F2):
    assert pr.is_irreducible(P(F2, 1, 1, 1))
    assert not pr.is_irreducible(P(F2, 1, 0, 1))  # (t+1)^2
    for spec in (F2, gf.make_field(3, 1)):
        for f in pr.all_monic(spec, 1):
            assert pr.is_irreducible(f)
    with pytest.raises(ValueError):
        pr.is_irreducible(pr.one_poly(F2))


def test_factor_deterministic(F3):
    f = P(F3, 2, 1, 0, 2, 1, 1)
    assert pr.factor(f) == pr.factor(f)
    got = [pr.factor(g) for g in pr.all_monic(F3, 4)]
    again = [pr.factor(g) for g in pr.all_monic(F3, 4)]
    assert got == again


# ---------------------------------------------------------------------------
# Rational derivative predicate
# ---------------------------------------------------------------------------

def test_rational_derivative_examples(F2, F3):
    one, t = pr.one_poly(F2), pr.monomial(F2, 1)
    assert pr.rational_derivative_is_constant(one, t) is False
    assert pr.rational_derivative_is_constant(pr.monomial(F2, 2), one) is True
    assert pr.rational_derivative_is_constant(t, one) is True
    # (t^3/1)' = 3t^2 over F_3 vanishes; over F_2 it is t^2
    assert pr.rational_derivative_is_constant(pr.monomial(F3, 3), pr.one_poly(F3)) is True
    assert pr.rational_derivative_is_constant(pr.monomial(F2, 3), one) is False
    with pytest.raises(ValueError):
        pr.rational_derivative_is_constant(one, pr.Poly(F2, ()))
    with pytest.raises(ValueError):
        pr.rational_derivative_is_constant(t, pr.monomial(F2, 2))


def test_rational_derivative_nonzero_constant(F3):
    # (f/D)' = c with c != 0: f = t, D = 1
    assert pr.rational_derivative_is_constant(pr.monomial(F3, 1), pr.one_poly(F3))
    # f = t^2 + t, D = ... pick f' D - f D' = c D^2 with D = t + 1:
    # f = c*t*(t+1) + e has (f/D)' constant iff the quotient rule numerator is c*D^2
    f = pr.poly_add(pr.poly_mul(pr.monomial(F3, 1), P(F3, 1, 1)), pr.one_poly(F3))  # t^2+t+1
    assert pr.rational_derivative_is_constant(f, P(F3, 1, 1)) is False


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def test_poly_text_roundtrip(F3, F4):
    cases = [
        (F3, "1,0,2,1"),
        (F4, "[1,0],[0,1],[1,0]"),
    ]
    for spec, text in cases:
        f = parse_poly(text, spec)
        assert pr.poly_text(f) == text
    for spec in (F3, F4):
        for d in range(0, 4):
            for code in range(min(spec.q**d, 64)):
                f = pr.monic_from_code(spec, d, code)
                assert parse_poly(pr.poly_text(f), spec) == f


def test_poly_text_f4_example(F4):
    # 1 + x*t + t^2 over F_4
    f = parse_poly("[1],[0,1],[1]", F4)
    assert f.degree == 2
    assert f.ci == (1, 2, 1)
    assert pr.poly_text(f) == "[1,0],[0,1],[1,0]"
