import pytest

from ffstat import gf
from ffstat.cli import parse_field_element

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def test_make_field_examples():
    assert gf.make_field(2, 1).modulus == (0, 1)
    assert gf.make_field(2, 1).q == 2
    # only irreducible monic quadratic over F_2
    assert gf.make_field(2, 2).modulus == (1, 1, 1)
    assert gf.make_field(2, 2).q == 4
    # x^2 + 1 has no root mod 3 and is lexicographically least
    assert gf.make_field(3, 2).modulus == (1, 0, 1)
    assert gf.make_field(3, 2).q == 9


def test_make_field_deterministic():
    for p, nu in SMALL_FIELDS:
        assert gf.make_field(p, nu) == gf.make_field(p, nu)


def test_make_field_errors():
    with pytest.raises(ValueError):
        gf.make_field(4, 1)
    with pytest.raises(ValueError):
        gf.make_field(2, 0)
    with pytest.raises(ValueError):
        gf.make_field(2, 17)


def test_modulus_is_irreducible_by_trial():
    # the canonical modulus has no root and no low-degree factor over F_p
    for p, nu in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        spec = gf.make_field(p, nu)
        assert spec.modulus[-1] == 1
        assert len(spec.modulus) == nu + 1
        assert gf._fp_irreducible(list(spec.modulus), p)


def test_prime_power():
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(13) == (13, 1)
    assert gf.prime_power(16) == (2, 4)
    with pytest.raises(ValueError):
        gf.prime_power(12)
    with pytest.raises(ValueError):
        gf.prime_power(1)


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, nu):
    spec = gf.make_field(p, nu)
    elems = list(gf.all_elements(spec))
    z, o = gf.element(spec, [0]), gf.one(spec)
    for a in elems:
        assert gf.fe_add(spec, a, z) == a
        assert gf.fe_mul(spec, a, o) == a
        assert gf.fe_add(spec, a, gf.fe_neg(spec, a)) == z
        if not gf.is_zero(a):
            assert gf.fe_mul(spec, a, gf.fe_inv(spec, a)) == o
        for b in elems:
            assert gf.fe_add(spec, a, b) == gf.fe_add(spec, b, a)
            assert gf.fe_mul(spec, a, b) == gf.fe_mul(spec, b, a)
            for c in elems:
                assert gf.fe_add(spec, gf.fe_add(spec, a, b), c) == gf.fe_add(spec, a, gf.fe_add(spec, b, c))
                assert gf.fe_mul(spec, gf.fe_mul(spec, a, b), c) == gf.fe_mul(spec, a, gf.fe_mul(spec, b, c))
                assert gf.fe_mul(spec, a, gf.fe_add(spec, b, c)) == gf.fe_add(
                    spec, gf.fe_mul(spec, a, b), gf.fe_mul(spec, a, c)
                )


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_frobenius_additive(p, nu):
    spec = gf.make_field(p, nu)
    elems = list(gf.all_elements(spec))
    for a in elems:
        for b in elems:
            lhs = gf.fe_pow(spec, gf.fe_add(spec, a, b), p)
            rhs = gf.fe_add(spec, gf.fe_pow(spec, a, p), gf.fe_pow(spec, b, p))
            assert lhs == rhs


def test_mul_examples(F4, F5):
    assert gf.fe_mul(F5, gf.element(F5, [3]), gf.element(F5, [4])) == gf.element(F5, [2])
    x = gf.element(F4, [0, 1])
    assert gf.fe_mul(F4, x, x) == gf.element(F4, [1, 1])  # x^2 = x + 1
    for a in gf.all_elements(F4):
        assert gf.fe_mul(F4, a, gf.one(F4)) == a


def test_inv_examples(F4):
    F7 = gf.make_field(7, 1)
    assert gf.fe_inv(F7, gf.element(F7, [3])) == gf.element(F7, [5])
    x = gf.element(F4, [0, 1])
    assert gf.fe_inv(F4, x) == gf.element(F4, [1, 1])
    assert gf.fe_inv(F4, gf.one(F4)) == gf.one(F4)
    with pytest.raises(ZeroDivisionError):
        gf.fe_inv(F4, gf.element(F4, [0]))


def test_pow_examples(F4, F5):
    x = gf.element(F4, [0, 1])
    assert gf.fe_pow(F4, x, 3) == gf.one(F4)
    assert gf.fe_pow(F5, gf.element(F5, [2]), 4) == gf.one(F5)
    assert gf.fe_pow(F5, gf.element(F5, [3]), 0) == gf.one(F5)
    assert gf.fe_pow(F5, gf.element(F5, [0]), 0) == gf.one(F5)  # 0^0 = 1 by contract


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_unit_group_order(p, nu):
    spec = gf.make_field(p, nu)
    for a in gf.all_elements(spec):
        if not gf.is_zero(a):
            assert gf.fe_pow(spec, a, spec.q - 1) == gf.one(spec)


def test_element_index_roundtrip():
    for p, nu in SMALL_FIELDS:
        spec = gf.make_field(p, nu)
        for i in range(spec.q):
            assert gf.element_index(spec, gf.element_from_index(spec, i)) == i


def test_element_text_forms(F3, F4):
    assert gf.element_to_text(F3, gf.element(F3, [2])) == "2"
    assert gf.element_to_text(F4, gf.element(F4, [1, 1])) == "[1,1]"
    # short vectors are zero-padded on input but always emitted in full
    assert parse_field_element("[1]", F4) == gf.element(F4, [1, 0])
    for spec in (F3, F4):
        for a in gf.all_elements(spec):
            assert parse_field_element(gf.element_to_text(spec, a), spec) == a


def test_element_validation(F3, F4):
    with pytest.raises(ValueError):
        gf.element(F3, [3])
    with pytest.raises(ValueError):
        gf.element(F4, [0, 0, 1])
    with pytest.raises(ValueError):
        gf.fe_add(F4, gf.element(F3, [1]), gf.element(F4, [1, 0]))
