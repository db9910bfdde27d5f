import random
import tracemalloc

import pytest

from ffstat import gf
from ffstat.cli import main, parse_field_element

from helpers import fe_add, fe_mul

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
    # each field is built once and kept: equal calls return the same spec
    for p, nu in SMALL_FIELDS:
        assert gf.make_field(p, nu) is gf.make_field(p, nu)


def test_make_field_errors():
    for _ in range(2):  # a bad p or nu is rejected on every call, not only the first
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


def _idx(spec, digits):
    """Digits (low-to-high, zero-padded to nu) read as a base-p integer."""
    return sum(d * spec.p**i for i, d in enumerate(digits))


def _digits(spec, idx):
    """The nu base-p digits of an element index, low-to-high."""
    return tuple(idx // spec.p**i % spec.p for i in range(spec.nu))


def _pow(ft, a, n):
    """a**n by repeated multiplication in the tables, with 0**0 = 1."""
    result = 1
    for _ in range(n):
        result = ft.mul[result * ft.q + a]
    return result


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, nu):
    ft = gf.field_table(gf.make_field(p, nu))
    q, add, mul = ft.q, ft.add, ft.mul
    for a in range(q):
        assert add[a * q] == a
        assert mul[a * q + 1] == a
        assert add[a * q + ft.neg[a]] == 0
        if a:
            assert mul[a * q + ft.inv[a]] == 1
        for b in range(q):
            assert add[a * q + b] == add[b * q + a]
            assert mul[a * q + b] == mul[b * q + a]
            for c in range(q):
                assert add[add[a * q + b] * q + c] == add[a * q + add[b * q + c]]
                assert mul[mul[a * q + b] * q + c] == mul[a * q + mul[b * q + c]]
                assert mul[a * q + add[b * q + c]] == add[mul[a * q + b] * q + mul[a * q + c]]


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_frobenius_additive(p, nu):
    ft = gf.field_table(gf.make_field(p, nu))
    q = ft.q
    for a in range(q):
        assert ft.pth_root[_pow(ft, a, p)] == a
        for b in range(q):
            lhs = _pow(ft, ft.add[a * q + b], p)
            rhs = ft.add[_pow(ft, a, p) * q + _pow(ft, b, p)]
            assert lhs == rhs
            assert ft.pth_root[ft.add[a * q + b]] == ft.add[ft.pth_root[a] * q + ft.pth_root[b]]


def test_mul_examples(F4, F5):
    ft5 = gf.field_table(F5)
    assert ft5.mul[3 * 5 + 4] == 2
    ft4 = gf.field_table(F4)
    x = _idx(F4, [0, 1])
    assert ft4.mul[x * 4 + x] == _idx(F4, [1, 1])  # x^2 = x + 1
    for a in range(4):
        assert ft4.mul[a * 4 + 1] == a


def test_inv_examples(F4):
    F7 = gf.make_field(7, 1)
    assert gf.field_table(F7).inv[3] == 5
    ft4 = gf.field_table(F4)
    assert ft4.inv[_idx(F4, [0, 1])] == _idx(F4, [1, 1])
    assert ft4.inv[1] == 1
    assert ft4.inv[0] == 0  # zero has no inverse; its entry is a placeholder


def test_pow_examples(F4, F5):
    ft4, ft5 = gf.field_table(F4), gf.field_table(F5)
    assert _pow(ft4, _idx(F4, [0, 1]), 3) == 1
    assert _pow(ft5, 2, 4) == 1
    assert _pow(ft5, 3, 0) == 1
    assert _pow(ft5, 0, 0) == 1  # 0^0 = 1 by contract


@pytest.mark.parametrize("p,nu", SMALL_FIELDS)
def test_unit_group_order(p, nu):
    ft = gf.field_table(gf.make_field(p, nu))
    for a in range(1, ft.q):
        assert _pow(ft, a, ft.q - 1) == 1


def _check_tables(ft, pairs):
    """The tables against the digit-vector oracle on `pairs`, and neg/inv/pth_root by definition."""
    spec, q = ft.spec, ft.q
    elems = [_digits(spec, i) for i in range(q)]
    for a, b in pairs:
        assert ft.add[a * q + b] == _idx(spec, fe_add(spec, elems[a], elems[b]))
        assert ft.mul[a * q + b] == _idx(spec, fe_mul(spec, elems[a], elems[b]))
    zero, one = elems[0], elems[1]
    for a in range(q):
        assert fe_add(spec, elems[a], elems[ft.neg[a]]) == zero
        if a:
            assert fe_mul(spec, elems[a], elems[ft.inv[a]]) == one
        power = one
        for _ in range(spec.p):
            power = fe_mul(spec, power, elems[ft.pth_root[a]])
        assert power == elems[a]


def test_tables_match_oracle_every_pair():
    for q in range(2, 82):
        try:
            p, nu = gf.prime_power(q)
        except ValueError:
            continue
        ft = gf.FieldTable(gf.make_field(p, nu))
        _check_tables(ft, [(a, b) for a in range(q) for b in range(q)])


@pytest.mark.parametrize("p,nu", [(2, 8), (3, 6), (2, 10), (2, 11)])
def test_tables_match_oracle_seeded_pairs(p, nu):
    ft = gf.FieldTable(gf.make_field(p, nu))
    rng = random.Random(p**nu)
    _check_tables(ft, [(rng.randrange(ft.q), rng.randrange(ft.q)) for _ in range(2000)])


def test_table_memory_per_pair():
    spec = gf.make_field(2, 10)
    tracemalloc.start()
    try:
        ft = gf.FieldTable(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ft.q == 1024
    assert peak <= 28 * ft.q**2, peak / ft.q**2


def test_element_index_roundtrip():
    # every element's text parses back to its index
    for p, nu in SMALL_FIELDS:
        spec = gf.make_field(p, nu)
        texts = gf.element_texts(spec)
        assert len(texts) == spec.q
        for i, text in enumerate(texts):
            assert parse_field_element(text, spec) == i
            if nu > 1:
                assert text == "[" + ",".join(map(str, _digits(spec, i))) + "]"


def test_element_text_forms(F3, F4):
    assert gf.element_texts(F3)[_idx(F3, [2])] == "2"
    assert gf.element_texts(F4)[_idx(F4, [1, 1])] == "[1,1]"
    # short vectors are zero-padded on input but always emitted in full
    assert parse_field_element("[1]", F4) == _idx(F4, [1, 0]) == 1
    assert parse_field_element("[0,1]", F4) == 2
    assert gf.element_texts(F4)[parse_field_element("[1]", F4)] == "[1,0]"


def test_element_validation(F3, F4, capsys):
    with pytest.raises(ValueError, match="digit 3 >= p = 3"):
        parse_field_element("[3]", F3)
    with pytest.raises(ValueError, match="has 3 components, field has nu = 2"):
        parse_field_element("[0,0,1]", F4)
    # the same texts on the command line: exit 2 with one line
    for argv in (["totient", "--p", "3", "--D", "[3]"], ["totient", "--p", "2", "--nu", "2", "--D", "[0,0,1]"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("ffstat: "), (argv, err)
    # the oracle takes digit tuples of one length only
    with pytest.raises(ValueError):
        fe_add(F4, (1,), (1, 0))
