"""The product sieve in `tables` at depth: closed forms, division-based factoring, memory."""

import random
import tracemalloc

import numpy as np
import pytest

from ffstat import gf, polyring as pr, tables
from ffstat.combinatorics import Partition, exact_prime_count, exact_type_count

from helpers import type_of_code

# (p, nu, kmax): every degree up to kmax is checked, q^kmax about 10^5 or below, and at q = 2 up to
# degree 18, the largest sieve that perfbench runs
DEEP_FIELDS = [(2, 1, 16), (2, 1, 18), (3, 1, 10), (2, 2, 8), (5, 1, 7), (3, 2, 5)]


def _table_kernel(spec):
    """`tables._product_codes` bound to the field's add/mul index tables."""
    ft = gf.field_table(spec)
    add, mul = np.array(ft.add, dtype=np.intp), np.array(ft.mul, dtype=np.intp)
    return lambda a, da, b, db: tables._product_codes(add, mul, spec.q, a, da, b, db)


@pytest.mark.parametrize("p,nu,kmax", DEEP_FIELDS)
def test_sieve_matches_closed_forms(p, nu, kmax):
    spec = gf.make_field(p, nu)
    pt = tables.poly_tables(spec, kmax)
    for d in range(1, kmax + 1):
        census = pt.degree_census(d)
        for i, lam in enumerate(pt.partitions[d]):
            assert int(census[i]) == exact_type_count(spec.q, d, lam), (spec.q, d, lam)
        irr = pt.irr_codes[d]
        assert len(irr) == exact_prime_count(spec.q, d), (spec.q, d)
        assert (irr[1:] > irr[:-1]).all()
        assert (pt.types[d][irr] == pt.pid_of(Partition((d,)))).all()


def test_clmul_matches_table_convolution(F2):
    # every split (da, db) of a product degree up to the default budget's 2^26, on seeded random
    # codes and the all-ones codes; the sieve passes its g codes as int32
    convolve = _table_kernel(F2)
    top = gf.DEFAULT_BUDGET.bit_length() - 1
    rng = np.random.default_rng(20132)
    for da in range(top + 1):
        for db in range(top + 1 - da):
            a = np.append(rng.integers(0, 2**da, 40), 2**da - 1).astype(np.int32)
            b = np.append(rng.integers(0, 2**db, 40), 2**db - 1)
            assert (tables._clmul_codes(a, da, b, db) == convolve(a, da, b, db)).all(), (da, db)


def test_clmul_sieve_matches_table_sieve(F2, monkeypatch):
    kmax = 18
    clmul = tables.poly_tables(F2, kmax)
    monkeypatch.setattr(tables, "_clmul_codes", _table_kernel(F2))
    table = tables.PolyTables(F2, kmax)
    for d in range(1, kmax + 1):
        assert np.array_equal(clmul.types[d], table.types[d]), d
        assert np.array_equal(clmul.irr_codes[d], table.irr_codes[d]), d


@pytest.mark.parametrize("p,nu,d", [(2, 1, 16), (3, 2, 5)])
def test_sieve_matches_factoring_on_sampled_codes(p, nu, d):
    spec = gf.make_field(p, nu)
    pt = tables.poly_tables(spec, d)
    rng = random.Random(20130 + spec.q)
    for code in rng.sample(range(spec.q**d), 200):
        f = pr.monic_from_code(spec, d, code)
        assert type_of_code(pt, d, code) == pr.factorization_type(f), (spec.q, d, code)


@pytest.mark.parametrize("p,nu,kmax", [(2, 1, 12), (3, 1, 7), (2, 2, 6), (7, 1, 4)])
def test_lambda_table_sums_to_q_power(p, nu, kmax):
    # sum of Lambda over the monic polynomials of degree k is q^k, below kmax as at kmax
    spec = gf.make_field(p, nu)
    pt = tables.PolyTables(spec, kmax)
    for k in range(1, kmax + 1):
        assert int(pt.lambda_table(k).sum(dtype="int64")) == spec.q**k, (spec.q, k)


def test_sieve_memory_per_code(F2):
    kmax = 16
    gf.field_table(F2)
    tables.PolyTables(F2, 2)  # imports and caches that a first build fills are not the sieve's
    codes = sum(2**d for d in range(1, kmax + 1))
    tracemalloc.start()
    try:
        tables.PolyTables(F2, kmax)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * codes, f"{peak / codes:.1f} B per sieved code"


def test_member_codes_checks_degrees(F3):
    ft = gf.field_table(F3)
    with pytest.raises(ValueError):
        tables.multiplier_rows(ft, (1, 1), 2, 3)  # deg g + m = 3 is not below 3
    rows = tables.multiplier_rows(ft, (1, 1), 1, 3)
    with pytest.raises(ValueError):
        tables.member_codes(ft, (0, 0, 0, 0, 1), rows)  # rows for degree 3, f of degree 4
