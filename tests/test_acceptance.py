"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every expected value is exact (integers, Fractions);
stored baselines live in src/ffstat/baselines and were generated once by
tools/gen_baselines.py from exhaustive enumeration.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

from ffstat import gf, polyring as pr, tables, verify
from ffstat import statistics as st
from ffstat.cli import canonical_json
from ffstat.combinatorics import (
    Partition,
    cycle_type_probability,
    divisors,
    exact_prime_count,
    exact_type_count,
    partitions_of,
)
from ffstat.verify import ScanOptions

from helpers import brute_cycle_type_counts, direct_interval_census


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s >= {limit_seconds}s"
    print(f"ACCEPTANCE {number:02d} PASS: {description} ({elapsed:.1f}s)")


def _field(q):
    return gf.make_field(*gf.prime_power(q))


def _load_baseline(name):
    return json.loads(resources.files("ffstat").joinpath(f"baselines/{name}").read_text())


def test_criterion_01_ppt_identity():
    with criterion(1, "sum of Lambda over M(k,q) equals q^k, q in {2,3,4,5}, k <= 6", 30):
        for q in (2, 3, 4, 5):
            spec = _field(q)
            pt = tables.poly_tables(spec, 6)
            for k in range(1, 7):
                assert int(pt.lambda_table(k).sum(dtype="int64")) == q**k, (q, k)


def test_criterion_02_mean_value_identity():
    with criterion(2, "mean of nu(.;m) equals q^{m+1}(1 - q^{-k}) exactly, q in {2,3,5}, k <= 6", 120):
        for q in (2, 3, 5):
            spec = _field(q)
            for k in range(2, 7):
                for m in range(1, k):
                    mean, _ = st.mean_variance_nu(spec, k, m)
                    assert mean == Fraction(q ** (m + 1)) * (1 - Fraction(1, q**k)), (q, k, m)


def test_criterion_03_oracle_equivalence():
    with criterion(3, "exhaustive counts match Moebius and multiset closed forms, q in {2,3,4,5}, k <= 6", 120):
        for q in (2, 3, 4, 5):
            spec = _field(q)
            pt = tables.poly_tables(spec, 6)
            for k in range(1, 7):
                assert len(pt.irr_codes[k]) == exact_prime_count(q, k), (q, k)
                census = pt.degree_census(k)
                for i, lam in enumerate(pt.partitions[k]):
                    assert int(census[i]) == exact_type_count(q, k, lam), (q, k, lam)
        # independent route: censuses via member-by-member division-based factoring
        for q in (2, 3):
            spec = _field(q)
            for k in range(1, 5):
                census = direct_interval_census(st.IntervalSpec(pr.monomial(spec, k), k - 1))
                for lam in partitions_of(k):
                    assert census.get(lam, 0) == exact_type_count(q, k, lam), (q, k, lam)


def test_criterion_04_cycle_type_law():
    with criterion(4, "cycle-type probabilities equal the S_k census, k <= 7", 10):
        for k in range(1, 8):
            counts = brute_cycle_type_counts(k)
            fact = 1
            for i in range(2, k + 1):
                fact *= i
            for lam in partitions_of(k):
                assert cycle_type_probability(lam) == Fraction(counts.get(lam.parts, 0), fact), (k, lam)
            assert sum(counts.values()) == fact


def test_criterion_05_m0_closed_form():
    with criterion(5, "pi_q(I(t^k,0)) closed form over q in {2,..,13}, 2 <= k <= 6", 30):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            spec = _field(q)
            for k in range(2, 7):
                rep = verify.counterexample_m0(spec, k)
                assert rep.agrees, (q, k, rep)
        # the nonzero branch: q = 7, k = 3 gives phi(3)/3 * 6 = 4
        rep = verify.counterexample_m0(_field(7), 3)
        assert rep.expected == 4 and rep.actual == 4


def test_criterion_06_m1_vanishing():
    with criterion(6, "pi_q(I(t^{p^2},1)) = 0 for (p,n) in {(2,1),(2,2),(3,1)}", 60):
        for p, n in ((2, 1), (2, 2), (3, 1)):
            rep = verify.counterexample_m1(p, n, "p2")
            assert rep.actual == 0 and rep.agrees is True, (p, n, rep)


RADICAL_GRID = [(q, k) for q in (2, 3, 4) for k in range(2, 7)]


def test_criterion_07_radical_lemma():
    with criterion(7, "#(I^{1/d}) <= q^m exhaustively, q in {2,3,4}, k <= 6", 120):
        for q, k in RADICAL_GRID:
            spec = _field(q)
            proper_divs = [d for d in divisors(k) if d > 1]
            for m in range(1, k):
                block = q ** (m + 1)
                for base in range(q ** (k - m - 1)):
                    interval = st.IntervalSpec(pr.monic_from_code(spec, k, base * block), m)
                    for d in proper_divs:
                        assert len(st.radical_set(interval, d)) <= q**m, (q, k, m, base, d)


def test_criterion_08_nu_decomposition():
    with criterion(8, "nu reconstruction with epsilon subtracted, q in {2,3,4}, k <= 6", 120):
        # sign pin: the q=2, k=2, m=1 interval has filtered sum 3 = 4 - 1
        F2 = _field(2)
        dec = st.nu_decomposition(pr.monomial(F2, 2), 1)
        assert dec.epsilon == 1 and dec.reconstructed == 3 == st.nu(pr.monomial(F2, 2), 1)
        for q, k in RADICAL_GRID:
            spec = _field(q)
            tables.poly_tables(spec, 6)  # warm the nu fast path
            for m in range(1, k):
                block = q ** (m + 1)
                for base in range(q ** (k - m - 1)):
                    f = pr.monic_from_code(spec, k, base * block)
                    assert st.nu_decomposition(f, m).reconstructed == st.nu(f, m), (q, k, m, base)


SCAN_QS = (2, 3, 4, 5, 7, 9)


def test_criterion_09a_census_exactness():
    with criterion(9, "scan censuses: per-cell totals q^{m+1} and global sums exact (9a)", 300):
        for q in SCAN_QS:
            spec = _field(q)
            pt = tables.poly_tables(spec, 6)
            for k in range(2, 7):
                degree_census = pt.degree_census(k)
                for m in range(1, k):
                    block = q ** (m + 1)
                    blocks = [pt.degree_census(k, slice(b * block, (b + 1) * block)) for b in range(q**k // block)]
                    assert all(census.sum() == block for census in blocks), (q, k, m)
                    assert (sum(blocks) == degree_census).all(), (q, k, m)


def test_criterion_09b_normalized_constant_snapshot():
    with criterion(9, "normalized constants match the stored baseline byte-exactly (9b)", 300):
        baseline = _load_baseline("interval_scan_constants.json")
        fresh = {}
        for q in SCAN_QS:
            spec = _field(q)
            for k in range(2, 7):
                for m in range(1, k):
                    report = verify.scan_intervals(spec, k, m, Partition((k,)), ScanOptions(workers=1))
                    d = verify.report_to_dict(report)
                    fresh[f"q={q},k={k},m={m}"] = {
                        "cells": d["cells"],
                        "covered_cells": d["covered_cells"],
                        "total_count": d["total_count"],
                        "expected": d["expected"],
                        "max_abs_dev": d["max_abs_dev"],
                        "normalized_constant": d["normalized_constant"],
                        "excluded": d["excluded"],
                    }
        assert json.dumps(fresh, sort_keys=True) == json.dumps(baseline, sort_keys=True)
        # thread-count independence of the snapshot values
        for q, k, m in ((3, 5, 2), (4, 6, 3), (9, 4, 2)):
            spec = _field(q)
            multi = verify.scan_intervals(spec, k, m, Partition((k,)), ScanOptions(workers=4))
            d = verify.report_to_dict(multi)
            entry = baseline[f"q={q},k={k},m={m}"]
            assert d["max_abs_dev"] == entry["max_abs_dev"]
            assert d["normalized_constant"] == entry["normalized_constant"]


def test_criterion_09c_progression_prime_partition():
    with criterion(9, "sum over residues of pi_q(k;D,f) equals pi_q(k), q in {2,3,5} (9c)", 300):
        for q in (2, 3, 5):
            spec = _field(q)
            tables.poly_tables(spec, 5)
            for delta in (1, 2):
                for k in range(delta + 1, 6):
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
                            total += census.get(Partition((k,)))
                        assert total == exact_prime_count(q, k), (q, delta, k, dcode)


def test_criterion_10_variance_trend():
    with criterion(10, "variance ratios at (k,m)=(5,1): gap at q=13 <= gap at q=3, baseline exact", 300):
        baseline = _load_baseline("variance_trend.json")
        report = verify.variance_trend(5, 1, [3, 5, 7, 11, 13])
        assert report.limit == 2
        ratios = {q: r for q, r in report.per_q}
        for q, r in report.per_q:
            assert f"{r.numerator}/{r.denominator}" == baseline["ratios"][str(q)]
        gap3 = abs(ratios[3] - 2)
        gap13 = abs(ratios[13] - 2)
        assert gap13 <= gap3
        assert f"{gap13.numerator}/{gap13.denominator}" == baseline["final_gap"]


def test_criterion_11_determinism():
    with criterion(11, "scans byte-identical across worker counts, three configurations", 60):
        configs = [
            ("interval", _field(3), 5, 2, Partition((5,))),
            ("interval", _field(2), 6, 3, Partition((2, 2, 1, 1))),
            ("progression", _field(3), 5, 2, Partition((5,))),
        ]
        for mode, spec, k, m, lam in configs:
            scan = verify.scan_intervals if mode == "interval" else verify.scan_progressions
            single = scan(spec, k, m, lam, ScanOptions(workers=1, per_cell=True))
            multi = scan(spec, k, m, lam, ScanOptions(workers=5, per_cell=True))
            assert canonical_json(verify.report_to_dict(single)) == canonical_json(
                verify.report_to_dict(multi)
            ), (mode, spec.q, k, m)
