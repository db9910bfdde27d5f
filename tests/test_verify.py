from fractions import Fraction

import pytest

from ffstat import gf, polyring as pr, verify
from ffstat import statistics as st
from ffstat.cli import canonical_json
from ffstat.combinatorics import Partition, exact_prime_count
from ffstat.verify import CoverageStatus, ScanOptions

from helpers import direct_progression_census


def P(spec, *indices):
    return pr.poly_from_indices(spec, indices)


# ---------------------------------------------------------------------------
# Hypothesis coverage
# ---------------------------------------------------------------------------

def test_interval_coverage_examples(F2, F5):
    cov = verify.check_hypotheses_interval(F5, 5, 1, pr.monomial(F5, 5))
    assert cov.status is CoverageStatus.EXCLUDED_CHAR_DIVIDES
    cov = verify.check_hypotheses_interval(F5, 3, 1, pr.monomial(F5, 3))
    assert cov.status is CoverageStatus.COVERED
    cov = verify.check_hypotheses_interval(F2, 4, 2, pr.monomial(F2, 4))
    assert cov.status is CoverageStatus.EXCLUDED_CHAR2_LOW_DERIVATIVE


def test_interval_coverage_uses_given_representative(F2):
    # t^4 has zero derivative; t^4 + t^3 does not: classification differs at m = 2
    excluded = verify.check_hypotheses_interval(F2, 4, 2, pr.monomial(F2, 4))
    covered = verify.check_hypotheses_interval(F2, 4, 2, P(F2, 0, 0, 0, 1, 1))
    assert excluded.status is CoverageStatus.EXCLUDED_CHAR2_LOW_DERIVATIVE
    assert covered.status is CoverageStatus.COVERED


def test_interval_coverage_m_zero_and_errors(F3):
    cov = verify.check_hypotheses_interval(F3, 3, 0, pr.monomial(F3, 3))
    assert cov.status is CoverageStatus.EXCLUDED_SMALL_M
    with pytest.raises(ValueError):
        verify.check_hypotheses_interval(F3, 3, 3, pr.monomial(F3, 3))
    with pytest.raises(ValueError):
        verify.check_hypotheses_interval(F3, 3, -1, pr.monomial(F3, 3))
    with pytest.raises(ValueError):
        verify.check_hypotheses_interval(F3, 4, 1, pr.monomial(F3, 3))


def test_progression_coverage_examples(F3):
    F4 = gf.make_field(2, 2)
    # p = m = 2 with (f/D)' constant
    d_poly = pr.monomial(F4, 2)
    f = pr.one_poly(F4)
    cov = verify.check_hypotheses_progression(F4, 5, 2, d_poly, f)
    assert cov.status is CoverageStatus.EXCLUDED_CHAR2_CONSTANT_DERIVATIVE or cov.covered
    # (1/t^2)' = -2t/t^4 = 0 in char 2: constant, so excluded
    assert pr.rational_derivative_is_constant(f, d_poly)
    assert cov.status is CoverageStatus.EXCLUDED_CHAR2_CONSTANT_DERIVATIVE
    cov = verify.check_hypotheses_progression(F3, 4, 2, pr.monomial(F3, 1), pr.one_poly(F3))
    assert cov.covered
    cov = verify.check_hypotheses_progression(F3, 3, 1, pr.monomial(F3, 1), pr.one_poly(F3))
    assert cov.status is CoverageStatus.EXCLUDED_SMALL_M
    with pytest.raises(ValueError):
        verify.check_hypotheses_progression(F3, 4, 2, pr.monomial(F3, 2), pr.one_poly(F3))


# ---------------------------------------------------------------------------
# Interval scans
# ---------------------------------------------------------------------------

def test_scan_intervals_excluded_example(F2):
    report = verify.scan_intervals(F2, 2, 1, Partition((2,)))
    assert report.cells == 1
    assert report.covered_cells == 0
    assert report.total_count == 1
    assert report.expected == Fraction(2)
    assert report.max_abs_dev is None
    ex = report.excluded[CoverageStatus.EXCLUDED_CHAR_DIVIDES.value]
    assert ex == {"cells": 1, "max_abs_dev": "1/1"}


def test_scan_intervals_covered(F3, F5):
    report = verify.scan_intervals(F5, 3, 1, Partition((3,)))
    assert report.cells == 5 and report.covered_cells == 5
    assert report.total_count == exact_prime_count(5, 3)
    report = verify.scan_intervals(F3, 4, 2, Partition((4,)))
    assert report.cells == 3 and report.covered_cells == 3
    assert report.total_count == exact_prime_count(3, 4)


def test_scan_intervals_against_direct_enumeration(F3):
    # oracle: factor all 81 quartics directly, bucket by interval
    lam = Partition((4,))
    per_base = {}
    for f in pr.all_monic(F3, 4):
        base = pr.monic_code(f) // 27
        if pr.factorization_type(f) == lam:
            per_base[base] = per_base.get(base, 0) + 1
    expected = Fraction(1, 4) * 27
    oracle_dev = max(abs(Fraction(per_base.get(b, 0)) - expected) for b in range(3))
    report = verify.scan_intervals(F3, 4, 2, lam, ScanOptions(per_cell=True))
    assert report.max_abs_dev == oracle_dev
    assert [rec.count for rec in report.per_cell] == [per_base.get(b, 0) for b in range(3)]


def test_scan_intervals_mixed_coverage(F2):
    # q=2, k=4, m=2: the canonical reps t^4 and t^4 + t^3 split by derivative degree
    report = verify.scan_intervals(F2, 4, 2, Partition((4,)), ScanOptions(per_cell=True))
    assert report.cells == 2
    assert report.covered_cells == 1
    assert sum(ex["cells"] for ex in report.excluded.values()) == 1
    assert report.cells == report.covered_cells + sum(ex["cells"] for ex in report.excluded.values())
    statuses = {rec.label: rec.status for rec in report.per_cell}
    assert statuses["0,0,0,0,1"] is CoverageStatus.EXCLUDED_CHAR2_LOW_DERIVATIVE
    assert statuses["0,0,0,1,1"] is CoverageStatus.COVERED


def test_scan_intervals_partition_sum(F3):
    # summing per-type totals over all partitions recovers q^k
    total = 0
    for lam in [Partition(p) for p in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))]:
        report = verify.scan_intervals(F3, 4, 1, lam)
        total += report.total_count
    assert total == 3**4


def test_scan_intervals_budget(F3):
    with pytest.raises(verify.BudgetError):
        verify.scan_intervals(F3, 6, 1, Partition((6,)), ScanOptions(budget=100))


def test_scan_intervals_status_matches_representative():
    # coverage is classified once per scan except at p = 2, m = 2; every cell must still
    # carry the status of its own canonical representative
    for q in (2, 3, 4, 8):
        spec = gf.make_field(*gf.prime_power(q))
        for k in range(2, (4 if q == 8 else 6) + 1):
            for m in range(1, k):
                report = verify.scan_intervals(spec, k, m, Partition((k,)), ScanOptions(per_cell=True))
                for rec in report.per_cell:
                    rep = pr.monic_from_code(spec, k, rec.cell_id * q ** (m + 1))
                    assert rec.status is verify.check_hypotheses_interval(spec, k, m, rep).status, (q, k, m, rec)


def _summary_from_rows(report):
    """The aggregate fields of a scan report, recomputed from its per-cell rows."""
    groups = {}
    for rec in report.per_cell:
        groups.setdefault(rec.status, []).append(rec.abs_dev)
    covered = groups.pop(CoverageStatus.COVERED, [])
    return {
        "cells": len(report.per_cell),
        "covered_cells": len(covered),
        "total_count": sum(rec.count for rec in report.per_cell),
        "max_abs_dev": max(covered, default=None),
        "excluded": {
            status.value: {"cells": len(devs), "max_abs_dev": verify.frac_str(max(devs))}
            for status, devs in sorted(groups.items(), key=lambda item: item[0].value)
        },
    }


@pytest.mark.parametrize(
    "mode,q,k,m,has_excluded",
    [
        ("interval", 2, 5, 1, True),  # p = 2 divides k(k-1)
        ("interval", 2, 5, 2, False),
        ("interval", 2, 6, 2, True),  # p = m = 2: some cells have deg f' <= 1
        ("interval", 2, 6, 3, False),
        ("interval", 3, 6, 1, True),
        ("interval", 3, 5, 2, False),
        ("progression", 2, 5, 1, True),  # m = 1 < 2
        ("progression", 2, 5, 2, True),  # p = m = 2: some (f/D)' are constant
        ("progression", 2, 6, 2, False),
        ("progression", 3, 5, 1, True),
        ("progression", 3, 5, 2, False),
    ],
)
def test_scan_aggregates_match_rows(mode, q, k, m, has_excluded):
    spec = gf.make_field(q, 1)
    scan = verify.scan_intervals if mode == "interval" else verify.scan_progressions
    for lam in (Partition((k,)), Partition((k - 1, 1))):
        report = scan(spec, k, m, lam, ScanOptions(per_cell=True))
        assert _summary_from_rows(report) == {
            "cells": report.cells,
            "covered_cells": report.covered_cells,
            "total_count": report.total_count,
            "max_abs_dev": report.max_abs_dev,
            "excluded": report.excluded,
        }, (mode, q, k, m, lam)
        assert bool(report.excluded) == has_excluded


def test_scan_intervals_worker_determinism(F3):
    lam = Partition((5,))
    r1 = verify.scan_intervals(F3, 5, 2, lam, ScanOptions(workers=1, per_cell=True))
    r4 = verify.scan_intervals(F3, 5, 2, lam, ScanOptions(workers=4, per_cell=True))
    assert canonical_json(verify.report_to_dict(r1)) == canonical_json(verify.report_to_dict(r4))


# ---------------------------------------------------------------------------
# Progression scans
# ---------------------------------------------------------------------------

def test_scan_progressions_small_m_flagged(F3):
    # m = 1 cells are reported but flagged ExcludedSmallM
    report = verify.scan_progressions(F3, 3, 1, Partition((3,)))
    assert report.covered_cells == 0
    assert report.cells == sum(ex["cells"] for ex in report.excluded.values())
    assert report.cells > 0


def test_scan_progressions_covered_and_exact(F3):
    lam = Partition((5,))
    report = verify.scan_progressions(F3, 5, 2, lam, ScanOptions(per_cell=True))
    # oracle: every cell's count recomputed by factoring its members
    for rec in report.per_cell:
        d_text, f_text = rec.label.split(";")
        d_poly = _parse(F3, d_text[2:])
        f_poly = _parse(F3, f_text[2:])
        census = direct_progression_census(st.ProgressionSpec(d_poly, f_poly, 5))
        assert census.get(lam, 0) == rec.count
        assert rec.expected == Fraction(exact_prime_count(3, 5), st.poly_totient(d_poly))
    assert report.covered_cells == report.cells


def test_scan_progressions_per_cell_vs_direct(F4):
    # nu = 2: every cell's count against factoring its members
    lam = Partition((2, 1, 1))
    report = verify.scan_progressions(F4, 4, 1, lam, ScanOptions(per_cell=True))
    assert report.cells == 4**4 - 4**3  # the sum of phi(D) over monic D of degree 2
    for rec in report.per_cell:
        d_text, f_text = rec.label.split(";")
        prog = st.ProgressionSpec(_parse(F4, d_text[2:]), _parse(F4, f_text[2:]), 4)
        assert direct_progression_census(prog).get(lam, 0) == rec.count


def _parse(spec, text):
    from ffstat.cli import parse_poly

    return parse_poly(text, spec)


def test_scan_progressions_truncation(F3):
    lam = Partition((4,))
    full = verify.scan_progressions(F3, 4, 1, lam, ScanOptions(per_cell=True))
    cut = verify.scan_progressions(F3, 4, 1, lam, ScanOptions(per_cell=True, max_cells=5))
    assert cut.truncated and not full.truncated
    assert cut.cells == 5
    assert [r.cell_id for r in cut.per_cell] == [r.cell_id for r in full.per_cell][:5]


def test_scan_progressions_worker_determinism(F3):
    lam = Partition((4,))
    r1 = verify.scan_progressions(F3, 4, 1, lam, ScanOptions(workers=1, per_cell=True))
    r4 = verify.scan_progressions(F3, 4, 1, lam, ScanOptions(workers=4, per_cell=True))
    assert canonical_json(verify.report_to_dict(r1)) == canonical_json(verify.report_to_dict(r4))


def test_scan_progressions_rejects_degenerate(F3):
    with pytest.raises(ValueError):
        verify.scan_progressions(F3, 2, 1, Partition((2,)))  # deg D = 0


def test_scan_progressions_rejects_negative_max_cells(F3):
    with pytest.raises(ValueError):
        verify.scan_progressions(F3, 4, 1, Partition((4,)), ScanOptions(max_cells=-1))


def test_scan_progressions_one_gcd_per_residue(F3, monkeypatch):
    # every (D, f) pair is tested for coprimality once; classifying a kept cell does not repeat it
    calls = []
    gcd = pr.poly_gcd
    monkeypatch.setattr(pr, "poly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    report = verify.scan_progressions(F3, 5, 2, Partition((5,)))
    assert len(calls) == 3**2 * 3**2
    assert report.cells == 54


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

def test_counterexample_m0_examples():
    rep = verify.counterexample_m0(gf.make_field(7, 1), 3)
    assert rep.expected == 4 and rep.actual == 4 and rep.agrees
    rep = verify.counterexample_m0(gf.make_field(5, 1), 3)
    assert rep.expected == 0 and rep.agrees
    rep = verify.counterexample_m0(gf.make_field(2, 2), 2)
    assert rep.expected == 0 and rep.agrees
    with pytest.raises(ValueError):
        verify.counterexample_m0(gf.make_field(2, 1), 1)


def test_counterexample_m0_nonzero_branch():
    # q = 9 = 1 mod 4: phi(4)/4 * 8 = 4
    rep = verify.counterexample_m0(gf.make_field(3, 2), 4)
    assert rep.expected == 4 and rep.agrees


def test_counterexample_m0_larger_fields():
    # closed form holds out to q = 64, k = 8 (acceptance covers q <= 13, k <= 6)
    for q in (16, 25, 27, 32, 49, 64):
        spec = gf.make_field(*gf.prime_power(q))
        for k in range(2, 9):
            rep = verify.counterexample_m0(spec, k)
            assert rep.agrees, (q, k, rep)


def test_counterexample_m1_variants():
    rep = verify.counterexample_m1(2, 1)
    assert rep.q == 4 and rep.k == 4 and rep.actual == 0 and rep.agrees is True
    rep = verify.counterexample_m1(2, 1, "p2+1")
    assert rep.k == 5 and rep.expected is None and rep.agrees is None
    assert rep.actual == 6  # enumerated; recorded, not asserted against a closed form
    with pytest.raises(ValueError):
        verify.counterexample_m1(2, 1, "p3")


def test_counterexample_m1_nonics_by_full_factoring():
    # the (3,1) case re-verified by factoring all 81 degree-9 members outright
    spec = gf.make_field(3, 2)
    count = 0
    for a in range(9):
        for b in range(9):
            member = pr.poly_from_indices(spec, [b, a] + [0] * 7 + [1])
            if pr.factorization_type(member).parts == (9,):
                count += 1
    assert count == 0 == verify.counterexample_m1(3, 1).actual


# ---------------------------------------------------------------------------
# Variance trend
# ---------------------------------------------------------------------------

def test_variance_trend_preconditions():
    with pytest.raises(ValueError):
        verify.variance_trend(2, 1, [2])
    with pytest.raises(ValueError):
        verify.variance_trend(5, 2, [3])


def test_variance_trend_limits():
    rep = verify.variance_trend(5, 1, [3])
    assert rep.limit == 2
    rep = verify.variance_trend(6, 2, [2])
    assert rep.limit == 2
    assert all(isinstance(r, Fraction) for _, r in rep.per_q)
