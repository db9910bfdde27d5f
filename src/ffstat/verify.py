"""Grid verification of interval and residue-class counting behavior.

Scans enumerate whole grids of intervals or residue classes, classify
each cell's hypothesis coverage, and record the maximum deviation of the
observed count from its expected value separately for covered and
excluded cells.  The deviation bound's constant is non-effective, so no
a-priori bound is asserted; instead the normalized empirical constant
|count - expected| / q^{m+1/2} is recorded and pinned by snapshot.

Scans visit cells in order, so reports are deterministic, and run in
the process's one OS thread (`tables` starts numpy's OpenBLAS with no
worker threads); `ScanOptions.workers` is accepted and ignored.  Both
scans take their route from `statistics.census_route`.  On the route
it picks, an interval scan reads every cell from one vector of the ring
of principal units mod t^(k - m) when that ring is priced cheapest, as it
is when m is above about k/2 or q^k is small; else it factors all q^k
monic polynomials of degree k, or counts from type tables: from tables
already built to degree k when there are, and otherwise from tables up
to its type's largest part, which list only the members of its type
(`tables.PolyTables.type_block_counts`).  A progression scan never
factors: it counts all classes of a modulus at once, in one
`statistics.ResidueRing` a modulus when the rings it may build are
priced no dearer than type tables for degree k, and otherwise from one
listing of the degree-k codes a modulus in the tables.  The
counterexamples count the primes of I(t^k, 0) and I(t^k, 1) with
`statistics.interval_prime_count`, which needs no Rabin test at m = 0,
k <= 3 nor at m = 1, k <= 5.  `tables`, and
with it numpy, is imported only inside the functions that build or read
tables, so the hypothesis checks, the counterexamples, interval scans
and variance trends on the ring route and progression scans with small
moduli never load it: an interval scan loads numpy only when the ring
mod t^(k - m) is priced dearer than tables (`scan-intervals --p 2 --k 12
--m 1` does, at --m 2 --k 10 it does not).  The
command line imports this module only for the subcommands that run it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from ffstat import gf, polyring as pr
from ffstat import statistics as st
from ffstat.combinatorics import FrozenRecord, Partition, Record, cycle_type_probability, exact_type_count, frac_str
from ffstat.gf import DEFAULT_BUDGET, BudgetError, FieldSpec
from ffstat.polyring import Poly


class CoverageStatus(str, Enum):
    COVERED = "Covered"
    EXCLUDED_SMALL_M = "ExcludedSmallM"
    EXCLUDED_CHAR_DIVIDES = "ExcludedCharDividesKKminus1"
    EXCLUDED_CHAR2_LOW_DERIVATIVE = "ExcludedChar2LowDerivative"
    EXCLUDED_CHAR2_CONSTANT_DERIVATIVE = "ExcludedChar2ConstantRationalDerivative"


class Coverage(FrozenRecord):
    __slots__ = ("status", "detail")
    status: CoverageStatus
    detail: str

    @property
    def covered(self) -> bool:
        return self.status is CoverageStatus.COVERED


def check_hypotheses_interval(spec: FieldSpec, k: int, m: int, f: Poly) -> Coverage:
    """Classify an interval cell against the short-interval hypotheses.

    The supplied representative f is evaluated verbatim; for m <= 2 in
    characteristic 2 the derivative-degree condition does not depend on
    the choice of representative within the interval.
    """
    if not f.is_monic or f.degree != k:
        raise ValueError("representative must be monic of degree k")
    if m < 0 or m >= k:
        raise ValueError(f"m = {m} out of range")
    p = spec.p
    if m < 1:
        return Coverage(CoverageStatus.EXCLUDED_SMALL_M, f"m = {m} < 1 lies below the covered range")
    if (k * (k - 1)) % p == 0 and m < 2:
        return Coverage(
            CoverageStatus.EXCLUDED_CHAR_DIVIDES,
            f"p = {p} divides k(k-1) = {k * (k - 1)} and m = {m} < 2",
        )
    if p == 2 and m < 3:
        deriv = pr.derivative(f)
        if deriv.degree <= 1:
            return Coverage(
                CoverageStatus.EXCLUDED_CHAR2_LOW_DERIVATIVE,
                f"p = 2, deg f' = {deriv.degree} <= 1 and m = {m} < 3",
            )
    return Coverage(CoverageStatus.COVERED, "all hypotheses hold")


def check_hypotheses_progression(spec: FieldSpec, k: int, m: int, d_poly: Poly, f: Poly) -> Coverage:
    """Classify a residue-class cell against the progression hypotheses."""
    if not d_poly.is_monic or d_poly.degree != k - m - 1 or d_poly.degree < 1:
        raise ValueError("modulus degree must equal k - m - 1 >= 1")
    if pr.poly_gcd(f, d_poly).degree != 0:
        raise ValueError("residue must be coprime to the modulus")
    return _classify_progression(spec, m, d_poly, f)


def _classify_progression(spec: FieldSpec, m: int, d_poly: Poly, f: Poly) -> Coverage:
    """The progression hypotheses for a residue f already known coprime to D of degree k - m - 1."""
    if m < 2:
        return Coverage(CoverageStatus.EXCLUDED_SMALL_M, f"m = {m} < 2")
    if spec.p == 2 and m == 2 and pr.rational_derivative_is_constant(f, d_poly):
        return Coverage(
            CoverageStatus.EXCLUDED_CHAR2_CONSTANT_DERIVATIVE,
            "p = m = 2 and (f/D)' is a constant",
        )
    return Coverage(CoverageStatus.COVERED, "all hypotheses hold")


# ---------------------------------------------------------------------------
# Deviation reports
# ---------------------------------------------------------------------------

class ScanOptions(Record):
    __slots__ = ("workers", "budget", "per_cell", "max_cells")
    workers: int  # accepted and ignored: scans run in one thread, in cell order
    budget: int
    per_cell: bool
    max_cells: Optional[int]
    _defaults = {"workers": 1, "budget": DEFAULT_BUDGET, "per_cell": False, "max_cells": None}


class CellRecord(FrozenRecord):
    __slots__ = ("cell_id", "label", "count", "expected", "abs_dev", "status")
    cell_id: int
    label: str
    count: int
    expected: Fraction
    abs_dev: Fraction
    status: CoverageStatus


class DeviationReport(Record):
    __slots__ = ("mode", "q", "k", "m", "lam", "cells", "covered_cells", "total_count", "expected", "max_abs_dev",
                 "normalized_constant", "excluded", "truncated", "per_cell")
    mode: str
    q: int
    k: int
    m: int
    lam: Partition
    cells: int
    covered_cells: int
    total_count: int
    expected: Optional[Fraction]
    max_abs_dev: Optional[Fraction]
    normalized_constant: Optional[str]
    excluded: dict[str, dict]
    truncated: bool
    per_cell: Optional[tuple[CellRecord, ...]]
    _defaults = {"truncated": False, "per_cell": None}


def normalized_deviation(dev: Fraction, q: int, m: int) -> str:
    """|count - expected| / q^{m+1/2} rendered as a 12-significant-digit decimal."""
    value = float(dev) / (q**m * math.sqrt(q))
    return format(value, ".12g")


def report_to_dict(report: DeviationReport) -> dict:
    """JSON-ready dict; Fractions render as "num/den" strings."""
    out = {
        "mode": report.mode,
        "q": report.q,
        "k": report.k,
        "m": report.m,
        "lambda": str(report.lam),
        "cells": report.cells,
        "covered_cells": report.covered_cells,
        "total_count": report.total_count,
        "expected": frac_str(report.expected) if report.expected is not None else None,
        "max_abs_dev": frac_str(report.max_abs_dev) if report.max_abs_dev is not None else None,
        "normalized_constant": report.normalized_constant,
        "excluded": report.excluded,
        "truncated": report.truncated,
    }
    if report.per_cell is not None:
        out["per_cell"] = [
            {
                "cell_id": rec.cell_id,
                "label": rec.label,
                "count": rec.count,
                "expected": frac_str(rec.expected),
                "abs_dev": frac_str(rec.abs_dev),
                "status": rec.status.value,
            }
            for rec in report.per_cell
        ]
    return out


class _Aggregator:
    """Running scan totals: the cell count and the largest |count - expected| per status.

    A cell's expected value arrives as num/den and its deviation is kept
    as the integer |count * den - num| beside den, so maxima compare by
    cross-multiplication and a Fraction is built once per status.
    """

    def __init__(self):
        self.cells = 0
        self.total_count = 0
        self.status_cells: dict[CoverageStatus, int] = {}
        self.max_dev: dict[CoverageStatus, tuple[int, int]] = {}

    def add(self, counts: list[int], num: int, den: int, status: CoverageStatus) -> None:
        """Add cells that share one expected value num/den and one status, given their counts."""
        self.cells += len(counts)
        self.total_count += sum(counts)
        self.status_cells[status] = self.status_cells.get(status, 0) + len(counts)
        dev = max(abs(max(counts) * den - num), abs(min(counts) * den - num))
        best = self.max_dev.get(status)
        if best is None or dev * best[1] > best[0] * den:
            self.max_dev[status] = (dev, den)

    def report(self, mode: str, q: int, k: int, m: int, lam: Partition, expected: Optional[Fraction],
               rows: Optional[list[CellRecord]], truncated: bool = False) -> DeviationReport:
        devs = {status: Fraction(*best) for status, best in self.max_dev.items()}
        max_dev = devs.get(CoverageStatus.COVERED)
        excluded = {
            status.value: {"cells": self.status_cells[status], "max_abs_dev": frac_str(devs[status])}
            for status in sorted(self.status_cells, key=lambda s: s.value)
            if status is not CoverageStatus.COVERED
        }
        return DeviationReport(
            mode=mode,
            q=q,
            k=k,
            m=m,
            lam=lam,
            cells=self.cells,
            covered_cells=self.status_cells.get(CoverageStatus.COVERED, 0),
            total_count=self.total_count,
            expected=expected,
            max_abs_dev=max_dev,
            normalized_constant=normalized_deviation(max_dev, q, m) if max_dev is not None else None,
            excluded=excluded,
            truncated=truncated,
            per_cell=tuple(rows) if rows is not None else None,
        )


def scan_intervals(spec: FieldSpec, k: int, m: int, lam: Partition, options: Optional[ScanOptions] = None) -> DeviationReport:
    """Scan every distinct interval of M(k, q) for one factorization type.

    Iterates the q^{k-m-1} canonical representatives (low coefficients
    zeroed), classifies each against the hypotheses, and aggregates the
    deviation |count - P(lam) q^{m+1}| over covered cells; excluded
    cells are tallied per status, never merged into the covered figures.
    Coverage depends on the representative only for p = 2 and m = 2
    (p = 2 divides k(k-1), so m = 1 is always excluded and m >= 3 always
    covered); every other scan classifies once, on code 0.  On the ring
    route the counts come from `statistics.interval_type_counts`, and each
    t^(m+1) F is factored, through F, only when lam has m + 1 parts 1.
    """
    opts = options or ScanOptions()
    if not 1 <= m < k:
        raise ValueError(f"m = {m} out of range 1..{k - 1}")
    if lam.k != k:
        raise ValueError(f"{lam} is not a partition of {k}")
    q = spec.q
    route, _ = st.interval_route(spec, k, m, [lam], q**k, opts.budget)
    if route != "ring" and q**k > opts.budget:
        raise BudgetError(
            f"projected enumeration of {q}^{k} = {q**k} polynomials "
            f"({q ** (k - m - 1)} cells) exceeds the budget {opts.budget}"
        )
    block = q ** (m + 1)

    def table_counts(tables):
        # tables up to lam's largest part list its members; tables already built to k are read instead
        pt = tables.poly_tables(spec, lam.parts[0], opts.budget)
        if pt.kmax >= k:
            return pt.block_counts(k, pt.pid_of(lam), block)
        return pt.type_block_counts(lam, block)

    counts = st.block_sums(spec, k, m, route, lambda g: pr.factorization_type(g) == lam,
                           lambda ring: st.interval_type_counts(ring, [lam], m)[lam], table_counts)
    if route == "ring" and lam.parts[-(m + 1) :] == (1,) * (m + 1):  # t^(m+1) F, counted apart, may have type lam
        counts = [n + (st.lone_type(top, m) == lam) for n, top in zip(counts, pr.all_monic(spec, k - m - 1))]
    expected = cycle_type_probability(lam) * block
    num, den = expected.numerator, expected.denominator
    per_rep = spec.p == 2 and m == 2
    fixed = None if per_rep else check_hypotheses_interval(spec, k, m, pr.monic_from_code(spec, k, 0)).status
    agg = _Aggregator()
    rows: Optional[list[CellRecord]] = [] if opts.per_cell else None
    if fixed is not None:  # every cell has one status
        agg.add(counts, num, den, fixed)
        if rows is None:
            return agg.report("interval", q, k, m, lam, expected, rows)
    labels = _interval_labels(spec, k, m) if rows is not None else None
    devs: dict[int, Fraction] = {}  # |count - expected| per distinct count
    for base, count in enumerate(counts):
        status = fixed
        if per_rep:
            status = check_hypotheses_interval(spec, k, m, pr.monic_from_code(spec, k, base * block)).status
            agg.add([count], num, den, status)
        if rows is not None:
            dev = devs.get(count)
            if dev is None:
                dev = devs[count] = abs(count - expected)
            rows.append(CellRecord(base, labels[base], count, expected, dev, status))
    return agg.report("interval", q, k, m, lam, expected, rows)


def _interval_labels(spec: FieldSpec, k: int, m: int) -> list[str]:
    """`poly_text` of every interval cell's representative, in base-code order, without building it.

    Cell base's representative is t^(m+1) times the monic of degree
    k - m - 1 with code base: m + 1 zero coefficients, base's base-q
    digits least significant first, then the leading 1.
    """
    texts = gf.element_texts(spec)
    tails = [texts[1]]
    for _ in range(k - m - 1):  # prepend one digit a pass, from the top down, so the lowest varies fastest
        tails = [text + "," + tail for tail in tails for text in texts]
    zeros = (texts[0] + ",") * (m + 1)
    return [zeros + tail for tail in tails]


def scan_progressions(spec: FieldSpec, k: int, m: int, lam: Partition, options: Optional[ScanOptions] = None) -> DeviationReport:
    """Scan residue classes f mod D over all monic D of degree k - m - 1.

    Cells are (D, f) pairs with f a coprime residue, in (D-code, f-code)
    order, optionally truncated after `max_cells` cells (deterministic
    prefix, never sampled).  Each cell's count is compared to the exact
    rational pi_q(k; lam) / phi(D).  All classes of one D are counted at
    its first cell: by its `statistics.ResidueRing` when the rings the
    scan may reach, at most one a cell, are priced no dearer than type
    tables for degree k (`statistics.census_route`); otherwise from one
    `tables.member_codes` listing of the q^k monic polynomials of degree
    k as f + D*t^(m+1) + D*h, residue f fastest, summed per class.
    """
    opts = options or ScanOptions()
    delta = k - m - 1
    if delta < 1:
        raise ValueError(f"deg D = k - m - 1 = {delta} must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if lam.k != k:
        raise ValueError(f"{lam} is not a partition of {k}")
    if opts.max_cells is not None and opts.max_cells < 0:
        raise ValueError(f"max_cells = {opts.max_cells} must be >= 0")
    q = spec.q
    block = q ** (m + 1)
    # cells are bounded by q^{2 delta}; enumeration touches block members per cell
    projected_cells = q ** (2 * delta) if opts.max_cells is None else min(q ** (2 * delta), opts.max_cells)
    if projected_cells * block > opts.budget:
        raise BudgetError(
            f"projected enumeration of {projected_cells} cells x {block} members "
            f"exceeds the budget {opts.budget}"
        )
    # one ring a modulus, for each D the scan reaches
    rings = q**delta if opts.max_cells is None else min(q**delta, opts.max_cells)
    if st.census_route(spec, k, products=rings * st.ring_products(q, delta, [lam])) == "ring":
        def class_counts(d_poly):
            return st.ResidueRing(d_poly).type_counts(k, [lam])[lam]
    else:
        from ffstat import tables

        pt = tables.poly_tables(spec, k, opts.budget)
        is_lam = pt.types[k] == pt.pid_of(lam)

        def class_counts(d_poly):
            # from D*t^(m+1), f + D*(t^(m+1) + h) over f and deg h <= m lists every monic of degree k once
            top = pr.poly_mul(d_poly, pr.monomial(spec, m + 1))
            codes = tables.member_codes(pt, top.ci, d_poly.ci, m, delta)
            return is_lam[codes].reshape(-1, q**delta).sum(axis=0).tolist()

    pi_lam = exact_type_count(q, k, lam)
    agg = _Aggregator()
    rows: Optional[list[CellRecord]] = [] if opts.per_cell else None
    truncated = False
    for dcode in range(q**delta):
        d_poly = pr.monic_from_code(spec, delta, dcode)
        phi = st.poly_totient(d_poly)
        classes = None  # counted at the first cell of D, so a scan that stops at D counts nothing for it
        for fcode in range(q**delta):
            f_poly = pr.poly_from_indices(spec, pr.code_to_coeffs(fcode, delta, q)[:-1])
            if pr.poly_gcd(f_poly, d_poly).degree != 0:
                continue
            if opts.max_cells is not None and agg.cells >= opts.max_cells:
                truncated = True
                break
            if classes is None:
                classes = class_counts(d_poly)
            count = classes[fcode]
            status = _classify_progression(spec, m, d_poly, f_poly).status
            agg.add([count], pi_lam, phi, status)
            if rows is not None:
                expected = Fraction(pi_lam, phi)
                label = f"D={pr.poly_text(d_poly)};f={pr.poly_text(f_poly)}"
                rows.append(CellRecord(dcode * q**delta + fcode, label, count, expected, abs(count - expected), status))
        if truncated:
            break
    return agg.report("progression", q, k, m, lam, None, rows, truncated)


# ---------------------------------------------------------------------------
# Counterexamples and the variance trend
# ---------------------------------------------------------------------------

class CounterexampleReport(FrozenRecord):
    __slots__ = ("kind", "q", "k", "expected", "actual", "agrees")
    kind: str
    q: int
    k: int
    expected: Optional[int]
    actual: int
    agrees: Optional[bool]


def _int_totient(k: int) -> int:
    return sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)


def counterexample_m0(spec: FieldSpec, k: int) -> CounterexampleReport:
    """Prime count in I(t^k, 0) versus the closed form.

    The q polynomials t^k + a contain no primes unless q = 1 mod k, in
    which case exactly phi(k)(q-1)/k of them are prime.
    """
    if k <= 1:
        raise ValueError("k must be > 1")
    q = spec.q
    if q % k == 1:
        expected = _int_totient(k) * (q - 1) // k
    else:
        expected = 0
    actual = st.interval_prime_count(st.IntervalSpec(pr.monomial(spec, k), 0))
    return CounterexampleReport("m0", q, k, expected, actual, expected == actual)


def counterexample_m1(p: int, n: int, variant: str = "p2", budget: int = DEFAULT_BUDGET) -> CounterexampleReport:
    """Prime count in I(t^k, 1) over F_{p^{2n}} for k = p^2 (or the k = p^2 + 1 variant).

    For k = p^2 the count is provably zero and the report asserts it;
    the k = p^2 + 1 variant is recorded without an asserted expectation
    (only its analogue is stated, for a group on the projective line).
    """
    if variant not in ("p2", "p2+1"):
        raise ValueError("variant must be 'p2' or 'p2+1'")
    spec = gf.make_field(p, 2 * n)
    q = spec.q
    if q * q > budget:
        raise BudgetError(f"q^2 = {q * q} exceeds the enumeration budget {budget}")
    k = p * p if variant == "p2" else p * p + 1
    actual = st.interval_prime_count(st.IntervalSpec(pr.monomial(spec, k), 1))
    expected = 0 if variant == "p2" else None
    agrees = (actual == expected) if expected is not None else None
    return CounterexampleReport("m1", q, k, expected, actual, agrees)


class VarianceTrendReport(FrozenRecord):
    __slots__ = ("k", "m", "per_q", "limit")
    k: int
    m: int
    per_q: tuple[tuple[int, Fraction], ...]
    limit: int


def variance_trend(k: int, m: int, q_list, budget: int = DEFAULT_BUDGET) -> VarianceTrendReport:
    """Exact Var nu(.;m) / q^{m+1} for each q, with the large-q limit k - m - 2.

    Requires m < k - 3, the range where the limit statement applies.
    """
    if not 1 <= m < k - 3:
        raise ValueError(f"m = {m} outside the valid range 1 <= m < k - 3 = {k - 3}")
    per_q = []
    for q in q_list:
        p, nu_exp = gf.prime_power(q)
        spec = gf.make_field(p, nu_exp)
        _, var = st.mean_variance_nu(spec, k, m, budget)
        per_q.append((q, var / q ** (m + 1)))
    return VarianceTrendReport(k=k, m=m, per_q=tuple(per_q), limit=k - m - 2)
