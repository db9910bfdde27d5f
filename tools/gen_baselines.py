#!/usr/bin/env python3
"""Regenerate the stored regression baselines.

Writes src/ffstat/baselines/*.json from a fresh enumeration run:

  interval_scan_constants.json  per-(q, k, m) interval scan
                                summaries for the full-part type (k)
  variance_trend.json           Var nu(.;1) / q^2 ratios at k = 5 and the
                                gap to the large-q limit

Values come from exhaustive enumeration (the same library paths the
acceptance suite exercises); the acceptance suite then pins them
byte-exactly.  Rerun only when an intentional behavior change shifts
the recorded values, and commit the diff.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ffstat import gf, verify
from ffstat.combinatorics import Partition
from ffstat.verify import ScanOptions

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "ffstat" / "baselines"

SCAN_QS = (2, 3, 4, 5, 7, 9)
SCAN_KMAX = 6
TREND_K = 5
TREND_M = 1
TREND_QS = (3, 5, 7, 11, 13)


def scan_snapshot():
    snapshot = {}
    for q in SCAN_QS:
        spec = gf.make_field(*gf.prime_power(q))
        for k in range(2, SCAN_KMAX + 1):
            for m in range(1, k):
                report = verify.scan_intervals(spec, k, m, Partition((k,)), ScanOptions())
                d = verify.report_to_dict(report)
                snapshot[f"q={q},k={k},m={m}"] = {
                    "cells": d["cells"],
                    "covered_cells": d["covered_cells"],
                    "total_count": d["total_count"],
                    "expected": d["expected"],
                    "max_abs_dev": d["max_abs_dev"],
                    "normalized_constant": d["normalized_constant"],
                    "excluded": d["excluded"],
                }
        print(f"q={q} done", file=sys.stderr)
    return snapshot


def trend_snapshot():
    report = verify.variance_trend(TREND_K, TREND_M, list(TREND_QS))
    ratios = {str(q): f"{r.numerator}/{r.denominator}" for q, r in report.per_q}
    gaps = {}
    for q, r in report.per_q:
        gap = abs(r - report.limit)
        gaps[str(q)] = f"{gap.numerator}/{gap.denominator}"
    final_gap = abs(report.per_q[-1][1] - report.limit)
    return {
        "k": TREND_K,
        "m": TREND_M,
        "q_list": list(TREND_QS),
        "limit": report.limit,
        "ratios": ratios,
        "gaps": gaps,
        "final_gap": f"{final_gap.numerator}/{final_gap.denominator}",
    }


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scan = scan_snapshot()
    (OUT_DIR / "interval_scan_constants.json").write_text(
        json.dumps(scan, sort_keys=True, indent=2) + "\n"
    )
    print(f"wrote {len(scan)} scan entries", file=sys.stderr)
    trend = trend_snapshot()
    (OUT_DIR / "variance_trend.json").write_text(
        json.dumps(trend, sort_keys=True, indent=2) + "\n"
    )
    print("wrote variance trend baseline", file=sys.stderr)


if __name__ == "__main__":
    main()
