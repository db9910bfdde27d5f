"""Command-line front end.

Subcommands map one-to-one onto the library's counting objects.  Output
is a deterministic JSON envelope (keys sorted, rationals rendered as
"num/den", newline-terminated) or, for scans, a flattened per-cell CSV
table.  `timing_ms` is 0 unless `--timing` is passed so that identical
invocations are diff-equal.

Exit codes: 0 success, 1 assertion-style disagreement (a counterexample
check that should agree but does not), 2 usage or budget errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Optional

from ffstat import __version__, gf, polyring as pr
from ffstat.combinatorics import (
    Partition,
    cycle_type_probability,
    divisors,
    exact_prime_count,
    exact_type_count,
    frac_str,
    partitions_of,
)
from ffstat.gf import DEFAULT_BUDGET, BudgetError, FieldSpec
from ffstat.polyring import Poly

if TYPE_CHECKING:  # annotations only: handlers import these for the subcommands that run them
    from ffstat import statistics as st, verify

CSV_HEADER = "q,k,m,lambda,cell_id,count,expected_num,expected_den,abs_dev,covered"


# ---------------------------------------------------------------------------
# Text grammars
# ---------------------------------------------------------------------------

def parse_field_element(text: str, spec: FieldSpec) -> int:
    """The index sum d_i p^i of `[d0,d1,...]` (short vectors zero-padded) or of a bare integer for prime fields."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated element {text!r}")
        body = text[1:-1].strip()
        if not body:
            raise ValueError("empty element brackets")
        digits = []
        for tok in body.split(","):
            tok = tok.strip()
            if not tok.isdigit():
                raise ValueError(f"malformed digit {tok!r}")
            digits.append(int(tok))
        if len(digits) > spec.nu:
            raise ValueError(f"element {text!r} has {len(digits)} components, field has nu = {spec.nu}")
        for d in digits:
            if d >= spec.p:
                raise ValueError(f"digit {d} >= p = {spec.p}")
        return sum(d * spec.p**i for i, d in enumerate(digits))
    if spec.nu != 1:
        raise ValueError(f"bare integer {text!r} only allowed over prime fields; use [d0,...,d{spec.nu - 1}]")
    if not text.isdigit():
        raise ValueError(f"malformed element {text!r}")
    value = int(text)
    if value >= spec.p:
        raise ValueError(f"digit {value} >= p = {spec.p}")
    return value


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets")
    parts.append("".join(cur))
    return parts


def parse_poly(text: str, spec: FieldSpec) -> Poly:
    """Comma-separated coefficients low-to-high, each in element text form."""
    return pr.poly_from_indices(spec, [parse_field_element(tok, spec) for tok in _split_top_level(text)])


def parse_partition(text: str) -> Partition:
    parts = []
    for tok in text.replace(" ", "").split("+"):
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"malformed partition part {tok!r}")
        parts.append(int(tok))
    parts.sort(reverse=True)
    return Partition(tuple(parts))


# ---------------------------------------------------------------------------
# Envelope and output
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _field_dict(spec: Optional[FieldSpec]):
    if spec is None:
        return None
    return {"p": spec.p, "nu": spec.nu, "modulus": list(spec.modulus)}


def make_envelope(spec, command, params, result, excluded, timing_ms):
    return {
        "tool_version": __version__,
        "field": _field_dict(spec),
        "command": command,
        "params": params,
        "result": result,
        "excluded": excluded,
        "timing_ms": timing_ms,
    }


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _census_result(census: st.TypeCensus, lam: Optional[Partition]) -> dict:
    result = {
        "census": {str(p): n for p, n in census.dense()},
        "total": census.total,
    }
    if lam is not None:
        result["count"] = census.get(lam)
    return result


def _csv_text(report: verify.DeviationReport) -> str:
    from ffstat import verify

    head = f"{report.q},{report.k},{report.m},{report.lam},"
    tails: dict[tuple[int, int, int, bool], str] = {}  # the columns after cell_id, per distinct (count, expected, covered)
    lines = [CSV_HEADER]
    for rec in report.per_cell or ():
        num, den = rec.expected.numerator, rec.expected.denominator
        covered = rec.status is verify.CoverageStatus.COVERED
        key = (rec.count, num, den, covered)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = f"{rec.count},{num},{den},{frac_str(rec.abs_dev)},{int(covered)}"
        lines.append(f"{head}{rec.cell_id},{tail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command handlers
#
# Each handler checks its arguments as the run would, then returns
# (spec, params, (projected cells, projected enumeration), run), where
# run() does the work and returns (result, excluded, exit_code).  A dry
# run prints the projection; any other run must fit it into --budget.
# ---------------------------------------------------------------------------

def _field_from_args(args) -> FieldSpec:
    if args.p is None:
        raise ValueError("--p is required for this command")
    return gf.make_field(args.p, args.nu)


def _require(ok: bool, message: str) -> None:
    """Reject an argument the run would reject, before anything is projected."""
    if not ok:
        raise ValueError(message)


def cmd_pi(args):
    spec = _field_from_args(args)
    params = {"k": args.k}
    _require(args.k >= 1, "k must be >= 1")
    return spec, params, (0, 0), lambda: (exact_prime_count(spec.q, args.k), None, 0)


def cmd_pi_type(args):
    spec = _field_from_args(args)
    lam = parse_partition(args.lam)
    params = {"k": args.k, "lambda": str(lam)}
    _require(lam.k == args.k, f"{lam} is not a partition of {args.k}")
    return spec, params, (0, 0), lambda: (exact_type_count(spec.q, args.k, lam), None, 0)


def cmd_partition_prob(args):
    lam = parse_partition(args.lam)
    params = {"lambda": str(lam)}
    return None, params, (0, 0), lambda: (frac_str(cycle_type_probability(lam)), None, 0)


def cmd_totient(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    d_poly = parse_poly(args.D, spec)
    params = {"D": pr.poly_text(d_poly)}
    _require(not d_poly.is_zero, "totient of the zero polynomial")
    return spec, params, (0, 0), lambda: (st.poly_totient(d_poly), None, 0)


def cmd_interval(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    f = parse_poly(args.f, spec)
    st.check_center(f)
    if args.k is not None and f.degree != args.k:
        raise ValueError(f"--k {args.k} does not match deg f = {f.degree}")
    interval = st.IntervalSpec(f, args.m)
    lam = parse_partition(args.lam) if args.lam else None
    _require(lam is None or lam.k == interval.k, f"{lam} is not a partition of {interval.k}")
    params = {"f": pr.poly_text(f), "m": args.m}
    if lam is not None:
        params["lambda"] = str(lam)
    _, work = st.interval_route(spec, interval.k, args.m, partitions_of(interval.k), interval.size, args.budget)
    return spec, params, (1, work), lambda: (_census_result(st.interval_counts(interval, args.budget), lam), None, 0)


def cmd_progression(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    d_poly = parse_poly(args.D, spec)
    f = parse_poly(args.f, spec)
    prog = st.ProgressionSpec(d_poly, f, args.k)
    lam = parse_partition(args.lam) if args.lam else None
    _require(lam is None or lam.k == prog.k, f"{lam} is not a partition of {prog.k}")
    params = {"D": pr.poly_text(d_poly), "f": pr.poly_text(f), "k": args.k}
    if lam is not None:
        params["lambda"] = str(lam)
    _, work = st.progression_route(prog, args.budget)
    return spec, params, (1, work), lambda: (_census_result(st.progression_counts(prog, args.budget), lam), None, 0)


def cmd_nu(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    f = parse_poly(args.f, spec)
    params = {"f": pr.poly_text(f), "m": args.m, "decompose": bool(args.decompose)}
    st.check_center(f)
    k = f.degree
    _require(k >= 2, f"--f {params['f']} has degree {k}, which must be >= 2")
    _require(1 <= args.m < k, f"m = {args.m} out of range 1..{k - 1}")
    _, enumeration = st.interval_route(spec, k, args.m, None, spec.q ** (args.m + 1), args.budget)
    if args.decompose:
        enumeration += sum(spec.q ** (k // d) for d in divisors(k) if d > 1)

    def run():
        result = {"nu": st.nu(f, args.m, args.budget)}
        if args.decompose:
            dec = st.nu_decomposition(f, args.m)
            result["decomposition"] = {
                "k_pi": dec.k_pi,
                "proper_terms": {str(d): v for d, v in sorted(dec.proper_terms.items())},
                "epsilon": dec.epsilon,
                "reconstructed": dec.reconstructed,
            }
        return result, None, 0

    return spec, params, (1, enumeration), run


def cmd_radical(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    f = parse_poly(args.f, spec)
    interval = st.IntervalSpec(f, args.m)
    params = {"f": pr.poly_text(f), "m": args.m, "d": args.d}
    if args.d <= 1 or interval.k % args.d != 0:
        raise ValueError(f"--d {args.d} must be a divisor of k = {interval.k} greater than 1")

    def run():
        members = st.radical_set(interval, args.d)
        return {"size": len(members), "members": [pr.poly_text(g) for g in members]}, None, 0

    return spec, params, (1, spec.q ** (interval.k // args.d)), run


def cmd_mean_variance(args):
    from ffstat import statistics as st

    spec = _field_from_args(args)
    params = {"k": args.k, "m": args.m}
    _require(args.k >= 2, f"--k {args.k} must be >= 2")
    _require(1 <= args.m < args.k, f"m = {args.m} out of range 1..{args.k - 1}")

    def run():
        mean, var = st.mean_variance_nu(spec, args.k, args.m, args.budget)
        return {"mean": frac_str(mean), "variance": frac_str(var)}, None, 0

    _, work = st.interval_route(spec, args.k, args.m, None, spec.q**args.k, args.budget)
    return spec, params, (spec.q ** (args.k - args.m - 1), work), run


def cmd_variance_trend(args):
    from ffstat import statistics as st, verify

    q_list = [int(tok) for tok in args.q_list.replace(" ", "").split(",") if tok]
    params = {"k": args.k, "m": args.m, "q_list": q_list}
    _require(args.k >= 5, f"--k {args.k} must be >= 5")
    _require(bool(q_list), f"--q-list {args.q_list!r} names no prime power")
    _require(1 <= args.m < args.k - 3, f"m = {args.m} outside the valid range 1 <= m < k - 3 = {args.k - 3}")
    specs = [gf.make_field(*gf.prime_power(q)) for q in q_list]
    cells = sum(q ** (args.k - args.m - 1) for q in q_list)
    enumeration = sum(st.interval_route(spec, args.k, args.m, None, spec.q**args.k, args.budget)[1] for spec in specs)

    def run():
        report = verify.variance_trend(args.k, args.m, q_list, args.budget)
        result = {
            "limit": report.limit,
            "per_q": [{"q": q, "ratio": frac_str(ratio)} for q, ratio in report.per_q],
        }
        return result, None, 0

    return None, params, (cells, enumeration), run


def _scan_result(args, report: verify.DeviationReport):
    from ffstat import verify

    result = report if args.fmt == "csv" else verify.report_to_dict(report)
    return result, report.excluded, 0


def cmd_scan_intervals(args):
    from ffstat import statistics as st, verify

    spec = _field_from_args(args)
    lam = parse_partition(args.lam)
    params = {"k": args.k, "m": args.m, "lambda": str(lam)}
    _require(args.k >= 2, f"--k {args.k} must be >= 2")
    _require(1 <= args.m < args.k, f"m = {args.m} out of range 1..{args.k - 1}")
    _require(lam.k == args.k, f"{lam} is not a partition of {args.k}")
    opts = verify.ScanOptions(
        budget=args.budget,
        per_cell=args.per_cell or args.fmt == "csv",
    )
    _, work = st.scan_route(spec, args.k, args.m, lam, args.budget)
    projection = (spec.q ** (args.k - args.m - 1), work)
    return spec, params, projection, lambda: _scan_result(args, verify.scan_intervals(spec, args.k, args.m, lam, opts))


def cmd_scan_progressions(args):
    from ffstat import verify

    spec = _field_from_args(args)
    lam = parse_partition(args.lam)
    params = {"k": args.k, "m": args.m, "lambda": str(lam)}
    if args.max_cells is not None:
        _require(args.max_cells >= 0, f"--max-cells {args.max_cells} must be >= 0")
        params["max_cells"] = args.max_cells
    delta = args.k - args.m - 1
    _require(delta >= 1, f"deg D = k - m - 1 = {delta} must be >= 1")
    _require(args.m >= 0, "m must be >= 0")
    _require(lam.k == args.k, f"{lam} is not a partition of {args.k}")
    cells = spec.q ** (2 * delta) if args.max_cells is None else min(spec.q ** (2 * delta), args.max_cells)
    opts = verify.ScanOptions(
        budget=args.budget,
        per_cell=args.per_cell or args.fmt == "csv",
        max_cells=args.max_cells,
    )
    projection = (cells, cells * spec.q ** (args.m + 1))
    return spec, params, projection, lambda: _scan_result(
        args, verify.scan_progressions(spec, args.k, args.m, lam, opts)
    )


def cmd_hypotheses(args):
    from ffstat import verify

    spec = _field_from_args(args)
    f = parse_poly(args.f, spec)
    params = {"k": args.k, "m": args.m, "f": pr.poly_text(f)}
    # classifying takes one gcd or derivative and is the check, so a dry run classifies too
    if args.D:
        d_poly = parse_poly(args.D, spec)
        params["D"] = pr.poly_text(d_poly)
        cov = verify.check_hypotheses_progression(spec, args.k, args.m, d_poly, f)
    else:
        cov = verify.check_hypotheses_interval(spec, args.k, args.m, f)
    return spec, params, (0, 0), lambda: ({"status": cov.status.value, "detail": cov.detail}, None, 0)


def _counterexample_result(rep: verify.CounterexampleReport):
    result = {"kind": rep.kind, "q": rep.q, "k": rep.k, "expected": rep.expected, "actual": rep.actual,
              "agrees": rep.agrees}
    return result, None, 1 if rep.agrees is False else 0


def cmd_counterexample(args):
    from ffstat import verify

    if args.which == "m0":
        spec = _field_from_args(args)
        params = {"variant": "m0", "k": args.k}
        _require(args.k > 1, "k must be > 1")
        return spec, params, (1, spec.q), lambda: _counterexample_result(verify.counterexample_m0(spec, args.k))
    if args.p is None:
        raise ValueError("--p is required for counterexample m1")
    _require(args.n >= 1, f"--n = {args.n} must be >= 1")
    spec = gf.make_field(args.p, 2 * args.n)
    params = {"variant": f"m1:{args.variant}", "p": args.p, "n": args.n}  # argparse allows p2 and p2+1 only
    return spec, params, (1, spec.q**2), lambda: _counterexample_result(
        verify.counterexample_m1(args.p, args.n, args.variant, args.budget)
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `ffstat: ...` line and exits 2; subcommand parsers inherit this."""

    def error(self, message):
        self.exit(2, f"ffstat: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffstat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # the options every subcommand takes, declared once and copied into each as a parent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=None, required=False, help="field characteristic")
    common.add_argument("--nu", type=int, default=1, help="field extension degree (default 1)")
    common.add_argument("--threads", type=int, default=None, help="accepted and ignored; scans run in one thread")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max enumeration size")
    common.add_argument("--seed", type=int, default=None, help="accepted and ignored; scans are exhaustive and deterministic")
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    common.add_argument("--dry-run", action="store_true", help="print projected cell count and exit")
    common.add_argument("--timing", action="store_true", help="include measured timing_ms")

    sp = sub.add_parser("pi", parents=[common], help="exact count of monic prime polynomials of degree k")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=cmd_pi)

    sp = sub.add_parser("pi-type", parents=[common], help="exact count of monic degree-k polynomials of a type")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.set_defaults(handler=cmd_pi_type)

    sp = sub.add_parser("partition-prob", parents=[common], help="cycle-type probability P(lambda)")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.set_defaults(handler=cmd_partition_prob)

    sp = sub.add_parser("totient", parents=[common], help="polynomial Euler totient of D")
    sp.add_argument("--D", required=True)
    sp.set_defaults(handler=cmd_totient)

    sp = sub.add_parser("interval", parents=[common], help="type census of a short interval")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.set_defaults(handler=cmd_interval)

    sp = sub.add_parser("progression", parents=[common], help="type census of a residue class")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--D", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.set_defaults(handler=cmd_progression)

    sp = sub.add_parser("nu", parents=[common], help="von Mangoldt interval sum nu(f; m)")
    sp.add_argument("--f", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--decompose", action="store_true")
    sp.set_defaults(handler=cmd_nu)

    sp = sub.add_parser("radical", parents=[common], help="radical set I(f, m)^{1/d}")
    sp.add_argument("--f", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(handler=cmd_radical)

    sp = sub.add_parser("mean-variance", parents=[common], help="exact mean and variance of nu(.; m)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(handler=cmd_mean_variance)

    sp = sub.add_parser("variance-trend", parents=[common], help="Var/q^{m+1} across a list of prime powers")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--q-list", dest="q_list", required=True)
    sp.set_defaults(handler=cmd_variance_trend)

    sp = sub.add_parser("scan-intervals", parents=[common], help="deviation scan over all distinct intervals")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--per-cell", action="store_true")
    sp.set_defaults(handler=cmd_scan_intervals)

    sp = sub.add_parser("scan-progressions", parents=[common], help="deviation scan over residue classes")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--per-cell", action="store_true")
    sp.add_argument("--max-cells", type=int, default=None)
    sp.set_defaults(handler=cmd_scan_progressions)

    sp = sub.add_parser("hypotheses", parents=[common], help="coverage classification for a cell")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--D", default=None)
    sp.set_defaults(handler=cmd_hypotheses)

    sp = sub.add_parser("counterexample", help="small-m counterexample checks")
    ce = sp.add_subparsers(dest="which", required=True)
    for which in ("m0", "m1"):
        spw = ce.add_parser(which, parents=[common])
        if which == "m0":
            spw.add_argument("--k", type=int, required=True)
        else:
            spw.add_argument("--n", type=int, required=True)
            spw.add_argument("--variant", choices=("p2", "p2+1"), default="p2")
        spw.set_defaults(handler=cmd_counterexample)

    return parser


def run_command(argv) -> int:
    """Parse argv, run the selected subcommand, write the report, return the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.threads is not None and args.threads < 1:
        parser.error("thread count must be positive")
    if args.budget < 0:
        print(f"ffstat: --budget {args.budget} must be >= 0", file=sys.stderr)
        return 2

    if args.fmt == "csv" and args.command not in ("scan-intervals", "scan-progressions"):
        print(f"ffstat: csv format is only available for scans, not {args.command!r}", file=sys.stderr)
        return 2

    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full, however long
        sys.set_int_max_str_digits(0)
    start = time.monotonic()
    try:
        spec, params, (cells, enumeration), run = args.handler(args)
        if args.dry_run:
            result, excluded, code = {"projected_cells": cells, "projected_enumeration": enumeration}, None, 0
        elif enumeration > args.budget:
            raise BudgetError(f"projected enumeration {enumeration} over {cells} cells exceeds the budget {args.budget}")
        else:
            result, excluded, code = run()
        timing_ms = int((time.monotonic() - start) * 1000) if args.timing else 0
        if args.fmt == "csv" and not args.dry_run:
            text = _csv_text(result)
        else:
            command = args.command if args.command != "counterexample" else f"counterexample {args.which}"
            text = canonical_json(make_envelope(spec, command, params, result, excluded, timing_ms))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"ffstat: {exc}", file=sys.stderr)
        return 2
    try:
        _write(args, text)
    except OSError as exc:
        print(f"ffstat: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
