"""Span recorder that times ffstat's layers from outside the library.

`Tracer.install` replaces the public functions and methods named in
`LAYERS` with wrappers.  Each call records a span (layer, start, end,
parent span, thread); a few wrappers also add to counters.  A layer's self
time is the duration of its spans minus the part covered by their child
spans, and busy time is summed over threads.  Worker-thread spans opened
with no span of their own thread open take the innermost open span of the
main thread as parent, so a scan's self time excludes the cell work its
pool runs.

Run as a script it traces one CLI invocation in a fresh process:

    PYTHONPATH=src python perfbench/tracer.py OUT.json -- <ffstat arguments>

The report goes to stdout exactly as `python -m ffstat.cli` writes it, and
the trace summary to OUT.json.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict

# per-layer time metric -> functions timed as that layer: ("module", "name") or ("module", "Class.method")
LAYERS = {
    "cli.serialize_s": [("cli", "canonical_json"), ("cli", "_csv_text"), ("cli", "_write"), ("verify", "report_to_dict")],
    "gf.make_field_s": [("gf", "make_field")],
    "tables.field_table_s": [("tables", "FieldTable.__init__")],
    "tables.sieve_s": [("tables", "PolyTables.__init__")],
    "tables.lambda_table_s": [("tables", "PolyTables.lambda_table")],
    "tables.block_agg_s": [("tables", f"PolyTables.{n}") for n in ("block_counts", "census_matrix", "lambda_block_sums")],
    "tables.progression_codes_s": [("tables", "PolyTables.progression_codes")],
    "polyring.factor_s": [("polyring", "factor"), ("polyring", "factorization_type")],
    "polyring.is_irreducible_s": [("polyring", "is_irreducible")],
    "polyring.gcd_s": [("polyring", "poly_gcd")],
    "polyring.poly_from_code_s": [("polyring", "monic_from_code")],
    # closed forms, wherever cli, statistics and verify bound them by name
    "combinatorics.busy_s": [
        (mod, name)
        for mod in ("combinatorics", "cli", "statistics", "verify")
        for name in ("cycle_type_probability", "exact_prime_count", "exact_type_count", "divisors", "partitions_of", "divisor_excess")
    ],
    "statistics.census_s": [("statistics", n) for n in ("specialization_counts", "interval_counts", "progression_counts")],
    "statistics.nu_s": [("statistics", "nu"), ("statistics", "nu_decomposition")],
    "statistics.mean_variance_self_s": [("statistics", "mean_variance_nu")],
    "statistics.totient_s": [("statistics", "poly_totient")],
    "verify.hypotheses_s": [("verify", "check_hypotheses_interval"), ("verify", "check_hypotheses_progression")],
    "verify.scan_self_s": [("verify", "scan_intervals"), ("verify", "scan_progressions")],
    "verify.counterexample_self_s": [("verify", "counterexample_m0"), ("verify", "counterexample_m1")],
}

# table-cache lookups are counted, not timed: their cost stays with the caller
CACHE_LOOKUPS = [("tables", "poly_tables"), ("tables", "cached_poly_tables")]


def _owner(modname: str, path: str):
    import importlib

    obj = importlib.import_module(f"ffstat.{modname}")
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


class Tracer:
    def __init__(self):
        self.targets: list[tuple[str, str]] = []  # (layer, function name) per wrapped target
        self.spans: list[tuple[int, int, int, int, int, int]] = []  # id, target, start, end, parent, thread
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._counts: dict[int, dict[str, float]] = {}  # per thread, so no lock serializes the workers
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def counts(self) -> dict[str, float]:
        """The calling thread's counters."""
        tid = threading.get_ident()
        c = self._counts.get(tid)
        if c is None:
            c = self._counts[tid] = defaultdict(float)
        return c

    # -- recording ---------------------------------------------------------

    def record(self, layer: str, start_ns: int, end_ns: int) -> None:
        """A span measured by the caller, outside any other span (e.g. the import)."""
        self.targets.append((layer, layer))
        self.spans.append((next(self._ids), len(self.targets) - 1, start_ns, end_ns, -1, self._main))

    def _wrap(self, layer: str, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter_ns
        self.targets.append((layer, name))
        target = len(self.targets) - 1

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.get(tid)
            if stack is None:
                stack = tracer._stacks[tid] = []
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, target, start, end, parent, tid))
            if after is not None:
                after(tracer.counts(), args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for modname, path in targets:
                owner, name = _owner(modname, path)
                if name in vars(owner):
                    self._patch(owner, name, self._wrap(layer, name, vars(owner)[name], AFTER.get(name)))
        for modname, name in CACHE_LOOKUPS:
            owner, _ = _owner(modname, name)
            self._patch(owner, name, _counting_lookup(self, vars(owner)[name]))
        owner, name = _owner("tables", "PolyTables.__init__")
        self._patch(owner, name, _measuring_rss(self, vars(owner)[name]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer (seconds), calls per function, and the counters."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        target_of = {}
        for sid, target, start, end, parent, _ in self.spans:
            target_of[sid] = target
            if parent >= 0:
                children[parent].append((start, end))
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        for c in self._counts.values():
            for key, value in c.items():
                counts[key] += value
        for sid, target, start, end, parent, _ in self.spans:
            layer, name = self.targets[target]
            calls[name] += 1
            if name == "poly_gcd" and parent >= 0 and self.targets[target_of[parent]][1] == "scan_progressions":
                counts["verify.residues_tried"] += 1  # the residue-coprimality test of the scan's cell loop
            covered = 0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            self_ns[layer] += end - start - covered
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "calls": dict(calls),
            "spans": len(self.spans),
            "counts": dict(counts),
        }


def _counting_lookup(tracer: Tracer, fn):
    """A table-cache lookup is a hit when it returns tables without building any."""

    def lookup(*args, **kwargs):
        counts = tracer.counts()
        built = counts["tables.sieve_builds"]
        result = fn(*args, **kwargs)
        counts["tables.cache_calls"] += 1
        counts["tables.cache_hits"] += result is not None and counts["tables.sieve_builds"] == built
        return result

    lookup.__wrapped__ = fn
    return lookup


def _measuring_rss(tracer: Tracer, timed_init):
    """Peak-RSS growth across each table build (ru_maxrss, KiB on Linux) and the codes it covers."""

    def init(self, *args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timed_init(self, *args, **kwargs)
        counts = tracer.counts()
        counts["tables.sieve_rss_kib"] += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        counts["tables.sieve_builds"] += 1
        counts["tables.sieve_codes"] += sum(self.spec.q**d for d in range(1, self.kmax + 1))

    init.__wrapped__ = timed_init
    return init


def _add(name, value):
    def after(counts, args, result):
        counts[name] += value(args, result)

    return after


def _after_scan_progressions(counts, args, result):
    counts["verify.scan_cells"] += result.cells
    counts["verify.residues_kept"] += result.cells


# counters that need a call's arguments or result: (thread counters, args, result)
AFTER = {
    "progression_codes": _add("tables.progression_members", lambda a, r: len(r)),
    "specialization_counts": _add("statistics.census_members", lambda a, r: r.total),
    "progression_counts": _add("statistics.census_members", lambda a, r: r.total),
    "scan_intervals": _add("verify.scan_cells", lambda a, r: r.cells),
    "scan_progressions": _after_scan_progressions,
    "_write": _add("cli.output_bytes", lambda a, r: len(a[1].encode())),
}


def start() -> Tracer:
    """Import ffstat.cli as a timed span, then install the wrappers."""
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    import ffstat.cli  # noqa: F401

    tracer.record("cli.import_s", t0, time.perf_counter_ns())
    tracer.install()
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <ffstat arguments>")
    out_path, cli_args = argv[0], argv[2:]
    tracer = start()
    from ffstat import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    work_end = time.perf_counter_ns()
    tracer.uninstall()
    summary = tracer.summary()
    # the projection the program promises for this call, taken untraced after the work
    projected = None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        if cli.main(cli_args + ["--dry-run"]) == 0:
            projected = json.loads(buf.getvalue())["result"]["projected_enumeration"]
    summary.update(exit_code=code, projected_enumeration=projected)
    summary["bookkeeping_s"] = (time.perf_counter_ns() - work_end) / 1e9
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
