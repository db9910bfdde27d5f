"""The warm-session workload: one library process, set up once, queried repeatedly.

    PYTHONPATH=src python perfbench/session.py PARAMS.json PASSES OUT.json [--trace]

Set-up imports ffstat.cli, constructs the fields and builds their type
tables.  Each query pass then runs the same library calls on the warm
tables, PASSES times.
OUT.json receives the moment set-up ended (CLOCK_MONOTONIC, comparable
with the parent's clock), per-pass wall and CPU time, exceptions, the
first pass's results for the checks, and whether later passes returned
the same results.  With --trace the tracer is installed
before set-up and its summary is added.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def queries(params: dict, specs: dict):
    """The query pass as a list of (label, zero-argument call returning plain JSON data).

    Scans use the library's default ScanOptions (one worker); results are
    rendered the way a library user would keep them (`report_to_dict`,
    dense censuses, Fractions as text) inside the call, so nothing of the
    library runs outside the timed pass.
    """
    from ffstat import polyring as pr, statistics as st, verify
    from ffstat.combinatorics import Partition, partitions_of

    kmax = params["kmax"]
    census = lambda c: {"census": {str(lam): n for lam, n in c.dense()}, "total": c.total}
    ops = []
    for q, spec in specs.items():
        for k in range(2, kmax + 1):
            for m in range(1, k):
                for lam in partitions_of(k):
                    call = lambda s=spec, k=k, m=m, l=lam: verify.report_to_dict(verify.scan_intervals(s, k, m, l))
                    ops.append((["scan", q, k, m, list(lam.parts)], call))
    for q, spec in specs.items():
        for k in range(2, kmax + 1):
            for m in range(1, k):
                ops.append((["mean_variance", q, k, m], lambda s=spec, k=k, m=m: [str(x) for x in st.mean_variance_nu(s, k, m)]))
    for q, spec in specs.items():
        for m in range(1, kmax):
            for base in range(q ** (kmax - m - 1)):
                ops.append((["nu", q, m, base], lambda s=spec, m=m, c=base * q ** (m + 1): st.nu(pr.monic_from_code(s, kmax, c), m)))
    for iv in params["intervals"]:
        call = lambda s=specs[iv["q"]], iv=iv: census(st.interval_counts(st.IntervalSpec(pr.poly_from_indices(s, iv["f"]), iv["m"])))
        ops.append((["interval", iv["q"], iv["f"], iv["m"]], call))
    for pg in params["progressions"]:
        call = lambda s=specs[pg["q"]], pg=pg: census(st.progression_counts(st.ProgressionSpec(pr.poly_from_indices(s, pg["D"]), pr.poly_from_indices(s, pg["f"]), pg["k"])))
        ops.append((["progression", pg["q"], pg["D"], pg["f"], pg["k"]], call))
    for sp in params["scan_progressions"]:
        opts = verify.ScanOptions(per_cell=True, max_cells=sp["max_cells"])
        call = lambda s=specs[sp["q"]], sp=sp, l=Partition((sp["k"],)), o=opts: verify.report_to_dict(verify.scan_progressions(s, sp["k"], sp["m"], l, o))
        ops.append((["scan_progressions", sp["q"], sp["k"], sp["m"], sp["max_cells"]], call))
    return ops


def main(argv: list[str]) -> int:
    params_path, n_pass, out_path = argv[0], int(argv[1]), argv[2]
    tracer = None
    if "--trace" in argv:
        import tracer as tracing

        tracer = tracing.start()
    else:
        import ffstat.cli  # noqa: F401  (what a session imports before its first query)
    from ffstat import gf, tables

    with open(params_path, encoding="utf-8") as fh:
        params = json.load(fh)
    specs = {}
    for p, nu in params["fields"]:
        spec = gf.make_field(p, nu)
        tables.poly_tables(spec, params["kmax"])
        specs[spec.q] = spec
    ready = time.monotonic_ns()

    ops = queries(params, specs)
    passes, outs_per_pass = [], []
    for _ in range(n_pass):
        outs = []
        t0, c0 = time.perf_counter(), _cpu_s()
        for _, call in ops:
            try:
                outs.append(call())
            except Exception as exc:  # a failed query is counted, the pass goes on
                outs.append(exc)
        t1, c1 = time.perf_counter(), _cpu_s()
        passes.append({"wall_s": t1 - t0, "cpu_s": c1 - c0})
        outs_per_pass.append(outs)
    if tracer is not None:
        tracer.uninstall()
    failed, errors, digests = 0, [], set()
    for outs in outs_per_pass:
        for i, ((label, _), out) in enumerate(zip(ops, outs)):
            if isinstance(out, Exception):
                failed += 1
                errors.append(f"{label}: {type(out).__name__}: {out}")
                outs[i] = None
        digests.add(hashlib.sha256(json.dumps(outs).encode()).hexdigest())
    out = {
        "ready_ns": ready,
        "passes": passes,
        "ops_per_pass": len(ops),
        "failed": failed,
        "errors": errors[:20],
        "same_results": len(digests) == 1,
        "results": [[label, value] for (label, _), value in zip(ops, outs_per_pass[0])],
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    out["bookkeeping_s"] = time.perf_counter() - t1  # result digests and trace summary after the last pass
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
