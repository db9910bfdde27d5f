"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every workload's operations at toy sizes (the --quick inputs), requires
each real output to pass its check, then alters one count in each kind of
report and requires the matching check to fail.  A check that accepts an
altered report would be vacuous.  Exits 0 when every real output passes and
every altered one is caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bump_first_census(res):
    key = next(iter(res["census"]))
    res["census"][key] += 1


def _bump_frac(text: str) -> str:
    num, den = text.split("/")
    return f"{int(num) + 1}/{den}"


# command -> (what is altered, alteration of the parsed envelope's "result")
JSON_MUTATIONS = {
    "pi": [("prime count", lambda r: r + 1)],
    "pi-type": [("type count", lambda r: r + 1)],
    "partition-prob": [("probability", _bump_frac)],
    "totient": [("totient", lambda r: r + 1)],
    "interval": [("census count", _bump_first_census)],
    "progression": [("census count", _bump_first_census)],
    "nu": [("nu", lambda r: r.update(nu=r["nu"] + 1)), ("k_pi", lambda r: r["decomposition"].update(k_pi=r["decomposition"]["k_pi"] + 1))],
    "radical": [("size", lambda r: r.update(size=r["size"] + 1))],
    "mean-variance": [("mean", lambda r: r.update(mean=_bump_frac(r["mean"]))), ("variance", lambda r: r.update(variance=_bump_frac(r["variance"])))],
    "variance-trend": [("ratio", lambda r: r["per_q"][-1].update(ratio=_bump_frac(r["per_q"][-1]["ratio"])))],
    "scan-intervals": [("total_count", lambda r: r.update(total_count=r["total_count"] + 1)),
                       ("covered_cells", lambda r: r.update(covered_cells=r["covered_cells"] + 1))],
    "scan-progressions": [("cell count", lambda r: r["per_cell"][0].update(count=r["per_cell"][0]["count"] + 1)),
                          ("cells", lambda r: r.update(cells=r["cells"] + 1))],
    "hypotheses": [("status", lambda r: r.update(status="Covered" if r["status"] != "Covered" else "ExcludedSmallM"))],
    "counterexample m0": [("count", lambda r: r.update(actual=r["actual"] + 1))],
    "counterexample m1": [("count", lambda r: r.update(actual=r["actual"] + 1))],
}


def _mutate_json(text: str, mutate) -> str:
    env = json.loads(text)
    out = mutate(env["result"])
    if out is not None:
        env["result"] = out
    return json.dumps(env)


def _csv_row(text: str, column: int, change) -> str:
    lines = text.splitlines()
    cols = lines[1].split(",")
    cols[column] = change(cols[column])
    lines[1] = ",".join(cols)
    return "\n".join(lines) + "\n"


CSV_MUTATIONS = [
    ("row count", lambda t: _csv_row(t, 5, lambda c: str(int(c) + 1))),
    ("covered flag", lambda t: _csv_row(t, 9, lambda c: "0" if c == "1" else "1")),
    ("row dropped", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
]


def _session_mutations(results):
    """(what, index, altered value) for one result of each kind of library query."""
    out = []
    seen = set()
    for i, (label, value) in enumerate(results):
        kind = label[0]
        if kind in seen:
            continue
        seen.add(kind)
        v = copy.deepcopy(value)
        if kind == "scan":
            v["total_count"] += 1
        elif kind == "scan_progressions":
            v["per_cell"][0]["count"] += 1
        elif kind == "mean_variance":
            v[0] = str(checks.Fraction(v[0]) + 1)
        elif kind == "nu":
            v += 1
        else:
            _bump_first_census(v)
        out.append((kind, i, v))
    return out


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffstat", "cli.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_build", "perfbench", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    runner = run.Runner(root, out_dir)
    bad = 0

    def verdict(ok: bool, what: str) -> None:
        nonlocal bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    kinds_covered = set()
    for workload in ("sieve-scans", "cli-queries"):
        for i, op in enumerate(workloads.cli_ops(workload, seed=11, quick=True)):
            path = runner.path(f"{workload}-{i}.out")
            st = runner.spawn(["-m", "ffstat.cli"] + op["argv"], path)
            text = run._read(path)
            errs = checks.check_cli(op, text) if st["exit"] == 0 else [f"exit {st['exit']}"]
            label = " ".join(op["argv"])
            verdict(not errs, f"real output passes: {label} {errs[:2] if errs else ''}")
            if op.get("format") == "csv":
                mutations = CSV_MUTATIONS
                kind = "csv"
            else:
                mutations = [(w, lambda t, m=m: _mutate_json(t, m)) for w, m in JSON_MUTATIONS[op["cmd"]]]
                kind = op["cmd"]
            if kind in kinds_covered:
                continue
            kinds_covered.add(kind)
            for what, mutate in mutations:
                verdict(bool(checks.check_cli(op, mutate(text))), f"altered {what} is caught: {label}")

    params = workloads.warm_session(seed=11, quick=True)
    params_path = runner.path("session-params.json")
    with open(params_path, "w", encoding="utf-8") as fh:
        json.dump(params, fh)
    out_path = runner.path("session.json")
    st = runner.spawn([os.path.join(HERE, "session.py"), params_path, "1", out_path], runner.path("session.out"))
    results = json.loads(run._read(out_path))["results"] if st["exit"] == 0 else []
    failures = run.check_session(params, results)
    verdict(bool(results) and not failures, f"real warm-session results pass ({len(results)} queries) {list(failures.values())[:2]}")
    for kind, i, value in _session_mutations(results):
        altered = copy.deepcopy(results)
        altered[i][1] = value
        verdict(bool(run.check_session(params, altered)), f"altered {kind} result is caught")
    print(f"selftest: {'all checks pass real outputs and catch altered ones' if not bad else f'{bad} problem(s)'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
