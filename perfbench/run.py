"""ffstat benchmark: three workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source tree (the directory holding `src/ffstat`).
Workloads: sieve-scans, cli-queries (cold `python -m ffstat.cli`
processes, one at a time) and warm-session (one library process per
set-up).  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass.  Every run is appended to
.bench_build/perfbench/runs.jsonl with the machine, seed and commit.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402  (only its LAYERS table; the tracer runs in the children)
import workloads  # noqa: E402

SETUP_SAMPLES = 9  # one import sample spreads about +-12%; CLI setup_s is the median of at least nine
SETUP_PER_GAP = 2  # import samples before each CLI pass and after the last
TIME_METRICS_E2E = ("wall_s", "cpu_s", "setup_s")  # rescaled to the reference speed
SESSION_SETUPS = 3  # warm-session set-ups per run; setup_s is their median
SESSION_PROBES = 5  # speed probes before each warm-session child and after the last
IMPORT_PROBE = "import time, ffstat.cli; print(time.monotonic_ns())"
NO_TRACE = {"self_s": {}, "calls": {}, "counts": {}, "bookkeeping_s": 0.0, "projected_enumeration": None}  # a traced process that died


class Runner:
    """Spawns the program's processes from the source tree and measures each one."""

    def __init__(self, root: str, out_dir: str, probe: speed.Speed | None = None):
        self.root = root
        self.out_dir = out_dir
        env = dict(os.environ)
        env.pop("FFSTAT_THREADS", None)  # the CLI's default thread count stays in effect
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self.speed = probe  # the timed workloads sample the machine's speed between operations

    def spawn(self, argv: list[str], out_path: str) -> dict:
        """Run one process to completion; its own wall, CPU and peak RSS come from wait4."""
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, ru = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "start_ns": t0,
            "wall_s": (t1 - t0) / 1e9,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024,
            "exit": proc.returncode,
        }

    def import_sample(self) -> list[float]:
        """Interpreter start plus `import ffstat.cli`, until the first operation could start.

        Empty when the import fails; the operations then fail and are counted.
        """
        t0 = time.monotonic_ns()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=self.env, cwd=self.root)
        return [(int(out.stdout.strip()) - t0) / 1e9] if out.returncode == 0 else []

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

class CliPass:
    """One pass over a CLI workload's operations, each in a fresh process."""

    def __init__(self, runner: Runner, ops: list[dict], traced: bool, verdicts: dict):
        self.stats, self.traces, self.errors = [], [], []
        self.failed = self.wrong = 0
        for i, op in enumerate(ops):
            runner.speed.maybe_sample()
            out = runner.path(f"op{i}.out")
            if traced:
                trace_path = runner.path(f"op{i}.trace.json")
                if os.path.exists(trace_path):
                    os.remove(trace_path)
                st = runner.spawn([os.path.join(HERE, "tracer.py"), trace_path, "--"] + op["argv"], out)
            else:
                st = runner.spawn(["-m", "ffstat.cli"] + op["argv"], out)
            self.stats.append(st)
            if st["exit"] != 0:
                errs = [f"exit code {st['exit']}: {_read(out + '.err')[-400:]}"]
            else:
                text = _read(out)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest not in verdicts.setdefault(i, {}):  # identical output was checked already
                    verdicts[i][digest] = checks.check_cli(op, text)
                errs = verdicts[i][digest]
                self.wrong += bool(errs)
            if traced:
                self.traces.append(json.loads(_read(trace_path)) if os.path.exists(trace_path) else NO_TRACE)
            if errs:
                self.failed += 1
                self.errors.append(f"{' '.join(op['argv'])}: {'; '.join(map(str, errs[:3]))}")
        self.attempted = len(ops)
        self.wall_s = sum(s["wall_s"] for s in self.stats)
        self.cpu_s = sum(s["cpu_s"] for s in self.stats)
        self.rss_mb = max(s["rss_mb"] for s in self.stats)


def session_pass_count(seconds: float, quick: bool) -> int:
    """Whole warm-session query passes that fit in `seconds` beside its set-ups, at nominal times.

    The count depends only on the arguments, never on a timing taken during
    the run, so every run does the same work.
    """
    if quick:
        return 1
    seconds -= SESSION_SETUPS * workloads.NOMINAL_SESSION_SETUP_S
    return max(1, int(seconds / workloads.NOMINAL_SESSION_PASS_S + 0.5))


def rescaled(raw: dict, factor: float) -> dict:
    """End-to-end metrics with their times at the reference machine speed (see speed.py)."""
    return {name: value * factor if name in TIME_METRICS_E2E else value for name, value in raw.items()}


def run_cli(runner: Runner, workload: str, seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Whole passes over the workload's operations until the next one would end past `seconds`.

    Every pass is the same round of operations, so the share of failed
    operations does not depend on how many passes fit.  A traced or quick
    run makes one pass.
    """
    ops = workloads.cli_ops(workload, seed, quick)
    verdicts: dict = {}
    untraced, traced, setup = [], [], []

    def import_samples(n: int) -> None:
        # spread before, between and after the passes, so their median sees
        # the same machine conditions as the passes
        for _ in range(n):
            runner.speed.maybe_sample()
            setup.extend(runner.import_sample())

    deadline = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        if not trace:
            import_samples(SETUP_PER_GAP)
        untraced.append(CliPass(runner, ops, False, verdicts))
        if trace:
            traced.append(CliPass(runner, ops, True, verdicts))
        now = time.monotonic()
        if trace or quick or now + (now - t0) > deadline:
            break
    if not trace:
        import_samples(max(SETUP_PER_GAP, SETUP_SAMPLES - len(setup)))
    runner.speed.sample()
    passes = untraced + traced
    raw = {
        # a pass at each operation's median: one slow process does not move the figure
        "wall_s": sum(_median([p.stats[i]["wall_s"] for p in untraced]) for i in range(len(ops))),
        "cpu_s": sum(_median([p.stats[i]["cpu_s"] for p in untraced]) for i in range(len(ops))),
        "peak_rss_mb": _median([p.rss_mb for p in untraced]),
        "setup_s": _median(setup),
    }
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wrong": sum(p.wrong for p in passes),
        "errors": [e for p in passes for e in p.errors][:20],
        "passes": len(untraced),
        "metrics": rescaled(raw, runner.speed.factor()),
        "raw_metrics": raw,
        "speed_factor": runner.speed.factor(),
        "speed_samples_s": runner.speed.samples,
        "pass_walls_s": [p.wall_s for p in untraced],
        "setup_samples_s": setup,
        "op_walls_s": [[p.stats[i]["wall_s"] for p in untraced] for i in range(len(ops))],
    }
    if trace:
        result["trace_report"] = cli_trace_report(ops, untraced[0], traced[0])
    return result


def cli_trace_report(ops, untraced: CliPass, traced: CliPass) -> dict:
    """Per-layer metrics of the traced pass, with its overhead and unattributed remainder."""
    attributed = sum(sum(t["self_s"].values()) for t in traced.traces)
    bookkeeping = sum(t["bookkeeping_s"] for t in traced.traces)
    return {
        "metrics": layer_metrics(traced.traces),
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": untraced.wall_s,
        "overhead_s": traced.wall_s - untraced.wall_s,
        "layer_self_s": attributed,
        "bookkeeping_s": bookkeeping,
        "unattributed_s": traced.wall_s - attributed - bookkeeping,
        "per_operation": [
            {
                "argv": " ".join(op["argv"]),
                "wall_s": st["wall_s"],
                "projected_enumeration": t["projected_enumeration"],
                "counted_members": counted_members(t["counts"]),
                "self_s": t["self_s"],
            }
            for op, st, t in zip(ops, traced.stats, traced.traces)
        ],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from tracer summaries
# ---------------------------------------------------------------------------

TIME_METRICS = ["cli.import_s"] + list(tracer.LAYERS)
COUNT_METRICS = ["cli.output_bytes", "tables.sieve_codes", "tables.progression_members", "statistics.census_members", "verify.scan_cells"]
CALL_METRICS = {
    "polyring.factor_calls": ["factor"],
    "polyring.is_irreducible_calls": ["is_irreducible"],
    "polyring.gcd_calls": ["poly_gcd"],
    "polyring.poly_from_code_calls": ["monic_from_code"],
    "statistics.nu_calls": ["nu", "nu_decomposition"],
    "verify.hypothesis_cells": ["check_hypotheses_interval", "check_hypotheses_progression"],
}


def counted_members(counts: dict) -> int:
    """Members the layers enumerated: sieve codes, census members and residue-class codes."""
    return int(sum(counts.get(k, 0) for k in ("tables.sieve_codes", "statistics.census_members", "tables.progression_members")))


def layer_metrics(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of one pass (one per process) into the per-layer metrics."""
    total = lambda part, key: sum(s[part].get(key, 0) for s in summaries)
    ratio = lambda num, den: total("counts", num) / total("counts", den) if total("counts", den) else 0.0
    m = {name: total("self_s", name) for name in TIME_METRICS}
    m.update({name: int(total("counts", name)) for name in COUNT_METRICS})
    m.update({name: sum(total("calls", f) for f in funcs) for name, funcs in CALL_METRICS.items()})
    m["tables.sieve_bytes_per_code"] = 1024 * ratio("tables.sieve_rss_kib", "tables.sieve_codes")
    m["tables.cache_hit_ratio"] = ratio("tables.cache_hits", "tables.cache_calls")
    m["verify.coprime_yield"] = ratio("verify.residues_kept", "verify.residues_tried")
    m["cli.counted_members"] = sum(counted_members(s["counts"]) for s in summaries)
    m["cli.projected_enumeration"] = sum(s.get("projected_enumeration") or 0 for s in summaries)
    return m


# ---------------------------------------------------------------------------
# warm-session
# ---------------------------------------------------------------------------

def check_session(params: dict, results: list) -> dict[int, list[str]]:
    """Check a session's first-pass results; returns failure messages by operation index."""
    failures: dict[int, list[str]] = {}
    kmax = params["kmax"]
    fields = {checks.field(p, nu).q: checks.field(p, nu) for p, nu in params["fields"]}
    nus: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (q, m) -> (operation index, nu) at k = kmax
    mv: dict[tuple[int, int, int], tuple[int, list]] = {}
    for i, (label, value) in enumerate(results):
        if value is None:
            continue  # raised; already counted as failed
        kind, q = label[0], label[1]
        F = fields[q]
        errs: list[str] = []
        if kind == "scan":
            _, _, k, m, lam = label
            errs = checks.check_interval_scan(F, k, m, tuple(lam), value)
        elif kind == "mean_variance":
            _, _, k, m = label
            mean, var = (Fraction(x) for x in value)
            if mean != checks.nu_mean(q, k, m):
                errs.append(f"mean {mean}, expected {checks.nu_mean(q, k, m)}")
            if q**k <= checks.RECOMPUTE_LIMIT and var != checks.mean_variance(F, k, m)[1]:
                errs.append(f"variance {var}, expected {checks.mean_variance(F, k, m)[1]}")
            mv[(q, k, m)] = (i, var)
        elif kind == "nu":
            _, _, m, base = label
            nus.setdefault((q, m), []).append((i, value))
            if q**kmax <= checks.RECOMPUTE_LIMIT:
                want = checks.nu_value(F, F.monic(kmax, base * q ** (m + 1)), m)
                if value != want:
                    errs.append(f"nu {value}, expected {want}")
        elif kind == "interval":
            _, _, f, m = label
            f = tuple(f)
            errs = checks.check_census(F, kmax, lambda: checks.interval_members(F, f, m), q ** (m + 1), None, value)
        elif kind == "progression":
            _, _, d, f, k = label
            d, f, r = tuple(d), tuple(f), k - (len(d) - 1)
            members = lambda: (F.padd(f, F.pmul(d, F.monic(r, c))) for c in range(q**r))
            errs = checks.check_census(F, k, members, q**r, None, value)
        elif kind == "scan_progressions":
            _, _, k, m, max_cells = label
            errs = checks.check_progression_scan(F, k, m, (k,), max_cells, value)
        if errs:
            failures[i] = errs
    for (q, m), pairs in nus.items():
        # every interval at k = kmax: the sum of nu is q^k - 1, and its spread is mean_variance_nu's variance
        values = [v for _, v in pairs]
        problems = []
        if sum(values) != q**kmax - 1:
            problems.append(f"sum of nu over all intervals at q={q}, m={m}: {sum(values)}, expected {q**kmax - 1}")
        mean = Fraction(sum(values), len(values))
        var = sum((v - mean) ** 2 for v in values) / len(values)
        if (q, kmax, m) in mv and mv[(q, kmax, m)][1] != var:
            problems.append(f"variance at q={q}, m={m} disagrees with the nu values ({var})")
            failures.setdefault(mv[(q, kmax, m)][0], []).extend(problems[-1:])
        if problems:
            for i, _ in pairs:
                failures.setdefault(i, []).extend(problems)
    return failures


def run_session(runner: Runner, seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    params = workloads.warm_session(seed, quick)
    params_path = runner.path("session-params.json")
    with open(params_path, "w", encoding="utf-8") as fh:
        json.dump(params, fh)
    script = os.path.join(HERE, "session.py")
    children = []  # (stats, output, traced)
    if trace:
        plan = [False, True]
    else:
        plan = [False] * (1 if quick else SESSION_SETUPS)
    # a traced run compares one untraced and one traced set-up, one query pass each
    n_pass = 1 if trace else max(1, int(session_pass_count(seconds, quick) / len(plan) + 0.5))
    for j, traced in enumerate(plan):
        runner.speed.sample(SESSION_PROBES)
        out_path = runner.path(f"session{j}.json")
        argv = [script, params_path, str(n_pass), out_path] + (["--trace"] if traced else [])
        st = runner.spawn(argv, runner.path(f"session{j}.out"))
        out = json.loads(_read(out_path)) if st["exit"] == 0 else None
        children.append((st, out, traced))
    runner.speed.sample(SESSION_PROBES)
    attempted = failed = wrong = 0
    errors: list[str] = []
    verdict = first = None
    for j, (st, out, _) in enumerate(children):
        if out is None:
            failed += 1
            attempted += 1
            errors.append(f"session exited with {st['exit']}: {_read(runner.path(f'session{j}.out.err'))[-400:]}")
            continue
        done = len(out["passes"])
        attempted += out["ops_per_pass"] * done
        failed += out["failed"]
        errors += out["errors"]
        if verdict is None:
            verdict = check_session(params, out["results"])
            first = out["results"]
        if out["results"] != first:
            errors.append("a set-up returned different results from the first")
            bad = out["ops_per_pass"] * done - out["failed"]
        elif not out["same_results"]:
            errors.append("query passes of one set-up returned different results")
            bad = out["ops_per_pass"] * (done - 1)
        else:
            bad = len(verdict) * done
        failed += bad
        wrong += bad
    if verdict:
        errors += [f"{first[i][0]}: {'; '.join(e[:3])}" for i, e in list(verdict.items())[:10]]
    timed = [(st, out) for st, out, traced in children if out is not None and not traced]
    passes = [p for _, out in timed for p in out["passes"]]
    raw = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": _median([st["rss_mb"] for st, _ in timed]),
        "setup_s": _median([(out["ready_ns"] - st["start_ns"]) / 1e9 for st, out in timed]),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:20],
        "passes": len(passes),
        "metrics": rescaled(raw, runner.speed.factor()),
        "raw_metrics": raw,
        "speed_factor": runner.speed.factor(),
        "speed_samples_s": runner.speed.samples,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "setup_samples_s": [(out["ready_ns"] - st["start_ns"]) / 1e9 for st, out in timed],
    }
    if trace:
        result["trace_report"] = session_trace_report(children)
    return result


def session_trace_report(children) -> dict:
    """Per-layer metrics of the traced set-up and query pass, against the untraced child."""
    (ust, uout, _), (tst, tout, _) = children
    summary = tout["trace"] if tout else NO_TRACE
    attributed = sum(summary["self_s"].values())
    bookkeeping = tout["bookkeeping_s"] if tout else 0.0
    report = {
        "metrics": layer_metrics([summary]),
        "traced_wall_s": tst["wall_s"],
        "untraced_wall_s": ust["wall_s"],
        "overhead_s": tst["wall_s"] - ust["wall_s"],
        "layer_self_s": attributed,
        "bookkeeping_s": bookkeeping,
        "unattributed_s": tst["wall_s"] - attributed - bookkeeping,
    }
    if tout and uout:
        report["query_overhead_s"] = tout["passes"][0]["wall_s"] - uout["passes"][0]["wall_s"]
        report["setup_overhead_s"] = (tout["ready_ns"] - tst["start_ns"] - uout["ready_ns"] + ust["start_ns"]) / 1e9
    return report


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))  # never a repository above the tree
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="toy sizes, to try the harness and its checks")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffstat", "cli.py")):
        print(f"perfbench: no ffstat source tree at {root}/src/ffstat; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with speed.Speed() as probe:
        runner = Runner(root, out_dir, probe)
        runner.import_sample()  # compiles the byte code once, so no run times the compilation
        t0 = time.monotonic()
        if args.workload == "warm-session":
            res = run_session(runner, args.seed, args.seconds, args.quick, bool(args.trace))
        else:
            res = run_cli(runner, args.workload, args.seed, args.seconds, args.quick, bool(args.trace))
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = res["trace_report"]["metrics"] if args.trace else res["metrics"]
    correct = res["wrong"] == 0  # operations that ran to the end gave checked-correct output
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "machine": machine(),
        "commit": git_commit(root),
        "thread_default": os.cpu_count(),
        "run_s": time.monotonic() - t0,
        # a child's peak RSS from wait4 is at least the harness's (it was forked from it)
        "harness_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **res,
    }
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} quick={args.quick}: {res['passes']} pass(es), "
          f"{res['attempted']} operations attempted, {res['failed']} failed, {record['run_s']:.1f} s")
    print(f"machine {record['machine']}, commit {record['commit']}, thread default {record['thread_default']}")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    print(f"  speed factor {res['speed_factor']:.4f} (reference probe {speed.REFERENCE_S} s / run median "
          f"{probe.median_s():.6f} s over {len(probe.samples)} probes); raw figures in brackets")
    for name, value in res["metrics"].items():
        if not (args.trace and name == "setup_s"):  # traced runs take no set-up samples
            print(f"  {name:34s} {value:14.6f} {units[name]}  ({res['raw_metrics'][name]:.6f})")
    if args.trace:
        tr = res["trace_report"]
        for key in ("traced_wall_s", "untraced_wall_s", "overhead_s", "layer_self_s", "bookkeeping_s", "unattributed_s"):
            print(f"  trace {key:28s} {tr[key]:14.6f} s")
        for name in sorted(tr["metrics"]):
            print(f"  {name:34s} {tr['metrics'][name]:14.6f} {units.get(name, 's')}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
