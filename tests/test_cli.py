import json
from fractions import Fraction

import pytest

from ffstat import cli, gf, statistics as st, tables, verify
from ffstat.cli import CSV_HEADER, main, parse_partition, parse_poly
from ffstat.combinatorics import Partition, cycle_type_probability, exact_prime_count, frac_str, partitions_of
from ffstat.gf import DEFAULT_BUDGET, BudgetError


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# Grammars
# ---------------------------------------------------------------------------

def test_parse_poly_prime_shorthand(F2):
    f = parse_poly("1,0,1", F2)
    assert f.ci == (1, 0, 1)


def test_parse_poly_extension(F4):
    f = parse_poly("[1],[0,1],[1]", F4)
    assert f.ci == (1, 2, 1)


def test_parse_poly_errors(F2, F4):
    with pytest.raises(ValueError):
        parse_poly("1,3", F2)  # digit >= p
    with pytest.raises(ValueError):
        parse_poly("1,x", F2)
    with pytest.raises(ValueError):
        parse_poly("[1,0,0],[1]", F4)  # wrong component count
    with pytest.raises(ValueError):
        parse_poly("2,[1", F4)
    with pytest.raises(ValueError):
        parse_poly("1,0", F4)  # bare integers need a prime field


def test_parse_partition():
    assert parse_partition("4+1+1").parts == (4, 1, 1)
    assert parse_partition("4 + 1 + 1").parts == (4, 1, 1)
    assert parse_partition("1+4+1").parts == (4, 1, 1)
    with pytest.raises(ValueError):
        parse_partition("4+0")
    with pytest.raises(ValueError):
        parse_partition("4+-1")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def test_pi_command(capsys):
    env = run_json(capsys, ["pi", "--p", "2", "--nu", "1", "--k", "3"])
    assert env["result"] == 2
    assert env["command"] == "pi"
    assert env["field"] == {"p": 2, "nu": 1, "modulus": [0, 1]}
    assert set(env) == {"tool_version", "field", "command", "params", "result", "excluded", "timing_ms"}


def test_interval_command_example(capsys):
    env = run_json(
        capsys,
        ["interval", "--p", "2", "--nu", "1", "--k", "2", "--m", "1", "--f", "0,0,1", "--lambda", "2"],
    )
    assert env["result"]["count"] == 1
    assert env["result"]["total"] == 4
    assert env["result"]["census"] == {"2": 1, "1+1": 3}


def test_counterexample_m0_command(capsys):
    env = run_json(capsys, ["counterexample", "m0", "--p", "5", "--nu", "1", "--k", "3"])
    assert env["result"]["expected"] == 0 and env["result"]["actual"] == 0
    assert env["command"] == "counterexample m0"


def test_counterexample_result_keys(capsys):
    m0 = run_json(capsys, ["counterexample", "m0", "--p", "7", "--k", "3"])["result"]
    assert m0 == {"kind": "m0", "q": 7, "k": 3, "expected": 4, "actual": 4, "agrees": True}
    m1 = run_json(capsys, ["counterexample", "m1", "--p", "2", "--n", "1", "--variant", "p2+1"])["result"]
    assert m1 == {"kind": "m1", "q": 4, "k": 5, "expected": None, "actual": 6, "agrees": None}


def test_partition_prob_no_field(capsys):
    env = run_json(capsys, ["partition-prob", "--lambda", "2+2"])
    assert env["result"] == "1/8"
    assert env["field"] is None


def test_exact_integers_of_any_length(capsys):
    # each result runs past the interpreter's default limit of 4,300 digits for int <-> str
    assert run_json(capsys, ["pi", "--p", "2", "--k", "20000"])["result"] == exact_prime_count(2, 20000)
    env = run_json(capsys, ["pi-type", "--p", "2", "--k", "20000", "--lambda", "20000"])
    assert env["result"] == exact_prime_count(2, 20000)
    env = run_json(capsys, ["partition-prob", "--lambda", "+".join(["1"] * 2000)])
    assert env["result"] == frac_str(cycle_type_probability(Partition((1,) * 2000)))


def test_rendering_error_is_one_line(capsys, monkeypatch):
    def fail(obj):
        raise ValueError("cannot render")

    monkeypatch.setattr(cli, "canonical_json", fail)
    assert run(capsys, ["pi", "--p", "2", "--k", "3"]) == (2, "", "ffstat: cannot render\n")


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["interval", "--p", "2", "--m", "1", "--f", "1,3"])
    assert code == 2 and "digit" in err
    code, _, err = run(capsys, ["pi", "--k", "3"])
    assert code == 2 and "--p is required" in err
    code, _, err = run(capsys, ["pi", "--p", "2", "--k", "3", "--format", "csv"])
    assert code == 2 and "csv" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_disagreement_exit_code(capsys, monkeypatch):
    from ffstat import verify

    def fake(spec, k):
        return verify.CounterexampleReport("m0", spec.q, k, 1, 0, False)

    monkeypatch.setattr(verify, "counterexample_m0", fake)
    code, out, _ = run(capsys, ["counterexample", "m0", "--p", "2", "--k", "2"])
    assert code == 1
    assert json.loads(out)["result"]["agrees"] is False


def test_budget_error_exit(capsys):
    code, _, err = run(
        capsys,
        ["scan-intervals", "--p", "3", "--nu", "1", "--k", "6", "--m", "1", "--lambda", "6", "--budget", "100"],
    )
    assert code == 2 and "budget" in err


def test_progression_budget_prices_the_ring(capsys):
    # degree 20 mod t^2 + 1 over F_3: 3^18 members, far over the default budget, but the ring's work is not
    argv = ["progression", "--p", "3", "--k", "20", "--D", "1,0,1", "--f", "1"]
    products = st.ring_products(3, 2, partitions_of(20))
    assert products < DEFAULT_BUDGET < 3**18
    env = run_json(capsys, argv + ["--dry-run"])
    assert env["result"] == {"projected_cells": 1, "projected_enumeration": products}
    env = run_json(capsys, argv + ["--budget", str(products)])
    assert env["result"]["total"] == 3**18 and sum(env["result"]["census"].values()) == 3**18
    code, out, err = run(capsys, argv + ["--budget", str(products - 1)])
    assert code == 2 and out == "" and err.count("\n") == 1 and f"exceeds the budget {products - 1}" in err
    # the 8 classes prime to t^2 + 1 share every prime of degree 20
    primes = 0
    for f in ("1", "2", "0,1", "1,1", "2,1", "0,2", "1,2", "2,2"):
        argv = ["progression", "--p", "3", "--k", "20", "--D", "1,0,1", "--f", f, "--lambda", "20"]
        primes += run_json(capsys, argv)["result"]["count"]
    assert primes == exact_prime_count(3, 20)
    # the count the table route gave at degree 14
    argv = ["progression", "--p", "3", "--k", "14", "--D", "1,0,1", "--f", "1", "--lambda", "14"]
    assert run_json(capsys, argv)["result"]["count"] == 42_720


def test_mean_variance_budget_prices_the_ring(capsys):
    # degree 20 at m = 16 over F_3: 3^20 members, far over the default budget, but every interval is read from one
    # ring of the 27 principal units mod t^4, whose psi_20 costs 51,759 pair products
    argv = ["mean-variance", "--p", "3", "--k", "20", "--m", "16"]
    route, products = st.interval_route(gf.make_field(3, 1), 20, 16, [Partition((20,))], 3**20)
    assert route == "ring" and products == 51_759 < DEFAULT_BUDGET < 3**20
    env = run_json(capsys, argv + ["--dry-run"])
    assert env["result"] == {"projected_cells": 27, "projected_enumeration": products}
    env = run_json(capsys, argv)
    assert Fraction(env["result"]["mean"]) == Fraction(3**17 * (3**20 - 1), 3**20)
    assert run_json(capsys, argv + ["--budget", str(products)])["result"] == env["result"]
    # one product fewer and the ring is not offered: the other routes enumerate all 3^20 members, over the budget
    assert st.interval_route(gf.make_field(3, 1), 20, 16, [Partition((20,))], 3**20, products - 1) == ("factor", 3**20)
    code, out, err = run(capsys, argv + ["--budget", str(products - 1)])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert f"projected enumeration {3**20} over 27 cells exceeds the budget {products - 1}" in err
    # the library bounds the same work, for the nu sums and for a scan
    with pytest.raises(BudgetError, match=f"3486784401 exceeds the enumeration budget {products - 1}"):
        st.mean_variance_nu(gf.make_field(3, 1), 20, 16, budget=products - 1)
    with pytest.raises(BudgetError, match=f"3486784401 polynomials .* exceeds the budget {products - 1}"):
        verify.scan_intervals(gf.make_field(3, 1), 20, 16, Partition((20,)), verify.ScanOptions(budget=products - 1))


@pytest.mark.parametrize("argv,budget", [
    (["mean-variance", "--p", "3", "--k", "4", "--m", "1"], 100),  # 81 members against 567 ring pair products
    (["variance-trend", "--k", "5", "--m", "1", "--q-list", "5"], 100_000),  # 3,125 members against 171,875
    (["interval", "--p", "3", "--k", "5", "--m", "2", "--f", "1,2,0,1,2,1"], 100),  # 27 members
    (["nu", "--p", "3", "--f", "1,2,0,1,2,1", "--m", "2"], 100),  # 27 members
    (["progression", "--p", "3", "--k", "9", "--D", "2,0,1", "--f", "1"], 3000),  # 2,187 members
])
def test_interval_budget_below_the_ring_takes_another_route(capsys, monkeypatch, argv, budget):
    # a budget that the ring's pair products exceed, but the members fit, is answered on another route
    monkeypatch.setattr(tables, "_PT_CACHE", {})
    env = run_json(capsys, argv + ["--budget", str(budget)])
    tables._PT_CACHE.clear()
    assert env["result"] == run_json(capsys, argv)["result"]


F17 = "1,0,1,1,0,0,1,0,1,1,1,0,0,1,0,1,1,1"  # a monic of degree 17 over F_2


PROJECTIONS = [
    # the ring at a budget equal to its pair products, and one below them the next route, on the members
    (["interval", "--p", "3", "--k", "5", "--m", "2", "--f", "1,2,0,1,2,1", "--budget", "2349"], "ring", 2_349),
    (["interval", "--p", "3", "--k", "5", "--m", "2", "--f", "1,2,0,1,2,1", "--budget", "2348"], "factor", 27),
    (["interval", "--p", "2", "--k", "17", "--m", "9", "--f", F17], "tables", 1_024),
    (["nu", "--p", "3", "--f", "1,2,0,1,2,1", "--m", "2", "--budget", "810"], "ring", 810),
    (["nu", "--p", "3", "--f", "1,2,0,1,2,1", "--m", "2", "--budget", "809"], "factor", 27),
    (["nu", "--p", "2", "--f", F17, "--m", "9"], "tables", 1_024),
    (["progression", "--p", "3", "--k", "5", "--D", "1,0,1", "--f", "0,1", "--budget", "1944"], "ring", 1_944),
    (["progression", "--p", "3", "--k", "5", "--D", "1,0,1", "--f", "0,1", "--budget", "1943"], "factor", 27),
    (["progression", "--p", "2", "--k", "17", "--D", "1,1,0,0,0,0,0,1", "--f", "1"], "tables", 1_024),
    (["mean-variance", "--p", "3", "--k", "4", "--m", "1", "--budget", "567"], "ring", 567),
    (["mean-variance", "--p", "3", "--k", "4", "--m", "1", "--budget", "566"], "factor", 81),
    (["mean-variance", "--p", "2", "--k", "10", "--m", "1"], "tables", 1_024),
    # a scan of one type is also offered the strike route (codes struck, products made and cells: 108 + 18 + 9 and
    # 1,920 + 99 + 256) and the table route up to the type's largest part (131,070 + 8,160 + 256)
    (["scan-intervals", "--p", "3", "--k", "4", "--m", "1", "--lambda", "4", "--budget", "567"], "ring", 567),
    (["scan-intervals", "--p", "3", "--k", "4", "--m", "1", "--lambda", "4", "--budget", "566"], "strike", 135),
    (["scan-intervals", "--p", "3", "--k", "4", "--m", "1", "--lambda", "4", "--budget", "134"], "factor", 81),
    (["scan-intervals", "--p", "2", "--k", "10", "--m", "1", "--lambda", "10"], "strike", 2_275),
    (["scan-intervals", "--p", "2", "--k", "10", "--m", "1", "--lambda", "10", "--budget", "2274"], "factor", 1_024),
    (["scan-intervals", "--p", "2", "--k", "18", "--m", "9", "--lambda", "16+2"], "tables", 139_486),
]
PROJECTED = {tuple(argv) for argv, _, _ in PROJECTIONS}


def _at_budget(argv, budget):
    """argv with --budget set to budget."""
    if "--budget" in argv:
        argv = argv[: argv.index("--budget")]
    return argv + ["--budget", str(budget)]


def _projection_ids():
    """`command-route`, with -2, -3, ... on a later row of the same command and route."""
    ids, seen = [], {}
    for argv, route, _ in PROJECTIONS:
        name = f"{argv[0]}-{route}"
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("argv,route,work", PROJECTIONS, ids=_projection_ids())
def test_dry_run_projects_the_route_taken(capsys, monkeypatch, argv, route, work):
    # --dry-run projects the work of the route the run then takes: the ring's pair products, for a scan of one type
    # the typed routes' work with its cells, else the members.  A wrapper around census_route records each route it
    # picks, with the ring's price or the typed routes' work where it asked for them.
    monkeypatch.setattr(tables, "_PT_CACHE", {})  # as in a fresh process
    taken = []
    rule = st.census_route

    def recording(spec, k, members=None, products=None, budget=DEFAULT_BUDGET, typed=None):
        priced, works = [], []
        price = None if products is None else lambda: priced.append(products()) or priced[0]
        typed_work = None if typed is None else lambda: works.append(typed()) or works[0]
        chosen = rule(spec, k, members, price, budget, typed_work)
        if chosen == "ring":
            taken.append((chosen, priced[0]))
        elif works and chosen != "factor":
            struck, sieved, cells = works[0]
            taken.append((chosen, (struck if chosen == "strike" else sieved) + cells))
        else:
            taken.append((chosen, members))
        return chosen

    monkeypatch.setattr(st, "census_route", recording)
    assert run_json(capsys, argv + ["--dry-run"])["result"]["projected_enumeration"] == work
    del taken[:]
    run_json(capsys, argv)
    assert len(taken) == 2 and set(taken) == {(route, work)}  # the projection's and the run's
    below = _at_budget(argv, work - 1)
    if tuple(below) not in PROJECTED:  # else that row pins the route taken one below the work
        # one below the work, every route is over the budget and the command exits 2 naming the members; below a
        # scan's typed table route, those are the q^k members that factoring would take
        if argv[0] == "scan-intervals" and route == "tables":
            work = int(argv[argv.index("--p") + 1]) ** int(argv[argv.index("--k") + 1])
        code, out, err = run(capsys, below)
        assert code == 2 and out == "" and err.count("\n") == 1 and f"projected enumeration {work} " in err


def test_dry_run(capsys, monkeypatch):
    monkeypatch.setattr(tables, "_PT_CACHE", {})  # as in a fresh process: built tables would be read instead
    env = run_json(
        capsys,
        ["scan-intervals", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--lambda", "4", "--dry-run"],
    )
    # on the ring route the projection is the ring's pair products: the 3 principal units mod t^2, 3^2 * (1 + 5)
    assert env["result"] == {"projected_cells": 3, "projected_enumeration": 54}
    # on the strike route it is the codes struck and the products made, 8,256 + 335, and the 1,024 cells
    env = run_json(capsys, ["scan-intervals", "--p", "2", "--k", "12", "--m", "1", "--lambda", "12", "--dry-run"])
    assert env["result"] == {"projected_cells": 1024, "projected_enumeration": 9_615}
    # on the table route without built tables, the codes sieved and the products made, 131,070 + 4,080, and the cells
    env = run_json(capsys, ["scan-intervals", "--p", "2", "--k", "16", "--m", "1", "--lambda", "16", "--dry-run"])
    assert env["result"] == {"projected_cells": 16_384, "projected_enumeration": 151_534}
    env = run_json(capsys, ["pi", "--p", "2", "--k", "3", "--dry-run"])
    assert "projected_cells" in env["result"]
    env = run_json(
        capsys,
        ["counterexample", "m1", "--p", "2", "--n", "1", "--dry-run"],
    )
    assert env["result"]["projected_enumeration"] == 16


def test_every_subcommand_has_dry_run(capsys):
    cases = [
        ["pi", "--p", "2", "--k", "3"],
        ["pi-type", "--p", "2", "--k", "3", "--lambda", "2+1"],
        ["partition-prob", "--lambda", "3"],
        ["totient", "--p", "3", "--D", "0,1"],
        ["interval", "--p", "2", "--m", "1", "--f", "0,0,1"],
        ["progression", "--p", "3", "--k", "3", "--D", "0,1", "--f", "1"],
        ["nu", "--p", "2", "--f", "0,0,1", "--m", "1"],
        ["radical", "--p", "2", "--f", "0,0,0,0,1", "--m", "1", "--d", "2"],
        ["mean-variance", "--p", "2", "--k", "3", "--m", "1"],
        ["variance-trend", "--k", "5", "--m", "1", "--q-list", "3"],
        ["scan-intervals", "--p", "2", "--k", "3", "--m", "1", "--lambda", "3"],
        ["scan-progressions", "--p", "2", "--k", "4", "--m", "2", "--lambda", "4"],
        ["hypotheses", "--p", "2", "--k", "3", "--m", "1", "--f", "0,0,0,1"],
        ["counterexample", "m0", "--p", "2", "--k", "2"],
        ["counterexample", "m1", "--p", "2", "--n", "1"],
    ]
    for argv in cases:
        env = run_json(capsys, argv + ["--dry-run"])
        assert "projected_cells" in env["result"], argv


def test_json_stability(capsys):
    argv = ["scan-intervals", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--lambda", "4"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")
    parsed = json.loads(out1)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out1  # keys sorted
    assert parsed["timing_ms"] == 0


def test_timing_flag(capsys):
    env = run_json(capsys, ["pi", "--p", "2", "--k", "3", "--timing"])
    assert isinstance(env["timing_ms"], int) and env["timing_ms"] >= 0


def test_csv_scan(capsys):
    argv = ["scan-intervals", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--lambda", "4", "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # 3 cells
    assert lines[1] == "3,4,2,4,0,6,27,4,3/4,1"
    code2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_csv_scan_progressions(capsys):
    argv = [
        "scan-progressions", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--lambda", "4", "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_threads_env_override(capsys, monkeypatch):
    argv = ["scan-intervals", "--p", "3", "--nu", "1", "--k", "5", "--m", "2", "--lambda", "5"]
    _, base, _ = run(capsys, argv)
    monkeypatch.setenv("FFSTAT_THREADS", "3")
    _, with_env, _ = run(capsys, argv + ["--threads", "1"])
    assert base == with_env


def test_threads_env_ignored(capsys, monkeypatch):
    # FFSTAT_THREADS is not read: a malformed value changes neither the report nor the exit code
    argv = ["scan-intervals", "--p", "3", "--nu", "1", "--k", "5", "--m", "2", "--lambda", "5"]
    base = run(capsys, argv)
    monkeypatch.setenv("FFSTAT_THREADS", "abc")
    assert run(capsys, argv) == base
    assert base[0] == 0


def _assert_usage_error(result):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("ffstat: ") and err.count("\n") == 1, err


def test_contract_holes_exit_2(capsys):
    cases = [
        ["scan-progressions", "--p", "3", "--k", "4", "--m", "1", "--lambda", "4", "--max-cells", "-1"],
        ["scan-progressions", "--p", "3", "--k", "4", "--m", "1", "--lambda", "4", "--max-cells", "-1", "--dry-run"],
        ["pi", "--p", "2", "--k", "3", "--budget", "-1"],
        ["radical", "--p", "2", "--f", "0,0,0,0,1", "--m", "1", "--d", "-1", "--dry-run"],
        ["radical", "--p", "2", "--f", "0,0,0,0,1", "--m", "1", "--d", "1", "--dry-run"],
        ["radical", "--p", "2", "--f", "0,0,0,0,1", "--m", "1", "--d", "3", "--dry-run"],
    ]
    for q_list in ("", ",,"):
        argv = ["variance-trend", "--k", "5", "--m", "1", "--q-list", q_list]
        cases += [argv, argv + ["--dry-run"]]
    # a dry run rejects what the run would reject, and never projects a fraction
    dry_runs = [
        "scan-intervals --p 3 --k 3 --m 1 --lambda 2",
        "scan-intervals --p 3 --k 2 --m 5 --lambda 2",
        "scan-progressions --p 3 --k 4 --m 1 --lambda 3",
        "scan-progressions --p 3 --k 4 --m 3 --lambda 4",
        "scan-progressions --p 3 --k 4 --m -1 --lambda 4",
        "variance-trend --k 5 --m 2 --q-list 2,3",
        "variance-trend --k 6 --m 1 --q-list 2,6",
        "mean-variance --p 2 --k 4 --m 4",
        "mean-variance --p 2 --k -3 --m -5",
        "pi --p 2 --k 0",
        "pi-type --p 3 --k 4 --lambda 3",
        "interval --p 2 --k 2 --m 1 --f 0,0,1 --lambda 3",
        "progression --p 3 --k 3 --D 0,1 --f 2 --lambda 4",
        "totient --p 3 --D 0",
        "nu --p 2 --f 0,0,1 --m 5",
        "nu --p 3 --f 0,0,2 --m 1 --decompose",
        "hypotheses --p 5 --k 5 --m 1 --f 0,0,1",
        "hypotheses --p 5 --k 5 --m 1 --f 0,0,0,0,0,1 --D 0,0,1",
        "counterexample m0 --p 7 --k 1",
    ]
    for line in dry_runs:
        cases += [line.split(), line.split() + ["--dry-run"]]
    for argv in cases:
        _assert_usage_error(run(capsys, argv))
    # a bad --k is named before the range of m that it bounds
    for line in ("mean-variance --p 2 --k -3 --m -5", "mean-variance --p 2 --k 0 --m 1",
                 "scan-intervals --p 2 --k -3 --m -5 --lambda 1", "scan-intervals --p 3 --k 0 --m 1 --lambda 1",
                 "variance-trend --k -3 --m -5 --q-list 2,3", "variance-trend --k 4 --m 1 --q-list 2,3"):
        argv = line.split()
        for case in (argv, argv + ["--dry-run"]):
            result = run(capsys, case)
            _assert_usage_error(result)
            assert result[2].startswith(f"ffstat: --k {argv[argv.index('--k') + 1]} must be >= "), result[2]
    # a center of degree 1 is named before the empty range of m that it gives
    for line in ("nu --p 2 --f 1,1 --m 1", "nu --p 2 --f 1,1 --m 1 --decompose", "nu --p 3 --f 2,1 --m 2"):
        argv = line.split()
        for case in (argv, argv + ["--dry-run"]):
            result = run(capsys, case)
            _assert_usage_error(result)
            assert result[2].startswith(f"ffstat: --f {argv[argv.index('--f') + 1]} has degree 1"), result[2]
            assert "must be >= 2" in result[2], result[2]
    # --n is named before the field F_{p^{2n}} is built
    for n in ("0", "-1"):
        argv = ["counterexample", "m1", "--p", "2", "--n", n]
        for case in (argv, argv + ["--dry-run"]):
            result = run(capsys, case)
            _assert_usage_error(result)
            assert f"--n = {n}" in result[2], result[2]
    # a center that is not monic of degree >= 1 is named before the m range or --k is checked
    for center in ("0", "1"):
        nu = ["nu", "--p", "2", "--f", center, "--m", "1"]
        interval = ["interval", "--p", "2", "--k", "2", "--m", "1", "--f", center, "--lambda", "2"]
        for argv in (nu, interval):
            for case in (argv, argv + ["--dry-run"]):
                result = run(capsys, case)
                _assert_usage_error(result)
                assert "interval center" in result[2], result[2]
    # argparse's own errors exit from the parser
    for argv in (["pi", "--p", "2", "--k", "3", "--threads", "0"], ["pi", "--p", "2", "--k", "x"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        _assert_usage_error((exc.value.code, *capsys.readouterr()))


def test_output_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    _assert_usage_error(run(capsys, ["pi", "--p", "2", "--k", "4", "--output", str(target)]))
    assert not target.exists()


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["pi", "--p", "2", "--k", "4", "--output", str(target)])
    assert code == 0 and out == ""
    env = json.loads(target.read_text())
    assert env["result"] == 3


def test_hypotheses_command(capsys):
    env = run_json(
        capsys, ["hypotheses", "--p", "5", "--nu", "1", "--k", "5", "--m", "1", "--f", "0,0,0,0,0,1"]
    )
    assert env["result"]["status"] == "ExcludedCharDividesKKminus1"
    env = run_json(
        capsys,
        ["hypotheses", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--f", "1", "--D", "0,1"],
    )
    assert env["result"]["status"] == "Covered"


def test_mean_variance_command(capsys):
    env = run_json(capsys, ["mean-variance", "--p", "2", "--nu", "1", "--k", "2", "--m", "1"])
    assert env["result"] == {"mean": "3/1", "variance": "0/1"}


def test_radical_command(capsys):
    env = run_json(capsys, ["radical", "--p", "2", "--f", "0,0,0,0,1", "--m", "1", "--d", "2"])
    assert env["result"] == {"size": 2, "members": ["0,0,1", "1,0,1"]}


def test_nu_decompose_command(capsys):
    env = run_json(capsys, ["nu", "--p", "2", "--f", "0,0,1", "--m", "1", "--decompose"])
    assert env["result"]["nu"] == 3
    assert env["result"]["decomposition"]["reconstructed"] == 3
    assert env["result"]["decomposition"]["epsilon"] == 1


def test_variance_trend_command(capsys):
    env = run_json(capsys, ["variance-trend", "--k", "5", "--m", "1", "--q-list", "3,5"])
    assert env["result"]["limit"] == 2
    assert [entry["q"] for entry in env["result"]["per_q"]] == [3, 5]
