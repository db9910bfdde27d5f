import json

import pytest

from ffstat.cli import CSV_HEADER, main, parse_partition, parse_poly


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


def test_partition_prob_no_field(capsys):
    env = run_json(capsys, ["partition-prob", "--lambda", "2+2"])
    assert env["result"] == "1/8"
    assert env["field"] is None


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


def test_dry_run(capsys):
    env = run_json(
        capsys,
        ["scan-intervals", "--p", "3", "--nu", "1", "--k", "4", "--m", "2", "--lambda", "4", "--dry-run"],
    )
    assert env["result"] == {"projected_cells": 3, "projected_enumeration": 81}
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
