import argparse
import json

import pytest

from hilbmac.cli import dispatch, resolve_mode


def run_cli(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_malformed_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["correlate", "--word", "E1", "--order", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["chi", "--insert", "nonsense"])
    assert exc.value.code == 2


def test_out_of_range_options_exit_2(capsys):
    for option in (["--order", "-1"], ["--trials", "0"], ["--mode", "wild"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(["correlate", "--word", "E1"] + option)
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


def test_auto_mode_switches_to_evaluate_at_order_6():
    assert resolve_mode(argparse.Namespace(mode="auto", order=6)) == "evaluate"
    assert resolve_mode(argparse.Namespace(mode="auto", order=5)) == "symbolic"
    assert resolve_mode(argparse.Namespace(mode="symbolic", order=8)) == "symbolic"


def test_correlate_json_schema(capsys):
    code, out = run_cli(capsys, ["correlate", "--word", "E1", "--order", "3",
                                 "--normalized"])
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "E1"
    assert data["order"] == 3
    assert [row["power"] for row in data["series"]] == [0, 1, 2, 3]
    assert "closed-form:E1" in data["verified_against"]
    assert "vertex-engine" in data["verified_against"]


def test_correlate_evaluate_mode_reports_bindings(capsys):
    code, out = run_cli(capsys, ["correlate", "--word", "E1,E1", "--order", "6",
                                 "--normalized", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "evaluate"
    assert set(data["bindings"]) == {"q", "t", "u", "v"}
    assert "closed-form:E1E1" in data["verified_against"]


def test_determinism_byte_identical(capsys):
    args = ["correlate", "--word", "Psi1", "--order", "6", "--normalized",
            "--seed", "3"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    assert out1 == out2


def test_verify_main_pass_and_output(capsys):
    code, out = run_cli(capsys, ["verify", "main", "--A", "1,0", "--order", "4",
                                 "--mode", "evaluate", "--seed", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["A"] == [1, 0]


def test_verify_main_symbolic(capsys):
    code, out = run_cli(capsys, ["verify", "main", "--A", "0,0", "--order", "3",
                                 "--mode", "symbolic"])
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_toric_check_single(capsys):
    code, out = run_cli(capsys, ["toric-check", "--surface", "P2", "--which",
                                 "lambda1", "--order", "2", "--seed", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert all(r["check"] == "lambda1" for r in data["results"])


def test_macdonald_subcommands(capsys):
    code, out = run_cli(capsys, ["macdonald", "P", "--mu", "2"])
    assert code == 0
    data = json.loads(out)
    parts = {tuple(row["partition"]): row["coeff"] for row in data["terms"]}
    assert parts[(2,)] == "1"
    code, out = run_cli(capsys, ["macdonald", "norm", "--mu", "1"])
    assert json.loads(out)["b_norm"] == "(-1 + t)/(-1 + q)" or \
        json.loads(out)["b_norm"] == "(1 - t)/(1 - q)"
    code, out = run_cli(capsys, ["macdonald", "eigen", "--mu", "1", "--r", "1"])
    assert code == 0


def test_symfun_subcommands(capsys):
    code, out = run_cli(capsys, ["symfun", "alpha", "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    table = {tuple(row["partition"]): row["coeff"] for row in data["terms"]}
    assert table[(1, 1)] == "-1/2"
    code, out = run_cli(capsys, ["symfun", "betagamma", "--degree", "2"])
    assert code == 0
    payload = json.loads(out)
    assert {tuple(r["partition"]) for r in payload["beta"]} == {(1,), (2,), (1, 1)}
    inp = json.dumps({"basis": "h", "terms": [{"partition": [2], "coeff": "1"}]})
    code, out = run_cli(capsys, ["symfun", "convert", "--to", "p", "--input", inp])
    data = json.loads(out)
    got = {tuple(r["partition"]): r["coeff"] for r in data["terms"]}
    assert got == {(1, 1): "1/2", (2,): "1/2"}


def test_chi_subcommand_schema(capsys):
    code, out = run_cli(capsys, ["chi", "--surface", "C2", "--insert", "psi:2:1,0",
                                 "--twist", "0,0", "--order", "2",
                                 "--mode", "evaluate", "--seed", "9"])
    assert code == 0
    data = json.loads(out)
    assert data["surface"] == {"name": "C2", "twist": [0, 0]}
    assert data["insertions"] == ["psi:2:1,0"]
    assert len(data["series"]) == 3


def test_verify_all_subset(capsys):
    code, out = run_cli(capsys, ["verify-all", "--only", "C13,C14", "--seed", "1",
                                 "--format", "plain"])
    assert code == 0
    assert "PASS C13" in out
    assert "PASS C14" in out


def test_verify_all_json_is_one_document(capsys):
    code, out = run_cli(capsys, ["verify-all", "--only", "C13,C14"])
    assert code == 0
    data = json.loads(out)
    assert [r["id"] for r in data["results"]] == ["C13", "C14"]
    assert data["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [
    ["correlate", "--word", "Psi0"],
    ["correlate", "--word", "Foo1"],
    ["correlate", "--word", "E-1"],
    ["symfun", "convert", "--input", "{}"],
    ["macdonald", "eigen", "--r", "-1"],
    ["chi", "--surface", "P2"],
    ["verify-all", "--trials", "2"],
    ["verify-all", "--only", "C99"],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "m", "terms": [{"partition": [1, 2], "coeff": "1"}]}'],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "m", "terms": [{"partition": [0], "coeff": "1"}]}'],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "m", "terms": [{"partition": [2.0], "coeff": "1"}]}'],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_environment_does_not_change_defaults(capsys, monkeypatch):
    argv = ["correlate", "--word", "E1", "--order", "2", "--normalized"]
    expected = run_cli(capsys, argv)
    for name, value in (("HILBMAC_ORDER", "abc"), ("HILBMAC_MODE", "evaluate"),
                        ("HILBMAC_SEED", "9"), ("HILBMAC_TRIALS", "0"),
                        ("HILBMAC_FORMAT", "xml")):
        monkeypatch.setenv(name, value)
    assert run_cli(capsys, argv) == expected


def test_csv_output_format(capsys):
    code, out = run_cli(capsys, ["correlate", "--word", "E1", "--order", "2",
                                 "--normalized", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coeff,power"
    assert len(lines) == 4


def test_plain_output_format(capsys):
    code, out = run_cli(capsys, ["macdonald", "norm", "--mu", "2",
                                 "--format", "plain"])
    assert code == 0
    assert out.startswith("b_norm:") or "b_norm" in out


def test_cross_process_byte_determinism():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hilbmac

    # The child must import the same hilbmac as this process, whether it comes
    # from a source checkout on PYTHONPATH or from an install. The environment
    # is built by hand so that no HILBMAC_* default override leaks in.
    package_root = str(Path(hilbmac.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    args = [sys.executable, "-m", "hilbmac", "correlate", "--word", "E2",
            "--order", "6", "--normalized", "--seed", "13"]
    runs = [subprocess.run(args, capture_output=True, text=True,
                           env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": pythonpath})
            for seed in (0, 42)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[1].returncode == 0, runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


def test_verify_all_unknown_criterion_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify-all", "--only", "C99"])
    assert exc.value.code == 2
    assert "unknown criterion" in capsys.readouterr().err
