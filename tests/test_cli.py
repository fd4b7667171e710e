import argparse
import json

import pytest

import hilbmac
from hilbmac.cli import EIGEN_R_BOUND, MU_BOUNDS, dispatch, resolve_mode
from hilbmac.correlators import CorrelatorError, bracket_one_closed
from hilbmac.exactalg import (DivisionByZero, DomainError, ExactAlgError, ExponentOverflowError,
                              PoleError, RationalSampler, SeriesError, generators)
from hilbmac.exactalg.poly import EXPONENT_LIMIT, LaurentPoly, poly_pow
from hilbmac.hilbert import HilbertError
from hilbmac.macdonald import MacdonaldError
from hilbmac.symfun import SymFunError


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
    for command, option in ((["correlate", "--word", "E1"], ["--order", "-1"]),
                            (["verify", "main"], ["--trials", "0"]),
                            (["correlate", "--word", "E1"], ["--mode", "wild"])):
        with pytest.raises(SystemExit) as exc:
            dispatch(command + option)
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


def test_unnormalized_power_operator_word_is_checked_by_the_engine(capsys):
    code, out = run_cli(capsys, ["correlate", "--word", "Psi2", "--order", "2"])
    assert code == 0
    assert json.loads(out)["verified_against"] == ["vertex-engine"]


@pytest.mark.parametrize("argv", [
    ["verify-all", "--only", "C02,C12", "--seed", "69"],
    ["correlate", "--word", "E1", "--order", "6", "--mode", "evaluate", "--seed", "69",
     "--normalized"],
])
def test_seed_that_drew_a_pole_point_passes(capsys, argv):
    """RationalSampler(69, magnitude=40) once drew q = 1/2 and t = 2, a pole
    of the brute-force cell weights."""
    code, _ = run_cli(capsys, argv)
    assert code == 0


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
    code, out = run_cli(capsys, ["chi", "--insert", "psi:2:1,0",
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
    ["symfun", "convert", "--input",
     '{"basis": "p", "terms": [{"partition": [2], "coeff": "1/0"}]}'],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "p", "terms": [{"partition": [2], "coeff": "1"}, '
     '{"partition": [2], "coeff": "-1"}]}'],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "p", "terms": [{"partition": [true, 1], "coeff": "1"}]}'],
    ["symfun", "alpha", "--degree", "0"],
    ["symfun", "betagamma", "--degree", "-2"],
    ["toric-check", "--surface", "XX"],
    ["chi", "--u", "foo"],
    ["chi", "--u", "1/0"],
    ["macdonald", "P", "--mu", "11"],
    # options a subcommand would ignore are not offered
    ["verify-all", "--only", "C13", "--order", "3"],
    ["verify-all", "--only", "C13", "--mode", "symbolic"],
    ["toric-check", "--mode", "evaluate", "--order", "1"],
    ["symfun", "alpha", "--seed", "2"],
    ["macdonald", "norm", "--mu", "2", "--trials", "4"],
    ["chi", "--order", "1", "--trials", "4"],
    ["correlate", "--word", "E1", "--order", "1", "--trials", "4"],
    # a coefficient is a JSON string or integer, never a bool or a float
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "p", "terms": [{"partition": [2], "coeff": true}]}'],
    ["symfun", "convert", "--to", "m", "--input",
     '{"basis": "p", "terms": [{"partition": [2], "coeff": 0.1}]}'],
    # malformed --mu, --twist and --word values
    ["macdonald", "P", "--mu", "1,2"],
    ["chi", "--twist", "1"],
    ["correlate", "--word", "E1,"],
    # exponents past the kernel's limit, refused before any power is formed
    ["chi", "--insert", "psi:2:1,0", "--twist", "9999999999999999999,0", "--order", "1"],
    ["verify", "main", "--A", "9999999999999999999,1", "--order", "1"],
    # a huge part, and the first size above each command's bound
    ["macdonald", "norm", "--mu", "99999999999999999999"],
    ["macdonald", "eps", "--mu", "99999999999999999999"],
    ["macdonald", "eigen", "--mu", "99999999999999999999"],
    ["macdonald", "norm", "--mu", str(MU_BOUNDS["norm"] + 1)],
    ["macdonald", "eps", "--mu", str(MU_BOUNDS["eps"] + 1)],
    ["macdonald", "eigen", "--mu", str(MU_BOUNDS["eigen"] + 1)],
    ["macdonald", "eigen", "--mu", "1", "--r", str(EIGEN_R_BOUND + 1)],
    ["symfun", "convert", "--to", "e", "--input",
     '{"basis": "p", "terms": [{"partition": [100000000000000000000], "coeff": 1}]}'],
    ["symfun", "convert", "--to", "p", "--input",
     '{"basis": "h", "terms": [{"partition": [100000000000000000000], "coeff": 1}]}'],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_twist_at_the_exponent_limit(capsys):
    """At order 1 a twist (A, 0) puts t1^(2A) in a chart term: the largest A
    that fits is EXPONENT_LIMIT // 2, and one more exits 2 with one error
    line that names t1."""
    fits = EXPONENT_LIMIT // 2
    argv = ["chi", "--insert", "psi:2:1,0", "--order", "1", "--mode", "symbolic", "--twist"]
    code, out = run_cli(capsys, argv + [f"{fits},0"])
    assert code == 0 and json.loads(out)["surface"]["twist"] == [fits, 0]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + [f"{fits + 1},0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"hilbmac: error: exponent {2 * fits + 2} exceeds limit for var t1"]


@pytest.mark.parametrize("error, builtin", [
    (SymFunError, ValueError), (CorrelatorError, ValueError),
    (HilbertError, ValueError), (MacdonaldError, ValueError),
    (ExactAlgError, ArithmeticError), (PoleError, ArithmeticError),
    (DivisionByZero, ArithmeticError), (SeriesError, ArithmeticError),
    (ExponentOverflowError, ArithmeticError), (DomainError, ValueError),
])
def test_every_library_error_is_a_hilbmac_error(error, builtin):
    """dispatch maps the one root to exit 2; callers that catch the builtin
    base keep working."""
    assert issubclass(error, hilbmac.HilbmacError)
    assert issubclass(error, builtin)


@pytest.mark.parametrize("call", [
    lambda: hilbmac.enumerate_partitions(-1),
    lambda: hilbmac.nekrasov_okounkov_check(1, 0),
    lambda: RationalSampler(0, 2),
    lambda: RationalSampler(0, 3).point(["q", "t", "u"]),
    lambda: poly_pow(LaurentPoly.var("q"), -1),
], ids=["enumerate_partitions", "nekrasov_okounkov_check", "sampler_magnitude",
        "sampler_point", "poly_pow"])
def test_an_argument_out_of_range_raises_a_library_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("what", sorted(MU_BOUNDS))
def test_macdonald_size_bounds_are_named(capsys, what):
    bound = MU_BOUNDS[what]
    with pytest.raises(SystemExit):
        dispatch(["macdonald", what, "--mu", f"{bound},1"])
    assert f"|mu| = {bound + 1} exceeds {bound}" in capsys.readouterr().err


def test_identity_word_is_E0(capsys):
    q, t, u, v = generators("q", "t", "u", "v")
    one = [str(c) for c in bracket_one_closed(u, v, q, t, 3).coeffs]
    for flags, expected in (([], one), (["--normalized"], ["1", "0", "0", "0"])):
        printed = []
        for word in ("1", "E0"):
            code, out = run_cli(capsys, ["correlate", "--word", word, "--order", "3"] + flags)
            assert code == 0
            printed.append([c["coeff"] for c in json.loads(out)["series"]])
        assert printed == [expected, expected]


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
    # is built by hand so that no HILBMAC_* default override leaks in, and it
    # writes no bytecode into the checkout.
    package_root = str(Path(hilbmac.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    args = [sys.executable, "-m", "hilbmac", "correlate", "--word", "E2",
            "--order", "6", "--normalized", "--seed", "13"]
    runs = [subprocess.run(args, capture_output=True, text=True,
                           env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"})
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


def test_closed_stdout_exits_141_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hilbmac

    package_root = str(Path(hilbmac.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    # the read end is closed before the child starts, so its first write to
    # standard output fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "hilbmac", "verify-all", "--only", "C13",
                              "--format", "plain"],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                             timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == 141, run.stderr
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) <= 1
