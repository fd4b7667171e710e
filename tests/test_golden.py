"""CLI output compared byte for byte against a golden corpus.

Each file under ``golden/`` was captured before the refactor that merged
the code paths its command runs.  Coefficient strings are not canonical
(equal values can print differently), so any change in the order of the
arithmetic shows here.
"""

import json
from pathlib import Path

import pytest

from hilbmac.cli import dispatch

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = {
    "symfun_convert": ["symfun", "convert", "--to", "m", "--input", json.dumps(
        {"basis": "e", "terms": [{"partition": [2, 1], "coeff": "3/2"}]})],
    "symfun_alpha": ["symfun", "alpha", "--degree", "4"],
    "symfun_betagamma": ["symfun", "betagamma", "--degree", "3"],
    "macdonald_P": ["macdonald", "P", "--mu", "3,1"],
    "macdonald_norm": ["macdonald", "norm", "--mu", "3,1"],
    "macdonald_eigen": ["macdonald", "eigen", "--mu", "2,1", "--r", "2"],
    "macdonald_eps": ["macdonald", "eps", "--mu", "2,2"],
    "correlate_E1": ["correlate", "--word", "E1", "--order", "3", "--normalized"],
    "correlate_E2": ["correlate", "--word", "E2", "--order", "3", "--normalized"],
    "correlate_Psi2": ["correlate", "--word", "Psi2", "--order", "3", "--normalized"],
    "correlate_E1E1": ["correlate", "--word", "E1,E1", "--order", "3", "--normalized"],
    "correlate_Lambda2": ["correlate", "--word", "Lambda2", "--order", "3", "--normalized"],
    "correlate_Sigma2": ["correlate", "--word", "Sigma2", "--order", "3", "--normalized"],
    "correlate_E1_evaluate": ["correlate", "--word", "E1", "--order", "6", "--mode",
                              "evaluate", "--seed", "7", "--normalized"],
    "chi_psi2": ["chi", "--insert", "psi:2:1,0", "--order", "3"],
    "chi_lambda_sigma": ["chi", "--insert", "lambda:2:0,1", "--insert", "sigma:2:1,0",
                         "--order", "3"],
    "chi_psi1_evaluate": ["chi", "--insert", "psi:1:0,0", "--order", "6", "--mode",
                          "evaluate", "--seed", "3"],
    "verify_main": ["verify", "main", "--order", "3"],
    "verify_main_A": ["verify", "main", "--A", "2,-1", "--order", "3"],
    "toric_check_P2": ["toric-check", "--surface", "P2", "--order", "2"],
    "toric_check_P1xP1": ["toric-check", "--surface", "P1xP1", "--order", "2"],
    "verify_all_C13_C14": ["verify-all", "--only", "C13,C14", "--format", "plain"],
    "symfun_convert_e_to_h": ["symfun", "convert", "--to", "h", "--input", json.dumps(
        {"basis": "e", "terms": [{"partition": [3, 1], "coeff": "2"}]})],
    "symfun_convert_m_to_e": ["symfun", "convert", "--to", "e", "--input", json.dumps(
        {"basis": "m", "terms": [{"partition": [2, 2, 1], "coeff": "1/3"}]})],
    "macdonald_eigen_r3": ["macdonald", "eigen", "--mu", "3,2,1", "--r", "3"],
    "chi_sigma3": ["chi", "--insert", "sigma:3:1,0", "--order", "3"],
    "correlate_Sigma3": ["correlate", "--word", "Sigma3", "--order", "2", "--normalized"],
    "toric_check_P2_lambda2": ["toric-check", "--surface", "P2", "--which", "lambda2",
                               "--order", "2"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_cli_output(capsys, name):
    assert dispatch(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
