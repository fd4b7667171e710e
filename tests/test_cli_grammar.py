"""Grammar fuzz of the CLI contract: argv drawn from the grammar of six
subcommands, with values inside and outside the accepted ranges, each run
through dispatch in process.  Every draw exits 0 or 1 with JSON on stdout,
or 2 with one `error:` line and no traceback.

Draws stay small where an accepted input can still run without end: --order
<= 2, --degree <= 3, word and insertion powers <= 3.  A convert term may
have a huge part, since every conversion that expands a term refuses one
above its degree bound.  Huge twist and
insertion weights appear in symbolic mode only (auto is symbolic below order
6), since a huge power of a Fraction in evaluate mode runs on, and so does a
huge word weight.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbmac.cli import dispatch
from hilbmac.hilbert import TORIC_CHECKS

HUGE = 10 ** 20


def mostly(valid, invalid):
    """Mostly a value from valid, sometimes one from invalid."""
    return st.tuples(st.integers(0, 7), st.sampled_from(valid), st.sampled_from(invalid)).map(
        lambda d: d[2] if d[0] == 3 else d[1])


orders = mostly(["0", "1", "2"], ["-1", "x"])
modes = mostly(["symbolic", "evaluate", "auto"], ["wild"])
trials = mostly(["3"], ["0", "2"])


def _weight(draw, huge: bool) -> str:
    """'a,b' with one entry HUGE if huge, or sometimes not a weight."""
    entries = [draw(st.sampled_from([-1, 0, 1, 2])) for _ in range(2)]
    if huge:
        entries[draw(st.integers(0, 1))] = HUGE
    return draw(mostly([",".join(map(str, entries))], ["1", "1,2,3", "a,0"]))


def _parts(draw, valid, invalid) -> list:
    """A partition, or sometimes its parts out of order."""
    parts = draw(st.lists(mostly(valid, invalid), max_size=3))
    if draw(mostly([True], [False])):
        parts.sort(reverse=True)
    return parts


@st.composite
def macdonald_argv(draw):
    mu = _parts(draw, [1, 2], [-1, 0])
    if draw(st.booleans()):
        mu.insert(0, HUGE)
    return ["macdonald", draw(st.sampled_from(["P", "norm", "eps", "eigen"])),
            "--mu=" + ",".join(map(str, mu)), f"--r={draw(mostly([0, 1, 3, HUGE], [-1]))}"]


@st.composite
def correlate_argv(draw):
    tokens = draw(st.lists(st.tuples(mostly(["E", "Psi", "Lambda", "Sigma"], ["Foo", ""]),
                                     mostly(["0", "1", "2", "3"], ["-1", ""])),
                           min_size=1, max_size=2))
    word = draw(mostly([",".join(name + m for name, m in tokens), "1"], ["E1,", "E1,,E2"]))
    argv = ["correlate", "--word=" + word, "--order=" + draw(orders), "--mode=" + draw(modes)]
    return argv + draw(st.sampled_from([[], ["--normalized"]]))


@st.composite
def chi_argv(draw):
    mode = draw(modes)
    huge = mode != "evaluate" and draw(st.booleans())
    argv = ["chi", "--order=" + draw(orders), "--mode=" + mode, "--twist=" + _weight(draw, huge)]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(mostly(["psi", "lambda", "sigma"], ["foo"]))
        m = draw(mostly([1, 2, 3], [-1, 0]))
        weight = _weight(draw, huge and draw(st.booleans()))
        argv.append("--insert=" + draw(mostly([f"{op}:{m}:{weight}"], ["psi:1"])))
    for option in ("--u=", "--v="):
        argv.append(option + draw(mostly(["u", "v", "q", "0", "1/2"], ["1/0", "foo"])))
    return argv


@st.composite
def verify_argv(draw):
    mode = draw(modes)
    huge = mode != "evaluate" and draw(st.booleans())
    return ["verify", "main", "--A=" + _weight(draw, huge),
            "--order=" + draw(orders), "--mode=" + mode, "--trials=" + draw(trials)]


@st.composite
def toric_check_argv(draw):
    which = mostly(["all", *TORIC_CHECKS], ["bogus"])
    return ["toric-check", "--surface=" + draw(mostly(["P2", "P1xP1", "C2"], ["XX"])),
            "--which=" + draw(which), "--order=" + draw(orders), "--trials=" + draw(trials)]


@st.composite
def symfun_argv(draw):
    what = draw(st.sampled_from(["convert", "alpha", "betagamma"]))
    if what != "convert":
        return ["symfun", what, "--degree=" + draw(mostly(["1", "2", "3"], ["-1", "0"]))]
    terms = [{"partition": _parts(draw, [1, 2, 3], [-1, 0, True]),
              "coeff": draw(mostly(["1", "-2/3", 2], ["1/0", "x", True, 0.5]))}
             for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        terms.insert(0, {"partition": [HUGE], "coeff": "1"})
    data = {"basis": draw(mostly(["p", "m", "e", "h"], ["x"])), "terms": terms}
    return ["symfun", "convert", "--to=" + draw(mostly(["p", "m", "e", "h"], ["q"])),
            "--input=" + draw(mostly([json.dumps(data)], ["{}", "[]", "not json"]))]


GRAMMAR = {"macdonald": macdonald_argv(), "correlate": correlate_argv(), "chi": chi_argv(),
           "verify": verify_argv(), "toric-check": toric_check_argv(), "symfun": symfun_argv()}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_over_the_grammar(command, data):
    argv = data.draw(GRAMMAR[command], label="argv")
    code, out, err = run(argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    else:
        json.loads(out)
