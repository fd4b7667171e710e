"""The job lists of the benchmark's workloads, and the check of every job.

A job is one call chain into hilbmac's public API or through
``hilbmac.cli.dispatch``; its check runs after the timed job list and uses
only ``oracle`` on the job's rendered result.  Inputs come from the seed; the
program sees the generated values only.

Symbolic results are rendered with ``canonical_str`` (the library's output
format) and every coefficient is evaluated from that string at seeded points
whose coordinates are ratios of distinct primes in [409, 499].  Such
coordinates are multiplicatively independent, so no binomial denominator
1 - q^a t^b ... vanishes at them, and the Fraction sizes, and with them the
cost of evaluate mode, hardly vary with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple

import oracle as O

# 16 primes in a narrow band: coordinates of nearly equal height, so result
# sizes and evaluate-mode times vary little from seed to seed.
PRIMES = [p for p in range(409, 500) if all(p % d for d in range(2, 23))]
SYMBOLIC_NAMES = ("q", "t", "u", "v", "t1", "t2")

# The gate's own seed (the verify-all default).  Criteria and the
# evaluate-mode CLI command draw their points from it, with the gate's
# sampler; those points do not depend on the benchmark seed.
GATE_SEED = 1


class CheckFailed(Exception):
    pass


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[Dict[str, object], "Ctx"], None]


def prime_point(rng: random.Random) -> Dict[str, Fraction]:
    ps = rng.sample(PRIMES, 2 * len(SYMBOLIC_NAMES))
    return {n: Fraction(ps[2 * k], ps[2 * k + 1]) for k, n in enumerate(SYMBOLIC_NAMES)}


def make_inputs(workload: str, seed: int) -> dict:
    """Points for the program (point_eval) and for the checks (all workloads)."""
    rng = random.Random(f"{workload}:{seed}")
    return {"points": [prime_point(rng) for _ in range(2)],
            "xs": [Fraction(rng.randint(1, 9), rng.randint(2, 9)) for _ in range(8)]}


class Ctx:
    """Check-time state: the inputs, and parsed renderings shared by checks."""

    def __init__(self, inputs: dict):
        self.xs = inputs["xs"]
        self._parsed: Dict[str, tuple] = {}
        self._monomials: Dict[tuple, Fraction] = {}

    def parsed(self, text: str):
        p = self._parsed.get(text)
        if p is None:
            p = self._parsed[text] = O.parse(text)
        return p

    def val(self, text: str, pt: Dict[str, Fraction]) -> Fraction:
        return O.evaluate(self.parsed(text), pt)

    def monomial(self, mu, n: int) -> Fraction:
        key = (mu, n)
        if key not in self._monomials:
            self._monomials[key] = O.monomial_at(mu, self.xs[:n])
        return self._monomials[key]

    def max_terms(self):
        """Largest numerator and denominator, in terms, over all renderings."""
        return (max((len(n) for n, _ in self._parsed.values()), default=0),
                max((len(d) for _, d in self._parsed.values()), default=0))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(x):
    """Program objects to strings: coefficients by canonical_str (rational
    functions) or str (Fractions), series to lists, symmetric functions to
    dicts keyed by partition, reports to their boolean verdict."""
    if hasattr(x, "canonical_str"):
        return x.canonical_str()
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, str):
        return json.loads(x)
    if isinstance(x, dict):
        return {k: render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [render(v) for v in x]
    if hasattr(x, "coeffs"):
        return [render(c) for c in x.coeffs]
    if hasattr(x, "terms"):
        return render(x.terms)
    return bool(x.ok)


def coefficient_bytes(r) -> int:
    """Total length of the coefficient strings in a rendered result.  API
    results are keyed by partitions; in a CLI payload (string keys) only the
    coefficients and the lists that hold them count."""
    if isinstance(r, str):
        return len(r)
    if isinstance(r, list):
        return sum(coefficient_bytes(v) for v in r)
    if isinstance(r, dict):
        return sum(coefficient_bytes(v) for k, v in r.items()
                   if not isinstance(k, str) or k in ("coeff", "b_norm", "terms", "series"))
    return 0


def run_cli(hb, argv: List[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hb.cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"hilbmac {' '.join(argv)} exited {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def expect_series(got: List[str], want: List[Fraction], ctx: Ctx, pt, what: str):
    expect(len(got) == len(want), f"{what}: {len(got)} coefficients, expected {len(want)}")
    for n, (s, w) in enumerate(zip(got, want)):
        expect(ctx.val(s, pt) == w, f"{what}: Q^{n} coefficient disagrees with the partition sum")


def check_monic_triangular(lam, P: dict, ctx: Ctx, pt):
    expect(lam in P and ctx.val(P[lam], pt) == 1, f"P_{lam}: not monic")
    for mu, c in P.items():
        expect(mu == lam or O.dominates(lam, mu) or ctx.val(c, pt) == 0,
               f"P_{lam}: m_{mu} is not dominated by {lam}")


def check_P_m(res_m: dict, degree: int, ctx: Ctx, pt):
    expect(sorted(res_m) == sorted(O.partitions(degree)), f"P_m[{degree}]: wrong partitions")
    for lam, P in res_m.items():
        check_monic_triangular(lam, P, ctx, pt)


def check_P_p(res_p: dict, res_m: dict, degree: int, ctx: Ctx, pt):
    """Orthogonal and normed under the p-basis pairing, and its p-expansion
    equals its m-expansion at x_1..x_n, n = degree."""
    q, t = pt["q"], pt["t"]
    n = degree
    vals = {lam: {k: ctx.val(c, pt) for k, c in P.items()} for lam, P in res_p.items()}
    expect(sorted(vals) == sorted(O.partitions(degree)), f"P_p[{degree}]: wrong partitions")
    lams = sorted(vals)
    for i, lam in enumerate(lams):
        m_side = sum((ctx.val(c, pt) * ctx.monomial(mu, n) for mu, c in res_m[lam].items()),
                     Fraction(0))
        p_side = sum((c * O.power_sum_at(k, ctx.xs[:n]) for k, c in vals[lam].items()),
                     Fraction(0))
        expect(m_side == p_side, f"P_{lam}: m- and p-expansions differ at x")
        expect(O.pairing_qt(vals[lam], vals[lam], q, t) * O.b_cells(lam, q, t) == 1,
               f"P_{lam}: <P, P> b != 1")
        for mu in lams[i + 1:]:
            expect(O.pairing_qt(vals[lam], vals[mu], q, t) == 0,
                   f"P_{lam}, P_{mu}: not orthogonal")


def check_gram(res: dict, ctx: Ctx, pt):
    for (lam, mu), s in res.items():
        want = 1 / O.b_cells(lam, pt["q"], pt["t"]) if lam == mu else 0
        expect(ctx.val(s, pt) == want, f"<P_{lam}, P_{mu}> is wrong")


def check_eigen(res: dict, res_p: dict, ctx: Ctx, pt):
    for lam, (image, verdict) in res.items():
        expect(verdict is True, f"E P_{lam} != eigenvalue * P_{lam} by the program's own test")
        ev = O.eigen_degree1(lam, pt["q"], pt["t"])
        P = res_p[lam]
        for k in set(image) | set(P):
            got = ctx.val(image[k], pt) if k in image else 0
            want = ev * ctx.val(P[k], pt) if k in P else 0
            expect(got == want, f"E P_{lam}: p_{k} coefficient is wrong")


def cli_series(payload: dict) -> List[str]:
    return [row["coeff"] for row in sorted(payload["series"], key=lambda r: r["power"])]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _table_jobs(prefix: str, table, degrees, pt) -> List[Job]:
    jobs = []
    for d in degrees:
        parts = list(O.partitions(d))
        jobs.append(Job(f"{prefix}P_m[{d}]",
                        lambda parts=parts: {lam: table.P(lam) for lam in parts},
                        lambda r, ctx, d=d: check_P_m(r[f"{prefix}P_m[{d}]"], d, ctx, pt)))
        jobs.append(Job(f"{prefix}P_p[{d}]",
                        lambda parts=parts: {lam: table.P_in_p(lam) for lam in parts},
                        lambda r, ctx, d=d: check_P_p(r[f"{prefix}P_p[{d}]"],
                                                      r[f"{prefix}P_m[{d}]"], d, ctx, pt)))
    return jobs


def macdonald_symbolic(hb, inputs) -> List[Job]:
    """Symbolic Macdonald table through degree 5, its p-expansions, the
    same-degree Gram entries and the eigenrelation through degree 4, and CLI
    renderings of P and of the norm."""
    RF = hb.exactalg.RationalFunction
    q, t = RF.var("q"), RF.var("t")
    pt = inputs["points"][0]
    # Degree 6 is left out: its fill alone (about 5 s) and the eigenrelation
    # at degree 5 (about 3 s) would leave two or three rounds in a run, too
    # few for a steady median.
    table = hb.macdonald.MacdonaldTable(q, t, degree_bound=5)
    jobs = _table_jobs("", table, range(6), pt)
    for d in range(1, 5):
        parts = list(O.partitions(d))
        pairs = [(a, b) for i, a in enumerate(parts) for b in parts[i:]]
        jobs.append(Job(f"gram[{d}]",
                        lambda pairs=pairs: {
                            (a, b): hb.symfun.inner_product_qt(table.P_in_p(a), table.P_in_p(b), q, t)
                            for a, b in pairs},
                        lambda r, ctx, d=d: check_gram(r[f"gram[{d}]"], ctx, pt)))
    for d in range(1, 5):
        parts = list(O.partitions(d))

        def eigen(parts=parts):
            out = {}
            for lam in parts:
                P = table.P_in_p(lam)
                image = hb.macdonald.apply_E(P, q, t)
                out[lam] = (image, image == P.scale(hb.macdonald.eigen_E(lam, q, t)))
            return out
        jobs.append(Job(f"eigen[{d}]", eigen,
                        lambda r, ctx, d=d: check_eigen(r[f"eigen[{d}]"], r[f"P_p[{d}]"], ctx, pt)))
    for mu in ((3, 2), (2, 1, 1)):
        arg = ",".join(map(str, mu))
        name = f"cli macdonald P --mu {arg}"

        def check_cli_P(r, ctx, mu=mu, name=name):
            payload = r[name]
            got = {tuple(row["partition"]): row["coeff"] for row in payload["terms"]}
            check_monic_triangular(mu, got, ctx, pt)
            api = r[f"P_m[{sum(mu)}]"][mu]
            expect(set(got) == set(api), f"{name}: other monomials than the table's P")
            for k, s in got.items():
                expect(ctx.val(s, pt) == ctx.val(api[k], pt), f"{name}: m_{k} differs")
        jobs.append(Job(name, lambda arg=arg: run_cli(
            hb, ["macdonald", "P", "--mu", arg, "--format", "json"]), check_cli_P))
    for mu in ((4, 2), (3, 3)):
        arg = ",".join(map(str, mu))
        name = f"cli macdonald norm --mu {arg}"
        jobs.append(Job(name, lambda arg=arg: run_cli(
            hb, ["macdonald", "norm", "--mu", arg, "--format", "json"]),
            lambda r, ctx, mu=mu, name=name: expect(
                ctx.val(r[name]["b_norm"], pt) == O.b_cells(mu, pt["q"], pt["t"]),
                f"{name}: wrong b_norm")))
    return jobs


def _word(hb, ops, q, t):
    make = {"E": hb.correlators.tilde_e_op, "Psi": hb.correlators.psi_op,
            "Lambda": hb.correlators.lambda_op}
    return [make[kind](r, q, t) for kind, r in ops]


def _series_job(name, run, want: Callable[[], List[Fraction]], pt) -> Job:
    return Job(name, run, lambda r, ctx: expect_series(r[name], want(), ctx, pt, name))


CLOSED_FORM_WORDS = {
    "E1": [("E", 1)], "E2": [("E", 2)], "E1E1": [("E", 1), ("E", 1)],
    "Psi1": [("Psi", 1)], "Psi2": [("Psi", 2)], "Psi1sq": [("Psi", 1), ("Psi", 1)],
    "Lambda2": [("Lambda", 2)],   # the library's Lambda2 is twice this bracket
}


def series_symbolic(hb, inputs) -> List[Job]:
    """Symbolic brute-force brackets, plane localization series, the main
    identity, vertex-engine brackets and closed-form expansions, in q, t, u, v
    and t1, t2, plus the same kind of series through the CLI."""
    RF = hb.exactalg.RationalFunction
    q, t, u, v, t1, t2 = (RF.var(n) for n in SYMBOLIC_NAMES)
    pt = inputs["points"][0]
    C, H = hb.correlators, hb.hilbert
    jobs = [
        _series_job("bracket_bruteforce E1 N=3",
                    lambda: C.bracket_bruteforce(_word(hb, [("E", 1)], q, t), u, v, q, t, 3, primed=True),
                    lambda: O.bracket([("E", 1)], pt, 3), pt),
        _series_job("bracket_bruteforce Psi2 N=3",
                    lambda: C.bracket_bruteforce(_word(hb, [("Psi", 2)], q, t), u, v, q, t, 3, primed=True),
                    lambda: O.bracket([("Psi", 2)], pt, 3), pt),
        _series_job("chi_C2_series psi:2:1,0 N=3",
                    lambda: H.chi_C2_series([H.BundleInsertion("psi", 2, (1, 0))], (0, 0),
                                            u, v, 3, t1, t2),
                    lambda: O.plane_chi([(2, (1, 0))], (0, 0), pt, 3), pt),
        _series_job("chi_C2_series A=(0,1) N=3",
                    lambda: H.chi_C2_series([], (0, 1), u, v, 3, t1, t2),
                    lambda: O.plane_exp_form((0, 1), pt, 3), pt),
        Job("verify_main_identity A=(1,0) N=3",
            lambda: H.verify_main_identity((1, 0), 3, u, v, t1, t2),
            lambda r, ctx: expect(r["verify_main_identity A=(1,0) N=3"] is True,
                                  "main identity not verified")),
    ]
    for ws, n in (((2,), 4), ((1, 1), 4), ((3,), 4), ((2, 2), 3)):
        ops = [("E", r) for r in ws]
        jobs.append(_series_job(f"vertex_correlator {ws} N={n}",
                                lambda ops=ops, n=n: C.vertex_correlator(_word(hb, ops, q, t), u, v, q, t, n),
                                lambda ops=ops, n=n: O.bracket(ops, pt, n), pt))
    for name, ops in CLOSED_FORM_WORDS.items():
        scale = 2 if name == "Lambda2" else 1
        jobs.append(_series_job(f"closed_form_series {name} N=6",
                                lambda name=name: C.closed_form_series(name, 6),
                                lambda ops=ops, scale=scale: [scale * c for c in O.bracket(ops, pt, 6)],
                                pt))
    name = "cli correlate --word E1 --order 3 --normalized"
    jobs.append(Job(name, lambda: run_cli(hb, ["correlate", "--word", "E1", "--order", "3",
                                               "--mode", "symbolic", "--normalized",
                                               "--format", "json"]),
                    lambda r, ctx: expect_series(cli_series(r[name]), O.bracket([("E", 1)], pt, 3),
                                                 ctx, pt, name)))
    name2 = "cli chi --insert psi:2:1,0 --order 3"
    jobs.append(Job(name2, lambda: run_cli(hb, ["chi", "--insert", "psi:2:1,0", "--order", "3",
                                                "--mode", "symbolic", "--format", "json"]),
                    lambda r, ctx: expect_series(cli_series(r[name2]),
                                                 O.plane_chi([(2, (1, 0))], (0, 0), pt, 3),
                                                 ctx, pt, name2)))
    return jobs


POINT_WORDS = ((2, 2), (4,), (2, 1, 1), (1, 1, 1, 1))
CRITERIA = ("c03_e2_bracket", "c04_e1e1_bracket", "c05_vertex_vs_bruteforce",
            "c06_psi_closed_forms", "c09_sym_of_cells", "c11_central_theorem",
            "c12_toric_checks")


def _agree(r, a: str, b: str):
    expect(r[a] == r[b], f"{a} and {b} differ")


def point_eval(hb, inputs) -> List[Job]:
    """Evaluate-mode L3 engines at two seeded points: brute force and vertex
    engine, an evaluated Macdonald table through degree 7, the plane series
    both ways, the toric checks; then the evaluate-mode gate criteria and one
    evaluate-mode CLI bracket."""
    C, H, M = hb.correlators, hb.hilbert, hb.macdonald
    jobs: List[Job] = []
    for k, pt in enumerate(inputs["points"]):
        q, t, u, v, t1, t2 = (pt[n] for n in SYMBOLIC_NAMES)
        tag = f"@{k} "
        bf, vx = f"{tag}bracket_bruteforce (2,) N=12", f"{tag}vertex_correlator (2,) N=12"
        jobs.append(_series_job(bf, lambda q=q, t=t, u=u, v=v: C.bracket_bruteforce(
            _word(hb, [("E", 2)], q, t), u, v, q, t, 12, primed=True),
            lambda pt=pt: O.bracket([("E", 2)], pt, 12), pt))
        jobs.append(Job(vx, lambda q=q, t=t, u=u, v=v: C.vertex_correlator(
            _word(hb, [("E", 2)], q, t), u, v, q, t, 12),
            lambda r, ctx, bf=bf, vx=vx: _agree(r, bf, vx)))
        for ws in POINT_WORDS:
            ops = [("E", r) for r in ws]
            bf, vx = f"{tag}bracket_bruteforce {ws} N=6", f"{tag}vertex_correlator {ws} N=6"
            jobs.append(_series_job(bf, lambda ops=ops, q=q, t=t, u=u, v=v: C.bracket_bruteforce(
                _word(hb, ops, q, t), u, v, q, t, 6, primed=True),
                lambda ops=ops, pt=pt: O.bracket(ops, pt, 6), pt))
            jobs.append(Job(vx, lambda ops=ops, q=q, t=t, u=u, v=v: C.vertex_correlator(
                _word(hb, ops, q, t), u, v, q, t, 6),
                lambda r, ctx, bf=bf, vx=vx: _agree(r, bf, vx)))
        table = M.MacdonaldTable(q, t, degree_bound=7)
        jobs += _table_jobs(tag, table, range(8), pt)
        ins = [("psi", 2, (1, 0)), ("psi", 1, (0, 1))]
        chi, via = f"{tag}chi_C2_series N=8", f"{tag}chi_via_correlators N=8"
        jobs.append(_series_job(chi, lambda t1=t1, t2=t2, u=u, v=v: H.chi_C2_series(
            [H.BundleInsertion(*i) for i in ins], (1, 0), u, v, 8, t1, t2),
            lambda pt=pt: O.plane_chi([(m, a) for _, m, a in ins], (1, 0), pt, 8), pt))
        jobs.append(Job(via, lambda t1=t1, t2=t2, u=u, v=v: H.chi_via_correlators(
            [H.BundleInsertion(*i) for i in ins], (1, 0), u, v, 8, t1, t2),
            lambda r, ctx, chi=chi, via=via: _agree(r, chi, via)))
        for surface in ("P2", "P1xP1"):
            name = f"{tag}toric_correlator_checks {surface} N=3"
            jobs.append(Job(name, lambda surface=surface, t1=t1, t2=t2, u=u, v=v:
                            H.toric_correlator_checks(H.load_surface(surface), 3, u, v, t1, t2),
                            lambda r, ctx, name=name: expect(r[name] is True, f"{name}: not ok")))
    for crit in CRITERIA:
        jobs.append(Job(f"acceptance {crit}",
                        lambda crit=crit: getattr(hb.acceptance, crit)(seed=GATE_SEED, trials=1),
                        lambda r, ctx, crit=crit: expect(r[f"acceptance {crit}"] is True,
                                                         f"{crit} failed")))
    name = "cli correlate --word E2 --order 8 --mode evaluate"

    def check_cli(r, ctx):
        payload = r[name]
        pt = {k: Fraction(s) for k, s in payload["bindings"].items()}
        expect("vertex-engine" in payload["verified_against"], f"{name}: no vertex cross-check")
        expect_series(cli_series(payload), O.bracket([("E", 2)], pt, 8), ctx, pt, name)
    jobs.append(Job(name, lambda: run_cli(hb, ["correlate", "--word", "E2", "--order", "8",
                                               "--mode", "evaluate", "--seed", str(GATE_SEED),
                                               "--normalized", "--format", "json"]),
                    check_cli))
    return jobs


WORKLOADS = {"macdonald_symbolic": macdonald_symbolic,
             "series_symbolic": series_symbolic,
             "point_eval": point_eval}
