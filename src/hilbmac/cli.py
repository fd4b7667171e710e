"""Command-line front end.

Subcommands mirror the library layers: symmetric-function tables, Macdonald
data, correlator series, Hilbert-scheme series, single identity checks, and
the full verification suite.  Exit status: 0 success/verified, 1 verification
failure (with a minimal counterexample), 2 usage error, 141 (128 + SIGPIPE)
when the reader of standard output closes it early.

Options are read from the command line only; the environment does not change
their defaults, and each default is written once.  A subcommand offers only
the common options it reads.  Argparse checks each option's range through its
type function, and the handlers take the parsed namespace as it is.  Handlers
report other bad input by raising argparse.ArgumentTypeError, and the library
reports what it checks itself by raising a HilbmacError; dispatch turns
either into a one-line usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import acceptance
from .correlators import (CLOSED_FORMS, bracket_bruteforce, closed_form_series,
                          operator_word, vertex_correlator)
from .exactalg import HilbmacError, RationalFunction, RationalSampler
from .exactalg.series import TruncatedSeries, first_difference
from .hilbert import (TORIC_CHECKS, BundleInsertion, chi_C2_series, load_surface,
                      toric_correlator_checks, verify_main_identity)
from .macdonald import (MacdonaldTable, b_norm, eigen_E_r, eigen_tildeE,
                        specialize_eps)
from .partitions import is_partition
from .symfun import (M_DEGREE_BOUND, SymmetricFunction, alpha_coefficients,
                     basis_convert, beta_gamma_coefficients)


def resolve_mode(args) -> str:
    """--mode auto is symbolic below order 6 and evaluate from order 6 on."""
    if args.mode != "auto":
        return args.mode
    return "evaluate" if args.order >= 6 else "symbolic"


def fmt_scalar(c) -> str:
    if isinstance(c, RationalFunction):
        return c.canonical_str()
    return str(Fraction(c))


def _series_payload(series: TruncatedSeries) -> List[Dict]:
    return [{"power": n, "coeff": fmt_scalar(series.coeffs[n])}
            for n in range(series.order + 1)]


def _terms_payload(terms: Dict) -> List[Dict]:
    return [{"partition": list(k), "coeff": fmt_scalar(v)} for k, v in sorted(terms.items())]


def _scalars(args, mode: str, names: Sequence[str]):
    """The scalars named: one seeded rational point and its bindings in
    evaluate mode, the symbolic generators and no bindings otherwise."""
    if mode == "evaluate":
        pt = RationalSampler(args.seed, magnitude=40).point(names)
        return pt, {k: str(val) for k, val in sorted(pt.items())}
    return {n: RationalFunction.var(n) for n in names}, None


def emit(payload: dict, args) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.fmt == "csv":
        rows = payload.get("series") or payload.get("terms") or payload.get("results") or []
        if rows:
            cols = sorted(rows[0])
            print(",".join(cols))
            for r in rows:
                print(",".join(str(r[c]) for c in cols))
        else:
            for k in sorted(payload):
                print(f"{k},{payload[k]}")
    else:
        for k in sorted(payload):
            print(f"{k}: {payload[k]}")


def parse_fraction_or_var(text: str):
    if text in ("u", "v", "q", "t", "t1", "t2"):
        return RationalFunction.var(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction or variable name: {text!r}")


def parse_weight(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"weight must be 'a,b', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def parse_partition(text: str):
    text = text.strip()
    if not text or text == "0":
        return ()
    mu = tuple(int(x) for x in text.split(","))
    if any(p < 1 for p in mu) or any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")
    return mu


def parse_word(text: str) -> List[Tuple[str, int]]:
    """A comma-separated operator word as (operator, weight) pairs; the
    identity word is E0.  operator_word checks the names and weights."""
    if text in ("1", "identity", ""):
        return [("E", 0)]
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        kind = tok.rstrip("0123456789")
        num = tok[len(kind):]
        if not num:
            raise argparse.ArgumentTypeError(f"bad operator token {tok!r}")
        pairs.append((kind, int(num)))
    return pairs


def parse_insert(text: str) -> BundleInsertion:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"insertion must be op:m:a,b e.g. psi:2:1,0; got {text!r}")
    return BundleInsertion(parts[0], int(parts[1]), parse_weight(parts[2]))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_symfun(args) -> int:
    if args.what == "alpha":
        table = alpha_coefficients(args.degree)
        payload = {"kind": "alpha", "terms": _terms_payload(table)}
        emit(payload, args)
        return 0
    if args.what == "betagamma":
        beta, gamma = beta_gamma_coefficients(args.degree)
        payload = {"beta": _terms_payload(beta),
                   "gamma": _terms_payload(gamma)}
        emit(payload, args)
        return 0
    # convert
    try:
        data = json.loads(args.input)
        terms = {}
        for term in data["terms"]:
            lam = tuple(term["partition"])
            if not is_partition(lam):
                raise ValueError(f"not a partition: {list(lam)}")
            if lam in terms:
                raise ValueError(f"repeated partition: {list(lam)}")
            coeff = term["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
                raise ValueError(f"coefficient must be a string or an integer: {coeff!r}")
            terms[lam] = Fraction(coeff)
        basis = data["basis"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot convert --input {args.input!r} to basis {args.to!r}: {exc!r}")
    g = basis_convert(SymmetricFunction(basis, terms), args.to)
    payload = {"basis": g.basis, "terms": _terms_payload(g.terms)}
    emit(payload, args)
    return 0


#: the largest |mu| each `macdonald` command accepts.  For norm, eps and
#: eigen the slowest shape measured at the bound (a hook about as wide as it
#: is tall for norm and eps, a single column at --r EIGEN_R_BOUND for eigen)
#: takes under 25 s on a 2-core x86_64 box, so every accepted input stays
#: well within 60 s.
MU_BOUNDS = {"P": M_DEGREE_BOUND, "norm": 48, "eps": 40, "eigen": 20}
#: the largest --r that `macdonald eigen` accepts
EIGEN_R_BOUND = 24


def cmd_macdonald(args) -> int:
    q, t = RationalFunction.var("q"), RationalFunction.var("t")
    mu = args.mu
    bound = MU_BOUNDS[args.what]
    if sum(mu) > bound:
        raise argparse.ArgumentTypeError(f"|mu| = {sum(mu)} exceeds {bound}")
    if args.what == "eigen" and args.r > EIGEN_R_BOUND:
        raise argparse.ArgumentTypeError(f"--r {args.r} exceeds {EIGEN_R_BOUND}")
    if args.what == "P":
        P = MacdonaldTable(q, t).P(mu)
        payload = {"basis": "m", "mu": list(mu), "terms": _terms_payload(P.terms)}
    elif args.what == "norm":
        payload = {"mu": list(mu), "b_norm": fmt_scalar(b_norm(mu, q, t))}
    elif args.what == "eps":
        u = RationalFunction.var("u")
        payload = {"mu": list(mu),
                   "specialization": fmt_scalar(specialize_eps(mu, u, q, t))}
    else:  # eigen
        payload = {"mu": list(mu), "r": args.r,
                   "stabilized": fmt_scalar(eigen_tildeE(mu, args.r, q, t)),
                   "ratio_family": fmt_scalar(eigen_E_r(mu, args.r, q, t))}
    emit(payload, args)
    return 0


def cmd_correlate(args) -> int:
    mode = resolve_mode(args)
    pt, bindings = _scalars(args, mode, ["q", "t", "u", "v"])
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    spec = parse_word(args.word)
    word = operator_word(spec, q, t)
    series = bracket_bruteforce(word, u, v, q, t, args.order, primed=args.normalized)
    if not vertex_correlator(word, u, v, q, t, args.order, primed=args.normalized) == series:
        emit({"error": "vertex engine disagrees with brute force", "word": args.word}, args)
        return 1
    verified = ["vertex-engine"]
    for name, (form_spec, multiple) in CLOSED_FORMS.items():
        if not args.normalized or list(form_spec) != spec:
            continue
        cf = closed_form_series(name, args.order, None if mode == "symbolic" else pt)
        bad = first_difference(cf, series * multiple)
        if bad is not None:
            emit({"error": "closed form disagrees", "order": bad,
                  "bruteforce": fmt_scalar(series.coeffs[bad] * multiple),
                  "closed_form": fmt_scalar(cf.coeffs[bad])}, args)
            return 1
        verified.append(f"closed-form:{name}")
    payload = {"word": args.word, "order": args.order, "mode": mode,
               "normalized": bool(args.normalized),
               "series": _series_payload(series),
               "verified_against": verified}
    if bindings:
        payload["bindings"] = bindings
    emit(payload, args)
    return 0


def cmd_chi(args) -> int:
    mode = resolve_mode(args)
    pt, bindings = _scalars(args, mode, ["t1", "t2"])
    series = chi_C2_series(args.insert, args.twist, args.u, args.v, args.order,
                           pt["t1"], pt["t2"])
    payload = {"surface": {"name": "C2", "twist": list(args.twist)},
               "order": args.order, "mode": mode,
               "insertions": [f"{i.operation}:{i.m}:{i.A[0]},{i.A[1]}" for i in args.insert],
               "series": _series_payload(series)}
    if bindings:
        payload["bindings"] = bindings
    emit(payload, args)
    return 0


def _require_three_trials(args) -> None:
    if args.trials < 3:
        raise argparse.ArgumentTypeError(
            "evaluate-mode verification verdicts need --trials >= 3")


def cmd_verify(args) -> int:
    mode = resolve_mode(args)
    failures = []
    if mode == "evaluate":
        _require_three_trials(args)
        sampler = RationalSampler(args.seed, magnitude=40)
        for _ in range(args.trials):
            pt = sampler.point(["t1", "t2", "u", "v"])
            rep = verify_main_identity(args.A, args.order, pt["u"], pt["v"],
                                       pt["t1"], pt["t2"])
            if not rep.ok:
                n, lhs, rhs = rep.first_mismatch
                failures.append({"point": {k: str(x) for k, x in sorted(pt.items())},
                                 "order": n, "lhs": fmt_scalar(lhs),
                                 "rhs": fmt_scalar(rhs)})
    else:
        t1, t2 = RationalFunction.var("t1"), RationalFunction.var("t2")
        u, v = RationalFunction.var("u"), RationalFunction.var("v")
        rep = verify_main_identity(args.A, args.order, u, v, t1, t2)
        if not rep.ok:
            n, lhs, rhs = rep.first_mismatch
            failures.append({"order": n, "lhs": fmt_scalar(lhs), "rhs": fmt_scalar(rhs)})
    payload = {"identity": "twisted-series-exponential-form", "A": list(args.A),
               "order": args.order, "mode": mode,
               "verdict": "PASS" if not failures else "FAIL"}
    if failures:
        payload["counterexample"] = failures[0]
    emit(payload, args)
    return 0 if not failures else 1


def cmd_toric_check(args) -> int:
    _require_three_trials(args)
    surf = load_surface(args.surface)
    sampler = RationalSampler(args.seed, magnitude=40)
    rows = []
    all_ok = True
    for _ in range(args.trials):
        pt = sampler.point(["t1", "t2", "u", "v"])
        rep = toric_correlator_checks(surf, args.order, pt["u"], pt["v"],
                                      pt["t1"], pt["t2"])
        wanted = rep.details if args.which == "all" else \
            {args.which: rep.details[args.which]}
        for name, status in sorted(wanted.items()):
            ok = status == "ok"
            all_ok = all_ok and ok
            rows.append({"check": name, "status": status,
                         "point": ";".join(f"{k}={v}" for k, v in sorted(pt.items()))})
    payload = {"surface": args.surface, "order": args.order,
               "results": rows, "verdict": "PASS" if all_ok else "FAIL"}
    emit(payload, args)
    return 0 if all_ok else 1


def cmd_verify_all(args) -> int:
    _require_three_trials(args)
    only = args.only.split(",") if args.only else None
    if only:
        known = {ident for ident, _ in acceptance.CRITERIA}
        unknown = sorted(set(only) - known)
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown criterion ids: {', '.join(unknown)}; "
                                             f"known: {', '.join(sorted(known))}")
    results = acceptance.run_all(seed=args.seed, trials=args.trials, only=only)
    ok = all(r.ok for r in results)
    if args.fmt == "json":
        rows = [{"id": r.ident, "name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results]
        print(json.dumps({"results": rows, "verdict": "PASS" if ok else "FAIL"},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            detail = f" ({r.detail})" if r.detail else ""
            print(f"{'PASS' if r.ok else 'FAIL'} {r.ident} {r.name}{detail}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


COMMON_OPTIONS = {
    "--order": dict(type=nonnegative_int, default=4),
    "--mode": dict(choices=["symbolic", "evaluate", "auto"], default="auto"),
    "--seed": dict(type=int, default=1),
    "--trials": dict(type=positive_int, default=3),
    "--format": dict(dest="fmt", choices=["json", "csv", "plain"], default="json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbmac",
        description="Exact computer algebra for Hilbert-scheme intersection "
                    "series, Macdonald polynomials and vertex-operator "
                    "correlators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, options, **kw):
        """A subcommand with --format and the common options it reads."""
        p = sub.add_parser(name, **kw)
        for option in options + ("--format",):
            p.add_argument(option, **COMMON_OPTIONS[option])
        return p

    p = add_parser("symfun", (), help="symmetric-function tables and conversions")
    p.add_argument("what", choices=["convert", "alpha", "betagamma"])
    p.add_argument("--degree", type=positive_int, default=4)
    p.add_argument("--to", default="p", help="target basis for convert")
    p.add_argument("--input", default="{}",
                   help='JSON {"basis": "e", "terms": [{"partition": [2], "coeff": "1"}]}')
    p.set_defaults(func=cmd_symfun)

    p = add_parser("macdonald", (), help="Macdonald polynomial data")
    p.add_argument("what", choices=["P", "norm", "eps", "eigen"])
    p.add_argument("--mu", type=parse_partition, default=())
    p.add_argument("--r", type=nonnegative_int, default=1)
    p.set_defaults(func=cmd_macdonald)

    p = add_parser("correlate", ("--order", "--mode", "--seed"),
                   help="bracket series of an operator word")
    p.add_argument("--word", required=True,
                   help="comma-separated operators, e.g. E2 or E1,E1 or Psi2")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_correlate)

    p = add_parser("chi", ("--order", "--mode", "--seed"),
                   help="equivariant Euler-characteristic series on the plane")
    p.add_argument("--insert", type=parse_insert, action="append", default=[])
    p.add_argument("--twist", type=parse_weight, default=(0, 0))
    p.add_argument("--u", type=parse_fraction_or_var, default="u")
    p.add_argument("--v", type=parse_fraction_or_var, default="v")
    p.set_defaults(func=cmd_chi)

    p = add_parser("verify", ("--order", "--mode", "--seed", "--trials"),
                   help="check one displayed identity")
    p.add_argument("what", choices=["main"])
    p.add_argument("--A", type=parse_weight, default=(0, 0))
    p.set_defaults(func=cmd_verify)

    p = add_parser("toric-check", ("--order", "--seed", "--trials"),
                   help="toric-surface correlator identities")
    p.add_argument("--surface", default="P2")
    p.add_argument("--which", default="all", choices=["all", *TORIC_CHECKS])
    p.set_defaults(func=cmd_toric_check)

    p = add_parser("verify-all", ("--seed", "--trials"), help="run the full verification suite")
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.set_defaults(func=cmd_verify_all)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, HilbmacError) as exc:
        parser.error(str(exc))


def main() -> None:
    try:
        try:
            status = dispatch()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output: exit without a traceback, and
        # point stdout at devnull so the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    main()
