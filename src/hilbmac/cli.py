"""Command-line front end.

Subcommands mirror the library layers: symmetric-function tables, Macdonald
data, correlator series, Hilbert-scheme series, single identity checks, and
the full verification suite.  Exit status: 0 success/verified, 1 verification
failure (with a minimal counterexample), 2 usage error.

Options are read from the command line only; the environment does not change
their defaults.  Handlers report bad input by raising
argparse.ArgumentTypeError, which dispatch turns into a one-line usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import acceptance
from .correlators import (bracket_bruteforce, closed_form_series,
                          identity_op, lambda_op, psi_op, sigma_op,
                          tilde_e_op, vertex_correlator)
from .exactalg.ratfun import RationalFunction
from .exactalg.sampling import RationalSampler
from .exactalg.series import TruncatedSeries
from .hilbert import (BundleInsertion, chi_C2_series, load_surface,
                      toric_correlator_checks, verify_main_identity)
from .macdonald import (MacdonaldTable, b_norm, eigen_E_r, eigen_tildeE,
                        specialize_eps)
from .partitions import is_partition
from .symfun import (SymmetricFunction, alpha_coefficients, basis_convert,
                     beta_gamma_coefficients)


@dataclass
class RunConfig:
    order: int = 4
    mode: str = "auto"         # symbolic | evaluate | auto
    seed: int = 1
    trials: int = 3
    fmt: str = "json"          # json | csv | plain

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode not in ("symbolic", "evaluate", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def resolve_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        return "evaluate" if self.order >= 6 else "symbolic"


def fmt_scalar(c) -> str:
    if isinstance(c, RationalFunction):
        return c.canonical_str()
    return str(Fraction(c))


def _series_payload(series: TruncatedSeries) -> List[Dict]:
    return [{"power": n, "coeff": fmt_scalar(series.coeffs[n])}
            for n in range(series.order + 1)]


def _terms_payload(terms: Dict) -> List[Dict]:
    return [{"partition": list(k), "coeff": fmt_scalar(v)} for k, v in sorted(terms.items())]


def _scalars(cfg: RunConfig, mode: str, names: Sequence[str]):
    """The scalars named: one seeded rational point and its bindings in
    evaluate mode, the symbolic generators and no bindings otherwise."""
    if mode == "evaluate":
        pt = RationalSampler(cfg.seed, magnitude=40).point(names)
        return pt, {k: str(val) for k, val in sorted(pt.items())}
    return {n: RationalFunction.var(n) for n in names}, None


def emit(payload: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif cfg.fmt == "csv":
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


def parse_fraction_or_var(text: str, names=("u", "v", "q", "t", "t1", "t2")):
    if text in names:
        return RationalFunction.var(text)
    return Fraction(text)


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


OPERATORS = {"E": tilde_e_op, "Psi": psi_op, "Lambda": lambda_op, "Sigma": sigma_op}


def parse_word(text: str, q, t):
    ops = []
    if text in ("1", "identity", ""):
        return [identity_op(q, t)]
    for tok in text.split(","):
        tok = tok.strip()
        kind = tok.rstrip("0123456789")
        num = tok[len(kind):]
        if not num:
            raise argparse.ArgumentTypeError(f"bad operator token {tok!r}")
        if kind not in OPERATORS:
            raise argparse.ArgumentTypeError(
                f"unknown operator {tok!r} (use E2, Psi1, Lambda2, Sigma2, 1)")
        m = int(num)
        if m < 1 and kind != "E":
            raise argparse.ArgumentTypeError(f"operator {tok!r} needs a weight >= 1")
        ops.append(OPERATORS[kind](m, q, t))
    return ops


def parse_insert(text: str) -> BundleInsertion:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"insertion must be op:m:a,b e.g. psi:2:1,0; got {text!r}")
    return BundleInsertion(parts[0], int(parts[1]), parse_weight(parts[2]))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_symfun(args, cfg: RunConfig) -> int:
    if args.what == "alpha":
        table = alpha_coefficients(args.degree)
        payload = {"kind": "alpha", "terms": _terms_payload(table.entries)}
        emit(payload, cfg)
        return 0
    if args.what == "betagamma":
        beta, gamma = beta_gamma_coefficients(args.degree)
        payload = {"beta": _terms_payload(beta.entries),
                   "gamma": _terms_payload(gamma.entries)}
        emit(payload, cfg)
        return 0
    # convert
    try:
        data = json.loads(args.input)
        terms = {tuple(t["partition"]): Fraction(t["coeff"]) for t in data["terms"]}
        bad = [list(k) for k in terms if not is_partition(k)]
        if bad:
            raise ValueError(f"not a partition: {bad[0]}")
        g = basis_convert(SymmetricFunction(data["basis"], terms), args.to)
    except (ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot convert --input {args.input!r} to basis {args.to!r}: {exc!r}")
    payload = {"basis": g.basis, "terms": _terms_payload(g.terms)}
    emit(payload, cfg)
    return 0


def cmd_macdonald(args, cfg: RunConfig) -> int:
    q, t = RationalFunction.var("q"), RationalFunction.var("t")
    mu = args.mu
    if args.what == "P":
        table = MacdonaldTable(q, t, degree_bound=max(8, sum(mu)))
        P = table.P(mu)
        payload = {"basis": "m", "mu": list(mu), "terms": _terms_payload(P.terms)}
    elif args.what == "norm":
        payload = {"mu": list(mu), "b_norm": fmt_scalar(b_norm(mu, q, t))}
    elif args.what == "eps":
        u = RationalFunction.var("u")
        payload = {"mu": list(mu),
                   "specialization": fmt_scalar(specialize_eps(mu, u, q, t))}
    else:  # eigen
        if args.r < 0:
            raise argparse.ArgumentTypeError("--r must be >= 0")
        payload = {"mu": list(mu), "r": args.r,
                   "stabilized": fmt_scalar(eigen_tildeE(mu, args.r, q, t)),
                   "ratio_family": fmt_scalar(eigen_E_r(mu, args.r, q, t))}
    emit(payload, cfg)
    return 0


def cmd_correlate(args, cfg: RunConfig) -> int:
    mode = cfg.resolve_mode()
    verified = []
    pt, bindings = _scalars(cfg, mode, ["q", "t", "u", "v"])
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    word = parse_word(args.word, q, t)
    series = bracket_bruteforce(word, u, v, q, t, cfg.order, primed=args.normalized)
    if args.normalized or all(op.label.startswith("E") or op.label == "1" for op in word):
        vx = vertex_correlator(word, u, v, q, t, cfg.order, primed=args.normalized)
        if vx == series:
            verified.append("vertex-engine")
        else:
            payload = {"error": "vertex engine disagrees with brute force",
                       "word": args.word}
            emit(payload, cfg)
            return 1
    lib_name = {"E1": "E1", "E2": "E2", "E1,E1": "E1E1", "Psi1": "Psi1",
                "Psi2": "Psi2", "Psi1,Psi1": "Psi1sq"}.get(args.word)
    if lib_name and args.normalized:
        cf = closed_form_series(lib_name, cfg.order,
                                None if mode == "symbolic" else pt)
        if cf == series:
            verified.append(f"closed-form:{lib_name}")
        else:
            first_bad = next(n for n in range(cfg.order + 1)
                             if not cf.coeffs[n] == series.coeffs[n])
            payload = {"error": "closed form disagrees",
                       "order": first_bad,
                       "bruteforce": fmt_scalar(series.coeffs[first_bad]),
                       "closed_form": fmt_scalar(cf.coeffs[first_bad])}
            emit(payload, cfg)
            return 1
    payload = {"word": args.word, "order": cfg.order, "mode": mode,
               "normalized": bool(args.normalized),
               "series": _series_payload(series),
               "verified_against": verified}
    if bindings:
        payload["bindings"] = bindings
    emit(payload, cfg)
    return 0


def cmd_chi(args, cfg: RunConfig) -> int:
    mode = cfg.resolve_mode()
    pt, bindings = _scalars(cfg, mode, ["t1", "t2"])
    t1, t2 = pt["t1"], pt["t2"]
    u = parse_fraction_or_var(args.u)
    v = parse_fraction_or_var(args.v)
    if args.surface != "C2":
        raise argparse.ArgumentTypeError("chi currently computes on the affine plane; "
                                         "use toric-check for P2 and P1xP1")
    series = chi_C2_series(args.insert, args.twist, u, v, cfg.order, t1, t2)
    payload = {"surface": {"name": args.surface, "twist": list(args.twist)},
               "order": cfg.order, "mode": mode,
               "insertions": [f"{i.operation}:{i.m}:{i.A[0]},{i.A[1]}" for i in args.insert],
               "series": _series_payload(series)}
    if bindings:
        payload["bindings"] = bindings
    emit(payload, cfg)
    return 0


def _require_three_trials(cfg: RunConfig) -> None:
    if cfg.trials < 3:
        raise argparse.ArgumentTypeError(
            "evaluate-mode verification verdicts need --trials >= 3")


def cmd_verify(args, cfg: RunConfig) -> int:
    mode = cfg.resolve_mode()
    failures = []
    if mode == "evaluate":
        _require_three_trials(cfg)
        sampler = RationalSampler(cfg.seed, magnitude=40)
        for _ in range(cfg.trials):
            pt = sampler.point(["t1", "t2", "u", "v"])
            rep = verify_main_identity(args.A, cfg.order, pt["u"], pt["v"],
                                       pt["t1"], pt["t2"])
            if not rep.ok:
                n, lhs, rhs = rep.first_mismatch
                failures.append({"point": {k: str(x) for k, x in sorted(pt.items())},
                                 "order": n, "lhs": fmt_scalar(lhs),
                                 "rhs": fmt_scalar(rhs)})
    else:
        t1, t2 = RationalFunction.var("t1"), RationalFunction.var("t2")
        u, v = RationalFunction.var("u"), RationalFunction.var("v")
        rep = verify_main_identity(args.A, cfg.order, u, v, t1, t2)
        if not rep.ok:
            n, lhs, rhs = rep.first_mismatch
            failures.append({"order": n, "lhs": fmt_scalar(lhs), "rhs": fmt_scalar(rhs)})
    payload = {"identity": "twisted-series-exponential-form", "A": list(args.A),
               "order": cfg.order, "mode": mode,
               "verdict": "PASS" if not failures else "FAIL"}
    if failures:
        payload["counterexample"] = failures[0]
    emit(payload, cfg)
    return 0 if not failures else 1


def cmd_toric_check(args, cfg: RunConfig) -> int:
    _require_three_trials(cfg)
    surf = load_surface(args.surface)
    sampler = RationalSampler(cfg.seed, magnitude=40)
    rows = []
    all_ok = True
    for _ in range(cfg.trials):
        pt = sampler.point(["t1", "t2", "u", "v"])
        rep = toric_correlator_checks(surf, cfg.order, pt["u"], pt["v"],
                                      pt["t1"], pt["t2"])
        wanted = rep.details if args.which == "all" else \
            {args.which: rep.details.get(args.which, "unknown-check")}
        for name, status in sorted(wanted.items()):
            ok = status == "ok"
            all_ok = all_ok and ok
            rows.append({"check": name, "status": status,
                         "point": ";".join(f"{k}={v}" for k, v in sorted(pt.items()))})
    payload = {"surface": args.surface, "order": cfg.order,
               "results": rows, "verdict": "PASS" if all_ok else "FAIL"}
    emit(payload, cfg)
    return 0 if all_ok else 1


def cmd_verify_all(args, cfg: RunConfig) -> int:
    _require_three_trials(cfg)
    only = args.only.split(",") if args.only else None
    if only:
        known = {ident for ident, _ in acceptance.CRITERIA}
        unknown = sorted(set(only) - known)
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown criterion ids: {', '.join(unknown)}; "
                                             f"known: {', '.join(sorted(known))}")
    results = acceptance.run_all(seed=cfg.seed, trials=cfg.trials, only=only)
    ok = all(r.ok for r in results)
    if cfg.fmt == "json":
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

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=4)
    common.add_argument("--mode", choices=["symbolic", "evaluate", "auto"], default="auto")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--trials", type=int, default=3)
    common.add_argument("--format", dest="fmt", choices=["json", "csv", "plain"],
                        default="json")

    parser = argparse.ArgumentParser(
        prog="hilbmac",
        description="Exact computer algebra for Hilbert-scheme intersection "
                    "series, Macdonald polynomials and vertex-operator "
                    "correlators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("symfun", help="symmetric-function tables and conversions")
    p.add_argument("what", choices=["convert", "alpha", "betagamma"])
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--to", default="p", help="target basis for convert")
    p.add_argument("--input", default="{}",
                   help='JSON {"basis": "e", "terms": [{"partition": [2], "coeff": "1"}]}')
    p.set_defaults(func=cmd_symfun)

    p = add_parser("macdonald", help="Macdonald polynomial data")
    p.add_argument("what", choices=["P", "norm", "eps", "eigen"])
    p.add_argument("--mu", type=parse_partition, default=())
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_macdonald)

    p = add_parser("correlate", help="bracket series of an operator word")
    p.add_argument("--word", required=True,
                   help="comma-separated operators, e.g. E2 or E1,E1 or Psi2")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_correlate)

    p = add_parser("chi", help="equivariant Euler-characteristic series")
    p.add_argument("--surface", default="C2")
    p.add_argument("--insert", type=parse_insert, action="append", default=[])
    p.add_argument("--twist", type=parse_weight, default=(0, 0))
    p.add_argument("--u", default="u")
    p.add_argument("--v", default="v")
    p.set_defaults(func=cmd_chi)

    p = add_parser("verify", help="check one displayed identity")
    p.add_argument("what", choices=["main"])
    p.add_argument("--A", type=parse_weight, default=(0, 0))
    p.set_defaults(func=cmd_verify)

    p = add_parser("toric-check", help="toric-surface correlator identities")
    p.add_argument("--surface", default="P2")
    p.add_argument("--which", default="all",
                   choices=["all", "lambda1", "lambda11", "connected",
                            "lambda2", "denominator_formula"])
    p.set_defaults(func=cmd_toric_check)

    p = add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.set_defaults(func=cmd_verify_all)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(order=args.order, mode=args.mode, seed=args.seed,
                        trials=args.trials, fmt=args.fmt)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, cfg)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
