#!/usr/bin/env python3
"""Tabulate the closed-form bracket library and cross-check every entry.

Expands each library entry to a chosen Q-order, recomputes the same series
by the brute-force partition sum at a seeded random rational point, and
writes a JSON report.  A convenient smoke experiment:

    python scripts/correlator_tables.py --order 6 --seed 7 -o tables.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hilbmac.correlators import (CLOSED_FORMS, bracket_bruteforce,
                                 closed_form_library, closed_form_series,
                                 operator_word)
from hilbmac.exactalg import RationalSampler, expand_closed_form


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    sampler = RationalSampler(args.seed, magnitude=40)
    pt = sampler.point(["q", "t", "u", "v"])
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]

    report = {"order": args.order,
              "point": {k: str(x) for k, x in sorted(pt.items())},
              "entries": []}
    all_ok = True
    for name, (spec, multiple) in sorted(CLOSED_FORMS.items()):
        symbolic = expand_closed_form(closed_form_library(name), args.order)
        series = closed_form_series(name, args.order, pt)
        brute = bracket_bruteforce(operator_word(spec, q, t), u, v, q, t, args.order,
                                   primed=True) * multiple
        ok = brute == series
        all_ok = all_ok and ok
        report["entries"].append({
            "name": name,
            "closed_form": [c.canonical_str() for c in symbolic.coeffs],
            "verified": ok,
        })
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
