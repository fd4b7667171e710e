"""Spans around hilbmac's public functions, installed from the benchmark.

``Tracer.install`` replaces each traced method on its class, and each traced
function in every hilbmac module that bound it (``from ... import`` makes a
binding per module), with a wrapper that records a span: name, start, end and
the enclosing span.  Spans are kept in flat arrays while the traced job list
runs; ``summary`` then derives calls and self time (duration minus the
durations of the span's direct children) per layer.
"""

from __future__ import annotations

import re
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Tuple


def _term_pairs(tracer, args, result):
    tracer.counts["exactalg.poly_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _quotient_returned(tracer, args, result):
    if result is not None:
        tracer.counts["exactalg.divide_exact.quotients"] += 1


# span name -> (module, attributes, counter hook); "Class.method" is wrapped
# on the class, a bare name in every hilbmac module that bound the function.
TARGETS = {
    "exactalg.poly_mul": ("hilbmac.exactalg.poly", ["LaurentPoly.__mul__"], _term_pairs),
    "exactalg.divide_exact": ("hilbmac.exactalg.poly", ["LaurentPoly.divide_exact"],
                              _quotient_returned),
    "exactalg.ratfun_add": ("hilbmac.exactalg.ratfun",
                            ["RationalFunction.__add__", "RationalFunction.__radd__"], None),
    "exactalg.rf_sum": ("hilbmac.exactalg.ratfun", ["rf_sum"], None),
    "exactalg.ratfun_eq": ("hilbmac.exactalg.ratfun", ["RationalFunction.__eq__"], None),
    "exactalg.canonical_str": ("hilbmac.exactalg.ratfun", ["RationalFunction.canonical_str"], None),
    "exactalg.series_div": ("hilbmac.exactalg.series", ["TruncatedSeries.__truediv__"], None),
    "partitions.cells": ("hilbmac.partitions", ["cells"], None),
    "symfun.to_p": ("hilbmac.symfun", ["to_p"], None),
    "symfun.inner_product_qt": ("hilbmac.symfun", ["inner_product_qt"], None),
    "macdonald.table_P": ("hilbmac.macdonald", ["MacdonaldTable.P", "MacdonaldTable.P_in_p"], None),
    "macdonald.apply_E": ("hilbmac.macdonald", ["apply_E"], None),
    "macdonald.eigen_tildeE": ("hilbmac.macdonald", ["eigen_tildeE"], None),
    "correlators.bracket_bruteforce": ("hilbmac.correlators", ["bracket_bruteforce"], None),
    "correlators.vertex_correlator": ("hilbmac.correlators", ["vertex_correlator"], None),
    "correlators.closed_form_series": ("hilbmac.correlators", ["closed_form_series"], None),
    "hilbert.chi_C2_series": ("hilbmac.hilbert", ["chi_C2_series"], None),
    "hilbert.chi_via_correlators": ("hilbmac.hilbert", ["chi_via_correlators"], None),
    "hilbert.toric_correlator_checks": ("hilbmac.hilbert", ["toric_correlator_checks"], None),
    "acceptance.criteria": ("hilbmac.acceptance", None, None),   # every cNN_* function
    "cli.dispatch": ("hilbmac.cli", ["dispatch"], None),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names: List[str] = list(TARGETS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {"exactalg.poly_mul.term_pairs": 0,
                                       "exactalg.divide_exact.quotients": 0}

    def _wrapper(self, name_id: int, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target in the hilbmac modules currently imported."""
        modules = [m for n, m in sys.modules.items() if n == "hilbmac" or n.startswith("hilbmac.")]
        for name_id, (name, (modname, attrs, hook)) in enumerate(TARGETS.items()):
            mod = sys.modules[modname]
            if attrs is None:
                attrs = [a for a in vars(mod) if re.fullmatch(r"c\d\d_\w+", a)]
            wrapped = {}
            for attr in attrs:
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    cls = getattr(mod, owner_name)
                    fn = cls.__dict__[meth]
                    if fn not in wrapped:
                        wrapped[fn] = self._wrapper(name_id, fn, hook)
                    setattr(cls, meth, wrapped[fn])
                else:
                    fn = getattr(mod, attr)
                    wrapper = self._wrapper(name_id, fn, hook)
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is fn:
                                setattr(m, key, wrapper)

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], List[dict]]:
        """Calls and self time per span name, and the parent -> child edges."""
        n = len(self.span_name)
        if self.stack:
            raise RuntimeError("summary taken while a span is open")
        child = [0.0] * n
        for sid in range(n):
            p = self.span_parent[sid]
            if p >= 0:
                child[p] += self.span_end[sid] - self.span_start[sid]
        per = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        edges: Dict[Tuple[str, str], List[float]] = {}
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            dur = self.span_end[sid] - self.span_start[sid]
            rec = per[name]
            rec["calls"] += 1
            rec["self_s"] += dur - child[sid]
            rec["total_s"] += dur
            p = self.span_parent[sid]
            parent = self.names[self.span_name[p]] if p >= 0 else "(job list)"
            e = edges.setdefault((parent, name), [0, 0.0])
            e[0] += 1
            e[1] += dur
        return per, [{"parent": a, "child": b, "calls": c, "total_s": s}
                     for (a, b), (c, s) in sorted(edges.items())]
