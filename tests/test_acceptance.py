"""The acceptance gate: every criterion at its pinned order and tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them, or use `hilbmac verify-all`.
"""

import functools
import operator

from hilbmac import acceptance

SEED = 1
TRIALS = 3


def _run(fn):
    result = fn(seed=SEED, trials=TRIALS)
    line = f"{'PASS' if result.ok else 'FAIL'} {result.ident} {result.name}"
    if result.detail:
        line += f" ({result.detail})"
    print(line)
    assert result.ok, result.detail
    return result


def test_C01_base_brackets_symbolic_to_order_8():
    _run(acceptance.c01_base_brackets)


def test_C02_one_point_weight1_bracket():
    _run(acceptance.c02_e1_bracket)


def test_C03_one_point_weight2_bracket():
    _run(acceptance.c03_e2_bracket)


def test_C04_two_point_weight1_bracket():
    _run(acceptance.c04_e1e1_bracket)


def test_C05_vertex_engine_vs_bruteforce():
    _run(acceptance.c05_vertex_vs_bruteforce)


def test_C06_power_operation_closed_forms():
    _run(acceptance.c06_psi_closed_forms)


def test_C07_macdonald_suite_symbolic():
    _run(acceptance.c07_macdonald_suite)


def test_C07_rejects_a_perturbed_integral_form(monkeypatch):
    """q*t^2 added to one degree-6 coefficient of J must break the packed
    Gram identity: the slots are wide enough to keep it apart."""
    from hilbmac.exactalg import LaurentPoly
    from hilbmac.macdonald import MacdonaldTable
    from hilbmac.symfun import SymmetricFunction
    original = MacdonaldTable.J

    def perturbed(self, mu):
        J = original(self, mu)
        if tuple(mu) != (3, 2, 1):
            return J
        terms = dict(J.terms)
        terms[(2, 2, 1, 1)] = terms[(2, 2, 1, 1)] + LaurentPoly.var("q") * LaurentPoly.var("t", 2)
        return SymmetricFunction("m", terms)

    monkeypatch.setattr(MacdonaldTable, "J", perturbed)
    result = acceptance.c07_macdonald_suite(seed=SEED, trials=TRIALS)
    assert not result.ok and result.detail == "norm fails at (3, 2, 1)", result.detail


def test_C07_packing_slots_keep_the_identity_apart(monkeypatch):
    """The Kronecker slots gram_failure picks separate every term of
    lhs - rhs, computed here as rational functions at degree 4 with q*t^2
    added to one coefficient of J: its cleared numerator has coefficients
    below 2^(slot - 1) and q-degrees below the width, so a zero packed value
    could only come from a zero polynomial."""
    from hilbmac.exactalg import LaurentPoly, RationalFunction, generators
    from hilbmac.macdonald import MacdonaldTable, integral_factors
    from hilbmac.partitions import enumerate_partitions
    from hilbmac.symfun import SymmetricFunction, inner_product_qt, to_p
    q, t = generators("q", "t")
    table = MacdonaldTable(q, t, degree_bound=4)
    J = {lam: dict(table.J(lam).terms) for lam in enumerate_partitions(4)}
    J[(2, 1, 1)][(1, 1, 1, 1)] += LaurentPoly.var("q") * LaurentPoly.var("t", 2)
    monkeypatch.setattr(MacdonaldTable, "J", lambda self, mu: SymmetricFunction("m", J[tuple(mu)]))
    shifts = []
    pack = LaurentPoly.kronecker
    monkeypatch.setattr(LaurentPoly, "kronecker", lambda p, s: shifts.append(s) or pack(p, s))
    assert acceptance.gram_failure(table, 4) == "norm fails at (2, 1, 1)"
    slot, width = shifts[0]["q"], shifts[0]["t"] // shifts[0]["q"]
    D = (1 - t) ** 4 * (1 - t ** 2) ** 2 * (1 - t ** 3) * (1 - t ** 4)
    parts = enumerate_partitions(4)
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            a, b = (to_p(SymmetricFunction("m", {k: RationalFunction.from_poly(c) for k, c in J[x].items()}))
                    for x in (lam, mu))
            diff = D * inner_product_qt(a, b, q, t)
            if lam == mu:
                c, c_prime = integral_factors(lam, q, t)
                diff = diff - D * functools.reduce(operator.mul, c + c_prime)
            num, den = diff.expanded()
            assert den.is_const()
            assert max(map(abs, num.terms.values()), default=0) < 2 ** (slot - 1), (lam, mu)
            assert num.degree("q") < width, (lam, mu)


def test_C08_alpha_and_bc_tables():
    _run(acceptance.c08_alpha_bc_tables)


def test_C09_cell_multiset_two_path():
    _run(acceptance.c09_sym_of_cells)


def test_C09_guards_the_decomposition_the_engine_uses(monkeypatch):
    from hilbmac.macdonald import POWER_OPERATIONS
    cell_function, decompose = POWER_OPERATIONS["lambda"]

    def off_by_one(m, q, t):
        terms, const = decompose(m, q, t)
        return terms, const + 1

    monkeypatch.setitem(POWER_OPERATIONS, "lambda", (cell_function, off_by_one))
    assert not acceptance.c09_sym_of_cells(seed=1, trials=3).ok


def test_C10_exponential_identity():
    _run(acceptance.c10_main_identity)


def test_C11_central_theorem():
    _run(acceptance.c11_central_theorem)


def test_C12_toric_surface_checks():
    _run(acceptance.c12_toric_checks)


def test_C13_classical_q_series():
    _run(acceptance.c13_classical_qseries)


def test_C14_connected_correlator_inversion():
    _run(acceptance.c14_connected_inversion)


def test_every_criterion_has_a_test():
    """The registry and this module must stay in sync."""
    import inspect
    import sys
    module = sys.modules[__name__]
    test_names = {name for name, _ in inspect.getmembers(module, inspect.isfunction)
                  if name.startswith("test_C")}
    for ident, _ in acceptance.CRITERIA:
        assert any(name.startswith(f"test_{ident}_") for name in test_names), ident
