"""Exact arithmetic substrate: Laurent polynomials, rational functions,
truncated power series, and seeded rational-point sampling."""

from .poly import ALPHABET, BASE_ALPHABET, ExponentOverflowError, LaurentPoly
from .ratfun import (DivisionByZero, ExactAlgError, PoleError,
                     RationalFunction, exact_scalars, generators, one_like,
                     rf, rf_coefficient, rf_sum, scalar_sum)
from .sampling import RationalSampler, equal_by_evaluation
from .series import SeriesError, TruncatedSeries, expand_closed_form, geometric

__all__ = [
    "ALPHABET", "BASE_ALPHABET", "LaurentPoly", "ExponentOverflowError",
    "RationalFunction", "rf", "rf_sum", "scalar_sum", "one_like", "exact_scalars",
    "rf_coefficient", "generators",
    "ExactAlgError", "DivisionByZero", "PoleError",
    "TruncatedSeries", "SeriesError", "expand_closed_form", "geometric",
    "RationalSampler", "equal_by_evaluation",
]
