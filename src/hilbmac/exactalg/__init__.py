"""Exact arithmetic substrate: Laurent polynomials, rational functions,
truncated power series, and seeded rational-point sampling."""

from .poly import (BASE_ALPHABET, DomainError, ExponentOverflowError, HilbmacError,
                   LaurentPoly)
from .ratfun import (DivisionByZero, ExactAlgError, PoleError,
                     RationalFunction, clear_denominators, exact_scalars, generators,
                     one_like, power_ratio, rational_scalars, rf, rf_sum, scalar_dot,
                     scalar_product, scalar_sum, scalar_sum_of_products)
from .sampling import RationalSampler
from .series import SeriesError, TruncatedSeries, expand_closed_form, geometric

__all__ = [
    "BASE_ALPHABET", "LaurentPoly", "ExponentOverflowError",
    "RationalFunction", "rf", "rf_sum", "scalar_sum", "scalar_dot", "scalar_product",
    "scalar_sum_of_products", "clear_denominators", "power_ratio", "rational_scalars",
    "one_like", "exact_scalars",
    "generators",
    "HilbmacError", "ExactAlgError", "DivisionByZero", "PoleError", "DomainError",
    "TruncatedSeries", "SeriesError", "expand_closed_form", "geometric",
    "RationalSampler",
]
