"""hilbmac: exact computer algebra for equivariant intersection series on
Hilbert schemes of points, Macdonald polynomials and their operator calculus,
and the constant-term correlator engine that ties the two together.

Everything is exact: arbitrary-precision rationals, sparse Laurent
polynomials over a frozen alphabet, and truncated power series.  Identity
checking runs either fully symbolically or at seeded random rational points.
"""

from .partitions import (CellStat, Partition, cells, conjugate,
                         enumerate_partitions, hooks, nekrasov_okounkov_check)
from .exactalg import (HilbmacError, RationalFunction, RationalSampler,
                       TruncatedSeries, expand_closed_form, generators)
from .symfun import (SymmetricFunction, alpha_coefficients, basis_convert,
                     beta_gamma_coefficients, inner_product_hall,
                     inner_product_qt, omega)
from .macdonald import (MacdonaldTable, apply_E, b_norm, eigen_E, eigen_E_r,
                        eigen_tildeE, macdonald_P, psi_decomposition,
                        specialize_eps)
from .correlators import (bracket_bruteforce, base_bracket_z,
                          closed_form_library, connected_correlators,
                          fqft_layer, lambda_op, psi_op, sigma_op,
                          tilde_e_op, vertex_correlator)
from .hilbert import (BundleInsertion, Surface, chi_C2_series,
                      chi_via_correlators, load_surface, toric_chi_series,
                      toric_correlator_checks, verify_main_identity)

__version__ = "0.1.0"
