"""Computational toolkit for almost-periodic trigonometric polynomials.

Exact frequency-module arithmetic, a sparse Fourier algebra, Bohr-group
integration by torus reduction, generalized Riesz-product construction
from rank-one flow parameters, and numerical singularity and flatness
criteria.
"""

from .appoly import APPoly
from .bohrint import (Budget, IntegralEstimate, QuadratureResult,
                      bohr_integral, bohr_integral_multi,
                      interval_l1_distortion, mean_abs, real_line_mean)
from .criteria import (GAUSS_MEAN_ABS, GEOMETRIC_FACTOR, ScanReport,
                       bourgain_scan, cs_subsequence_bound,
                       fejer_factorization_check, guenais_sum,
                       haar_weak_limit_check, kac_clt_diagnostics,
                       kac_moment_identity, klemes_inequality_check)
from .errors import (BasisMismatchError, BohrapError, BudgetError,
                     InternalInconsistencyError, SupportCapError,
                     ValidationError)
from .flatness import (PolyFamilySpec, build_family, flatness_ratio,
                       local_vs_global_flatness, prikhodko_frequencies,
                       ultraflat, ultraflat_deviation, ultraflat_exact)
from .freqspace import (Frequency, SymbolBasis, TorusReduction,
                        is_rationally_independent, rational_rank, torus_reduce)
from .riesz import (RankOneParams, RieszState, Stage, abs2_polynomial,
                    build_polynomial, degree_report, extend, heights,
                    initial_state, make_independent_params,
                    riesz_property_check, spacer_sum,
                    validate_main_hypothesis)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
