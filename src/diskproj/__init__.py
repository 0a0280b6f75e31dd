"""Weighted Bergman-type kernels, projections, and dyadic model
operators on the unit disk, with the identity and inequality suites
that exercise them at desk scale."""

from .errors import (BudgetExceededError, ConfigError, DiskprojError,
                     InvalidRangeError, NoConvergenceError,
                     QuadratureMismatchError, SeparationError,
                     TailVanishedError, TruncationInfeasibleError)
from .measures import (RadialMeasure, catalog, expinv, half_atom_mix,
                       lebesgue, loginv, point_mass, power_measure)
from .kernels import (KernelSpec, MomentConstruction, check_completely_monotone,
                      construct_omega_from_nu, difference_constant,
                      kernel_integral, kernel_series, moments_from_phi,
                      shi_ratio)
from .disk import (Arc, DiskQuadrature, DyadicInterval, Field,
                   PolarRectangle, build_quadrature, carleson_square)
from .operators import (OperatorHandle, PsiProfile, bergman_handle,
                        comparability_constants, dyadic_handle,
                        positive_handle, projection_identity_error)
from .weights import (CharacteristicReport, WeightField, b1_characteristic,
                      bp_characteristic, dual_weight, dyadic_maximal,
                      weak11_maximal_check, weak11_projection_check,
                      weight_field)
from .czd import (CZDecomposition, cz_decompose, cz_reconstruct_weak11_bound,
                  level_one_regions)
from .twoweight import (SparseOperator, StoppingFamily, TestingReport,
                        apply_sparse, carleson_embedding_sum,
                        one_weight_norm_experiment, sparse_bergman_model,
                        split_by_criterion, stopping_family,
                        testing_constants)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
