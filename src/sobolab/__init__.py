"""sobolab: a desk-scale numerical laboratory for Sobolev constants.

Discretized model manifolds, dense spectral operator calculus, ensemble
estimation of Sobolev and log-Sobolev constants, exponent bootstrap chains
with explicit constants, heat-semigroup and Riesz-transform scans, and
constant tracking along exact toy Ricci flows.
"""

from .manifold import (DiscreteManifold, ModelSpec, build, gamma_integral,
                       geometric_summary, parse_model_spec, scale_metric)
from .spectral import (PotentialField, SpectralDecomposition,
                       SingularOperatorError, apply_function,
                       constant_potential, decompose, heat_multiplier,
                       power_multiplier)
from .norms import grad_lp_norm, lp_norm, q_energy
from .constants import (EnsembleSpec, LogSobolevProfile, SobolevEstimate,
                        beta_from_sobolev, entropy, estimate_single_A,
                        estimate_sobolev_AB, generate_ensemble,
                        measure_log_sobolev_beta, single_constant_from_pair,
                        tau_closed_form, tau_of_t,
                        ultracontractivity_constant, verify_inequality)
from .bootstrap import (BootstrapChain, PLadder, alpha_scaling_bound,
                        build_ladder, chain_constants, iterate_ladder,
                        p_next, r_p, step_constants)
from .semigroup import (MappingNormScan, bessel_equivalence_constants,
                        check_heat_kernel_bounds, heat_contraction_check,
                        mapping_norm, riesz_ratio, scaling_transfer_check,
                        ultracontractivity_fit)
from .flow import (ExactFlow, FlowTrajectory, HypothesisError, metric_at,
                   shrinking_sphere_flow, track)

__version__ = "0.1.0"
