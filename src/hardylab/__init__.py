"""Numerical laboratory for Hardy/Bergman norms of Taylor partial sums.

The package measures how partial sums of one- and several-variable
Taylor series behave in Bergman norm (uniformly bounded, convergent)
versus Hardy norm (unbounded along a near-boundary schedule), on the
unit disc and on complete Reinhardt domains.
"""

from .errors import (CoefficientUnavailable, DomainModelError, HardyLabError,
                     NonConvergenceError, PoleError)
from .experiments import (ExperimentResult, RunConfig, render_csv,
                          render_json, run_a1_convergence, run_all,
                          run_blowup, run_density, run_ic_asymptotics,
                          run_reinhardt, run_uniform_bound, write_result)
from .norms import (NormEstimate, bergman_norm_disc, bergman_norm_reinhardt,
                    hardy_norm_disc, hardy_norm_reinhardt,
                    monotonicity_check)
from .quadrature import (RefinementReport, angular_floor, refine_until,
                         torus_blocks, torus_integrals, unit_nodes)
from .registry import (FunctionRegistry, RegistryEntry, TaggedEvaluator,
                       default_registry, fa_entry, monomial_entry,
                       polynomial_entry, product_entry)
from .reinhardt import (DensityRow, ReinhardtDomain, ball, contains,
                        custom_domain, density_experiment,
                        dilate_truncate, domain_from_config,
                        frontier_max_radius, frontier_sample, polydisc,
                        power_egg, section_tops, simplex_directions)
from .series import PowerSeries, partial_sum, partial_sum_kernel
from .witnesses import (IcQuery, T1T2Split, T2BoundRatio,
                        blowup_lower_bound, blowup_schedule, eval_fa,
                        eval_ic, fa_series, ic_comparison, t2_hardy_vs_bound)

__version__ = "0.1.0"

__all__ = [
    "CoefficientUnavailable", "DomainModelError", "HardyLabError",
    "NonConvergenceError", "PoleError",
    "ExperimentResult", "RunConfig", "render_csv", "render_json",
    "run_a1_convergence", "run_all", "run_blowup", "run_density",
    "run_ic_asymptotics", "run_reinhardt", "run_uniform_bound",
    "write_result",
    "NormEstimate", "bergman_norm_disc", "bergman_norm_reinhardt",
    "hardy_norm_disc", "hardy_norm_reinhardt", "monotonicity_check",
    "RefinementReport", "angular_floor", "refine_until", "torus_blocks",
    "torus_integrals", "unit_nodes",
    "FunctionRegistry", "RegistryEntry", "TaggedEvaluator",
    "default_registry", "fa_entry", "monomial_entry", "polynomial_entry",
    "product_entry",
    "DensityRow", "ReinhardtDomain", "ball", "contains",
    "custom_domain", "density_experiment", "dilate_truncate",
    "domain_from_config", "frontier_max_radius", "frontier_sample",
    "polydisc", "power_egg", "section_tops", "simplex_directions",
    "PowerSeries", "partial_sum", "partial_sum_kernel",
    "IcQuery", "T1T2Split", "T2BoundRatio",
    "blowup_lower_bound", "blowup_schedule", "eval_fa", "eval_ic",
    "fa_series", "ic_comparison", "t2_hardy_vs_bound",
]
