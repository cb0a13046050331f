"""Multivariate density deconvolution with totally unknown noise.

The estimation side recovers a signal's characteristic function from two
independently contaminated observation blocks by minimizing an empirical
contrast over analytic CF candidates, then reconstructs the density by
truncated Fourier inversion with theory-driven tuning and a data-driven
tail-parameter selector.  The numerical laboratory side builds the
weighted orthonormal systems, sup-norm bound certificates, and two-point
lower-bound instances used to probe the hardness of the problem.

Importing the package loads none of its submodules: each exported name is
imported from the submodule in _EXPORTS on first access (PEP 562), as is
each submodule by its own name.  An estimation (runner, scenarios) loads
the estimation stack and, only for h_kappa or compact_bump sources,
g_density noise or a two-point scenario, conjecture_lab.  The laboratory
loads conjecture_lab and _util, and bound_suite adds legendre_bounds and
multiindex_taylor.  mpmath is imported by the legendre_bounds functions
that evaluate a bound in it, and scipy inside the functions that call it
(L-BFGS-B, spherical Bessel values, the alignment's BFGS), so importing
the package and running the laboratory load neither scipy nor the
estimation stack.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it; every submodule here
# but _util is exported under its own name too
_EXPORTS = {
    "_util": ("ConfigError", "NumericalError"),
    "adaptive": ("SelectionReport", "SelectionRow", "pilot_c_sigma", "select_kappa",
                 "sigma_rule"),
    "conjecture_lab": ("CensusResult", "LeCamReport", "LowerBoundInstance", "TwoPoint",
                       "WeightSpec", "WeightedBasis", "build_two_point", "build_weighted_basis",
                       "census_protocol", "grid_convolve", "h_kappa_eval", "interval_census",
                       "lecam_value", "make_instance", "master_grid", "mollifier_eval",
                       "noise_g", "scaled_profile"),
    "contrast": ("OracleModel", "QuadratureGrid", "contrast_empirical", "contrast_gradient",
                 "contrast_oracle", "ecf_table_for_grid", "make_grid", "poly_tables"),
    "ecf": ("EcfTable", "SampleSet", "ecf_on_grid"),
    "legendre_bounds": ("BoundReport", "bound_suite", "change_of_basis", "class_sup_bound",
                        "f_kappa", "legendre_eval", "psi_sum", "sigma1_bound",
                        "truncation_sup_bound"),
    "minimize": ("MinimizeResult", "minimize_contrast"),
    "multiindex_taylor": ("TaylorPoly", "UpsilonParams", "evaluate", "from_json_record",
                          "project_upsilon", "random_member", "to_json_record", "truncate",
                          "upsilon_bound"),
    "reconstruct": ("DensityGrid", "LatticeSpec", "invert", "l2_distance", "m_rule",
                    "omega_rule", "smoothness_integral"),
    "runner": ("AdaptiveCell", "AdaptiveOutcome", "CellResult", "EstimateOutcome",
               "ExperimentPlan", "ExperimentReport", "RateFit", "adapt_from_samples",
               "adaptive_run", "cell_seed", "cf_box_error", "compute_aggregates",
               "default_lattice", "estimate_once", "fit_rate", "run"),
    "scenarios": ("AxisNoise", "DensityTruth", "ScenarioSpec", "SignalSpec", "make_eiv",
                  "make_ica", "make_repeated", "make_two_point", "translation_align",
                  "truth_l2"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *(module for module in _EXPORTS if module != "_util")])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it as a package attribute
        return importlib.import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
