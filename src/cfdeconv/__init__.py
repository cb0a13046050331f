"""Multivariate density deconvolution with totally unknown noise.

The estimation side recovers a signal's characteristic function from two
independently contaminated observation blocks by minimizing an empirical
contrast over analytic CF candidates, then reconstructs the density by
truncated Fourier inversion with theory-driven tuning and a data-driven
tail-parameter selector.  The numerical laboratory side builds the
weighted orthonormal systems, sup-norm bound certificates, and two-point
lower-bound instances used to probe the hardness of the problem.

scipy is imported inside the functions that call it (L-BFGS-B, spherical
Bessel values, the alignment's BFGS), so importing the package and running
the laboratory load no scipy module.
"""

from ._util import ConfigError, NumericalError
from .adaptive import (
    SelectionReport,
    SelectionRow,
    pilot_c_sigma,
    select_kappa,
    sigma_rule,
)
from .conjecture_lab import (
    CensusResult,
    LeCamReport,
    LowerBoundInstance,
    TwoPoint,
    WeightSpec,
    WeightedBasis,
    build_two_point,
    build_weighted_basis,
    census_protocol,
    grid_convolve,
    h_kappa_eval,
    interval_census,
    lecam_value,
    make_instance,
    master_grid,
    mollifier_eval,
    noise_g,
    norm_chain,
    scaled_profile,
)
from .contrast import (
    OracleModel,
    QuadratureGrid,
    contrast_empirical,
    contrast_gradient,
    contrast_oracle,
    ecf_table_for_grid,
    make_grid,
    poly_tables,
)
from .ecf import EcfTable, SampleSet, ecf_eval, ecf_on_grid
from .legendre_bounds import (
    BoundReport,
    bound_suite,
    change_of_basis,
    class_sup_bound,
    f_kappa,
    legendre_eval,
    psi_sum,
    sigma1_bound,
    truncation_sup_bound,
)
from .minimize import MinimizeConfig, MinimizeResult, minimize_contrast
from .multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    evaluate,
    from_json_record,
    project_upsilon,
    random_member,
    to_json_record,
    truncate,
    upsilon_bound,
)
from .reconstruct import (
    DensityGrid,
    LatticeSpec,
    invert,
    l2_distance,
    l2_norm,
    m_rule,
    omega_rule,
    smoothness_integral,
)
from .runner import (
    AdaptiveCell,
    AdaptiveOutcome,
    CellResult,
    EstimateOutcome,
    ExperimentPlan,
    ExperimentReport,
    RateFit,
    adapt_from_samples,
    adaptive_run,
    cell_seed,
    cf_box_error,
    compute_aggregates,
    default_lattice,
    estimate_once,
    fit_rate,
    run,
)
from .scenarios import (
    AxisNoise,
    DensityTruth,
    ScenarioSpec,
    SignalSpec,
    make_eiv,
    make_ica,
    make_repeated,
    make_two_point,
    translation_align,
    truth_l2,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
