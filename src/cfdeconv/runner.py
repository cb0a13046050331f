"""Monte Carlo orchestration: replicated estimation cells and rate fits.

A cell is one (sample size, kappa, replicate) pipeline pass: sample, ECF
tables, contrast minimization, truncated inversion, error scoring against
the scenario's oracle CF and (when one exists) its true density.  Cells are
deterministic given the plan seed; failures are recorded per cell and never
abort the run.  Reports carry no timing information so reruns are
byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import ConfigError, NumericalError, as_type, check_instance
from .adaptive import check_kappas, pilot_c_sigma, select_kappa, sigma_rule
from .contrast import (OracleModel, QuadratureGrid, _ref_tables, ecf_table_for_grid, make_grid,
                       poly_tables)
from .ecf import EcfTable, RowSource, pooled
from .minimize import minimize_contrast
from .multiindex_taylor import TaylorPoly, UpsilonParams, truncate
from .reconstruct import (
    DensityGrid,
    LatticeSpec,
    invert,
    l2_distance,  # unused here; perfbench/tracer.py wraps runner.l2_distance
    m_rule,
    omega_rule,
)
from .scenarios import ScenarioSpec, translation_align, truth_l2


def default_lattice(d: int, half: float = 4.0, count: int = 33) -> LatticeSpec:
    return LatticeSpec(mins=(-half,) * d, maxs=(half,) * d, counts=(count,) * d)


# translation_align's start grid: shifts up to 0.5 per axis, 0.05 apart
ALIGN_WINDOW, ALIGN_STEP = 0.5, 0.05


@dataclass
class ExperimentPlan:
    """Declarative description of a replicated estimation experiment."""

    scenario: ScenarioSpec
    n_list: tuple
    replicates: int
    kappa_grid: tuple
    S: float
    beta: float = 1.0
    nu: float = 1.0
    nodes_per_axis: int = 48
    tuning_mode: str = "theoretical"
    m_opt: Optional[int] = None
    lattice: Optional[LatticeSpec] = None
    seed: int = 0
    restarts: int = 4
    cell_budget_s: Optional[float] = None

    def __post_init__(self):
        """Convert every field to its type and check every range; a value
        that fails either raises ConfigError naming the field."""
        check_instance(self.scenario, ScenarioSpec, "scenario")

        def each(name, kind):
            return tuple(as_type(v, kind, name) for v in as_type(getattr(self, name), tuple, name))

        self.n_list, self.kappa_grid = each("n_list", int), each("kappa_grid", float)
        for name, kind in _PLAN_TYPES.items():
            value = getattr(self, name)
            if value is not None or name not in _PLAN_OPTIONAL:
                setattr(self, name, as_type(value, kind, name))
        if not self.n_list or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be nonempty and strictly increasing")
        if min(self.n_list) < 12:
            raise ConfigError("sample sizes below 12 have no truncation rule")
        check_kappas(self.kappa_grid)
        for name in ("S", "beta", "nu"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name, minimum in _PLAN_MINIMA.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if self.cell_budget_s is not None and not self.cell_budget_s >= 0:
            raise ConfigError(f"cell_budget_s must be >= 0, got {self.cell_budget_s}")
        if self.tuning_mode not in ("theoretical", "override"):
            raise ConfigError(f"unknown tuning mode {self.tuning_mode!r}")
        if self.tuning_mode == "override" and (self.m_opt is None or self.m_opt < 2):
            raise ConfigError("override tuning needs m_opt >= 2")
        if self.tuning_mode == "theoretical" and self.m_opt is not None:
            raise ConfigError("theoretical tuning takes no m_opt; use override tuning")
        if self.lattice is None:
            self.lattice = default_lattice(self.scenario.d)
        elif check_instance(self.lattice, LatticeSpec, "lattice").d != self.scenario.d:
            raise ConfigError(
                f"lattice dimension {self.lattice.d} != scenario dimension {self.scenario.d}"
            )


# ExperimentPlan field -> type; the optional fields may also be None
_PLAN_TYPES = {
    "replicates": int, "S": float, "beta": float, "nu": float, "nodes_per_axis": int,
    "tuning_mode": str, "m_opt": int, "seed": int, "restarts": int, "cell_budget_s": float,
}
_PLAN_OPTIONAL = {"m_opt", "cell_budget_s"}
_PLAN_MINIMA = {"replicates": 1, "nodes_per_axis": 2, "restarts": 1, "seed": 0}


@dataclass(frozen=True)
class CellResult:
    n: int
    kappa: float
    replicate: int
    seed: int
    status: str
    contrast_value: float
    cf_box_error: float
    l2_raw: float
    l2_aligned: float
    shift: tuple
    m_trunc: int
    m_opt: int
    omega: float
    no_density_truth: bool
    converged: bool
    message: str = ""


@dataclass
class ExperimentReport:
    plan_summary: dict
    rows: tuple
    aggregates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.aggregates:
            self.aggregates = compute_aggregates(self.rows)


def cell_seed(master: int, n_index: int, kappa_index: int, replicate: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(n_index, kappa_index, replicate))
    return int(ss.generate_state(1)[0])


def _degrees(n: int, kappa: float, m_opt: Optional[int]) -> tuple:
    """(m_trunc, m_opt) for a cell: the rule's degree and twice it, or half
    the given m_opt, which must be at least 2, and m_opt.

    The rule's degree is clamped to at least 1 (the rule is 0 at any
    desk-scale n); the optimization degree is twice the truncation degree
    so the mass beyond the kept block is estimated rather than aliased.
    """
    if m_opt is None:
        m_trunc = max(m_rule(n, kappa), 1)
        return m_trunc, 2 * m_trunc
    m_opt = as_type(m_opt, int, "m_opt")
    if m_opt < 2:
        raise ConfigError(f"m_opt must be >= 2, got {m_opt}")
    return m_opt // 2, m_opt


def cf_box_error(poly: TaylorPoly, model: OracleModel, grid: QuadratureGrid) -> float:
    """L2 distance between candidate and oracle CF over the working box."""
    full_c = poly_tables(poly, grid)[0]
    full_r = model.tables(grid)[0]
    diff = np.abs(full_c - full_r) ** 2
    return float(math.sqrt(max(float(grid.w1 @ diff @ grid.w2), 0.0)))


@dataclass(frozen=True)
class EstimateOutcome:
    result: object
    density: DensityGrid
    m_trunc: int
    m_opt: int
    omega: float


def estimate_once(table: EcfTable, grid: QuadratureGrid, lattice: LatticeSpec, *,
                  kappa: float, S: float, m_opt: Optional[int] = None,
                  restarts: int = 4, seed: int = 0,
                  deadline: float = math.inf) -> EstimateOutcome:
    """One full estimation pass on a sample's ECF table, its one data input.

    Anything but an `EcfTable` of the grid is refused before any work.  The
    table's n sets the stop level and, without m_opt, both degrees by the
    theoretical rule (truncation clamped to at least 1, optimization at
    twice it).  The inversion window is `omega_rule` at the grid's nu.
    `deadline` (a time.monotonic() value) stops the minimizer at its first
    iterate after it.

    A start stops at resolution (contrast <= RESOLUTION / n, set by
    `minimize_contrast`) or on FTOL; a random restart runs only after an
    unconverged start.  `result.converged` is True iff the chosen start
    stopped at resolution or scipy status 0.
    """
    _ref_tables(table, grid)
    params = UpsilonParams(kappa=kappa, S=S)
    m_trunc, m_opt = _degrees(table.n, params.kappa, m_opt)
    result = minimize_contrast(table, grid, params, m_opt, restarts=restarts, seed=seed,
                               deadline=deadline)
    omega = omega_rule(m_trunc, params.kappa, params.S, grid.nu, grid.d)
    density = invert(truncate(result.estimate, m_trunc), omega, lattice)
    return EstimateOutcome(result=result, density=density, m_trunc=m_trunc,
                           m_opt=m_opt, omega=omega)


def _run_cell(plan, model, grid, truth, n_idx, k_idx, rep) -> CellResult:
    n, kappa = plan.n_list[n_idx], plan.kappa_grid[k_idx]
    seed = cell_seed(plan.seed, n_idx, k_idx, rep)
    m_trunc, m_opt = _degrees(n, kappa, plan.m_opt)
    budget = math.inf if plan.cell_budget_s is None else plan.cell_budget_s
    deadline = time.monotonic() + budget
    try:
        table = ecf_table_for_grid(plan.scenario.sample(n, seed), grid)
        out = estimate_once(
            table, grid, plan.lattice, kappa=kappa, S=plan.S, m_opt=m_opt,
            restarts=plan.restarts, seed=seed, deadline=deadline,
        )
        result, density = out.result, out.density
        cf_err = cf_box_error(result.estimate, model, grid)
        if truth is None:
            l2_raw, l2_aligned = float("nan"), float("nan")
            shift = (0.0,) * plan.scenario.d
        else:
            l2_raw = truth_l2(density, truth)
            shift, l2_aligned = translation_align(density, truth, ALIGN_WINDOW, ALIGN_STEP)
        status = "ok"
        if time.monotonic() > deadline:
            status = "timeout"
        return CellResult(
            n=n, kappa=kappa, replicate=rep, seed=seed, status=status,
            contrast_value=result.value, cf_box_error=cf_err,
            l2_raw=l2_raw, l2_aligned=l2_aligned, shift=tuple(shift),
            m_trunc=m_trunc, m_opt=m_opt, omega=out.omega,
            no_density_truth=truth is None, converged=result.converged,
        )
    except (ConfigError, NumericalError) as exc:
        return CellResult(
            n=n, kappa=kappa, replicate=rep, seed=seed,
            status="error", contrast_value=float("nan"),
            cf_box_error=float("nan"), l2_raw=float("nan"),
            l2_aligned=float("nan"), shift=(0.0,) * plan.scenario.d,
            m_trunc=m_trunc, m_opt=m_opt, omega=float("nan"),
            no_density_truth=truth is None, converged=False,
            message=f"{type(exc).__name__}: {exc}",
        )


def run(plan: ExperimentPlan) -> ExperimentReport:
    """Execute every (n, kappa, replicate) cell of the plan."""
    scenario = plan.scenario
    grid = make_grid(plan.nu, (scenario.d1, scenario.d2), plan.nodes_per_axis)
    model = scenario.oracle()
    truth = scenario.density_truth()
    keys = [
        (ni, ki, rep)
        for ni in range(len(plan.n_list))
        for ki in range(len(plan.kappa_grid))
        for rep in range(plan.replicates)
    ]
    rows = [_run_cell(plan, model, grid, truth, *key) for key in keys]
    rows.sort(key=lambda r: (r.n, r.kappa, r.replicate))
    summary = {
        "variant": scenario.variant,
        "n_list": list(plan.n_list),
        "replicates": plan.replicates,
        "kappa_grid": list(plan.kappa_grid),
        "S": plan.S,
        "beta": plan.beta,
        "nu": plan.nu,
        "nodes_per_axis": plan.nodes_per_axis,
        "tuning_mode": plan.tuning_mode,
        "m_opt": plan.m_opt,
        "seed": plan.seed,
    }
    return ExperimentReport(plan_summary=summary, rows=tuple(rows))


_METRICS = ("contrast_value", "cf_box_error", "l2_raw", "l2_aligned")


def compute_aggregates(rows) -> dict:
    """Median and IQR per (n, kappa) over successful replicates."""
    out = {}
    cells = sorted({(r.n, r.kappa) for r in rows})
    for n, kappa in cells:
        ok = [r for r in rows if r.n == n and r.kappa == kappa and r.status == "ok"]
        entry = {
            "n_ok": len(ok),
            "n_error": sum(1 for r in rows if r.n == n and r.kappa == kappa and r.status == "error"),
            "n_timeout": sum(1 for r in rows if r.n == n and r.kappa == kappa and r.status == "timeout"),
        }
        for metric in _METRICS:
            vals = np.asarray([getattr(r, metric) for r in ok], dtype=np.float64)
            finite = vals[np.isfinite(vals)]
            if finite.size:
                entry[metric + "_median"] = float(np.median(finite))
                entry[metric + "_iqr"] = float(
                    np.percentile(finite, 75) - np.percentile(finite, 25)
                )
            else:
                entry[metric + "_median"] = float("nan")
                entry[metric + "_iqr"] = float("nan")
        out[f"n={n} kappa={kappa:.17g}"] = entry
    return out


@dataclass(frozen=True)
class RateFit:
    slope: float
    ci_low: float
    ci_high: float
    n_points: int


def fit_rate(report: ExperimentReport, quantity: str = "cf_box_error",
             kappa: Optional[float] = None, bootstrap: int = 200,
             seed: int = 0) -> RateFit:
    """Log-log slope of the median error against n, with a bootstrap CI.

    Needs at least three sample sizes; exact-zero medians mean the quantity
    is degenerate and there is no rate to fit.
    """
    if quantity not in _METRICS:
        raise ConfigError(f"unknown quantity {quantity!r}")
    rows = [r for r in report.rows if r.status == "ok"]
    if kappa is not None:
        rows = [r for r in rows if r.kappa == kappa]
    ns = sorted({r.n for r in rows})
    if len(ns) < 3:
        raise ConfigError("rate fitting needs at least three sample sizes")
    groups = []
    for n in ns:
        vals = np.asarray(
            [getattr(r, quantity) for r in rows if r.n == n], dtype=np.float64
        )
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            raise ConfigError(f"no finite values at n={n}")
        groups.append(vals)
    medians = np.array([np.median(g) for g in groups])
    if np.any(medians <= 0):
        raise ConfigError("degenerate zero errors; no rate to fit")
    log_n = np.log(np.asarray(ns, dtype=np.float64))
    slope = float(np.polyfit(log_n, np.log(medians), 1)[0])
    rng = np.random.default_rng(seed)
    boot = np.empty(bootstrap)
    for b in range(bootstrap):
        med = np.array([
            np.median(rng.choice(g, size=g.size, replace=True)) for g in groups
        ])
        med = np.maximum(med, 1e-300)
        boot[b] = np.polyfit(log_n, np.log(med), 1)[0]
    return RateFit(
        slope=slope,
        ci_low=float(np.percentile(boot, 2.5)),
        ci_high=float(np.percentile(boot, 97.5)),
        n_points=len(ns),
    )


# ---------------------------------------------------------------------------
# adaptive pipeline (sample splitting pilot, then full-sample selection)


@dataclass(frozen=True)
class AdaptiveOutcome:
    kappa_hat: float
    c_sigma: float
    sigma_at: dict
    selection: object
    chosen: DensityGrid
    full: dict


def adapt_from_samples(samples, grid: QuadratureGrid, lattice: LatticeSpec, *,
                       kappa_grid, S: float, beta: float, restarts: int = 4,
                       seed: int = 0) -> AdaptiveOutcome:
    """Data-driven kappa selection on a fixed sample, given as a row source
    (a `SampleSet`, or a `RowStream` such as `ScenarioSpec.stream`).

    The sample is tabulated once, as the ECF tables of its two halves,
    rows [0, n // 2) and the rest (`split`), the head read first.  The
    penalty scale comes from a split pilot: each half's table yields a
    reconstruction per candidate kappa, and the largest rescaled
    half-vs-half distance calibrates c_sigma.  Full-sample reconstructions,
    from the halves' pooled table, then feed the pairwise-comparison
    selector.  The kappa grid is checked as the selector checks it
    (`adaptive.check_kappas`), and beta converted, before any table; a
    sample that is not a `RowSource` is refused first.
    """
    check_instance(samples, RowSource, "samples")
    kappa_grid = tuple(as_type(k, float, "kappa_grid") for k in kappa_grid)
    check_kappas(kappa_grid)
    beta = as_type(beta, float, "beta")
    n = samples.n
    if n < 24:
        raise ConfigError(f"adaptation needs n >= 24, so that each half sample has a "
                          f"truncation rule; the sample has {n} observations")
    table1, table2 = (ecf_table_for_grid(half, grid) for half in samples.split(n // 2))
    table_full = pooled(table1, table2)
    pilot_rows = []
    full_grids = {}
    for kappa in kappa_grid:
        opts = dict(kappa=kappa, S=S, restarts=restarts, seed=seed)
        g1 = estimate_once(table1, grid, lattice, **opts).density
        g2 = estimate_once(table2, grid, lattice, **opts).density
        pilot_rows.append((kappa, g1, g2))
        full_grids[kappa] = estimate_once(table_full, grid, lattice, **opts).density
    c_sigma = pilot_c_sigma(pilot_rows, n, beta)
    report = select_kappa(full_grids, n, beta, c_sigma)
    sigma_at = {k: sigma_rule(n, k, beta, c_sigma) for k in kappa_grid}
    return AdaptiveOutcome(
        kappa_hat=report.kappa_hat, c_sigma=c_sigma, sigma_at=sigma_at,
        selection=report, chosen=full_grids[report.kappa_hat], full=full_grids,
    )


@dataclass(frozen=True)
class AdaptiveCell:
    n: int
    seed: int
    kappa_hat: float
    c_sigma: float
    sigma_at: dict
    aligned_error: float
    shift: tuple
    rows: tuple


def adaptive_run(plan: ExperimentPlan, n: int, seed: int) -> AdaptiveCell:
    """One adaptive selection pass at sample size n, scored against truth.
    The sample streams into its two half tables (`ScenarioSpec.stream`), so
    no stage holds more than a few row blocks of it.  It runs at the
    theoretical degrees, so it refuses override tuning."""
    if plan.tuning_mode == "override":
        raise ConfigError("adaptive_run would ignore an override plan's m_opt")
    scenario = plan.scenario
    grid = make_grid(plan.nu, (scenario.d1, scenario.d2), plan.nodes_per_axis)
    truth = scenario.density_truth()
    outcome = adapt_from_samples(
        scenario.stream(n, seed), grid, plan.lattice, kappa_grid=plan.kappa_grid, S=plan.S,
        beta=plan.beta, restarts=plan.restarts, seed=seed,
    )
    if truth is None:
        aligned, shift = float("nan"), (0.0,) * scenario.d
    else:
        shift, aligned = translation_align(outcome.chosen, truth, ALIGN_WINDOW, ALIGN_STEP)
    return AdaptiveCell(
        n=n, seed=seed, kappa_hat=outcome.kappa_hat, c_sigma=outcome.c_sigma,
        sigma_at=outcome.sigma_at, aligned_error=aligned, shift=tuple(shift),
        rows=outcome.selection.rows,
    )
