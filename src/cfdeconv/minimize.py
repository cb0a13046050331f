"""Projected multi-start minimization of the empirical contrast.

The decision variable is the real parity-reduced coefficient vector of a
TaylorPoly; feasibility (pinned unit value at zero, per-order modulus caps)
is restored by projection after every accepted step.  The gradient is exact:
the contrast is a quadratic form of the candidate's grid tables, which factor
through the pattern matrices, so each partial derivative reduces to entries
of three small matrix products.  A candidate's tables and defect are built
once and serve both its value and, when the step is accepted, its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import ConfigError, NumericalError
from .contrast import QuadratureGrid, _GridTables, _defect, _empirical_value, _ref_tables, poly_tables
# module attribute kept for callers that look it up here (perfbench/tracer.py)
from .contrast import contrast_empirical  # noqa: F401
from .ecf import EcfTable
from .multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    _bound_vector,
    _project_theta,
    parity_phase,
    project_upsilon,
)

# _ls_init refuses a dense design above this many bytes, before allocating
# it.  With its temporaries the fit's resident memory grows by 4.0 times the
# design (measured at d1=d2=2, 16-24 nodes, m_opt 2 and 4), so the limit
# keeps the peak near 6 GB, inside a 7 GB machine.  At d1=d2=2 and 48 nodes
# per axis the design takes 1.27 GB at m_opt 2 and 5.95 GB at m_opt 4.
LS_DESIGN_MAX_BYTES = 1_500_000_000

# backtracking starts at this step length and halves it until the Armijo
# condition (decrease >= ARMIJO * step * |grad|^2) holds; a restart stops
# once the gradient norm falls below GRAD_TOL
STEP_INIT = 1.0
ARMIJO = 1e-4
GRAD_TOL = 1e-9


@dataclass
class MinimizeConfig:
    """Knobs for the projected-gradient search.

    tol is the absolute improvement below which the run is considered
    stalled (checked over a 25-iteration window); callers typically set it
    to 1/n for a sample of size n.
    """

    params: UpsilonParams
    m_opt: int
    tol: float
    restarts: int = 4
    max_iters: int = 400
    stall_window: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.m_opt < 1:
            raise ConfigError(f"m_opt must be >= 1, got {self.m_opt}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.tol <= 0 or self.max_iters < 1:
            raise ConfigError("tol must be positive and max_iters >= 1")


@dataclass
class MinimizeResult:
    """The best restart's estimate, value and value trace.

    `reason` says why that restart stopped: "grad_tol" (gradient norm below
    GRAD_TOL), "stall" (improvement over the stall window below tol),
    "no_descent" (no backtracked step met the Armijo condition) or
    "max_iters".  `converged` is False only for "max_iters".  `reasons`
    holds every restart's stop reason in restart order.
    """

    estimate: TaylorPoly
    value: float
    trace: np.ndarray
    restarts_used: int
    converged: bool
    grad_norm: float
    reason: str
    reasons: tuple


class _Point(NamedTuple):
    """A candidate with its grid tables, defect table and contrast value."""

    poly: TaylorPoly
    tables: tuple
    defect: np.ndarray
    value: float


class _Evaluator:
    """Empirical contrast value and exact gradient of TaylorPoly candidates
    of one degree against one ECF table.

    `point` builds a candidate's tables and defect once; `gradient` reuses
    them, so a value and a gradient at the same candidate cost one table
    pass.  The grid's weight outer product is formed once per evaluator.
    """

    def __init__(self, table: EcfTable, grid: QuadratureGrid, max_degree: int):
        self.ref = _ref_tables(table, grid)
        self.grid = grid
        self.gt = _GridTables.get(grid, max_degree)
        self.weights = grid.w1[:, None] * grid.w2[None, :]

    def point(self, poly: TaylorPoly) -> _Point:
        tables = poly_tables(poly, self.grid)
        A = _defect(tables, self.ref)
        return _Point(poly, tables, A, _empirical_value(A, self.grid))

    def gradient(self, pt: _Point) -> np.ndarray:
        """Partial derivatives in the theta coordinates; pinned coordinates
        (the unit value at the zero index) get 0."""
        gt, poly = self.gt, pt.poly
        _, first_p, second_p = pt.tables
        full_r, first_r, second_r = self.ref
        B = self.weights * np.conj(pt.defect)
        # keep the outer product an inline temporary: on large grids numpy
        # then multiplies by B in its buffer, whose rounding differs from a
        # product with a stored array (test_bit_equal_to_public_functions)
        T1 = gt.U.T @ (B * (first_r[:, None] * second_r[None, :])) @ gt.W
        BF = B * full_r
        S1 = gt.U.T @ (BF @ second_p)
        S2 = gt.W.T @ (BF.T @ first_p)
        phase = parity_phase(poly.d, poly.max_degree)
        inner = T1[gt.p1, gt.p2]
        inner = inner - np.where(gt.p2 == 0, S1[gt.p1], 0.0)
        inner = inner - np.where(gt.p1 == 0, S2[gt.p2], 0.0)
        grad = 2.0 * np.real(phase * inner)
        if poly.cf_candidate:
            grad[0] = 0.0
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite contrast gradient")
        return grad


def contrast_gradient(poly: TaylorPoly, table: EcfTable, grid: QuadratureGrid) -> np.ndarray:
    """Exact gradient of the empirical contrast in the theta coordinates.

    Pinned coordinates (the unit value at the zero index) get gradient 0.
    """
    if poly.dims != grid.dims:
        raise ConfigError(f"poly dims {poly.dims} != grid dims {grid.dims}")
    ev = _Evaluator(table, grid, poly.max_degree)
    return ev.gradient(ev.point(poly))


def _check_ls_design(grid: QuadratureGrid, n_idx: int) -> None:
    """Raise ConfigError if _ls_init's dense design exceeds LS_DESIGN_MAX_BYTES."""
    design_bytes = 16 * grid.nodes_per_axis**grid.d * n_idx
    if design_bytes > LS_DESIGN_MAX_BYTES:
        raise ConfigError(
            f"the least-squares start needs a {design_bytes / 1e9:.2f} GB design "
            f"({grid.nodes_per_axis}^{grid.d} grid points x {n_idx} coefficients), over the "
            f"{LS_DESIGN_MAX_BYTES / 1e9:.2f} GB limit; use fewer nodes per axis"
        )


def _ls_init(table: EcfTable, grid: QuadratureGrid, m_opt: int) -> TaylorPoly:
    """Weighted least-squares fit of the ECF on the full grid, then projection.

    The real/imaginary parts are stacked so the parity-reduced coordinates
    stay real; the pinned zero coefficient is moved to the right-hand side.
    The dense (grid points x coefficients) design is refused with a
    ConfigError when it would exceed LS_DESIGN_MAX_BYTES.
    """
    phase = parity_phase(grid.d, m_opt)
    n_idx = phase.shape[0]
    _check_ls_design(grid, n_idx)
    gt = _GridTables.get(grid, m_opt)
    design = (
        gt.U[:, gt.p1].reshape(gt.U.shape[0], 1, n_idx)
        * gt.W[:, gt.p2].reshape(1, gt.W.shape[0], n_idx)
    ).reshape(-1, n_idx) * phase
    sqw = np.sqrt(np.outer(grid.w1, grid.w2)).reshape(-1)
    target = table.full.reshape(-1) - design[:, 0]
    lhs = design[:, 1:] * sqw[:, None]
    rhs = target * sqw
    stacked = np.concatenate([lhs.real, lhs.imag], axis=0)
    stacked_rhs = np.concatenate([rhs.real, rhs.imag])
    theta_rest, *_ = np.linalg.lstsq(stacked, stacked_rhs, rcond=None)
    theta = np.concatenate([[1.0], theta_rest])
    return TaylorPoly(grid.dims, m_opt, theta, cf_candidate=True)


def minimize_contrast(table: EcfTable, grid: QuadratureGrid, config: MinimizeConfig) -> MinimizeResult:
    """Multi-start projected gradient descent on the empirical contrast.

    Start 0 is the projected least-squares fit to the ECF; the remaining
    starts draw coefficients uniformly inside their modulus boxes.  Each
    accepted iterate is the projection of a backtracked gradient step
    (halving from STEP_INIT with an Armijo condition).  Every candidate is
    built once, from the projected step coordinates, and evaluated once; an
    accepted one's gradient reuses that evaluation.
    Ties across restarts resolve to the earliest restart index.
    """
    bounds = _bound_vector(grid.d, config.m_opt, config.params)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    starts = [project_upsilon(_ls_init(table, grid, config.m_opt), config.params)]
    for _ in range(config.restarts - 1):
        theta = rng.uniform(-1.0, 1.0, size=bounds.shape[0])
        theta *= np.where(np.isfinite(bounds), bounds, 1.0)
        theta = _project_theta(theta, grid.d, config.m_opt, config.params)
        starts.append(TaylorPoly(grid.dims, config.m_opt, theta))

    ev = _Evaluator(table, grid, config.m_opt)
    best, reasons = None, []
    for r_idx, start in enumerate(starts):
        pt = ev.point(start)
        trace = [pt.value]
        grad = ev.gradient(pt)
        reason = "max_iters"
        for it in range(config.max_iters):
            gnorm = float(np.linalg.norm(grad))
            if gnorm < GRAD_TOL:
                reason = "grad_tol"
                break
            step = STEP_INIT
            accepted = None
            while step > 1e-14:
                theta = _project_theta(pt.poly.theta - step * grad, grid.d, config.m_opt,
                                       config.params)
                cand_pt = ev.point(TaylorPoly(grid.dims, config.m_opt, theta))
                if cand_pt.value <= pt.value - ARMIJO * step * gnorm**2:
                    accepted = cand_pt
                    break
                step *= 0.5
            if accepted is None:
                reason = "no_descent"
                break
            pt = accepted
            trace.append(pt.value)
            grad = ev.gradient(pt)
            window = config.stall_window
            if len(trace) > window and trace[-window - 1] - pt.value < config.tol:
                reason = "stall"
                break
        reasons.append(reason)
        entry = (pt.value, r_idx, pt.poly, np.array(trace), reason, float(np.linalg.norm(grad)))
        if best is None or entry[0] < best[0]:
            best = entry
    value, r_idx, poly, trace, reason, gnorm = best
    return MinimizeResult(
        estimate=poly,
        value=value,
        trace=trace,
        restarts_used=len(starts),
        converged=reason != "max_iters",
        grad_norm=gnorm,
        reason=reason,
        reasons=tuple(reasons),
    )
