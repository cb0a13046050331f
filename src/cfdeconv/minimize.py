"""Multi-start L-BFGS-B minimization of the empirical contrast.

`minimize_contrast` takes the table, grid, class and degree, and stops a
start at the table's own level, RESOLUTION / table.n.

The decision variable is the real parity-reduced coefficient vector of a
TaylorPoly; the admissible class is a box in it (pinned unit value at zero,
per-order modulus caps), the bounds of scipy's L-BFGS-B.  Every start,
iterate and final iterate is valued, with its exact gradient, from the
table's moment matrices (`contrast.ContrastMoments`, the library's one
contrast engine), built once per minimization and shared by its starts:
small contractions whose cost does not depend on the quadrature grid.  The
reported contrast is the one the descent minimized, and `contrast_empirical`
of the estimate, which builds its own moment object, returns it to the bit.

While its starts run, `minimize_contrast` holds both OpenBLAS pools,
numpy's and the one scipy's L-BFGS-B links, at one thread
(`_util.one_blas_thread`): the idle workers of scipy's pool otherwise
contend with numpy's for the cores during the contrast's products, and a
product's last bits depend on its pool's thread count, so under the hold
the iterates do not depend on the core count or OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._util import ConfigError, as_type, check_instance, one_blas_thread
from .contrast import ContrastMoments, QuadratureGrid, _ref_tables
# module attributes kept for callers that look them up here (perfbench/tracer.py)
from .contrast import contrast_empirical, contrast_gradient  # noqa: F401
from .ecf import EcfTable
from .multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    _bound_vector,
    block_split,
    index_table,
    parity_phase,
    project_upsilon,
    random_member,
)

# the truth's own contrast is O(1/n), so minimizing below RESOLUTION / n,
# n the table's, fits sampling noise; FTOL is L-BFGS-B's relative-reduction
# stop on contrast / (RESOLUTION / n), for starts that cannot reach that
# level, and MAX_ITERS its iteration limit per start
RESOLUTION = 0.01
FTOL = 1e-3
MAX_ITERS = 400


@dataclass
class MinimizeResult:
    """The best start's estimate, value and value trace (start, iterates).

    Every value is the moment form's (`contrast.ContrastMoments`), the one
    the descent minimized, so `trace[-1] == value`, and `value` is
    `contrast_empirical(estimate, table, grid)` to the bit.

    `reason` says why it stopped: "resolution" (contrast <= RESOLUTION /
    table.n), "ftol" or "gtol" (scipy status 0), "max_iters" (iteration or
    evaluation limit), "abnormal" (failed line search) or "deadline";
    `converged` is True iff it is one of the first three.  `reasons` holds
    every start's, in order: each but the last is unconverged, since only
    those lead to another start.
    """

    estimate: TaylorPoly
    value: float
    trace: np.ndarray
    restarts_used: int
    converged: bool
    reason: str
    reasons: tuple


def _ls_init(table: EcfTable, grid: QuadratureGrid, m_opt: int, tables: tuple) -> TaylorPoly:
    """Weighted least-squares fit of the ECF on the full grid, then projection.

    `tables` are the grid's (U, W) monomial tables (`pattern_tables`) of
    degree at least m_opt, such as the degree-2 m_opt ones that
    `ContrastMoments` builds: their columns are graded by degree, so the
    leading `block_split` counts of them are the degree-m_opt tables.

    The weighted design is kron(sqrt(w1) U, sqrt(w2) W) restricted to the
    (p1, p2) pattern pairs and phased.  With reduced QRs sqrt(w1) U = Q1 R1
    and sqrt(w2) W = Q2 R2 it is kron(Q1, Q2) times the small design
    R1[:, p1] * R2[:, p2] * phase.  kron(Q1, Q2) has orthonormal real
    columns, so the small design keeps the full one's singular values (a
    Gram matrix would square its condition number), and the fit to the ECF
    projected onto those columns has the same minimizers, the minimum-norm
    one included.  The grid-sized design is never formed.  Real and
    imaginary parts are stacked so the parity-reduced coordinates stay
    real.  The pinned zero coefficient's column is the constant 1; it is
    subtracted from the table before projecting, so a flat table fits
    exactly.
    """
    p1, p2, n1, n2 = block_split(grid.dims, m_opt)
    U, W = tables[0][:, :n1], tables[1][:, :n2]
    sqw1, sqw2 = np.sqrt(grid.w1)[:, None], np.sqrt(grid.w2)[:, None]
    Q1, R1 = np.linalg.qr(sqw1 * U)
    Q2, R2 = np.linalg.qr(sqw2 * W)
    phase = parity_phase(grid.d, m_opt)
    design = (R1[:, None, p1] * R2[None, :, p2]).reshape(-1, phase.shape[0]) * phase
    rhs = ((sqw1 * Q1).T @ (table.full - 1.0) @ (sqw2 * Q2)).reshape(-1)
    lhs = design[:, 1:]
    stacked = np.concatenate([lhs.real, lhs.imag], axis=0)
    stacked_rhs = np.concatenate([rhs.real, rhs.imag])
    theta_rest, *_ = np.linalg.lstsq(stacked, stacked_rhs, rcond=None)
    theta = np.concatenate([[1.0], theta_rest])
    return TaylorPoly(grid.dims, m_opt, theta, cf_candidate=True)


_CONVERGED = ("resolution", "ftol", "gtol")
_LAST = _CONVERGED + ("deadline",)  # reasons after which no start follows


def _descend(moments: ContrastMoments, start: TaylorPoly, box, tol: float,
             deadline: float) -> tuple:
    """(final iterate, its contrast, contrast trace, stop reason) of L-BFGS-B
    on contrast / tol from `start`, every point valued by `moments`; the
    last evaluated point is kept for the callback's iterate."""
    from scipy import optimize

    last = [start, *moments.evaluate(start)]
    trace = [last[1]]
    if trace[0] <= tol:
        return start, trace[0], trace, "resolution"

    def evaluate(x):
        if not np.array_equal(x, last[0].theta):
            poly = TaylorPoly(start.dims, start.max_degree, x)
            last[:] = poly, *moments.evaluate(poly)
        return last

    def fun(x):
        _, value, grad = evaluate(x)
        return value / tol, grad / tol

    def callback(intermediate_result):
        trace.append(evaluate(intermediate_result.x)[1])
        if trace[-1] <= tol or time.monotonic() > deadline:
            raise StopIteration

    res = optimize.minimize(fun, start.theta, jac=True, method="L-BFGS-B", bounds=box,
                            callback=callback, options={"maxiter": MAX_ITERS, "ftol": FTOL})
    # res.x is the last iterate, also after a failed line search; the stop
    # reason is the one the descent saw
    poly, value, _ = evaluate(res.x)
    if value <= tol:
        reason = "resolution"
    elif res.status == 99:  # the callback raised StopIteration: past the deadline
        reason = "deadline"
    elif res.status == 0:
        reason = "gtol" if "PGTOL" in res.message else "ftol"
    else:
        reason = "max_iters" if res.status == 1 else "abnormal"
    trace[-1] = value
    return poly, value, trace, reason


def minimize_contrast(table: EcfTable, grid: QuadratureGrid, params: UpsilonParams,
                      m_opt: int, *, restarts: int = 4, seed: int = 0,
                      deadline: float = math.inf) -> MinimizeResult:
    """Multi-start L-BFGS-B on the degree-m_opt contrast over Upsilon(params).

    Start 0 is the projected least-squares fit to the ECF.  A start stops at
    its first iterate (the start included) with contrast <= RESOLUTION /
    table.n, on L-BFGS-B's FTOL or projected-gradient test, after MAX_ITERS
    iterations, or past `deadline` (a time.monotonic() value, or inf).  A start
    drawn uniformly in Upsilon (generator seeded by `seed`) runs only after
    an unconverged one that met no deadline, up to `restarts` starts.  The
    lowest contrast wins, the earliest start on ties.  One `ContrastMoments`
    of the table values every start's points, and the least-squares start
    fits with the leading columns of its monomial tables.  A non-table, a table of another grid
    or of n < 1, params that are no `UpsilonParams`, m_opt or restarts < 1,
    seed < 0 and a deadline that is no float or is NaN are refused before
    any start.

    The starts run with both OpenBLAS pools held at one thread
    (`_util.one_blas_thread`, see the module docstring).
    """
    from scipy import optimize

    check_instance(params, UpsilonParams, "params")
    m_opt, restarts, seed = (as_type(value, int, key) for value, key in
                             ((m_opt, "m_opt"), (restarts, "restarts"), (seed, "seed")))
    for key, value, low in (("m_opt", m_opt, 1), ("restarts", restarts, 1), ("seed", seed, 0)):
        if value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")
    deadline = as_type(deadline, float, "deadline")
    if math.isnan(deadline):
        raise ConfigError("deadline must be a time.monotonic() value or inf, got nan")
    _ref_tables(table, grid)
    if table.n < 1:
        raise ConfigError(f"the stop level needs a table of n >= 1 observations, got {table.n}")
    tol = RESOLUTION / table.n
    bounds = _bound_vector(grid.d, m_opt, params)
    pinned = index_table(grid.d, m_opt)[1] == 0
    box = optimize.Bounds(np.where(pinned, 1.0, -bounds), np.where(pinned, 1.0, bounds))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    runs = []
    with one_blas_thread():
        moments = ContrastMoments(table, grid, m_opt)
        while len(runs) < restarts and (not runs or runs[-1][3] not in _LAST):
            start = (random_member(params, grid.dims, m_opt, rng) if runs
                     else _ls_init(table, grid, m_opt, moments.tables))
            runs.append(_descend(moments, project_upsilon(start, params), box, tol, deadline))
    estimate, value, trace, reason = min(runs, key=lambda run: run[1])
    return MinimizeResult(
        estimate=estimate,
        value=value,
        trace=np.array(trace),
        restarts_used=len(runs),
        converged=reason in _CONVERGED,
        reason=reason,
        reasons=tuple(run[3] for run in runs),
    )
