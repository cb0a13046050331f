"""Translation-aligned CF error of an estimate against the oracle.

The empirical contrast is invariant under phi(t) -> phi(t) exp(i t.a), so
an estimate is identified only up to a shift a of the signal.  The raw box
error (`runner.cf_box_error`) therefore mostly measures that arbitrary
shift.  The aligned error is

    min over a in R^d of  sqrt( sum_t w(t) |phi_hat(t) exp(i t.a) - phi_R(t)|^2 )

on the workload's quadrature grid.  Writing z = w phi_hat conj(phi_R), the
shift only enters through F(a) = Re sum_t z(t) exp(i t.a), and the tensor
grid splits exp(i t.a) into a block-1 and a block-2 factor, so F on a whole
grid of shifts is one small matrix product.  The search takes the best
point of that grid (which contains a = 0), refines it with BFGS on the
exact gradient, and returns the smallest of the three direct evaluations.
At a = 0 the direct evaluation is the same arithmetic as `cf_box_error`,
so the aligned error never exceeds the raw one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

SHIFT_HALF = 3.0
SHIFT_STEP = 0.25


def _shift_grid(d: int) -> np.ndarray:
    k = int(round(SHIFT_HALF / SHIFT_STEP))
    axis = np.arange(-k, k + 1) * SHIFT_STEP
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _direct(est, ref, grid, pts1, pts2, shift) -> float:
    d1 = pts1.shape[1]
    phase = np.outer(np.exp(1j * (pts1 @ shift[:d1])), np.exp(1j * (pts2 @ shift[d1:])))
    diff = np.abs(est * phase - ref) ** 2
    return math.sqrt(max(float(grid.w1 @ diff @ grid.w2), 0.0))


def aligned_cf_error(est: np.ndarray, ref: np.ndarray, grid) -> tuple:
    """(aligned error, shift) for full-grid CF tables `est` and `ref`."""
    pts1, pts2 = grid.block1_points, grid.block2_points
    d1 = pts1.shape[1]
    z = np.outer(grid.w1, grid.w2) * est * np.conj(ref)
    s1, s2 = _shift_grid(d1), _shift_grid(pts2.shape[1])
    coarse = np.real(np.exp(1j * (pts1 @ s1.T)).T @ z @ np.exp(1j * (pts2 @ s2.T)))
    i, j = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    start = np.concatenate([s1[i], s2[j]])

    def neg_f(a):
        e1 = np.exp(1j * (pts1 @ a[:d1]))
        e2 = np.exp(1j * (pts2 @ a[d1:]))
        u, v = e1 @ z, z @ e2
        f = np.real(u @ e2)
        grad = np.concatenate([
            np.real(1j * (pts1 * e1[:, None]).T @ v),
            np.real(1j * (pts2 * e2[:, None]).T @ u),
        ])
        return -f, -grad

    refined = minimize(neg_f, start, jac=True, method="BFGS", options={"gtol": 1e-12}).x
    candidates = [np.zeros(grid.d), start, refined]
    errors = [_direct(est, ref, grid, pts1, pts2, a) for a in candidates]
    best = int(np.argmin(errors))
    return errors[best], tuple(float(x) for x in candidates[best])


def phase_self_test(model, grid) -> tuple:
    """Score the oracle itself after an off-grid shift: the aligned error
    must vanish and the raw error must not.  Returns (aligned, raw)."""
    ref = model.tables(grid)[0]
    shift = np.resize([0.37, -0.52, 0.81, -0.13], grid.d)
    d1 = grid.dims[0]
    phase = np.outer(np.exp(-1j * (grid.block1_points @ shift[:d1])),
                     np.exp(-1j * (grid.block2_points @ shift[d1:])))
    shifted = ref * phase
    aligned, _ = aligned_cf_error(shifted, ref, grid)
    raw = _direct(shifted, ref, grid, grid.block1_points, grid.block2_points,
                  np.zeros(grid.d))
    return aligned, raw
