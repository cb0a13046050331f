"""Lepski-style selection of the tail exponent from a candidate grid.

Each candidate kappa' yields a reconstruction; the selector balances the
pairwise spread of reconstructions against a penalty sigma_n(kappa') that
decreases in kappa'.  The penalty scale c_sigma is either supplied or
calibrated by a sample-splitting pilot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._util import ConfigError, as_type
from .reconstruct import DensityGrid, l2_distance


def sigma_rule(n: int, kappa_prime: float, beta: float, c_sigma: float) -> float:
    """Penalty c_sigma (log n / log log n)^(-kappa' beta).

    Needs n >= 3 so log log n is positive.  At n = e^e the base is exactly e
    and the penalty is c_sigma e^(-kappa' beta).
    """
    n = as_type(n, int, "n")
    kappa_prime, beta, c_sigma = (as_type(value, float, key) for value, key in (
        (kappa_prime, "kappa'"), (beta, "beta"), (c_sigma, "c_sigma")))
    if n < 3:
        raise ConfigError(f"n must be >= 3, got {n}")
    if kappa_prime <= 0 or beta <= 0 or c_sigma <= 0:
        raise ConfigError("kappa', beta and c_sigma must be positive")
    base = math.log(n) / math.log(math.log(n))
    return float(c_sigma * base ** (-kappa_prime * beta))


@dataclass(frozen=True)
class SelectionRow:
    kappa: float
    sigma: float
    spread: float
    criterion: float


@dataclass
class SelectionReport:
    kappa_hat: float
    rows: tuple
    c_sigma: float
    n: int
    beta: float

    def row(self, kappa: float) -> SelectionRow:
        for r in self.rows:
            if r.kappa == kappa:
                return r
        raise KeyError(kappa)


def check_kappas(kappas) -> None:
    """Refuse a set of candidate kappas that is empty, repeats a value or
    leaves (0, 1]."""
    if not kappas:
        raise ConfigError("the candidate kappas must be nonempty")
    if len(set(kappas)) != len(kappas):
        raise ConfigError("duplicate candidate kappa values")
    if any(not (0 < k <= 1) for k in kappas):
        raise ConfigError("candidate kappas must lie in (0, 1]")


def _sorted_candidates(estimates) -> list:
    items = sorted(estimates.items()) if isinstance(estimates, dict) else sorted(estimates)
    check_kappas([k for k, _ in items])
    return items


def select_kappa(
    estimates,
    n: int,
    beta: float,
    c_sigma: float,
    distance: Callable[[DensityGrid, DensityGrid], float] = l2_distance,
) -> SelectionReport:
    """Pick kappa_hat = argmin of spread(kappa') + sigma(kappa').

    estimates maps kappa' to its reconstruction (dict or (kappa, grid)
    pairs).  spread(kappa') is the positive part of the largest penalized
    deviation max_{kappa'' <= kappa'} (||f_{kappa''} - f_{kappa'}|| -
    sigma(kappa'')).  Exact criterion ties resolve to the smallest kappa';
    when all reconstructions coincide the spreads vanish and the decreasing
    penalty hands the choice to the largest kappa'.
    """
    items = _sorted_candidates(estimates)
    kappas = [k for k, _ in items]
    grids = [g for _, g in items]
    sigmas = [sigma_rule(n, k, beta, c_sigma) for k in kappas]
    rows = []
    best_idx = 0
    for j, kj in enumerate(kappas):
        worst = 0.0
        for i in range(j + 1):
            dev = distance(grids[i], grids[j]) - sigmas[i]
            if dev > worst:
                worst = dev
        crit = worst + sigmas[j]
        rows.append(SelectionRow(kappa=kj, sigma=sigmas[j], spread=worst, criterion=crit))
        if crit < rows[best_idx].criterion:
            best_idx = j
    return SelectionReport(
        kappa_hat=kappas[best_idx],
        rows=tuple(rows),
        c_sigma=float(c_sigma),
        n=int(n),
        beta=float(beta),
    )


def pilot_c_sigma(
    half_estimates: Sequence[tuple],
    n: int,
    beta: float,
    distance: Callable[[DensityGrid, DensityGrid], float] = l2_distance,
) -> float:
    """Calibrate c_sigma by sample splitting.

    half_estimates holds (kappa', grid_half1, grid_half2) rows, the two
    reconstructions computed from disjoint halves of the sample.  The pilot
    is the largest half-vs-half distance rescaled by (log n / log log n)^
    (kappa' beta), so that sigma_n(kappa') at the full n dominates the
    observed half-sample fluctuation for every candidate.
    """
    n, beta = as_type(n, int, "n"), as_type(beta, float, "beta")
    if n < 3:
        raise ConfigError(f"n must be >= 3, got {n}")
    check_kappas([row[0] for row in half_estimates])
    base = math.log(n) / math.log(math.log(n))
    best = 0.0
    for kappa, g1, g2 in half_estimates:
        best = max(best, distance(g1, g2) * base ** (kappa * beta))
    if best <= 0:
        # identical halves: degenerate but legal; keep the selector runnable
        best = 1e-12
    return float(best)
