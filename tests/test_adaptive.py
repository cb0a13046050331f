"""Tail-parameter selection: penalty rule, spread proxy, argmin logic."""

import math

import numpy as np
import pytest

from cfdeconv import ConfigError
from cfdeconv.adaptive import pilot_c_sigma, select_kappa, sigma_rule
from cfdeconv.reconstruct import DensityGrid, LatticeSpec, l2_distance


def flat_grid(value, count=5):
    lattice = LatticeSpec((0.0,), (1.0,), (count,))
    return DensityGrid(lattice, np.full(count, float(value)))


class TestSigmaRule:
    def test_formula_evaluation(self):
        for n, kappa, beta, c in ((10**4, 0.75, 1.0, 0.5), (10**6, 0.6, 2.0, 1.3)):
            base = math.log(n) / math.log(math.log(n))
            expected = c * base ** (-kappa * beta)
            assert sigma_rule(n, kappa, beta, c) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decrease_in_kappa(self):
        n = 10**5
        grid = np.linspace(0.55, 1.0, 10)
        vals = [sigma_rule(n, k, 1.0, 1.0) for k in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_n_rejected(self):
        # log log n must be positive
        with pytest.raises(ConfigError):
            sigma_rule(2, 0.75, 1.0, 1.0)

    def test_positive_c_sigma_required(self):
        with pytest.raises(ConfigError):
            sigma_rule(10**4, 0.75, 1.0, 0.0)


class TestSelectKappa:
    def test_identical_estimates_pick_largest(self):
        grids = {k: flat_grid(1.0) for k in (0.55, 0.7, 0.85, 1.0)}
        report = select_kappa(grids, 10**4, 1.0, 0.5)
        assert report.kappa_hat == 1.0
        for row in report.rows:
            assert row.spread == 0.0

    def test_single_point_grid(self):
        report = select_kappa({0.8: flat_grid(2.0)}, 10**4, 1.0, 0.3)
        assert report.kappa_hat == 0.8
        assert len(report.rows) == 1

    def test_two_point_spread_definition(self):
        # hand-set distance D: spread at the larger kappa is max(0, D - sigma0)
        g_lo, g_hi = flat_grid(0.0), flat_grid(3.0)
        n, beta, c_sigma = 10**4, 1.0, 0.5
        D = l2_distance(g_lo, g_hi)
        s0 = sigma_rule(n, 0.55, beta, c_sigma)
        report = select_kappa({0.55: g_lo, 1.0: g_hi}, n, beta, c_sigma)
        row_hi = report.rows[1]
        assert row_hi.spread == pytest.approx(max(0.0, D - s0), rel=1e-12)
        assert row_hi.criterion == pytest.approx(
            row_hi.spread + sigma_rule(n, 1.0, beta, c_sigma), rel=1e-12
        )

    def test_large_distance_flips_to_small_kappa(self):
        report = select_kappa(
            {0.55: flat_grid(0.0), 1.0: flat_grid(3.0)}, 10**4, 1.0, 0.5
        )
        assert report.kappa_hat == 0.55

    def test_exact_ties_resolve_to_smallest(self):
        # identical grids give zero spread; a denormal c_sigma underflows the
        # penalty to exactly 0.0 at every kappa, so all criteria tie at 0.0
        grids = {k: flat_grid(1.0) for k in (0.6, 0.8, 1.0)}
        report = select_kappa(grids, 10**4, 1.0, 5e-324)
        assert all(r.criterion == 0.0 for r in report.rows)
        assert report.kappa_hat == 0.6

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            select_kappa({}, 10**4, 1.0, 0.5)

    def test_right_extension_never_raises_minimum(self):
        # adding larger kappas leaves existing criteria untouched
        rng = np.random.default_rng(3)
        grids = {}
        for k in (0.55, 0.66, 0.77, 0.88, 1.0):
            grids[k] = flat_grid(rng.uniform(0.0, 2.0))
        small = select_kappa({k: grids[k] for k in (0.55, 0.66, 0.77)}, 10**4, 1.0, 0.4)
        large = select_kappa(grids, 10**4, 1.0, 0.4)
        min_small = min(r.criterion for r in small.rows)
        min_large = min(r.criterion for r in large.rows)
        assert min_large <= min_small + 1e-15
        # shared prefix rows identical
        for a, b in zip(small.rows, large.rows):
            assert a.criterion == pytest.approx(b.criterion, rel=1e-14)


class TestPilotCSigma:
    def test_identical_halves_floor(self):
        rows = [(0.6, flat_grid(1.0), flat_grid(1.0)), (0.9, flat_grid(2.0), flat_grid(2.0))]
        assert pilot_c_sigma(rows, 10**4, 1.0) == pytest.approx(1e-12)

    def test_hand_set_distance(self):
        n, beta = 10**4, 1.0
        base = math.log(n) / math.log(math.log(n))
        rows = [
            (0.6, flat_grid(0.0), flat_grid(1.0)),
            (0.9, flat_grid(0.0), flat_grid(0.5)),
        ]
        d1 = l2_distance(rows[0][1], rows[0][2])
        d2 = l2_distance(rows[1][1], rows[1][2])
        expected = max(d1 * base ** (0.6 * beta), d2 * base ** (0.9 * beta))
        assert pilot_c_sigma(rows, n, beta) == pytest.approx(expected, rel=1e-13)

    def test_dominates_observed_fluctuation(self):
        # calibrated penalty covers every half-vs-half distance at its kappa
        n, beta = 10**4, 1.0
        rng = np.random.default_rng(8)
        rows = []
        for k in (0.55, 0.7, 0.9):
            rows.append((k, flat_grid(rng.uniform(0, 1)), flat_grid(rng.uniform(0, 1))))
        c = pilot_c_sigma(rows, n, beta)
        for k, g1, g2 in rows:
            assert sigma_rule(n, k, beta, c) >= l2_distance(g1, g2) - 1e-12

    def test_n_converted_or_refused_by_name(self):
        rows = [(0.6, flat_grid(0.0), flat_grid(1.0))]
        assert pilot_c_sigma(rows, "100", 1.0) == pilot_c_sigma(rows, 100, 1.0)
        for bad in ("x", 100.5):
            with pytest.raises(ConfigError, match="n must be a int"):
                pilot_c_sigma(rows, bad, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            pilot_c_sigma([], 10**4, 1.0)
        with pytest.raises(ConfigError):
            pilot_c_sigma([(1.5, flat_grid(0.0), flat_grid(0.0))], 10**4, 1.0)
