"""Multi-start L-BFGS-B minimization of the empirical contrast."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize import OptimizeResult

from cfdeconv import AxisNoise, ConfigError, NumericalError, SignalSpec, make_repeated
from cfdeconv import _util
from cfdeconv import ecf as ecf_module
from cfdeconv import contrast as contrast_module
from cfdeconv import minimize as minimize_module
from cfdeconv.contrast import (
    ContrastMoments,
    contrast_empirical,
    contrast_oracle,
    ecf_table_for_grid,
    make_grid,
    pattern_tables,
    poly_tables,
)
from cfdeconv._util import CHUNK
from cfdeconv.ecf import EcfTable, SampleSet, ecf_on_grid, pooled
from cfdeconv.minimize import (
    MinimizeResult,
    _ls_init,
    contrast_gradient,
    minimize_contrast,
)
from cfdeconv.multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    block_split,
    index_table,
    parity_phase,
    random_member,
    upsilon_bound,
)
from cfdeconv.reconstruct import LatticeSpec
from cfdeconv.runner import cf_box_error, estimate_once

from test_contrast import trapezoid_grid, zero_sample_table
from test_multiindex_taylor import brute_row, poly_11


class TestGradient:
    def test_zero_at_global_minimum(self, grid24):
        # flat table and unit candidate: integrand vanishes identically
        # on the grid definition, where the zero is exact; the moment form's
        # is zero to rounding (test_complete_cancellation_is_zero)
        table = zero_sample_table(grid24)
        poly = poly_11(2, {})
        np.testing.assert_array_equal(seed_gradient(poly, table, grid24), 0.0)

    def test_mixed_term_derivative(self, grid24):
        # M_n(a) = 4 a^2 / 9 for candidate 1 + a t1 t2 at nu=1, flat table
        table = zero_sample_table(grid24)
        a = 0.9
        poly = poly_11(2, {(1, 1): a})
        grad = contrast_gradient(poly, table, grid24)
        assert grad[brute_row(index_table(2, 2)[0], (1, 1))] == pytest.approx(8.0 * a / 9.0, rel=1e-12)

    def test_pinned_coordinate_is_zero(self, grid24, rng):
        s = SampleSet(1, 1, rng.normal(size=(30, 2)))
        table = ecf_table_for_grid(s, grid24)
        poly = random_member(UpsilonParams(0.7, 1.5), (1, 1), 3, rng)
        grad = contrast_gradient(poly, table, grid24)
        assert grad[0] == 0.0

    def test_matches_central_differences(self, grid24, rng):
        params = UpsilonParams(0.75, 1.5)
        step = 1e-6
        for _ in range(20):
            s = SampleSet(1, 1, rng.normal(size=(40, 2)))
            table = ecf_table_for_grid(s, grid24)
            poly = random_member(params, (1, 1), 3, rng)
            grad = contrast_gradient(poly, table, grid24)
            for k in range(1, poly.theta.shape[0]):
                hi = poly.copy()
                hi.theta[k] += step
                lo = poly.copy()
                lo.theta[k] -= step
                fd = (
                    contrast_empirical(hi, table, grid24)
                    - contrast_empirical(lo, table, grid24)
                ) / (2 * step)
                scale = max(1.0, abs(grad[k]))
                assert abs(grad[k] - fd) <= 1e-5 * scale

    def test_grid_mismatch(self, grid24, grid48, rng):
        s = SampleSet(1, 1, rng.normal(size=(10, 2)))
        table = ecf_table_for_grid(s, grid24)
        with pytest.raises(ConfigError):
            contrast_gradient(poly_11(2, {}), table, grid48)


def seed_defect(poly, table, grid):
    """The contrast's integrand before the modulus, on every grid point."""
    full_p, first_p, second_p = poly_tables(poly, grid)
    return full_p * (table.first[:, None] * table.second[None, :]) - table.full * (
        first_p[:, None] * second_p[None, :]
    )


def seed_value(poly, table, grid, q1=1.0, q2=1.0):
    """The contrast as defined: |defect|^2 summed against the grid's weights,
    times the noise weights q1 and q2 for the oracle contrast.  The library
    values it from moments (`ContrastMoments`); this is the reference."""
    return float((grid.w1 * q1) @ (np.abs(seed_defect(poly, table, grid)) ** 2)
                 @ (grid.w2 * q2))


def seed_gradient(poly, table, grid):
    """The contrast gradient in theta, summed on the grid as the minimizer
    first computed it: the reference for the moment form's gradient."""
    U, W = pattern_tables(grid, poly.max_degree)
    _, first_p, second_p = poly_tables(poly, grid)
    B = (grid.w1[:, None] * grid.w2[None, :]) * np.conj(seed_defect(poly, table, grid))
    T1 = U.T @ (B * (table.first[:, None] * table.second[None, :])) @ W
    S1 = U.T @ ((B * table.full) @ second_p)
    S2 = W.T @ ((B * table.full).T @ first_p)
    phase = np.where(poly.orders % 2 == 0, 1.0 + 0.0j, 1.0j)
    p1, p2, _, _ = block_split(poly.dims, poly.max_degree)
    inner = T1[p1, p2]
    inner = inner - np.where(p2 == 0, S1[p1], 0.0)
    inner = inner - np.where(p1 == 0, S2[p2], 0.0)
    grad = 2.0 * np.real(phase * inner)
    grad[0] = 0.0
    return grad


class TestMoments:
    # the moment form sums three terms that cancel, so the public contrasts
    # match the grid definition to rounding, not bit for bit
    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("nu", [1.0, 3.0])
    @pytest.mark.parametrize("dims, nodes, m_opt", [
        ((1, 1), 48, 2), ((1, 1), 48, 6), ((1, 1), 48, 10), ((2, 2), 12, 4), ((2, 2), 12, 8),
    ])
    def test_matches_grid_definition(self, dims, nodes, m_opt, nu, oracle, rng):
        grid = make_grid(nu, dims, nodes)
        d = dims[0] + dims[1]
        if oracle:
            noise = AxisNoise("laplace", 0.5)
            model = make_repeated(SignalSpec("uniform", (1.0,)), noise, noise, d1=dims[0]).oracle()
            full, first, second = model.tables(grid)
            table = EcfTable(grid.grid_id, 0, first, second, full)
        else:
            table = ecf_table_for_grid(SampleSet(*dims, rng.normal(size=(300, d))), grid)
        for _ in range(5):
            poly = random_member(UpsilonParams(0.75, 1.5), dims, m_opt, rng)
            if oracle:
                ref = seed_value(poly, table, grid, *model.noise_weights(grid))
                assert contrast_oracle(poly, model, grid) == pytest.approx(ref, rel=1e-12)
            else:
                ref = seed_value(poly, table, grid)
                assert contrast_empirical(poly, table, grid) == pytest.approx(ref, rel=1e-12)
                grad, ref = contrast_gradient(poly, table, grid), seed_gradient(poly, table, grid)
                assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)
                assert grad[0] == 0.0

    # flat table and unit candidate: the three terms cancel, and their
    # rounding residue (-7.1e-15 at (2, 2)) does not make the value negative
    @pytest.mark.parametrize("dims, nodes, m_opt", [((1, 1), 24, 2), ((2, 2), 12, 3)])
    def test_complete_cancellation_is_zero(self, dims, nodes, m_opt):
        grid = make_grid(1.0, dims, nodes)
        d = dims[0] + dims[1]
        table = ecf_table_for_grid(SampleSet(*dims, np.zeros((1, d))), grid)
        unit = TaylorPoly(dims, m_opt, np.eye(1, index_table(d, m_opt)[0].shape[0])[0])
        assert contrast_empirical(unit, table, grid) == 0.0
        np.testing.assert_allclose(contrast_gradient(unit, table, grid), 0.0, atol=1e-13)

    @pytest.mark.parametrize("tol, max_iters, reasons", [
        (1e-12, 3, ("max_iters",) * 4),  # every start iterates, and restarts run
        (1e3, 400, ("resolution",)),  # the start is already at resolution
    ])
    def test_hot_loop_builds_no_grid_tables(self, rm4d_table, monkeypatch, tol, max_iters,
                                            reasons):
        # one moment object values every start, iterate and estimate of a
        # call; no candidate grid table is formed, and the public contrast,
        # which builds a moment object of its own, is never called
        table, grid = rm4d_table
        calls, built = [], []
        for module, name in ((contrast_module, "poly_tables"),
                             (contrast_module, "contrast_empirical"),
                             (minimize_module, "contrast_empirical")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(minimize_module, "ContrastMoments",
                            lambda *args: built.append(args) or ContrastMoments(*args))
        monkeypatch.setattr(minimize_module, "MAX_ITERS", max_iters)
        stop_at(monkeypatch, table, tol)
        res = minimize_contrast(table, grid, UpsilonParams(0.75, 1.5), 4, seed=5)
        assert res.reasons == reasons
        assert calls == [] and built == [(table, grid, 4)]

    def test_hot_loop_does_no_hashing(self, monkeypatch, rng):
        grid = make_grid(1.0, (1, 1), 24)
        table = ecf_table_for_grid(SampleSet(1, 1, rng.normal(size=(100, 2))), grid)
        grid.grid_id
        calls = []
        real = contrast_module.content_hash

        def counting(*parts):
            calls.append(parts[0])
            return real(*parts)

        monkeypatch.setattr(contrast_module, "content_hash", counting)
        monkeypatch.setattr(minimize_module, "MAX_ITERS", 20)
        stop_at(monkeypatch, table, 1e-8)
        minimize_contrast(table, grid, UpsilonParams(0.75, 1.5), 4)
        assert calls == []
        assert grid.w1 is grid.w1
        for arr in (grid.w1, grid.w2, grid.block1_points, grid.block2_points):
            assert arr.flags.writeable is False


class TestMinimize:
    # S^4 overflows at both; the order-4 cap S^4 4^-4 is 6.25e306 at S = 2e77
    # and beyond the float range at S = 1e200, where the box is open
    @pytest.mark.parametrize("S", [2e77, 1e200])
    def test_box_pins_only_the_zero_index(self, grid24, monkeypatch, S):
        boxes = []
        real = optimize.Bounds
        monkeypatch.setattr(optimize, "Bounds",
                            lambda lo, hi: boxes.append((lo, hi)) or real(lo, hi))
        table = zero_sample_table(grid24)
        stop_at(monkeypatch, table, 1e-10)
        minimize_contrast(table, grid24, UpsilonParams(1.0, S), 4, seed=0)
        (lo, hi), = boxes
        orders = index_table(2, 4)[1]
        assert lo[0] == hi[0] == 1.0
        with np.errstate(over="ignore"):
            cap = np.exp(4.0 * (math.log(S) - math.log(4.0)))
        np.testing.assert_allclose(hi[orders == 4], cap, rtol=1e-12)
        np.testing.assert_array_equal(lo[1:], -hi[1:])

    def test_single_zero_sample(self, grid24, monkeypatch):
        table = zero_sample_table(grid24)
        stop_at(monkeypatch, table, 1e-10)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 3, seed=0)
        assert isinstance(res, MinimizeResult)
        assert res.value <= 1e-20
        np.testing.assert_allclose(res.estimate.theta[1:], 0.0, atol=1e-9)
        # the flat table's start is exact, so it is at resolution already
        assert res.reason == "resolution" and res.converged
        assert res.trace.shape == (1,) and res.restarts_used == 1

    def test_reason_max_iters(self, grid24, rng, monkeypatch):
        monkeypatch.setattr(minimize_module, "MAX_ITERS", 1)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 4, seed=1)
        assert res.reason == "max_iters" and not res.converged
        assert res.trace.shape == (2,)

    def test_resolution_stop_value(self, grid24, rng, monkeypatch):
        # a level between the start's contrast and the reachable minimum stops
        # the run at the first iterate at or below it
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        params = UpsilonParams(0.75, 2.0)
        stop_at(monkeypatch, table, 1e-30)
        deep = minimize_contrast(table, grid24, params, 4, seed=1)
        tol = stop_at(monkeypatch, table, math.sqrt(deep.trace[0] * deep.value))
        res = minimize_contrast(table, grid24, params, 4, seed=1)
        assert res.reason == "resolution" and res.converged
        assert res.value <= tol and res.trace[-1] == res.value
        assert np.all(res.trace[:-1] > tol)

    def test_every_restart_reason(self, grid24, rng, monkeypatch):
        monkeypatch.setattr(minimize_module, "MAX_ITERS", 30)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 4, restarts=3, seed=1)
        assert isinstance(res.reasons, tuple) and len(res.reasons) == res.restarts_used
        assert res.reason in res.reasons
        assert set(res.reasons) <= {"resolution", "ftol", "gtol", "max_iters", "abnormal"}

    @pytest.mark.parametrize("max_iters, tol, used", [(1, 1e-8, 3), (400, 1e3, 1)])
    def test_restart_only_after_unconverged(self, grid24, rng, monkeypatch, max_iters, tol,
                                            used):
        monkeypatch.setattr(minimize_module, "MAX_ITERS", max_iters)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, tol)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 4, restarts=3, seed=1)
        assert res.restarts_used == used == len(res.reasons)
        assert all(r in ("max_iters", "abnormal") for r in res.reasons[:-1])

    @pytest.mark.parametrize("status, message, reason", [
        (0, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", "ftol"),
        (0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", "gtol"),
        (1, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", "max_iters"),
        (2, "ABNORMAL: ", "abnormal"),
    ])
    def test_converged_iff_status_zero(self, grid24, rng, monkeypatch, status, message,
                                       reason):
        # scipy's status alone decides when no iterate reached resolution
        def stopped(fun, x0, **kwargs):
            return OptimizeResult(x=x0, status=status, message=message)

        monkeypatch.setattr(optimize, "minimize", stopped)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-12)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 4, restarts=2, seed=1)
        assert res.reason == reason
        assert res.converged == (status == 0)
        assert res.restarts_used == (1 if status == 0 else 2)

    def test_trace_monotone(self, grid24, rng, monkeypatch):
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        res = minimize_contrast(table, grid24, UpsilonParams(0.75, 2.0), 4, seed=1)
        assert np.all(np.diff(res.trace) <= 1e-15)
        assert res.trace[-1] == res.value <= res.trace[0]

    def test_value_consistent_with_estimate(self, grid24, rng, monkeypatch):
        s = SampleSet(1, 1, rng.normal(size=(150, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        res = minimize_contrast(table, grid24, UpsilonParams(0.8, 1.5), 3, seed=2)
        # the value is the moment form's, the one the descent minimized, and
        # so the public contrast's to the bit
        assert contrast_empirical(res.estimate, table, grid24) == res.value
        # and the grid definition's to rounding relative to the three terms
        # the moment form sums; the first two bound the third (Cauchy-Schwarz)
        full_c, first_c, second_c = poly_tables(res.estimate, grid24)
        terms = (np.abs(full_c * (table.first[:, None] * table.second[None, :])) ** 2
                 + np.abs(table.full * (first_c[:, None] * second_c[None, :])) ** 2)
        scale = float(grid24.w1 @ terms @ grid24.w2)
        assert abs(res.value - seed_value(res.estimate, table, grid24)) <= 1e-12 * scale

    def test_estimate_is_feasible(self, grid24, rng, monkeypatch):
        params = UpsilonParams(0.65, 1.2)
        s = SampleSet(1, 1, rng.normal(size=(120, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        res = minimize_contrast(table, grid24, params, 4, seed=3)
        entries, orders = index_table(2, res.estimate.max_degree)
        for row, order, th in zip(entries, orders, res.estimate.theta):
            if order == 0:
                assert th == 1.0
            else:
                assert abs(th) <= upsilon_bound(tuple(row), params) + 1e-12

    def test_more_restarts_never_worse(self, grid24, rng, monkeypatch):
        # the restart ladder is deterministic, so candidate sets nest
        s = SampleSet(1, 1, rng.normal(size=(100, 2)))
        table = ecf_table_for_grid(s, grid24)
        params = UpsilonParams(0.75, 2.0)
        stop_at(monkeypatch, table, 1e-9)
        one = minimize_contrast(table, grid24, params, 3, restarts=1, seed=5)
        four = minimize_contrast(table, grid24, params, 3, restarts=4, seed=5)
        assert four.value <= one.value + 1e-18

    def test_determinism(self, grid24, rng, monkeypatch):
        s = SampleSet(1, 1, rng.normal(size=(80, 2)))
        table = ecf_table_for_grid(s, grid24)
        stop_at(monkeypatch, table, 1e-8)
        a = minimize_contrast(table, grid24, UpsilonParams(0.7, 1.0), 3, seed=9)
        b = minimize_contrast(table, grid24, UpsilonParams(0.7, 1.0), 3, seed=9)
        assert a.value == b.value
        np.testing.assert_array_equal(a.estimate.theta, b.estimate.theta)

    def test_beats_dense_random_search(self, uniform_repeated, monkeypatch):
        # threshold protocol: best of 2000 feasible draws, slack factor 1.5
        samples = uniform_repeated.sample(10_000, seed=314159)
        grid = make_grid(1.0, (1, 1), 48)
        table = ecf_table_for_grid(samples, grid)
        model = uniform_repeated.oracle()
        params = UpsilonParams(0.75, 2.0)

        search_rng = np.random.default_rng(20240917)
        best_val, best_poly = np.inf, None
        with _util.one_blas_thread():
            moments = ContrastMoments(table, grid, 4)
            for _ in range(2000):
                cand = random_member(params, (1, 1), 4, search_rng)
                val = moments.evaluate(cand)[0]
                if val < best_val:
                    best_val, best_poly = val, cand
        threshold = 1.5 * cf_box_error(best_poly, model, grid)

        stop_at(monkeypatch, table, 1e-12)
        res = minimize_contrast(table, grid, params, 4, restarts=4, seed=0)
        assert res.value <= best_val
        assert cf_box_error(res.estimate, model, grid) <= threshold


class TestConfig:
    # each bad value is refused before any start
    @pytest.mark.parametrize("key, value", [("seed", -1), ("m_opt", 2.5), ("restarts", 2.5)])
    def test_refuses_bad_value(self, grid24, monkeypatch, key, value):
        starts = no_starts(monkeypatch)
        kwargs = dict(m_opt=4, restarts=4, seed=0)
        with pytest.raises(ConfigError, match=key):
            minimize_contrast(zero_sample_table(grid24), grid24, UpsilonParams(0.75, 2.0),
                              **{**kwargs, key: value})
        assert starts == []

    # a class or a deadline of the wrong type, NaN included, is refused
    # before any start, not where the descent first reads it
    @pytest.mark.parametrize("params, deadline, match", [
        (None, math.inf, "params must be a UpsilonParams, got NoneType"),
        ((0.75, 2.0), math.inf, "params must be a UpsilonParams, got tuple"),
        (UpsilonParams(0.75, 2.0), "x", "deadline must be a float"),
        (UpsilonParams(0.75, 2.0), None, "deadline must be a float"),
        (UpsilonParams(0.75, 2.0), math.nan, "deadline must be .* got nan"),
    ])
    def test_refuses_bad_params_or_deadline(self, grid24, monkeypatch, params, deadline,
                                            match):
        starts = no_starts(monkeypatch)
        with pytest.raises(ConfigError, match=match):
            minimize_contrast(zero_sample_table(grid24), grid24, params, 4, deadline=deadline)
        assert starts == []

    def test_refuses_a_table_of_no_observation(self, grid24, monkeypatch):
        # contrast_oracle's scaled tables have n = 0, which has no stop level
        starts = no_starts(monkeypatch)
        flat = zero_sample_table(grid24)
        empty = EcfTable(grid24.grid_id, 0, flat.first, flat.second, flat.full)
        with pytest.raises(ConfigError, match="n >= 1"):
            minimize_contrast(empty, grid24, UpsilonParams(0.75, 2.0), 4)
        assert starts == []

    def test_negative_seed_through_estimate_once(self, grid24, rng):
        samples = SampleSet(1, 1, rng.normal(size=(50, 2)))
        lattice = LatticeSpec((-1.0, -1.0), (1.0, 1.0), (5, 5))
        with pytest.raises(ConfigError, match="seed"):
            estimate_once(ecf_table_for_grid(samples, grid24), grid24, lattice, kappa=0.75,
                          S=2.0, m_opt=4, seed=-1)

    def test_converts_integral_values(self, grid24, rng, monkeypatch):
        # one iteration per start, below resolution, so both starts run
        monkeypatch.setattr(minimize_module, "MAX_ITERS", 1)
        table = ecf_table_for_grid(SampleSet(1, 1, rng.normal(size=(200, 2))), grid24)
        stop_at(monkeypatch, table, 1e-8)
        params = UpsilonParams(0.75, 2.0)
        seen, moments, seeds = [], minimize_module.ContrastMoments, np.random.SeedSequence
        monkeypatch.setattr(minimize_module, "ContrastMoments",
                            lambda *args: seen.append(args[2]) or moments(*args))
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda entropy: seen.append(entropy) or seeds(entropy))
        ints = minimize_contrast(table, grid24, params, 4, restarts=2, seed=3)
        converted = minimize_contrast(table, grid24, params, np.int64(4), restarts=2.0,
                                      seed=np.int64(3))
        assert seen == [3, 4, 3, 4] and all(type(v) is int for v in seen)
        assert converted.restarts_used == ints.restarts_used == 2
        assert converted.estimate.theta.tobytes() == ints.estimate.theta.tobytes()

    def test_stop_level_follows_the_table(self, uniform_repeated, grid24, monkeypatch):
        # a fit on the pooled table of two halves stops at RESOLUTION over
        # the pooled n: it reports resolution exactly when its value is at
        # most that level, for a level above its start's contrast, one
        # between that and the reachable minimum, and one below the minimum
        samples = uniform_repeated.sample(400, seed=11)
        halves = [ecf_table_for_grid(SampleSet(1, 1, samples.data[rows]), grid24)
                  for rows in (slice(0, 200), slice(200, 400))]
        table = pooled(*halves)
        params = UpsilonParams(0.75, 2.0)
        stop_at(monkeypatch, table, 1e-30)
        deep = minimize_contrast(table, grid24, params, 4, restarts=1)
        reasons = []
        for level in (2.0 * deep.trace[0], math.sqrt(deep.trace[0] * deep.value),
                      0.5 * deep.value):
            stop_at(monkeypatch, table, level)
            res = minimize_contrast(table, grid24, params, 4, restarts=1)
            assert (res.reason == "resolution") == (
                res.value <= minimize_module.RESOLUTION / table.n)
            reasons.append(res.reason)
        assert reasons[:2] == ["resolution"] * 2 and reasons[2] != "resolution"


class TestMemory:
    def test_d4_grid_peak(self):
        # 48 nodes per axis at d1 = d2 = 2: the minimizer's peak, set-up and
        # iterates, stays within three times the table's full array
        noise = AxisNoise("g_density", 2.0)
        scenario = make_repeated(SignalSpec("uniform", (1.0,)), noise, noise, d1=2)
        grid = make_grid(1.0, (2, 2), 48)
        table = ecf_table_for_grid(scenario.sample(2000, seed=5), grid)
        tracemalloc.start()
        try:
            res = minimize_contrast(table, grid, UpsilonParams(0.75, 1.5), 4, restarts=1, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace) > 1
        assert peak <= 3.0 * table.full.nbytes


def _dense_ls_theta(table, grid, m_opt):
    """Reference fit: lstsq on the dense (grid points x coefficients) design."""
    phase = parity_phase(grid.d, m_opt)
    n_idx = phase.shape[0]
    U, W = pattern_tables(grid, m_opt)
    p1, p2, _, _ = block_split(grid.dims, m_opt)
    design = (
        U[:, p1].reshape(U.shape[0], 1, n_idx) * W[:, p2].reshape(1, W.shape[0], n_idx)
    ).reshape(-1, n_idx) * phase
    sqw = np.sqrt(np.outer(grid.w1, grid.w2)).reshape(-1)
    lhs = design[:, 1:] * sqw[:, None]
    rhs = (table.full.reshape(-1) - design[:, 0]) * sqw
    theta_rest, *_ = np.linalg.lstsq(
        np.concatenate([lhs.real, lhs.imag]), np.concatenate([rhs.real, rhs.imag]), rcond=None
    )
    return np.concatenate([[1.0], theta_rest])


def _spy_objective(monkeypatch, wrap):
    """Run L-BFGS-B on wrap(objective) instead of the objective."""
    real = optimize.minimize
    monkeypatch.setattr(optimize, "minimize",
                        lambda fun, x0, **kwargs: real(wrap(fun), x0, **kwargs))


@pytest.fixture(scope="module")
def rm4d_table():
    """A d1 = d2 = 2 repeated-measurement ECF table on 12 nodes per axis."""
    noise = AxisNoise("g_density", 2.0)
    scenario = make_repeated(SignalSpec("uniform", (1.0,)), noise, noise, d1=2)
    grid = make_grid(1.0, (2, 2), 12)
    return ecf_table_for_grid(scenario.sample(2000, seed=5), grid), grid


def no_starts(monkeypatch):
    """Record every start the minimizer would make, and make none."""
    starts = []
    for name in ("_ls_init", "_descend"):
        monkeypatch.setattr(minimize_module, name, lambda *args: starts.append(args))
    return starts


def stop_at(monkeypatch, table, level):
    """Set minimize.RESOLUTION so that a fit on `table` stops at contrast
    <= level; returns the level minimize_contrast computes from it."""
    monkeypatch.setattr(minimize_module, "RESOLUTION", level * table.n)
    return minimize_module.RESOLUTION / table.n


def _small_run(grid24, rng, monkeypatch):
    """A three-start fit on a 200-sample table that stops at 1e-8, as a
    function of its deadline."""
    table = ecf_table_for_grid(SampleSet(1, 1, rng.normal(size=(200, 2))), grid24)
    stop_at(monkeypatch, table, 1e-8)
    return lambda deadline=math.inf: minimize_contrast(
        table, grid24, UpsilonParams(0.75, 2.0), 4, restarts=3, seed=1, deadline=deadline)


class TestBlasHold:
    """Both OpenBLAS pools, numpy's and L-BFGS-B's, at one thread while the
    minimizer and the ECF run, and as they were afterwards."""

    def test_one_thread_inside_the_objective(self, grid24, rng, monkeypatch, blas_pools):
        seen = []
        _spy_objective(monkeypatch, lambda fun: lambda x: seen.append(blas_pools()) or fun(x))
        _small_run(grid24, rng, monkeypatch)()
        ones = (1,) * len(blas_pools())
        assert seen and set(seen) == {ones}
        assert blas_pools() == (2,) * len(ones)

    def test_one_thread_inside_the_ecf(self, rng, monkeypatch, blas_pools):
        seen, real = [], ecf_module._half_lattice
        monkeypatch.setattr(ecf_module, "_half_lattice",
                            lambda *args: seen.append(blas_pools()) or real(*args))
        monkeypatch.setattr(ecf_module, "_cpu_count", lambda: 2)
        # three runs of chunks, so the tabulation runs on two workers
        samples = SampleSet(1, 1, rng.normal(size=(3 * (CHUNK << ecf_module.RUN_LEVEL), 2)))
        ecf_on_grid(samples, [make_grid(1.0, (1, 1), 8).axis_nodes] * 2)
        ones = (1,) * len(blas_pools())
        assert seen and set(seen) == {ones}
        assert blas_pools() == (2,) * len(ones)

    def test_restored_after_an_error(self, grid24, rng, monkeypatch, blas_pools):
        def raising(fun):
            def objective(x):
                raise NumericalError("non-finite contrast")
            return objective

        _spy_objective(monkeypatch, raising)
        fit = _small_run(grid24, rng, monkeypatch)
        with pytest.raises(NumericalError):
            fit()
        assert set(blas_pools()) == {2}

    def test_concurrent_holders_restore_once(self, grid24, rng, monkeypatch, blas_pools):
        # both threads are inside the hold together before either leaves it
        barrier, seen, errors = threading.Barrier(2, timeout=30), [], []

        def meeting(fun):
            def objective(x):
                if threading.current_thread().name not in seen:
                    seen.append(threading.current_thread().name)
                    barrier.wait()
                return fun(x)
            return objective

        _spy_objective(monkeypatch, meeting)
        fit = _small_run(grid24, rng, monkeypatch)

        def work():
            try:
                fit()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, name=f"holder{i}") for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and sorted(seen) == ["holder0", "holder1"]
        assert set(blas_pools()) == {2}

    def test_no_op_without_setters(self, rm4d_table, monkeypatch, blas_pools):
        # without setters the hold leaves the pools alone, and with the
        # pools at one thread already the bits are the held run's
        table, grid = rm4d_table

        def fit():
            return minimize_contrast(table, grid, UpsilonParams(0.75, 1.5), 4, seed=5)

        held = fit()
        setters = _util.blas_setters()
        monkeypatch.setattr(_util, "blas_setters", lambda: ())
        seen = []
        _spy_objective(monkeypatch, lambda fun: lambda x: seen.append(blas_pools()) or fun(x))
        fit()
        assert set(seen) == {(2,) * len(setters)}
        prior = [setter(1) for setter in setters]
        try:
            free = fit()
        finally:
            for setter, count in zip(setters, prior):
                setter(count)
        assert free.estimate.theta.tobytes() == held.estimate.theta.tobytes()
        assert free.value == held.value and free.reasons == held.reasons


class TestDeadline:
    def test_passed_deadline_stops_at_first_iterate(self, grid24, rng, monkeypatch):
        res = _small_run(grid24, rng, monkeypatch)(deadline=time.monotonic())
        assert res.reasons == ("deadline",) and res.restarts_used == 1
        assert res.reason == "deadline" and not res.converged
        assert res.trace.shape == (2,)

    def test_distant_deadline_changes_nothing(self, grid24, rng, monkeypatch):
        fit = _small_run(grid24, rng, monkeypatch)
        free = fit()
        timed = fit(deadline=time.monotonic() + 3600.0)
        assert timed.estimate.theta.tobytes() == free.estimate.theta.tobytes()
        assert timed.reasons == free.reasons and "deadline" not in free.reasons


class TestLsInit:
    @pytest.mark.parametrize(
        "dims, nodes, rule, m_opt",
        [
            ((1, 1), 48, "gauss_legendre", 12),
            ((2, 1), 24, "gauss_legendre", 8),
            ((1, 2), 12, "trapezoid", 6),
            ((2, 2), 12, "gauss_legendre", 4),
            ((1, 1), 6, "gauss_legendre", 12),  # fewer grid points than coefficients
        ],
    )
    def test_matches_dense_design(self, dims, nodes, rule, m_opt, rng):
        if rule == "gauss_legendre":
            grid = make_grid(1.0, dims, nodes)
        else:
            grid = trapezoid_grid(1.0, dims, nodes)
        samples = SampleSet(dims[0], dims[1], rng.uniform(-1.0, 1.0, size=(400, sum(dims))))
        table = ecf_table_for_grid(samples, grid)
        theta = _ls_init(table, grid, m_opt, pattern_tables(grid, m_opt)).theta
        ref = _dense_ls_theta(table, grid, m_opt)
        assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dims, m_opt", [((1, 1), 6), ((2, 1), 4), ((2, 2), 2)])
    def test_leading_columns_of_the_moment_tables(self, dims, m_opt, rng, monkeypatch):
        # the degree-2m tables' leading columns give the degree-m fit's bits,
        # and one minimization builds its monomial tables once
        grid = make_grid(1.0, dims, 12)
        samples = SampleSet(dims[0], dims[1], rng.uniform(-1.0, 1.0, size=(300, sum(dims))))
        table = ecf_table_for_grid(samples, grid)
        own = _ls_init(table, grid, m_opt, pattern_tables(grid, m_opt)).theta
        wide = _ls_init(table, grid, m_opt, pattern_tables(grid, 2 * m_opt)).theta
        assert wide.tobytes() == own.tobytes()
        calls, real = [], contrast_module.pattern_tables
        monkeypatch.setattr(contrast_module, "pattern_tables",
                            lambda *args: calls.append(args[1]) or real(*args))
        minimize_contrast(table, grid, UpsilonParams(0.75, 2.0), m_opt, restarts=1)
        assert calls == [2 * m_opt]

    def test_zero_sample_exact(self):
        grid = make_grid(1.0, (2, 2), 12)
        table = ecf_table_for_grid(SampleSet(2, 2, np.zeros((1, 4))), grid)
        theta = _ls_init(table, grid, 4, pattern_tables(grid, 4)).theta
        np.testing.assert_array_equal(theta, np.eye(1, theta.shape[0])[0])

    def test_default_grid_at_d4(self, rng):
        # 48^4 grid points x 70 coefficients: a dense design would take 5.95 GB
        grid = make_grid(1.0, (2, 2), 48)
        table = ecf_table_for_grid(SampleSet(2, 2, rng.normal(size=(50, 4))), grid)
        tracemalloc.start()
        try:
            poly = _ls_init(table, grid, 4, pattern_tables(grid, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert poly.theta[0] == 1.0 and np.all(np.isfinite(poly.theta))
        assert peak < 400e6
