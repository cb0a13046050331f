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
    _GridTables,
    contrast_empirical,
    ecf_table_for_grid,
    make_grid,
    poly_tables,
)
from cfdeconv._util import CHUNK
from cfdeconv.ecf import SampleSet, ecf_on_grid
from cfdeconv.minimize import (
    MinimizeConfig,
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
        table = zero_sample_table(grid24)
        poly = poly_11(2, {})
        grad = contrast_gradient(poly, table, grid24)
        np.testing.assert_array_equal(grad, 0.0)

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


def seed_gradient(poly, table, grid):
    """The contrast gradient with the defect, the weight outer product and
    every temporary written inline, as the minimizer first computed it: the
    fixed reference for the bits the evaluator must reproduce."""
    gt = _GridTables.get(grid, poly.max_degree)
    full_p, first_p, second_p = poly_tables(poly, grid)
    A = full_p * (table.first[:, None] * table.second[None, :]) - table.full * (
        first_p[:, None] * second_p[None, :]
    )
    B = (grid.w1[:, None] * grid.w2[None, :]) * np.conj(A)
    T1 = gt.U.T @ (B * (table.first[:, None] * table.second[None, :])) @ gt.W
    S1 = gt.U.T @ ((B * table.full) @ second_p)
    S2 = gt.W.T @ ((B * table.full).T @ first_p)
    phase = np.where(poly.orders % 2 == 0, 1.0 + 0.0j, 1.0j)
    p1, p2, _, _ = block_split(poly.dims, poly.max_degree)
    inner = T1[p1, p2]
    inner = inner - np.where(p2 == 0, S1[p1], 0.0)
    inner = inner - np.where(p1 == 0, S2[p2], 0.0)
    grad = 2.0 * np.real(phase * inner)
    grad[0] = 0.0
    return grad


class TestMoments:
    # the moment form sums three terms that cancel, so it matches the grid
    # definition to rounding, not bit for bit
    @pytest.mark.parametrize("nu", [1.0, 3.0])
    @pytest.mark.parametrize("dims, nodes, m_opt", [
        ((1, 1), 48, 2), ((1, 1), 48, 6), ((1, 1), 48, 10), ((2, 2), 12, 4), ((2, 2), 12, 8),
    ])
    def test_matches_grid_definition(self, dims, nodes, m_opt, nu, rng):
        grid = make_grid(nu, dims, nodes)
        d = dims[0] + dims[1]
        table = ecf_table_for_grid(SampleSet(*dims, rng.normal(size=(300, d))), grid)
        moments = ContrastMoments(table, grid, m_opt)
        for _ in range(5):
            poly = random_member(UpsilonParams(0.75, 1.5), dims, m_opt, rng)
            value, grad = moments.evaluate(poly)
            ref = contrast_gradient(poly, table, grid)
            assert value == pytest.approx(contrast_empirical(poly, table, grid), rel=1e-12)
            assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)
            assert grad[0] == 0.0

    def test_complete_cancellation_is_zero(self):
        # flat table and unit candidate: the three terms cancel, and their
        # rounding residue (-7.1e-15 here) does not make the value negative
        grid = make_grid(1.0, (2, 2), 12)
        table = ecf_table_for_grid(SampleSet(2, 2, np.zeros((1, 4))), grid)
        unit = TaylorPoly((2, 2), 3, np.eye(1, index_table(4, 3)[0].shape[0])[0])
        value, grad = ContrastMoments(table, grid, 3).evaluate(unit)
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-13)

    # (2, 2) on 12 nodes gives 144 x 144 tables, above the size at which
    # numpy reuses a temporary's buffer for the next product
    @pytest.mark.parametrize("dims, nodes", [((1, 1), 24), ((2, 2), 12)])
    def test_grid_gradient_bits(self, dims, nodes, rng):
        grid = make_grid(1.0, dims, nodes)
        d = dims[0] + dims[1]
        table = ecf_table_for_grid(SampleSet(*dims, rng.normal(size=(300, d))), grid)
        for _ in range(5):
            poly = random_member(UpsilonParams(0.75, 1.5), dims, 4, rng)
            grad = contrast_gradient(poly, table, grid)
            assert np.array_equal(grad, seed_gradient(poly, table, grid))

    @pytest.mark.parametrize("tol, max_iters, reasons", [
        (1e-12, 3, ("max_iters",) * 4),  # every start iterates, and restarts run
        (1e3, 400, ("resolution",)),  # the start is already at resolution
    ])
    def test_hot_loop_builds_no_grid_tables(self, rm4d_table, monkeypatch, tol, max_iters,
                                            reasons):
        # one moment object values every start, iterate and estimate of a
        # call; the grid definition is never reached
        table, grid = rm4d_table
        calls, built = [], []
        for module, name in ((contrast_module, "poly_tables"), (contrast_module, "_defect"),
                             (contrast_module, "contrast_empirical"),
                             (minimize_module, "contrast_empirical")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(minimize_module, "ContrastMoments",
                            lambda *args: built.append(args) or ContrastMoments(*args))
        monkeypatch.setattr(minimize_module, "MAX_ITERS", max_iters)
        config = MinimizeConfig(params=UpsilonParams(0.75, 1.5), m_opt=4, tol=tol, seed=5)
        res = minimize_contrast(table, grid, config)
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
        config = MinimizeConfig(params=UpsilonParams(0.75, 1.5), m_opt=4, tol=1e-8)
        minimize_contrast(table, grid, config)
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
        config = MinimizeConfig(params=UpsilonParams(1.0, S), m_opt=4, tol=1e-10, seed=0)
        minimize_contrast(zero_sample_table(grid24), grid24, config)
        (lo, hi), = boxes
        orders = index_table(2, 4)[1]
        assert lo[0] == hi[0] == 1.0
        with np.errstate(over="ignore"):
            cap = np.exp(4.0 * (math.log(S) - math.log(4.0)))
        np.testing.assert_allclose(hi[orders == 4], cap, rtol=1e-12)
        np.testing.assert_array_equal(lo[1:], -hi[1:])

    def test_single_zero_sample(self, grid24):
        table = zero_sample_table(grid24)
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=3, tol=1e-10, seed=0)
        res = minimize_contrast(table, grid24, config)
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
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-8, seed=1)
        res = minimize_contrast(table, grid24, config)
        assert res.reason == "max_iters" and not res.converged
        assert res.trace.shape == (2,)

    def test_resolution_stop_value(self, grid24, rng):
        # a tol between the start's contrast and the reachable minimum stops
        # the run at the first iterate at or below it
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        params = UpsilonParams(0.75, 2.0)
        deep = minimize_contrast(table, grid24, MinimizeConfig(params, 4, tol=1e-30, seed=1))
        tol = math.sqrt(deep.trace[0] * deep.value)
        res = minimize_contrast(table, grid24, MinimizeConfig(params, 4, tol=tol, seed=1))
        assert res.reason == "resolution" and res.converged
        assert res.value <= tol and res.trace[-1] == res.value
        assert np.all(res.trace[:-1] > tol)

    def test_every_restart_reason(self, grid24, rng, monkeypatch):
        monkeypatch.setattr(minimize_module, "MAX_ITERS", 30)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-8,
                                restarts=3, seed=1)
        res = minimize_contrast(table, grid24, config)
        assert isinstance(res.reasons, tuple) and len(res.reasons) == res.restarts_used
        assert res.reason in res.reasons
        assert set(res.reasons) <= {"resolution", "ftol", "gtol", "max_iters", "abnormal"}

    @pytest.mark.parametrize("max_iters, tol, used", [(1, 1e-8, 3), (400, 1e3, 1)])
    def test_restart_only_after_unconverged(self, grid24, rng, monkeypatch, max_iters, tol,
                                            used):
        monkeypatch.setattr(minimize_module, "MAX_ITERS", max_iters)
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=tol,
                                restarts=3, seed=1)
        res = minimize_contrast(table, grid24, config)
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
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-12,
                                restarts=2, seed=1)
        res = minimize_contrast(table, grid24, config)
        assert res.reason == reason
        assert res.converged == (status == 0)
        assert res.restarts_used == (1 if status == 0 else 2)

    def test_trace_monotone(self, grid24, rng):
        s = SampleSet(1, 1, rng.normal(size=(200, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-8, seed=1)
        res = minimize_contrast(table, grid24, config)
        assert np.all(np.diff(res.trace) <= 1e-15)
        assert res.trace[-1] == res.value <= res.trace[0]

    def test_value_consistent_with_estimate(self, grid24, rng):
        s = SampleSet(1, 1, rng.normal(size=(150, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=UpsilonParams(0.8, 1.5), m_opt=3, tol=1e-8, seed=2)
        res = minimize_contrast(table, grid24, config)
        # the value is the moment form's, the one the descent minimized
        with _util.one_blas_thread():
            moment_value = ContrastMoments(table, grid24, 3).evaluate(res.estimate)[0]
        assert res.value == moment_value
        # and the grid definition's to rounding relative to the three terms
        # the moment form sums; the first two bound the third (Cauchy-Schwarz)
        full_c, first_c, second_c = poly_tables(res.estimate, grid24)
        terms = (np.abs(full_c * (table.first[:, None] * table.second[None, :])) ** 2
                 + np.abs(table.full * (first_c[:, None] * second_c[None, :])) ** 2)
        scale = float(grid24.w1 @ terms @ grid24.w2)
        assert abs(res.value - contrast_empirical(res.estimate, table, grid24)) <= 1e-12 * scale

    def test_estimate_is_feasible(self, grid24, rng):
        params = UpsilonParams(0.65, 1.2)
        s = SampleSet(1, 1, rng.normal(size=(120, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=params, m_opt=4, tol=1e-8, seed=3)
        res = minimize_contrast(table, grid24, config)
        entries, orders = index_table(2, res.estimate.max_degree)
        for row, order, th in zip(entries, orders, res.estimate.theta):
            if order == 0:
                assert th == 1.0
            else:
                assert abs(th) <= upsilon_bound(tuple(row), params) + 1e-12

    def test_more_restarts_never_worse(self, grid24, rng):
        # the restart ladder is deterministic, so candidate sets nest
        s = SampleSet(1, 1, rng.normal(size=(100, 2)))
        table = ecf_table_for_grid(s, grid24)
        params = UpsilonParams(0.75, 2.0)
        one = minimize_contrast(
            table, grid24, MinimizeConfig(params=params, m_opt=3, tol=1e-9, restarts=1, seed=5)
        )
        four = minimize_contrast(
            table, grid24, MinimizeConfig(params=params, m_opt=3, tol=1e-9, restarts=4, seed=5)
        )
        assert four.value <= one.value + 1e-18

    def test_determinism(self, grid24, rng):
        s = SampleSet(1, 1, rng.normal(size=(80, 2)))
        table = ecf_table_for_grid(s, grid24)
        config = MinimizeConfig(params=UpsilonParams(0.7, 1.0), m_opt=3, tol=1e-8, seed=9)
        a = minimize_contrast(table, grid24, config)
        b = minimize_contrast(table, grid24, config)
        assert a.value == b.value
        np.testing.assert_array_equal(a.estimate.theta, b.estimate.theta)

    def test_beats_dense_random_search(self, uniform_repeated):
        # threshold protocol: best of 2000 feasible draws, slack factor 1.5
        samples = uniform_repeated.sample(10_000, seed=314159)
        grid = make_grid(1.0, (1, 1), 48)
        table = ecf_table_for_grid(samples, grid)
        model = uniform_repeated.oracle()
        params = UpsilonParams(0.75, 2.0)

        search_rng = np.random.default_rng(20240917)
        best_val, best_poly = np.inf, None
        for _ in range(2000):
            cand = random_member(params, (1, 1), 4, search_rng)
            val = contrast_empirical(cand, table, grid)
            if val < best_val:
                best_val, best_poly = val, cand
        threshold = 1.5 * cf_box_error(best_poly, model, grid)

        res = minimize_contrast(
            table, grid, MinimizeConfig(params=params, m_opt=4, tol=1e-12, restarts=4, seed=0)
        )
        assert res.value <= best_val
        assert cf_box_error(res.estimate, model, grid) <= threshold


class TestConfig:
    # each bad value is refused when the config is built, before any work
    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("tol", math.nan), ("m_opt", 2.5), ("restarts", 2.5),
    ])
    def test_refuses_bad_value(self, key, value):
        kwargs = dict(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-8)
        with pytest.raises(ConfigError, match=key):
            MinimizeConfig(**{**kwargs, key: value})

    def test_negative_seed_through_estimate_once(self, grid24, rng):
        samples = SampleSet(1, 1, rng.normal(size=(50, 2)))
        lattice = LatticeSpec((-1.0, -1.0), (1.0, 1.0), (5, 5))
        with pytest.raises(ConfigError, match="seed"):
            estimate_once(samples, grid24, lattice, kappa=0.75, S=2.0, m_opt=4, seed=-1)

    def test_converts_integral_values(self):
        config = MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=np.int64(4), tol=1,
                                restarts=2.0, seed=np.int64(3))
        assert (config.m_opt, config.restarts, config.seed) == (4, 2, 3)
        assert all(type(v) is int for v in (config.m_opt, config.restarts, config.seed))
        assert type(config.tol) is float


class TestMemory:
    def test_d4_grid_peak(self):
        # 48 nodes per axis at d1 = d2 = 2: the minimizer's peak, set-up and
        # iterates, stays within three times the table's full array
        noise = AxisNoise("g_density", 2.0)
        scenario = make_repeated(SignalSpec("uniform", (1.0,)), noise, noise, d1=2)
        grid = make_grid(1.0, (2, 2), 48)
        table = ecf_table_for_grid(scenario.sample(2000, seed=5), grid)
        config = MinimizeConfig(params=UpsilonParams(0.75, 1.5), m_opt=4, tol=0.01 / 2000,
                                restarts=1, seed=5)
        tracemalloc.start()
        try:
            res = minimize_contrast(table, grid, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace) > 1
        assert peak <= 3.0 * table.full.nbytes


def _dense_ls_theta(table, grid, m_opt):
    """Reference fit: lstsq on the dense (grid points x coefficients) design."""
    phase = parity_phase(grid.d, m_opt)
    n_idx = phase.shape[0]
    gt = _GridTables.get(grid, m_opt)
    p1, p2, _, _ = block_split(grid.dims, m_opt)
    design = (
        gt.U[:, p1].reshape(gt.U.shape[0], 1, n_idx)
        * gt.W[:, p2].reshape(1, gt.W.shape[0], n_idx)
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


def _small_run(grid24, rng, deadline=math.inf):
    table = ecf_table_for_grid(SampleSet(1, 1, rng.normal(size=(200, 2))), grid24)
    return table, MinimizeConfig(params=UpsilonParams(0.75, 2.0), m_opt=4, tol=1e-8,
                                 restarts=3, seed=1, deadline=deadline)


class TestBlasHold:
    """Both OpenBLAS pools, numpy's and L-BFGS-B's, at one thread while the
    minimizer and the ECF run, and as they were afterwards."""

    def test_one_thread_inside_the_objective(self, grid24, rng, monkeypatch, blas_pools):
        seen = []
        _spy_objective(monkeypatch, lambda fun: lambda x: seen.append(blas_pools()) or fun(x))
        table, config = _small_run(grid24, rng)
        minimize_contrast(table, grid24, config)
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
        table, config = _small_run(grid24, rng)
        with pytest.raises(NumericalError):
            minimize_contrast(table, grid24, config)
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
        table, config = _small_run(grid24, rng)

        def work():
            try:
                minimize_contrast(table, grid24, config)
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
        config = MinimizeConfig(params=UpsilonParams(0.75, 1.5), m_opt=4, tol=0.01 / 2000,
                                seed=5)
        held = minimize_contrast(table, grid, config)
        setters = _util.blas_setters()
        monkeypatch.setattr(_util, "blas_setters", lambda: ())
        seen = []
        _spy_objective(monkeypatch, lambda fun: lambda x: seen.append(blas_pools()) or fun(x))
        minimize_contrast(table, grid, config)
        assert set(seen) == {(2,) * len(setters)}
        prior = [setter(1) for setter in setters]
        try:
            free = minimize_contrast(table, grid, config)
        finally:
            for setter, count in zip(setters, prior):
                setter(count)
        assert free.estimate.theta.tobytes() == held.estimate.theta.tobytes()
        assert free.value == held.value and free.reasons == held.reasons


class TestDeadline:
    def test_passed_deadline_stops_at_first_iterate(self, grid24, rng):
        table, config = _small_run(grid24, rng, deadline=time.monotonic())
        res = minimize_contrast(table, grid24, config)
        assert res.reasons == ("deadline",) and res.restarts_used == 1
        assert res.reason == "deadline" and not res.converged
        assert res.trace.shape == (2,)

    def test_distant_deadline_changes_nothing(self, grid24, rng):
        table, config = _small_run(grid24, rng)
        free = minimize_contrast(table, grid24, config)
        config.deadline = time.monotonic() + 3600.0
        timed = minimize_contrast(table, grid24, config)
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
        theta = _ls_init(table, grid, m_opt).theta
        ref = _dense_ls_theta(table, grid, m_opt)
        assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_sample_exact(self):
        grid = make_grid(1.0, (2, 2), 12)
        table = ecf_table_for_grid(SampleSet(2, 2, np.zeros((1, 4))), grid)
        theta = _ls_init(table, grid, 4).theta
        np.testing.assert_array_equal(theta, np.eye(1, theta.shape[0])[0])

    def test_default_grid_at_d4(self, rng):
        # 48^4 grid points x 70 coefficients: a dense design would take 5.95 GB
        grid = make_grid(1.0, (2, 2), 48)
        table = ecf_table_for_grid(SampleSet(2, 2, rng.normal(size=(50, 4))), grid)
        tracemalloc.start()
        try:
            poly = _ls_init(table, grid, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert poly.theta[0] == 1.0 and np.all(np.isfinite(poly.theta))
        assert peak < 400e6
