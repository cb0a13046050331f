"""Weighted polynomial systems, two-point constructions, testing-risk values."""

import dataclasses
import inspect
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from cfdeconv import ConfigError, NumericalError
from cfdeconv._util import det_exp, det_log, tensor_points
from cfdeconv.conjecture_lab import (
    _KERNEL_BLOCK,
    _V_HALF,
    _V_STEP,
    _W_HALF,
    _W_STEP,
    _lecam_grids,
    _noise_kernel,
    _support_windows,
    _w_window,
    GridFunction,
    NoisePack,
    WeightSpec,
    build_two_point,
    build_weighted_basis,
    census_protocol,
    h_kappa_eval,
    interval_census,
    lecam_value,
    make_instance,
    mollifier_constant,
    mollifier_eval,
    noise_g,
    norm_chain,
    scaled_profile,
)
from cfdeconv.legendre_bounds import legendre_eval
from cfdeconv.scenarios import AxisNoise, make_two_point


def quad_scalar(fn, lo, hi):
    return quad(lambda x: float(fn(np.array([x]))[0]), lo, hi, limit=300)[0]


def hermite_function(k: int, x) -> np.ndarray:
    """L2-normalized Hermite function, the kappa=1/2 comparison oracle."""
    x = np.asarray(x, dtype=np.float64)
    cur = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if k == 0:
        return cur
    prev = np.zeros_like(x)
    for j in range(k):
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * x * cur - math.sqrt(j / (j + 1.0)) * prev
    return cur


def masked_g_density(c: float, x) -> np.ndarray:
    """noise_g's density as first written: far formula gathered off the band."""
    y = np.abs(np.asarray(x, dtype=np.float64)) * c
    eps = y - math.pi
    near = np.abs(eps) < 0.5
    out = np.empty_like(y)
    ys = y[~near]
    out[~near] = (1.0 + np.cos(ys)) / (math.pi**2 - ys**2) ** 2
    es = eps[near]
    half = np.sinc(es / (2.0 * math.pi)) / 2.0
    out[near] = half**2 / (2.0 * math.pi + es) ** 2 * 2.0
    return 2.0 * math.pi * c * out


def pair_densities(two_point):
    """(f_0, f_n): the true densities of the plain and perturbed scenarios."""
    noise = AxisNoise("point_mass", 0.0)
    return tuple(make_two_point(two_point, noise, noise, perturbed=flag).true_density()
                 for flag in (False, True))


def lecam_w_grid():
    return np.arange(-_W_HALF, _W_HALF + _W_STEP / 2, _W_STEP)


def dense_l1(two_point, QA) -> float:
    """Single-observation L1 from the dense (G @ QA) @ Z^T on the full grids."""
    v = np.arange(-_V_HALF, _V_HALF + _V_STEP / 2, _V_STEP)
    w = lecam_w_grid()
    G = two_point.pert(v[:, None] - w[None, :])
    Z = two_point.zeta0(v[:, None] - w[None, :])
    C2 = (G @ QA) @ Z.T
    return float(two_point.instance.alpha_n * np.sum(np.abs(C2)) * _W_STEP**2 * _V_STEP**2)


@pytest.fixture(scope="module")
def tp_instance(basis_cache):
    return make_instance(basis_cache(0.75), 10**4)


@pytest.fixture(scope="module")
def two_point(tp_instance, basis_cache):
    return build_two_point(tp_instance, basis_cache(0.75))


@pytest.fixture(scope="module")
def g_noise():
    return noise_g(2.0)


class TestWeight:
    def test_even(self):
        spec = WeightSpec(kappa=0.75, x0=1.3)
        xs = np.linspace(0, spec.cutoff(), 50)
        np.testing.assert_array_equal(h_kappa_eval(spec, xs), h_kappa_eval(spec, -xs))

    def test_unit_mass(self):
        for kappa in (0.5, 0.75, 1.0):
            spec = WeightSpec(kappa=kappa, x0=1.0)
            mass = quad_scalar(lambda x: h_kappa_eval(spec, x), -spec.cutoff(), spec.cutoff())
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_half_kappa_is_gaussian_shape(self):
        # exponent ((1 + x^2)/2)^1, so h(1)/h(0) = exp(-1/2)
        spec = WeightSpec(kappa=0.5, x0=1.0)
        ratio = float(h_kappa_eval(spec, 1.0) / h_kappa_eval(spec, 0.0))
        assert ratio == pytest.approx(0.6065306597126334, rel=1e-14)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.55, 0.75, 0.9, 0.99])
    def test_normalizer_matches_40_digit_integral(self, kappa):
        with mp.workdps(40):
            power = 1 / (2 * (1 - mp.mpf(kappa)))
            half = mp.quad(lambda x: mp.exp(-((1 + x * x) / 2) ** power),
                           [0, 0.5, 1, 1.5, 2, 4, 8, 16, mp.inf])
            exact = 1 / (2 * half)
        c_h = WeightSpec(kappa=kappa).c_h
        assert abs(c_h - exact) <= 1e-15 * exact

    def test_flat_limit_is_uniform(self):
        spec = WeightSpec(kappa=1.0, x0=2.0)
        assert float(h_kappa_eval(spec, 1.9)) == pytest.approx(0.25)
        assert float(h_kappa_eval(spec, 2.1)) == 0.0
        assert spec.cutoff() == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            WeightSpec(kappa=0.0, x0=1.0)
        with pytest.raises(ConfigError):
            WeightSpec(kappa=1.2, x0=1.0)
        with pytest.raises(ConfigError):
            WeightSpec(kappa=0.75, x0=-1.0)


def ulp_error(got, exact, xs):
    """Largest |got - exact(x)| in units of the last place of exact(x)."""
    worst = 0.0
    with mp.workdps(40):
        for g, x in zip(got, xs):
            ref = exact(mp.mpf(float(x)))
            worst = max(worst, float(abs(mp.mpf(float(g)) - ref)) / np.spacing(abs(float(ref))))
    return worst


class TestDeterministicKernel:
    """The fixed-operation exp/log behind the weight, against mpmath."""

    def test_exp_within_one_ulp(self):
        # exponents the weight produces: -expo in [-45, 0], log(expo) below
        # 4; then the reduction by n ln2 across the normal range
        xs = np.concatenate([np.linspace(-46.0, 2.0, 4801),
                             np.random.default_rng(0).uniform(-46.0, 2.0, 2000),
                             np.linspace(-700.0, 700.0, 141)])
        assert ulp_error(det_exp(xs), mp.exp, xs) <= 1.0

    def test_log_within_one_ulp(self):
        # bases (1 + x^2)/2 of the weight up to its cutoff, and 45; then
        # the binary exponent reduction across the float range
        xs = np.concatenate([np.linspace(0.5, 60.0, 4801),
                             np.random.default_rng(1).uniform(0.5, 60.0, 2000),
                             np.ldexp(1.3, np.arange(-1000, 1001, 50))])
        assert ulp_error(det_log(xs), mp.log, xs) <= 1.0

    def test_exact_and_special_values(self):
        assert det_exp(0.0) == 1.0
        assert det_log(1.0) == 0.0
        assert det_exp(-np.inf) == 0.0
        assert np.isnan(det_exp(np.nan))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_array_equal(
                det_log(np.array([0.0, np.inf, -1.0])), [-np.inf, np.inf, np.nan]
            )


class TestWeightedBasis:
    def test_certificate_recorded(self, basis_cache):
        basis = basis_cache(0.75)
        assert sorted(basis.cert) == ["gram_error", "rule"]
        assert basis.cert["gram_error"] <= 1e-6

    def test_constant_member(self, basis_cache):
        # P_0 = 1/sqrt(integral of h^2)
        basis = basis_cache(0.75)
        spec = basis.weight
        h2 = quad_scalar(lambda x: h_kappa_eval(spec, x) ** 2, -spec.cutoff(), spec.cutoff())
        assert float(basis.eval_poly(0, 0.0)) == pytest.approx(1.0 / math.sqrt(h2), rel=1e-9)

    def test_independent_orthonormality(self, basis_cache):
        basis = basis_cache(0.75)
        spec = basis.weight
        cut = spec.cutoff()
        for i, j in ((0, 0), (2, 2), (5, 5), (0, 2), (1, 4), (3, 6)):
            inner = quad_scalar(
                lambda x, i=i, j=j: basis.eval_poly(i, x) * basis.eval_poly(j, x)
                * h_kappa_eval(spec, x) ** 2,
                -cut, cut,
            )
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_flat_limit_matches_legendre(self, basis_cache):
        # h = 1/2 on [-1, 1], so orthonormal for h^2 dx = dx/4: twice Legendre
        basis = basis_cache(1.0)
        xs = np.linspace(-1, 1, 101)
        for K in (0, 1, 4, 9, 16):
            np.testing.assert_allclose(
                basis.eval_poly(K, xs), 2.0 * legendre_eval(K, 1.0, xs), atol=1e-8
            )

    def test_gaussian_member_matches_hermite(self, basis_cache):
        # kappa = 1/2 weight is Gaussian, so P_K h lines up with Hermite functions
        basis = basis_cache(0.5)
        xs = np.linspace(-8, 8, 2001)
        for K in (0, 3, 7, 10):
            a = basis.eval_ph(K, xs)
            b = hermite_function(K, xs)
            corr = abs(float(np.sum(a * b))) / math.sqrt(float(np.sum(a * a) * np.sum(b * b)))
            assert corr > 0.999

    def test_degree_range_enforced(self, basis_cache):
        basis = basis_cache(0.75)
        with pytest.raises(ConfigError):
            basis.eval_poly(17, 0.0)
        with pytest.raises(ConfigError):
            basis.eval_poly(-1, 0.0)

    def test_k_max_cap(self):
        with pytest.raises(ConfigError):
            build_weighted_basis(WeightSpec(kappa=0.75), 17)

    def test_unreachable_certificate_raises(self):
        with pytest.raises(NumericalError, match="orthonormality lost"):
            build_weighted_basis(WeightSpec(kappa=0.75), 8, cert_tol=1e-30)

    def test_certificate_tolerance_is_the_only_default(self):
        # the panel rule is fixed; gram_error is checked against cert_tol's default
        params = inspect.signature(build_weighted_basis).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == {"cert_tol": 1e-6}


class TestScaledProfile:
    def test_degree_one_reductions(self, basis_cache):
        basis = basis_cache(0.75)
        xs = np.linspace(-2, 2, 101)
        direct = basis.eval_ph(1, xs)
        np.testing.assert_array_equal(scaled_profile(basis, 1, "stretch", xs), direct)
        np.testing.assert_array_equal(scaled_profile(basis, 1, "squeeze", xs), direct)

    def test_parity(self, basis_cache):
        basis = basis_cache(0.75)
        xs = np.linspace(0.01, 1.5, 40)
        even = scaled_profile(basis, 6, "stretch", xs)
        np.testing.assert_allclose(scaled_profile(basis, 6, "stretch", -xs), even, rtol=1e-12)
        odd = scaled_profile(basis, 7, "squeeze", xs)
        np.testing.assert_allclose(scaled_profile(basis, 7, "squeeze", -xs), -odd, rtol=1e-12)

    def test_sup_plateau(self, basis_cache):
        # the rescaled sup stays within a modest band as the degree grows
        basis = basis_cache(0.75)
        xs = np.linspace(-3, 3, 4001)
        for scaling in ("stretch", "squeeze"):
            sups = [
                float(np.max(np.abs(scaled_profile(basis, K, scaling, xs))))
                for K in range(2, 13)
            ]
            assert max(sups) <= 3.0 * min(sups)

    def test_unknown_scaling(self, basis_cache):
        with pytest.raises(ConfigError):
            scaled_profile(basis_cache(0.75), 3, "shift", np.zeros(3))


class TestIntervalCensus:
    def test_unreachable_bar_counts_zero(self, basis_cache):
        result = interval_census(basis_cache(0.75), 6, 0.8, 1e6)
        assert result.count == 0
        assert result.intervals == ()

    def test_generous_bar_finds_intervals(self, basis_cache):
        result = interval_census(basis_cache(0.75), 6, 0.1, 0.05)
        assert result.count >= 1
        for lo, hi in result.intervals:
            assert hi - lo >= result.min_length - 1e-12

    def test_protocol_holds_at_frozen_constants(self, basis_cache):
        for kappa in (0.55, 0.75, 0.95):
            c0, rows, ok = census_protocol(basis_cache(kappa), 0.8, 0.3)
            assert ok, f"kappa={kappa}: holdout rows {rows}"
            assert c0 > 0
            for K, count, required in rows:
                assert count >= required
                assert required == math.ceil(c0 * K**kappa)

    def test_protocol_zero_fit_short_circuits(self, basis_cache):
        c0, rows, ok = census_protocol(basis_cache(0.75), 0.8, 1e6)
        assert (c0, ok) == (0.0, False)
        assert all(req == 0 for _, _, req in rows)

    def test_validation(self, basis_cache):
        with pytest.raises(ConfigError):
            interval_census(basis_cache(0.75), 4, 0.0, 0.3)

    @pytest.mark.parametrize("kappa", [0.55, 0.75])
    def test_runs_match_a_scan_loop(self, basis_cache, kappa):
        basis = basis_cache(kappa)
        for K in (4, 9, 16):
            result = interval_census(basis, K, 0.8, 0.3)
            step = result.min_length / 20.0
            xs = np.arange(-1.0, 1.0 + step / 2.0, step)
            mask = np.abs(basis.eval_ph(K, xs)) >= result.threshold
            expected, start = [], None
            for idx, flag in enumerate(np.append(mask, False)):
                if flag and start is None:
                    start = idx
                elif not flag and start is not None:
                    if (idx - 1 - start) * step >= result.min_length:
                        expected.append((float(xs[start]), float(xs[idx - 1])))
                    start = None
            assert result.intervals == tuple(expected)

    def test_runs_at_both_ends_and_short_run_dropped(self):
        # kappa = 1, K = 1: bar c2, min length c1, scan step c1 / 20 over 201 points
        scanned = []

        def eval_ph(K, xs):
            scanned.append(xs)
            idx = np.arange(xs.shape[0])
            return ((idx < 30) | ((idx >= 90) & (idx < 95)) | (idx >= 160)).astype(float)

        basis = SimpleNamespace(weight=SimpleNamespace(kappa=1.0), eval_ph=eval_ph)
        result = interval_census(basis, 1, 0.2, 0.5)
        xs = scanned[0]
        assert xs.shape == (201,) and result.min_length == 0.2
        # the 5-point run in the middle spans 0.04 < 0.2 and is dropped
        assert result.intervals == ((xs[0], xs[29]), (xs[160], xs[-1]))
        assert result.count == 2


class TestMollifier:
    def test_normalizing_constant(self):
        assert mollifier_constant() == pytest.approx(2.2522836210435810, rel=1e-12)

    def test_normalizing_constant_matches_40_digit_integral(self):
        with mp.workdps(40):
            exact = 1 / mp.quad(lambda x: mp.exp(-1 / (1 - x * x)), [-1, 0, 1])
        assert abs(mollifier_constant() - exact) <= 1e-15 * exact

    def test_support_endpoints(self):
        assert float(mollifier_eval(2.0, 0.5)) == 0.0
        assert float(mollifier_eval(2.0, -0.51)) == 0.0
        assert float(mollifier_eval(2.0, 0.0)) > 0.0

    def test_unit_mass(self):
        mass = quad_scalar(lambda x: mollifier_eval(2.0, x), -0.5, 0.5)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            mollifier_eval(0.0, 0.1)


class TestNormChain:
    def test_smoothing_contracts(self, basis_cache):
        basis = basis_cache(0.75)
        for K, b in ((4, 10.0), (8, 20.0), (12, 30.0)):
            plain, smoothed = norm_chain(basis, K, b)
            assert 0 < smoothed <= plain

    def test_wide_bandwidth_is_identity(self, basis_cache):
        # taps collapse to a single node once 1/b drops below the grid step
        plain, smoothed = norm_chain(basis_cache(0.75), 6, 1e4)
        assert smoothed == pytest.approx(plain, rel=1e-12)

    def test_norm_decay_slope(self, basis_cache):
        # squared norms of P_K h^2 decay like K^(kappa - 1)
        basis = basis_cache(0.75)
        Ks = np.arange(4, 17)
        plains = [norm_chain(basis, int(K), 50.0)[0] for K in Ks]
        slope = float(np.polyfit(np.log(Ks), np.log(plains), 1)[0])
        assert slope == pytest.approx(0.75 - 1.0, abs=0.25)


class TestTwoPoint:
    def test_schedule(self, tp_instance):
        assert tp_instance.K_n == 6
        assert tp_instance.b_n == pytest.approx(4.0 * 6**0.75, rel=1e-12)
        assert tp_instance.alpha_n == pytest.approx(2.460707456363758e-05, rel=1e-3)

    def test_validation(self, basis_cache):
        basis = basis_cache(0.75)
        with pytest.raises(ConfigError):
            make_instance(basis, 2)
        with pytest.raises(ConfigError):
            make_instance(basis, 100, a=1.0)
        with pytest.raises(ConfigError):
            make_instance(basis, 100, d2=0)

    def test_perturbation_integrates_to_zero(self, two_point):
        assert abs(two_point.pert.mass()) < 1e-12

    def test_second_density_stays_a_density(self, two_point):
        assert two_point.zeta_mass == pytest.approx(1.0, abs=1e-8)
        assert two_point.zeta_min >= -1e-12
        assert two_point.l2_sq > 0

    def test_zero_amplitude_collapses_the_pair(self, tp_instance, basis_cache, rng):
        flat = dataclasses.replace(tp_instance, alpha_n=0.0)
        tp = build_two_point(flat, basis_cache(0.75))
        f0, fn = pair_densities(tp)
        pts = rng.uniform(-3, 3, size=(50, 2))
        np.testing.assert_array_equal(fn(pts), f0(pts))
        assert tp.l2_sq == 0.0

    def test_identity_mixing_is_a_product(self, tp_instance, basis_cache, rng):
        unmixed = dataclasses.replace(tp_instance, a=0.0)
        tp = build_two_point(unmixed, basis_cache(0.75))
        pts = rng.uniform(-3, 3, size=(50, 2))
        direct = tp.zeta0(pts[:, 0]) * tp.zeta0(pts[:, 1])
        np.testing.assert_array_equal(pair_densities(tp)[0](pts), direct)

    def test_separation_quadratic_in_amplitude(self, tp_instance, two_point, basis_cache):
        halved = dataclasses.replace(tp_instance, alpha_n=tp_instance.alpha_n / 2.0)
        tp_half = build_two_point(halved, basis_cache(0.75))
        assert tp_half.l2_sq / two_point.l2_sq == 0.25


class TestNoisePack:
    def test_cf_values(self, g_noise):
        assert float(g_noise.cf(0.0)) == 1.0
        assert abs(float(g_noise.cf(2.0))) < 1e-15
        assert abs(float(g_noise.cf(-2.0))) < 1e-15
        expected = 0.7 * math.cos(0.3 * math.pi) + math.sin(0.3 * math.pi) / math.pi
        assert float(g_noise.cf(0.6)) == pytest.approx(expected, rel=1e-15)

    def test_cf_compact_support(self, g_noise):
        assert float(g_noise.cf(2.0001)) == 0.0
        assert float(g_noise.cf(-9.0)) == 0.0

    def test_density_nonnegative_even(self, g_noise):
        xs = np.linspace(0, 30, 500)
        left, right = g_noise.density(-xs), g_noise.density(xs)
        assert np.all(right >= 0)
        np.testing.assert_array_equal(left, right)

    def test_density_mass(self, g_noise):
        mass = 2 * quad(lambda x: float(g_noise.density(np.array([x]))[0]),
                        0, 500.0, limit=400)[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_removable_singularity(self, g_noise):
        xc = math.pi / g_noise.c
        vals = g_noise.density(np.array([xc - 1e-7, xc, xc + 1e-7]))
        assert np.all(np.isfinite(vals))
        assert np.ptp(vals) / vals[1] < 1e-5

    def test_sampler_matches_density(self, g_noise, rng):
        sample = np.sort(g_noise.sampler(100_000, rng))
        xs = np.linspace(-1000.0, 1000.0, 2**16 + 1)
        dens = g_noise.density(xs)
        cdf = np.concatenate(
            [[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))]
        )
        cdf /= cdf[-1]
        empirical = np.arange(1, sample.size + 1) / sample.size
        ks = float(np.max(np.abs(empirical - np.interp(sample, xs, cdf))))
        assert ks < 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            noise_g(0.0)

    def test_density_matches_masked_formula(self, g_noise):
        c = g_noise.c
        marks = [math.pi / c, (math.pi - 0.5) / c, (math.pi + 0.5) / c]
        near = [np.nextafter(m, m + s * np.inf) for m in marks for s in (-1, 1)]
        xs = np.concatenate([np.linspace(-30.0, 30.0, 6001), marks, near])
        xs = np.concatenate([xs, -xs, [0.0]])
        # both band edges |y - pi| = 0.5 and the singularity y = pi are hit exactly
        eps = np.abs(xs) * c - math.pi
        assert np.count_nonzero(eps == 0.5) == 2 and np.count_nonzero(eps == -0.5) == 2
        assert np.count_nonzero(eps == 0.0) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g_noise.density(xs)
        np.testing.assert_array_equal(got, masked_g_density(c, xs))


class TestLeCam:
    def test_positive_value(self, two_point, g_noise):
        report = lecam_value(two_point, g_noise, 10**4)
        assert report.value > 0
        assert report.value == pytest.approx(4.66389315755521e-12, rel=1e-3)
        assert 0 < report.l1_single < 2.0

    def test_zero_sample_bracket(self, two_point, g_noise):
        report = lecam_value(two_point, g_noise, 0)
        assert report.value == 0.25 * report.l2_sq

    def test_amplitude_halving_quarters_the_value(self, tp_instance, two_point,
                                                   g_noise, basis_cache):
        halved = build_two_point(
            dataclasses.replace(tp_instance, alpha_n=tp_instance.alpha_n / 2.0),
            basis_cache(0.75),
        )
        full = lecam_value(two_point, g_noise, 10**4)
        half = lecam_value(halved, g_noise, 10**4)
        assert half.value / full.value == pytest.approx(0.25, abs=0.05 * 0.25)

    def test_lattice_l2_agrees_with_closed_form(self, two_point, g_noise):
        # the lattice sum of (f0 - fn)^2 on lecam_value's v grid
        grid = np.arange(-_V_HALF, _V_HALF + _V_STEP / 2, _V_STEP)
        mesh = tensor_points([grid, grid])
        f0, fn = pair_densities(two_point)
        lattice = float(np.sum((f0(mesh) - fn(mesh)) ** 2) * _V_STEP**2)
        report = lecam_value(two_point, g_noise, 10**4)
        assert report.l2_sq == two_point.l2_sq
        assert lattice == pytest.approx(two_point.l2_sq, rel=1e-3)

    def test_dimension_guard(self, tp_instance, g_noise, basis_cache):
        wide = dataclasses.replace(tp_instance, d2=2)
        widened = build_two_point(wide, basis_cache(0.75))
        with pytest.raises(ConfigError):
            lecam_value(widened, g_noise, 10)

    def test_negative_n_rejected(self, two_point, g_noise):
        with pytest.raises(ConfigError):
            lecam_value(two_point, g_noise, -1)


class TestGridFunctionSupport:
    def test_support_is_the_nonzero_interpolant(self):
        xs = np.arange(-8, 9) * 0.25
        values = np.zeros_like(xs)
        values[5:9] = [0.5, 0.0, 1.0, 2.0]
        f = GridFunction(xs, values)
        lo, hi = f.support()
        assert (lo, hi) == (xs[4], xs[9])
        assert f(np.linspace(lo, hi, 41)[1:-1]).min() >= 0.0
        outside = np.concatenate([np.linspace(xs[0], lo, 9), np.linspace(hi, xs[-1], 9)])
        np.testing.assert_array_equal(f(outside), 0.0)

    def test_support_clips_to_the_grid(self):
        xs = np.arange(5) * 0.5
        assert GridFunction(xs, np.ones(5)).support() == (0.0, 2.0)

    def test_two_point_support_inside_the_padded_grid(self, two_point):
        lo, hi = two_point.zeta0.support()
        xs = two_point.zeta0.xs
        assert xs[0] < lo < hi < xs[-1]


class TestLeCamKernel:
    @pytest.fixture(scope="class")
    def dense_kernel(self, tp_instance, g_noise):
        # the pushforward kernel as two separate density evaluations
        w, a, c = lecam_w_grid(), tp_instance.a, g_noise.c
        det = abs(float(np.linalg.det(tp_instance.matrix())))
        return det * masked_g_density(c, w[:, None] + a * w[None, :]) * \
            masked_g_density(c, a * w[:, None] + w[None, :])

    @pytest.mark.parametrize("kappa", [0.55, 0.75])
    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_support_products_match_dense(self, kappa, n, basis_cache, g_noise, dense_kernel):
        basis = basis_cache(kappa)
        two = build_two_point(make_instance(basis, n), basis)
        report = lecam_value(two, g_noise, n)
        assert report.l1_single == pytest.approx(dense_l1(two, dense_kernel), rel=1e-12, abs=0)

    def test_kernel_bits_match_two_evaluations(self, two_point, g_noise, dense_kernel):
        lecam_value(two_point, g_noise, 10**4)
        (kernel,) = g_noise._kernel.values()
        np.testing.assert_array_equal(kernel, dense_kernel)

    def test_density_evaluated_once_per_a(self, tp_instance, two_point, g_noise, basis_cache):
        points = []

        def counting(x):
            points.append(np.size(x))
            return g_noise.density(x)

        noise = NoisePack(c=g_noise.c, density=counting, cf=g_noise.cf, sampler=g_noise.sampler)
        n_w = lecam_w_grid().size
        first = lecam_value(two_point, noise, 10**4)
        assert sum(points) == n_w**2
        again = lecam_value(two_point, noise, 10**6)
        assert sum(points) == n_w**2
        assert again.l1_single == first.l1_single
        (key,) = noise._kernel
        assert key[0] == tp_instance.a
        assert not noise._kernel[key].flags.writeable
        with pytest.raises(ValueError):
            noise._kernel[key][0, 0] = 1.0

        other = build_two_point(dataclasses.replace(tp_instance, a=0.3), basis_cache(0.75))
        lecam_value(other, noise, 10**4)
        assert sum(points) == 2 * n_w**2
        (new_key,) = noise._kernel
        assert new_key[0] == 0.3
        assert not noise._kernel[new_key].flags.writeable

    @pytest.mark.parametrize("n_w", [1, _KERNEL_BLOCK, _KERNEL_BLOCK + 1, 301])
    def test_blocked_kernel_bits_at_block_edges(self, n_w, tp_instance, g_noise):
        w = np.linspace(-_W_HALF, _W_HALF, n_w)
        a, det = tp_instance.a, abs(float(np.linalg.det(tp_instance.matrix())))
        noise = dataclasses.replace(g_noise)  # a fresh, empty kernel cache
        M = g_noise.density(w[:, None] + a * w[None, :])
        assert _noise_kernel(noise, a, det, w).tobytes() == ((det * M) * M.T).tobytes()

    def test_kernel_build_peak_is_the_kernel_plus_one_block(self, tp_instance, g_noise):
        w = lecam_w_grid()
        a, det = tp_instance.a, abs(float(np.linalg.det(tp_instance.matrix())))
        noise = dataclasses.replace(g_noise)  # a fresh, empty kernel cache
        tracemalloc.start()
        try:
            QA = _noise_kernel(noise, a, det, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert QA.shape == (w.size, w.size)
        assert peak <= QA.nbytes + 16 * 2**20

    def test_steps_must_be_whole_multiples(self, two_point, g_noise, monkeypatch):
        monkeypatch.setattr("cfdeconv.conjecture_lab._V_STEP", 0.07)
        with pytest.raises(ConfigError, match="whole multiple"):
            lecam_value(two_point, g_noise, 10**4)

    def test_v_is_every_rth_w_node(self):
        v, w = _lecam_grids()
        first = int(np.searchsorted(w, v[0]))
        np.testing.assert_array_equal(v, w[first::round(_V_STEP / _W_STEP)][:v.size])
        np.testing.assert_allclose(v[[0, -1]], [-_V_HALF, _V_HALF], rtol=0, atol=1e-9)
        assert v.size == round(2 * _V_HALF / _V_STEP) + 1

    @pytest.mark.parametrize("case", ["pert", "zeta0_second_product", "empty_window"])
    def test_gathered_windows_match_pointwise(self, case, two_point):
        v, w = _lecam_grids()
        if case == "pert":
            f = two_point.pert
        elif case == "zeta0_second_product":
            # the second product runs on the w columns the first one kept
            f = two_point.zeta0
            w = w[_w_window(f, v[0], v[-1], w)]
        else:
            # a hat near x = 90: no v - w reaches it for the first v blocks
            xs = 90.0 + np.arange(-16, 17) * 0.125
            f = GridFunction(xs, np.maximum(0.0, 1.0 - np.abs(xs - 90.0)))
        slope = float(np.max(np.abs(np.diff(f.values)))) / f.step
        blocks = list(_support_windows(f, v, w))
        assert [rows.stop - rows.start for rows, _, _ in blocks] == [64] * 12 + [33]
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == v.size
        widths = [cols.stop - cols.start for _, cols, _ in blocks]
        if case == "empty_window":
            assert widths[0] == 0 and widths[-1] > 0
        else:
            assert min(widths) > 0
        for rows, cols, block in blocks:
            pointwise = f(v[rows, None] - w[None, cols])
            assert block.shape == pointwise.shape and block.flags.c_contiguous
            np.testing.assert_allclose(block, pointwise, rtol=0,
                                       atol=2 * np.spacing(_W_HALF) * slope)

    @pytest.mark.parametrize("kappa", [0.55, 0.75])
    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_one_evaluation_per_support_product(self, kappa, n, basis_cache, g_noise,
                                                monkeypatch):
        basis = basis_cache(kappa)
        two = build_two_point(make_instance(basis, n), basis)
        sizes, call = [], GridFunction.__call__

        def counting(self, x):
            sizes.append(np.size(x))
            return call(self, x)

        monkeypatch.setattr(GridFunction, "__call__", counting)
        lecam_value(two, g_noise, n)
        v, w = _lecam_grids()
        assert len(sizes) == 2
        assert max(sizes) <= round(_V_STEP / _W_STEP) * (v.size - 1) + w.size
