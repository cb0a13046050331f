"""Scenario generators: oracle CFs, reproducible sampling, alignment."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from cfdeconv import ConfigError, scenarios
from cfdeconv._util import ROW_BLOCK, row_blocks, tensor_points
from cfdeconv.conjecture_lab import (GridFunction, _mollifier_taps, build_two_point, make_instance,
                                     noise_g)
from cfdeconv.contrast import make_grid
from cfdeconv.multiindex_taylor import TaylorPoly, index_table, monomial_matrix, parity_phase
from cfdeconv.reconstruct import DensityGrid, LatticeSpec, invert
from cfdeconv.scenarios import (
    AxisNoise,
    GridSource,
    SignalSpec,
    cubic_plus_x,
    make_eiv,
    make_ica,
    make_repeated,
    make_two_point,
    translation_align,
    truth_l2,
)


class TestSignalSpec:
    def test_uniform_cf_is_sinc(self):
        cf = SignalSpec("uniform", (1.0,)).cf()
        assert complex(cf(np.array([1.0]))[0]) == pytest.approx(
            0.8414709848078965, rel=1e-14
        )
        assert complex(cf(np.array([0.0]))[0]) == 1.0

    def test_atoms_cf_matches_direct_sum(self, rng):
        xs, dens = scenarios._h_kappa_grid(0.75, 1.0)
        weights = dens / np.sum(dens)
        t = rng.uniform(-30.0, 30.0, size=(3, 200))
        got = scenarios._atoms_cf(xs, weights)(t)
        assert got.shape == t.shape
        assert np.max(np.abs(got - np.exp(1j * t[..., None] * xs) @ weights)) <= 1e-14

    def test_point_mass_cf_is_a_phase(self):
        cf = SignalSpec("point_mass", (0.7,)).cf()
        ts = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(cf(ts), np.exp(1j * 0.7 * ts), rtol=1e-14)

    def test_uniform_density_mass(self):
        dens = SignalSpec("uniform", (2.0,)).density()
        xs = np.linspace(-2.5, 2.5, 5001)
        assert float(np.trapezoid(dens(xs), xs)) == pytest.approx(1.0, abs=1e-3)

    def test_kind_must_be_a_string(self):
        with pytest.raises(ConfigError, match="unknown signal kind"):
            SignalSpec(["uniform"], (1.0,))

    def test_point_mass_has_no_density(self):
        assert SignalSpec("point_mass", (0.0,)).density() is None

    def test_support_halfwidth(self):
        assert SignalSpec("uniform", (1.5,)).support_halfwidth() == 1.5
        assert SignalSpec("compact_bump", (1.0, 4.0)).support_halfwidth() == 1.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SignalSpec("triangle", (1.0,))
        with pytest.raises(ConfigError):
            SignalSpec("custom")

    @pytest.mark.parametrize("kind, params", [
        ("uniform", ()), ("uniform", (1.0, 2.0)), ("point_mass", ()),
        ("compact_bump", (1.0,)), ("h_kappa", (0.75,)),
        ("uniform", (-1.0,)), ("uniform", (0.0,)), ("uniform", (float("nan"),)),
        ("compact_bump", (1.0, -4.0)), ("compact_bump", (0.0, 4.0)),
    ])
    def test_bad_params_rejected_at_construction(self, kind, params):
        # caught here, not when the first sample is drawn
        with pytest.raises(ConfigError, match=f"{kind} signal"):
            SignalSpec(kind, params)

    @pytest.mark.parametrize("kind, params, message", [
        ("point_mass", (math.nan,), "location must be finite"),
        ("point_mass", (-math.inf,), "location must be finite"),
        ("uniform", (math.inf,), "half_width must be finite"),
        ("compact_bump", (1.0, math.inf), "b must be finite"),
        ("compact_bump", (math.nan, 4.0), "half_width must be finite"),
        ("h_kappa", (math.nan, 1.0), "kappa must be finite"),
        ("h_kappa", (0.75, math.inf), "x0 must be finite"),
        ("h_kappa", (1.5, 1.0), r"kappa must be in \(0, 1\]"),
        ("h_kappa", (0.0, 1.0), r"kappa must be in \(0, 1\]"),
        ("h_kappa", (0.75, 0.0), "x0 must be positive"),
        ("h_kappa", (0.75, -1.0), "x0 must be positive"),
    ])
    def test_non_finite_or_out_of_range_param_named(self, kind, params, message):
        # a NaN passes every comparison-based check, so it is refused by name
        with pytest.raises(ConfigError, match=f"{kind} signal {message}"):
            SignalSpec(kind, params)

    def test_h_kappa_is_its_grid_source(self, rng):
        spec = SignalSpec("h_kappa", (0.75, 1.0))
        source = GridSource(GridFunction(*scenarios._h_kappa_grid(0.75, 1.0)))
        t = rng.uniform(-20.0, 20.0, size=300)
        np.testing.assert_array_equal(spec.cf()(t), source.cf()(t))
        np.testing.assert_array_equal(spec.sampler()(500, np.random.default_rng(3)),
                                      source.sampler()(500, np.random.default_rng(3)))
        np.testing.assert_array_equal(spec.norm_sq(), source.norm_sq())

    def test_compact_bump_density_is_its_grid_source(self, rng):
        spec = SignalSpec("compact_bump", (0.5, 4.0))
        source = GridSource(GridFunction(*scenarios._bump_uniform_density(0.5, 4.0)))
        xs = rng.uniform(-1.0, 1.0, size=300)
        np.testing.assert_array_equal(spec.density()(xs), source.density()(xs))
        np.testing.assert_array_equal(spec.norm_sq(), source.norm_sq())


def direct_bump_density(w, b):
    """Uniform(-w, w) * u_b as the direct convolution of the cell-averaged
    box with the mollifier taps, on _bump_uniform_density's grid."""
    xs, _ = scenarios._bump_uniform_density(w, b)
    step = min(w, 1.0 / b) / 256.0
    overlap = np.minimum(xs + step / 2, w) - np.maximum(xs - step / 2, -w)
    uni = np.clip(overlap, 0.0, None) / (2.0 * w * step)
    return np.convolve(uni, _mollifier_taps(b, step), mode="same") * step


class TestBumpDensity:
    @pytest.mark.parametrize("w, b", [(0.5, 4.0), (0.6, 2.0), (0.02, 4.0), (0.1, 0.5)])
    def test_matches_direct_convolution(self, w, b):
        _, values = scenarios._bump_uniform_density(w, b)
        direct = direct_bump_density(w, b)
        assert np.max(np.abs(values - direct)) <= 1e-13 * np.max(direct)

    def test_unit_mass_and_support(self):
        xs, values = scenarios._bump_uniform_density(0.02, 4.0)
        assert np.sum(values) * (xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-12)
        assert values.min() >= 0.0
        assert np.all(values[np.abs(xs) > 0.02 + 0.25 + 1e-3] == 0.0)

    def test_prefix_sums_carry_the_rounding(self, rng):
        values = rng.uniform(0.0, 1.0, size=5000) * 10.0 ** rng.uniform(-8, 0, size=5000)
        total, error = scenarios._prefix_sums(values)
        for lo, hi in [(0, 5000), (2500, 2501), (4000, 4900), (10, 4990)]:
            exact = math.fsum(values[lo:hi])
            window = (total[hi] - total[lo]) + (error[hi] - error[lo])
            assert window == pytest.approx(exact, rel=4e-16, abs=0)

    def test_narrow_box_is_linear_time(self):
        scenarios._bump_uniform_density.cache_clear()
        start = time.perf_counter()
        xs, values = scenarios._bump_uniform_density(1e-3, 4.0)
        assert time.perf_counter() - start < 0.5
        assert xs.shape[0] > 100_000
        assert np.sum(values) * (xs[1] - xs[0]) == pytest.approx(1.0, abs=1e-10)


class TestAxisNoise:
    def test_cf_closed_forms(self):
        ts = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            AxisNoise("uniform", 1.5).cf()(ts), np.sinc(1.5 * ts / math.pi), rtol=1e-14
        )
        np.testing.assert_allclose(
            AxisNoise("laplace", 0.8).cf()(ts), 1.0 / (1.0 + (0.8 * ts) ** 2), rtol=1e-14
        )
        assert float(AxisNoise("gaussian", 1.0).cf()(np.array([1.0]))[0]) == pytest.approx(
            0.6065306597126334, rel=1e-14
        )
        np.testing.assert_array_equal(AxisNoise("point_mass", 0.0).cf()(ts), 1.0)

    def test_g_density_cf_matches_closed_form(self):
        cf = AxisNoise("g_density", 2.0).cf()
        s = np.array([0.0, 0.3, 0.99, 1.0])
        expected = (1 - s) * np.cos(math.pi * s) + np.sin(math.pi * s) / math.pi
        np.testing.assert_allclose(cf(2.0 * s), expected, atol=1e-14)

    def test_point_mass_draw_is_zero(self, rng):
        np.testing.assert_array_equal(AxisNoise("point_mass", 0.0).draw(50, rng), 0.0)

    def test_draw_moments(self, rng):
        # uniform(-w, w) variance w^2/3
        sample = AxisNoise("uniform", 1.5).draw(200_000, rng)
        assert float(np.var(sample)) == pytest.approx(1.5**2 / 3, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AxisNoise("cauchy", 1.0)
        with pytest.raises(ConfigError):
            AxisNoise("uniform", -1.0)

    @pytest.mark.parametrize("kind, param", [
        ("uniform", math.nan), ("laplace", math.inf), ("gaussian", -math.inf),
        ("g_density", math.nan), ("point_mass", math.nan),
    ])
    def test_non_finite_param_rejected(self, kind, param):
        with pytest.raises(ConfigError, match=f"{kind} noise param must be finite"):
            AxisNoise(kind, param)

    def test_mixed_kind_block_cf_is_the_axis_product(self, rng):
        axes = (AxisNoise("g_density", 2.0), AxisNoise("uniform", 0.3))
        oracle = make_repeated(SignalSpec("uniform", (1.0,)), axes, axes[::-1], d1=2).oracle()
        t = rng.uniform(-1.0, 1.0, size=(50, 2))
        g, u = (axis.cf() for axis in axes)
        np.testing.assert_array_equal(oracle.phi_Q1(t), g(t[:, 0]) * u(t[:, 1]))
        np.testing.assert_array_equal(oracle.phi_Q2(t), u(t[:, 0]) * g(t[:, 1]))


class TestRepeated:
    def test_signal_cf_closed_form(self, uniform_repeated):
        # both coordinates share one uniform X: CF depends on t1 + t2 only
        phi = uniform_repeated.signal_cf()
        pts = np.array([[0.4, 0.3], [1.0, -0.2], [-0.6, -0.9], [0.5, -0.5]])
        s = pts.sum(axis=1)
        safe = np.where(np.abs(s) < 1e-12, 1.0, s)
        expected = np.where(np.abs(s) < 1e-12, 1.0, np.sin(safe) / safe)
        np.testing.assert_allclose(phi(pts), expected, rtol=1e-12)

    def test_degenerate_scenario_samples_zeros(self, pointmass_repeated):
        samples = pointmass_repeated.sample(40, seed=7)
        np.testing.assert_array_equal(samples.data, 0.0)
        phi = pointmass_repeated.signal_cf()
        np.testing.assert_array_equal(phi(np.array([[0.5, -1.0], [2.0, 3.0]])), 1.0)

    def test_sample_shape_and_blocks(self, uniform_repeated):
        samples = uniform_repeated.sample(25, seed=3)
        assert (samples.d1, samples.d2) == (1, 1)
        assert samples.data.shape == (25, 2)

    def test_sampling_is_reproducible(self, uniform_repeated):
        a = uniform_repeated.sample(100, seed=11).data
        b = uniform_repeated.sample(100, seed=11).data
        c = uniform_repeated.sample(100, seed=12).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cross_block_correlation(self):
        # corr(X + e1, X + e2) = 1 / (1 + c^2) for uniform signal and noise
        scenario = make_repeated(
            SignalSpec("uniform", (1.0,)),
            AxisNoise("uniform", 0.5),
            AxisNoise("uniform", 0.5),
        )
        data = scenario.sample(50_000, seed=99).data
        corr = float(np.corrcoef(data[:, 0], data[:, 1])[0, 1])
        assert corr == pytest.approx(1.0 / 1.25, abs=0.02)

    def test_diagnostics_recorded(self, uniform_repeated):
        diag = uniform_repeated.diagnostics
        assert set(diag) == {"h2_probe_min", "noise_cf_floor_1", "noise_cf_floor_2",
                             "nu", "c_nu"}
        assert diag["h2_probe_min"] > 1e-12
        assert min(diag["noise_cf_floor_1"], diag["noise_cf_floor_2"]) >= diag["c_nu"]

    def test_d1_converted_or_refused_by_name(self):
        signal, noise = SignalSpec("uniform", (1.0,)), AxisNoise("uniform", 0.3)
        converted = make_repeated(signal, noise, noise, d1="2")
        assert (converted.d1, converted.d2, converted.noise1) == (2, 2, (noise, noise))
        for bad in ("x", 1.5):
            with pytest.raises(ConfigError, match="d1 must be a int"):
                make_repeated(signal, noise, noise, d1=bad)

    def test_non_finite_noise_floor_rejected(self):
        # w t overflows on the box [-10, 10], so sinc(w t / pi) is nan there
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConfigError, match="noise CF floors"):
            make_repeated(SignalSpec("uniform", (1.0,)), AxisNoise("uniform", 1e308),
                          AxisNoise("uniform", 0.03), nu=10.0)

    def test_wide_noise_rejected(self):
        # gaussian CF drops below the floor on the working box
        with pytest.raises(ConfigError, match="noise CF floor"):
            make_repeated(
                SignalSpec("uniform", (1.0,)),
                AxisNoise("gaussian", 5.0),
                AxisNoise("gaussian", 5.0),
            )

    def test_oracle_components(self, uniform_repeated):
        oracle = uniform_repeated.oracle()
        ts = np.array([[0.2, 0.5]])
        assert complex(oracle.phi_R(ts)[0]) == pytest.approx(
            math.sin(0.7) / 0.7, rel=1e-12
        )
        g_cf = noise_g(2.0).cf
        assert complex(oracle.phi_Q1(np.array([[0.2]]))[0]) == pytest.approx(
            complex(g_cf(0.2)), rel=1e-14
        )


class TestEiv:
    def test_point_signal_phase(self):
        # X = 0.5 surely, so (X, X^3 + X) has a two-frequency phase CF
        scenario = make_eiv(
            SignalSpec("point_mass", (0.5,)),
            AxisNoise("uniform", 0.5),
            AxisNoise("uniform", 0.5),
        )
        phi = scenario.signal_cf()
        pts = np.array([[0.3, -0.8], [1.0, 0.2]])
        y2 = 0.5**3 + 0.5
        expected = np.exp(1j * (pts[:, 0] * 0.5 + pts[:, 1] * y2))
        np.testing.assert_allclose(phi(pts), expected, rtol=1e-9)

    def test_cf_matches_monte_carlo(self):
        scenario = make_eiv(
            SignalSpec("uniform", (1.0,)),
            AxisNoise("point_mass", 0.0),
            AxisNoise("point_mass", 0.0),
        )
        n = 200_000
        data = scenario.sample(n, seed=5).data
        phi = scenario.signal_cf()
        for t in (np.array([0.5, 0.3]), np.array([-1.0, 0.7])):
            emp = complex(np.mean(np.exp(1j * data @ t)))
            assert abs(emp - complex(phi(t[None, :])[0])) < 4.0 / math.sqrt(n)

    def test_link_shape(self):
        xs = np.array([-2.0, 0.0, 1.5])
        np.testing.assert_array_equal(cubic_plus_x(xs), xs**3 + xs)

    def test_unknown_link_rejected(self):
        with pytest.raises(ConfigError, match="unknown link"):
            make_eiv(
                SignalSpec("uniform", (1.0,)),
                AxisNoise("uniform", 0.5),
                AxisNoise("uniform", 0.5),
                link="sigmoid",
            )


class TestIca:
    def make_scenario(self, a=0.5):
        sources = [SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))]
        mixing = np.array([[1.0, a], [a, 1.0]])
        return make_ica(sources, mixing, AxisNoise("uniform", 0.3),
                        AxisNoise("uniform", 0.3), d1=1)

    def test_signal_cf_factorizes_through_mixing(self):
        scenario = self.make_scenario()
        phi = scenario.signal_cf()
        pts = np.array([[0.4, -0.7], [1.0, 0.3]])
        args = pts @ scenario.mixing
        expected = (np.sin(args[:, 0]) / args[:, 0]) * (
            np.sin(0.5 * args[:, 1]) / (0.5 * args[:, 1])
        )
        np.testing.assert_allclose(phi(pts), expected, rtol=1e-12)

    def test_true_density_change_of_variables(self, rng):
        scenario = self.make_scenario()
        dens = scenario.true_density()
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        A_inv = np.linalg.inv(scenario.mixing)
        s = pts @ A_inv.T
        inside = (np.abs(s[:, 0]) <= 1.0) & (np.abs(s[:, 1]) <= 0.5)
        det = abs(float(np.linalg.det(scenario.mixing)))
        expected = np.where(inside, 0.5 * 1.0 / det, 0.0)
        np.testing.assert_allclose(dens(pts), expected, atol=1e-12)

    def test_atom_source_oracle_memory_bounded(self):
        # two h_kappa sources of 8193 atoms each: the 48^2 oracle tables must
        # not hold every point x atom phase at once (that peaks near 600 MB)
        sources = [SignalSpec("h_kappa", (0.75, 1.0))] * 2
        scenario = make_ica(sources, MIXING, NOISE, NOISE, d1=1)
        tracemalloc.start()
        try:
            full, first, second = scenario.oracle().tables(make_grid(1.0, (1, 1), 48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.shape == (48, 48) and np.all(np.isfinite(full))
        assert peak < 150e6

    def test_d1_converted_or_refused_by_name(self):
        sources, noise = [SignalSpec("uniform", (1.0,))] * 2, AxisNoise("uniform", 0.3)
        assert make_ica(sources, MIXING, noise, noise, d1="1").d1 == 1
        for bad in ("x", 1.5):
            with pytest.raises(ConfigError, match="d1 must be a int"):
                make_ica(sources, MIXING, noise, noise, d1=bad)

    def test_source_must_load_on_both_blocks(self):
        sources = [SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (1.0,))]
        with pytest.raises(ConfigError, match="both observation blocks"):
            make_ica(sources, np.eye(2), AxisNoise("uniform", 0.3),
                     AxisNoise("uniform", 0.3), d1=1)

    def test_singular_mixing_rejected(self):
        sources = [SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (1.0,))]
        with pytest.raises(ConfigError, match="singular"):
            make_ica(sources, np.ones((2, 2)), AxisNoise("uniform", 0.3),
                     AxisNoise("uniform", 0.3), d1=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mixing_rejected(self, bad):
        sources = [SignalSpec("uniform", (1.0,))] * 2
        with pytest.raises(ConfigError, match="mixing matrix must be finite"):
            make_ica(sources, [[1.0, bad], [0.5, 1.0]], AxisNoise("uniform", 0.3),
                     AxisNoise("uniform", 0.3), d1=1)

    def test_non_finite_probe_rejected(self):
        xs = np.linspace(-1.0, 1.0, 9)
        sources = [GridSource(GridFunction(xs, np.full(9, math.nan))), SignalSpec("uniform", (1.0,))]
        with pytest.raises(ConfigError, match="joint CF probe is nan, not finite"):
            make_ica(sources, [[1.0, 0.5], [0.5, 1.0]], AxisNoise("uniform", 0.3),
                     AxisNoise("uniform", 0.3), d1=1)

    def test_shape_validation(self):
        sources = [SignalSpec("uniform", (1.0,))]
        with pytest.raises(ConfigError):
            make_ica(sources, np.eye(2), AxisNoise("uniform", 0.3),
                     AxisNoise("uniform", 0.3), d1=1)


@pytest.fixture(scope="module")
def two_point(basis_cache):
    basis = basis_cache(0.75)
    return build_two_point(make_instance(basis, 10**4), basis)


class TestTwoPointScenario:
    NOISE = AxisNoise("uniform", 0.3)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_is_the_ica_mixture_of_its_sources(self, two_point, perturbed):
        spec = make_two_point(two_point, self.NOISE, self.NOISE, perturbed=perturbed)
        ica = make_ica(spec.sources, spec.mixing, self.NOISE, self.NOISE, d1=spec.d1)
        assert spec.variant == "two_point"
        np.testing.assert_array_equal(spec.mixing, two_point.instance.matrix())
        samples = spec.sample(300, seed=21)
        assert samples.data.shape == (300, 2)
        np.testing.assert_array_equal(samples.data, ica.sample(300, seed=21).data)
        pts = np.random.default_rng(5).uniform(-3, 3, size=(200, 2))
        np.testing.assert_array_equal(spec.signal_cf()(pts), ica.signal_cf()(pts))
        np.testing.assert_array_equal(spec.true_density()(pts), ica.true_density()(pts))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_density_is_the_closed_product(self, two_point, perturbed):
        # f(u) = zeta(v_1) zeta_0(v_2) / |det A| at v = A^-1 u, with zeta the
        # first source's density: zeta_n when perturbed, else zeta_0
        spec = make_two_point(two_point, self.NOISE, self.NOISE, perturbed=perturbed)
        A = two_point.instance.matrix()
        pts = np.random.default_rng(6).uniform(-1.5, 1.5, size=(200, 2))
        v = pts @ np.linalg.inv(A).T
        first = two_point.zeta_n if perturbed else two_point.zeta0
        closed = first(v[:, 0]) * two_point.zeta0(v[:, 1]) / abs(np.linalg.det(A))
        assert np.all(closed > 0)
        np.testing.assert_allclose(spec.true_density()(pts), closed, rtol=1e-15, atol=0.0)

    def test_density_follows_flag(self, two_point):
        plain, pert = (make_two_point(two_point, self.NOISE, self.NOISE, perturbed=flag)
                       for flag in (False, True))
        pts = np.random.default_rng(7).uniform(-3, 3, size=(200, 2))
        assert np.any(plain.true_density()(pts) != pert.true_density()(pts))


MIXING = np.array([[1.0, 0.5], [0.5, 1.0]])
NOISE = AxisNoise("uniform", 0.3)


@pytest.fixture(scope="module")
def bump_ica():
    """A smooth truth: two compact-bump sources under the mixing above."""
    return make_ica([SignalSpec("compact_bump", (0.6, 2.0))] * 2, MIXING, NOISE, NOISE, d1=1)


def fitted_estimate(truth, omega, degree, shift=(0.0, 0.0), taper=0):
    """The spectral estimate whose CF is, on the box [-omega, omega]^2, a
    least-squares polynomial fit of the truth's CF times exp(i t.shift) (so
    its density is the truth shifted by +shift) times the taper
    prod_k (1 - (t_k / omega)^2)^taper, which makes the density's tails
    decay fast.  The fit runs in u = t / omega, where it is well posed."""
    x, _ = np.polynomial.legendre.leggauss(degree + 10)
    u = tensor_points([x, x])
    t = omega * u
    target = truth.cf(t) * np.exp(1j * t @ np.asarray(shift)) * np.prod(1 - u**2, axis=1) ** taper
    design = monomial_matrix(u, 2, degree) * parity_phase(2, degree)
    theta_u = np.linalg.lstsq(np.vstack([design.real, design.imag]),
                              np.concatenate([target.real, target.imag]), rcond=None)[0]
    assert np.max(np.abs(design @ theta_u - target)) < 1e-9
    theta = theta_u / omega ** index_table(2, degree)[1]
    poly = TaylorPoly((1, 1), degree, theta, cf_candidate=False)
    return invert(poly, omega, LatticeSpec((-1.0, -1.0), (1.0, 1.0), (3, 3)))


def random_estimate(rng, omega, dims=(1, 1), degree=6):
    theta = 0.3 * rng.standard_normal(index_table(sum(dims), degree)[0].shape[0])
    lattice = LatticeSpec((-1.0,) * sum(dims), (1.0,) * sum(dims), (3,) * sum(dims))
    return invert(TaylorPoly(dims, degree, theta), omega, lattice)


class TestDensityNorm:
    @pytest.mark.parametrize("kind, rtol", [
        # the uniform density jumps on the support's edges, where the
        # lattice sum is only first order in the spacing
        ("uniform", 3e-3), ("compact_bump", 1e-5), ("h_kappa", 1e-10), ("grid", 1e-5),
    ])
    def test_matches_dense_quadrature(self, kind, rtol, two_point):
        sources = {
            "uniform": [SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))],
            "compact_bump": [SignalSpec("compact_bump", (0.6, 2.0))] * 2,
            "h_kappa": [SignalSpec("h_kappa", (0.75, 1.0))] * 2,
            "grid": [GridSource(two_point.zeta_n), GridSource(two_point.zeta0)],
        }[kind]
        scenario = make_ica(sources, MIXING, NOISE, NOISE, d1=1)
        half = 1.5 * max(float(np.max(np.abs(src.grid.xs))) if kind == "grid"
                         else src.support_halfwidth() for src in sources) + 0.1
        axis = np.linspace(-half, half, 801)
        values = scenario.true_density()(tensor_points([axis, axis]))
        dense = float(np.sum(values**2)) * (axis[1] - axis[0]) ** 2
        assert scenario.density_norm_sq() == pytest.approx(dense, rel=rtol)

    def test_uniform_is_closed_form(self):
        assert SignalSpec("uniform", (0.8,)).norm_sq() == 0.5 / 0.8
        scenario = make_ica([SignalSpec("uniform", (1.0,)), SignalSpec("uniform", (0.5,))],
                            MIXING, NOISE, NOISE, d1=1)
        assert scenario.density_norm_sq() == pytest.approx(0.5 * 1.0 / 0.75, rel=1e-15)

    def test_none_where_no_density(self, pointmass_repeated, uniform_repeated):
        point = make_ica([SignalSpec("point_mass", (0.0,)), SignalSpec("uniform", (1.0,))],
                         MIXING, NOISE, NOISE, d1=1)
        for scenario in (pointmass_repeated, uniform_repeated, point):
            assert scenario.true_density() is None
            assert scenario.density_norm_sq() is None
            assert scenario.density_truth() is None


class TestTranslationAlign:
    @pytest.mark.parametrize("planted", [(0.23, -0.31), (-0.37, 0.12), (0.8, -0.2)])
    def test_recovers_planted_shift(self, bump_ica, planted):
        # the estimate is the truth moved by +planted, so f(. - planted)
        # matches it; (0.8, -0.2) lies outside the 0.5 start grid
        truth = bump_ica.density_truth()
        shift, aligned = translation_align(fitted_estimate(truth, 2.0, 18, planted),
                                           truth, 0.5, 0.05)
        np.testing.assert_allclose(shift, planted, atol=1e-7)
        # what is left is the truth's spectrum outside the box
        assert aligned == pytest.approx(truth_l2(fitted_estimate(truth, 2.0, 18), truth),
                                        rel=1e-9)
        assert aligned < truth_l2(fitted_estimate(truth, 2.0, 18, planted), truth)

    @pytest.mark.parametrize("omega", [0.02, 1.0])
    def test_aligned_never_exceeds_raw(self, bump_ica, rng, omega):
        truth = bump_ica.density_truth()
        for _ in range(5):
            estimate = random_estimate(rng, omega)
            shift, aligned = translation_align(estimate, truth, 0.5, 0.05)
            raw = truth_l2(estimate, truth)
            assert aligned <= raw
            assert aligned < raw or shift == (0.0, 0.0)

    def test_agrees_with_fine_lattice_riemann_sum(self, bump_ica):
        # an independent check of the Plancherel formula: the lattice sum of
        # (f_hat - f(. - a))^2 at the raw and at the aligned shift
        truth = bump_ica.density_truth()
        coarse = fitted_estimate(truth, 3.0, 30, (0.23, -0.31), taper=3)
        poly, omega = coarse.spectrum
        lattice = LatticeSpec((-6.0, -6.0), (6.0, 6.0), (301, 301))
        values = invert(poly, omega, lattice).values.reshape(-1)
        pts, density = lattice.points(), bump_ica.true_density()

        def riemann(a):
            return math.sqrt(float(np.sum((values - density(pts - np.asarray(a))) ** 2))
                             * lattice.cell_volume)

        shift, aligned = translation_align(coarse, truth, 0.5, 0.05)
        assert truth_l2(coarse, truth) == pytest.approx(riemann((0.0, 0.0)), rel=2e-5)
        assert aligned == pytest.approx(riemann(shift), rel=2e-5)
        assert aligned < 0.99 * truth_l2(coarse, truth)

    @pytest.mark.parametrize("omega", [0.0132, 3.0])
    def test_doubling_box_nodes_moves_below_1e_10(self, bump_ica, rng, monkeypatch, omega):
        # 0.0132 is the largest inversion window of the benchmark's cells,
        # 3.0 the largest these tests align at
        truth = bump_ica.density_truth()
        estimates = [random_estimate(rng, omega), fitted_estimate(truth, omega, 30, taper=3)]
        base = [(truth_l2(e, truth), translation_align(e, truth, 0.5, 0.05)[1])
                for e in estimates]
        monkeypatch.setattr(scenarios, "_BOX_NODES", 2 * scenarios._BOX_NODES)
        doubled = [(truth_l2(e, truth), translation_align(e, truth, 0.5, 0.05)[1])
                   for e in estimates]
        np.testing.assert_allclose(doubled, base, rtol=0, atol=1e-10)

    def test_four_source_ica_aligns_within_a_second(self, rng):
        sources = [SignalSpec("uniform", (w,)) for w in (1.0, 0.5, 0.7, 0.3)]
        scenario = make_ica(sources, np.eye(4) + 0.3, NOISE, NOISE, d1=2)
        truth = scenario.density_truth()
        estimate = random_estimate(rng, 1.0, dims=(2, 2), degree=4)
        start = time.perf_counter()
        shift, aligned = translation_align(estimate, truth, 0.5, 0.05)
        assert time.perf_counter() - start < 1.0
        assert len(shift) == 4 and aligned <= truth_l2(estimate, truth)

    def test_validation(self, bump_ica):
        truth = bump_ica.density_truth()
        estimate = fitted_estimate(truth, 1.0, 10)
        with pytest.raises(ConfigError):
            translation_align(estimate, truth, shift_window=0.01, step=0.05)
        no_spectrum = DensityGrid(estimate.lattice, estimate.values)
        with pytest.raises(ConfigError, match="spectrum"):
            translation_align(no_spectrum, truth, 0.5, 0.05)


# ---------------------------------------------------------------------------
# sampling


@pytest.fixture(scope="module")
def sampling_specs():
    """One scenario per sampling path: ICA with two and three sources,
    repeated measurements with d1 = 2 and errors-in-variables."""
    uniform = SignalSpec("uniform", (1.0,))
    g_noise = AxisNoise("g_density", 2.0)
    three = [uniform, SignalSpec("compact_bump", (0.5, 2.0)), SignalSpec("h_kappa", (0.75, 1.0))]
    mixing3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    two_axes = [AxisNoise("gaussian", 0.2), AxisNoise("laplace", 0.3)]
    return {
        "ica2": make_ica([uniform, SignalSpec("uniform", (0.5,))], MIXING, NOISE, NOISE, d1=1),
        "ica3": make_ica(three, mixing3, AxisNoise("laplace", 0.3),
                         [NOISE, AxisNoise("gaussian", 0.2)], d1=1),
        "repeated": make_repeated(uniform, g_noise, g_noise, d1=2),
        "eiv": make_eiv(uniform, NOISE, AxisNoise("laplace", 0.3)),
        # a box and a bump part per signal column, and two noise axes per
        # block, gaussian and laplace: later n-draw segments of one stream
        "bump_repeated": make_repeated(SignalSpec("compact_bump", (0.5, 2.0)), two_axes,
                                       two_axes[::-1], d1=2),
        "bump_eiv": make_eiv(SignalSpec("compact_bump", (0.5, 2.0)), AxisNoise("gaussian", 0.2),
                             AxisNoise("laplace", 0.3)),
    }


def stacked_sample(spec, n, seed):
    """The sample built block by block from the same streams: each noise
    block column-stacked, the signal stacked, and the blocks added."""
    sig_ss, n1_ss, n2_ss = np.random.SeedSequence(seed).spawn(3)
    e1, e2 = (np.column_stack([axis.draw(n, rng) for axis in axes])
              for axes, rng in ((spec.noise1, np.random.default_rng(n1_ss)),
                                (spec.noise2, np.random.default_rng(n2_ss))))
    if spec.sources is not None:
        streams = sig_ss.spawn(len(spec.sources))
        s = np.column_stack([src.sampler()(n, np.random.default_rng(ss))
                             for src, ss in zip(spec.sources, streams)])
        return s @ spec.mixing.T + np.hstack([e1, e2])
    draw, rng = spec.signal.sampler(), np.random.default_rng(sig_ss)
    if spec.variant == "repeated":
        x = np.column_stack([draw(n, rng) for _ in range(spec.d1)])
        return np.hstack([x + e1, x + e2])
    x = draw(n, rng)
    return np.column_stack([x + e1[:, 0], cubic_plus_x(x) + e2[:, 0]])


class TestSample:
    # one block; several blocks and a partial one; a one-row remainder, which
    # joins the block before it (row_blocks)
    @pytest.mark.parametrize("n", [1, 1025, 3 * ROW_BLOCK + 123, 2 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("name", ["ica2", "ica3", "repeated", "eiv", "bump_repeated",
                                      "bump_eiv"])
    def test_bits_match_the_stacked_construction(self, sampling_specs, name, n):
        spec = sampling_specs[name]
        data = spec.sample(n, seed=17).data
        assert data.shape == (n, spec.d)
        np.testing.assert_array_equal(data, stacked_sample(spec, n, 17), strict=True)

    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_one_row_remainder_keeps_the_product_bits(self, sampling_specs, seed):
        # numpy multiplies a one-row matrix by gemv; with an AVX-512 OpenBLAS
        # these seeds give a last row whose gemv bits differ from gemm's
        spec, n = sampling_specs["ica3"], 2 * ROW_BLOCK + 1
        np.testing.assert_array_equal(spec.sample(n, seed).data, stacked_sample(spec, n, seed),
                                      strict=True)

    # ica3 has a compact_bump and an h_kappa source
    @pytest.mark.parametrize("name", ["ica2", "ica3", "eiv", "repeated"])
    def test_peak_is_the_matrix_plus_one_block(self, sampling_specs, name):
        spec = sampling_specs[name]
        spec.sample(8, seed=1)  # builds the cached samplers outside the trace
        tracemalloc.start()
        try:
            data = spec.sample(200_000, seed=5).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * data.nbytes

    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 3 * ROW_BLOCK + 5])
    def test_row_blocks_cover_the_rows_without_a_one_row_block(self, n):
        blocks = row_blocks(n)
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
        assert all(rows.stop - rows.start <= ROW_BLOCK + 1 for rows in blocks)
        assert n == 1 or min(rows.stop - rows.start for rows in blocks) >= 2

    @pytest.mark.parametrize("n, seed, match", [
        (2.5, 1, "n must be"), (True, 1, "n must be"), ("ten", 1, "n must be"),
        (None, 1, "n must be"), (0, 1, "n >= 1"), (10, None, "seed must be"),
        (10, 1.5, "seed must be"), (10, False, "seed must be"), (10, -1, "seed >= 0"),
    ])
    def test_bad_n_or_seed_rejected(self, sampling_specs, n, seed, match):
        with pytest.raises(ConfigError, match=match):
            sampling_specs["eiv"].sample(n, seed)

    @pytest.mark.parametrize("n", [1, 1025, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 123])
    @pytest.mark.parametrize("name", ["ica2", "ica3", "repeated", "eiv", "bump_repeated",
                                      "bump_eiv"])
    def test_stream_blocks_gather_to_the_sample(self, sampling_specs, name, n):
        spec = sampling_specs[name]
        stream = spec.stream(n, seed=17)
        assert (stream.d1, stream.d2, stream.n) == (spec.d1, spec.d2, n)
        blocks = list(stream.blocks())
        assert [len(b) for b in blocks] == [rows.stop - rows.start for rows in row_blocks(n)]
        np.testing.assert_array_equal(np.concatenate(blocks), stacked_sample(spec, n, 17),
                                      strict=True)
        # each reading draws the sample afresh
        assert np.concatenate(list(stream.blocks())).tobytes() == np.concatenate(blocks).tobytes()

    def test_each_block_checked_finite(self, sampling_specs, monkeypatch):
        # the second block's noise overflows: the first block is yielded,
        # the second refused
        real = AxisNoise.draw
        calls = []

        def draw(self, n, rng):
            calls.append(n)
            values = real(self, n, rng)
            return values * np.inf if len(calls) > 2 else values

        monkeypatch.setattr(AxisNoise, "draw", draw)
        blocks = sampling_specs["ica2"].stream(3 * ROW_BLOCK, seed=1).blocks()
        assert np.isfinite(next(blocks)).all()
        with pytest.raises(ConfigError, match="non-finite"):
            next(blocks)

    def test_bad_n_or_seed_refused_by_the_stream(self, sampling_specs):
        with pytest.raises(ConfigError, match="n >= 1"):
            sampling_specs["ica2"].stream(0, 1)

    def test_numpy_integers_accepted(self, sampling_specs):
        spec = sampling_specs["repeated"]
        np.testing.assert_array_equal(spec.sample(np.int64(10), np.int64(3)).data,
                                      spec.sample(10, 3).data)
