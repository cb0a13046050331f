"""Tuning rules, Fourier inversion, L2 geometry, smoothness diagnostics."""

import mpmath as mp
import numpy as np
import pytest

from cfdeconv import ConfigError
from cfdeconv.multiindex_taylor import TaylorPoly
from cfdeconv.reconstruct import (
    DensityGrid,
    LatticeSpec,
    _axis_moments,
    _monomial_legendre,
    invert,
    l2_distance,
    l2_norm,
    m_rule,
    omega_rule,
    smoothness_integral,
)


def poly_d1(coeff_theta):
    theta = np.asarray(coeff_theta, dtype=np.float64)
    return TaylorPoly((1, 0), theta.shape[0] - 1, theta)


class TestLatticeSpec:
    def test_bounds_converted_before_comparing(self):
        # as text "10" < "9"; as numbers the axis is reversed
        with pytest.raises(ConfigError, match="max > min"):
            LatticeSpec(mins=("10",), maxs=("9",), counts=(3,))
        lattice = LatticeSpec(mins=("9",), maxs=("10",), counts=("3",))
        assert (lattice.mins, lattice.maxs, lattice.counts) == ((9.0,), (10.0,), (3,))

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="lattice.maxs"):
            LatticeSpec(mins=(0.0,), maxs=("x",), counts=(3,))

    @pytest.mark.parametrize("count", [3.7, True, float("inf"), float("nan")])
    def test_non_integer_count(self, count):
        # counts are not truncated: 3.7 is no 3
        with pytest.raises(ConfigError, match="lattice.counts"):
            LatticeSpec(mins=(0.0, 0.0), maxs=(1.0, 1.0), counts=(count, 3))


class TestMRule:
    def test_synthetic_huge_n(self):
        # formula value 2.7225936751858713 floors to 2
        assert m_rule(int(np.exp(100)), 1.0) == 2

    def test_one_million_small_kappa(self):
        # formula value 1.2459629590094625 floors to 1
        assert m_rule(10**6, 0.55) == 1

    def test_nonincreasing_in_kappa(self):
        n = 10**8
        grid = np.linspace(0.3, 1.0, 15)
        values = [m_rule(n, k) for k in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            m_rule(11, 0.75)
        assert m_rule(12, 0.75) >= 0

    def test_kappa_range(self):
        with pytest.raises(ConfigError):
            m_rule(1000, 0.0)
        with pytest.raises(ConfigError):
            m_rule(1000, 1.5)


class TestOmegaRule:
    # omega_rule(m, kappa, S, nu, d) = min(nu, 2 kappa e^{-(3d+5)/2}) m^kappa / S
    def test_cap_value_d2(self):
        # cap 2 e^{-11/2}; omega doubles at m=2, kappa=1, S=1
        assert omega_rule(2, 1.0, 1.0, 1.0, 2) == 0.016347085753856266

    def test_unit_degree(self):
        # cap 1.4 e^{-11/2}, and 1^kappa = 1
        assert omega_rule(1, 0.7, 1.0, 1.0, 2) == 0.005721480013849693

    def test_nu_below_the_cap(self):
        # cap 2 * 0.5 e^{-4} = 0.0183 > nu = 0.01, so c_kappa = nu; 4^0.5 / 2 = 1
        assert omega_rule(4, 0.5, 2.0, 0.01, 1) == 0.01

    def test_nu_above_the_cap_changes_nothing(self):
        assert omega_rule(3, 0.8, 1.0, 1.0, 2) == omega_rule(3, 0.8, 1.0, 1e6, 2)

    def test_doubling_S_halves_omega(self):
        assert omega_rule(3, 0.8, 1.0, 1.0, 2) == 2.0 * omega_rule(3, 0.8, 2.0, 1.0, 2)

    @pytest.mark.parametrize("args", [
        (1, 0.0, 1.0, 1.0, 2), (1, 1.5, 1.0, 1.0, 2), (1, 1.0, 0.0, 1.0, 2),
        (1, 1.0, 1.0, 0.0, 2), (1, 1.0, 1.0, 1.0, 0),
    ])
    def test_invalid_parameters(self, args):
        with pytest.raises(ConfigError, match="invalid tuning parameters"):
            omega_rule(*args)

    def test_degree_precondition(self):
        with pytest.raises(ConfigError, match="truncation degree"):
            omega_rule(0, 1.0, 1.0, 1.0, 2)


def moment_reference(omega, x, kmax):
    """I_k(x) for k = 0..kmax from the power series of e^{-itx} at 60 digits:
    omega^(k+1) times the sum over j with k + j even of
    2 (-i omega x)^j / (j! (k + j + 1)), cut at j = 240 (|omega x| <= 40)."""
    with mp.workdps(60):
        z = mp.mpf(omega) * mp.mpf(x)
        powers = [mp.mpc(1)]
        for j in range(1, 241):
            powers.append(powers[-1] * (-1j * z) / j)
        return np.array([
            complex(mp.mpf(omega) ** (k + 1) * sum(
                2 * powers[j] / (k + j + 1) for j in range(k % 2, 241, 2)))
            for k in range(kmax + 1)
        ])


class TestAxisMoments:
    def test_legendre_rows_have_the_bits_of_poly2leg(self):
        for kmax in range(30):
            want = np.zeros((kmax + 1, kmax + 1))
            for k in range(kmax + 1):
                want[k, : k + 1] = np.polynomial.legendre.poly2leg([0] * k + [1])
            assert _monomial_legendre(kmax).tobytes() == want.tobytes(), kmax

    @pytest.mark.parametrize("omega", [0.5, 1.5])
    def test_matches_series_reference(self, omega):
        # both sides of |omega x| = 8, both signs, degrees up to 40
        kmax = 40
        z = np.array([1e-9, 1e-3, 0.5, 3.0, 7.99, 8.01, 15.0, 40.0])
        x = np.concatenate([z, -z]) / omega
        got = _axis_moments(x, omega, _monomial_legendre(kmax))
        scale = 2.0 * omega ** (np.arange(kmax + 1) + 1.0)
        for row, xi in zip(got, x):
            err = np.abs(row - moment_reference(omega, xi, kmax)) / scale
            assert err.max() <= 1e-15, (xi, int(err.argmax()), err.max())


class TestInvert:
    def test_constant_d1_sinc(self):
        omega = 0.5
        lattice = LatticeSpec((-3.0,), (3.0,), (61,))
        grid = invert(poly_d1([1.0]), omega, lattice)
        xs = np.linspace(-3.0, 3.0, 61)
        safe = np.where(np.abs(xs) < 1e-12, 1.0, xs)
        expected = np.where(
            np.abs(xs) < 1e-12, omega / np.pi, np.sin(omega * safe) / (np.pi * safe)
        )
        np.testing.assert_allclose(grid.values, expected, rtol=1e-12, atol=1e-14)

    def test_constant_d2_origin(self):
        omega = 0.37
        lattice = LatticeSpec((-1.0, -1.0), (1.0, 1.0), (3, 3))
        theta = np.zeros(1)
        poly = TaylorPoly((1, 1), 0, theta)
        grid = invert(poly, omega, lattice)
        center = grid.values[1, 1]
        assert center == pytest.approx((omega / np.pi) ** 2, rel=1e-12)

    def test_linear_term_against_frozen_moments(self):
        # oracle moments of t^k e^{-itx} on [-1/2, 1/2] at x = 0.3
        c = 0.45
        omega, x = 0.5, 0.3
        lattice = LatticeSpec((x,), (x + 1.0,), (2,))
        grid = invert(poly_d1([1.0, c]), omega, lattice)
        m0 = 0.99625421649066147665
        m1 = -0.024943795182063966388j
        expected = (m0 + 1j * c * m1).real / (2.0 * np.pi)
        assert grid.values[0] == pytest.approx(expected, rel=1e-13)

    def test_large_omega_x_against_frozen_moments(self):
        # |omega x| = 10, a large argument of the spherical Bessel moments;
        # oracle moments from high-precision quadrature at omega=2, x=5
        theta = np.array([1.0, 0.3, -0.2, 0.1, 0.05])
        poly = poly_d1(theta)
        lattice = LatticeSpec((5.0,), (6.0,), (2,))
        grid = invert(poly, 2.0, lattice)
        moments = np.array([
            -0.21760844435574792536 + 0.0j,
            -0.62773553439001237673j,
            -1.1215279911789966521 + 0.0j,
            -2.0121120983372498559j,
            -5.0914247883617666905 + 0.0j,
        ])
        expected = float((poly.coeffs @ moments).real) / (2.0 * np.pi)
        assert grid.values[0] == pytest.approx(expected, rel=1e-12)

    def test_against_brute_force_quadrature(self):
        # candidate 1 + i c t: dense Gauss rule in t as an independent oracle
        c = 0.3
        omega = 0.8
        xs = np.linspace(-2.0, 2.0, 9)
        lattice = LatticeSpec((-2.0,), (2.0,), (9,))
        grid = invert(poly_d1([1.0, c]), omega, lattice)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        ts, ws = omega * nodes, omega * weights
        for k, x in enumerate(xs):
            integrand = (1.0 + 1j * c * ts) * np.exp(-1j * ts * x)
            brute = float((ws @ integrand).real) / (2.0 * np.pi)
            assert grid.values[k] == pytest.approx(brute, abs=1e-10)

    def test_invalid_omega(self):
        lattice = LatticeSpec((-1.0,), (1.0,), (5,))
        with pytest.raises(ConfigError):
            invert(poly_d1([1.0]), 0.0, lattice)

    def test_spectrum_attached(self):
        lattice = LatticeSpec((-1.0,), (1.0,), (5,))
        grid = invert(poly_d1([1.0, 0.2]), 0.5, lattice)
        assert grid.spectrum is not None
        poly, omega = grid.spectrum
        assert omega == 0.5


def without_spectrum(grid):
    """The same density values with no spectrum: l2_distance and l2_norm
    then use the lattice sum."""
    return DensityGrid(grid.lattice, grid.values)


class TestL2Distance:
    def test_identical_is_zero(self):
        lattice = LatticeSpec((-2.0,), (2.0,), (21,))
        a = invert(poly_d1([1.0, 0.1]), 0.5, lattice)
        assert l2_distance(a, a) == 0.0
        assert l2_distance(without_spectrum(a), without_spectrum(a)) == 0.0

    def test_constant_box_gap(self):
        # indicator spectra of widths w1 < w2: squared gap 2(w2-w1)/(2 pi)
        lattice = LatticeSpec((-4.0,), (4.0,), (33,))
        a = invert(poly_d1([1.0]), 0.5, lattice)
        b = invert(poly_d1([1.0]), 0.9, lattice)
        expected = np.sqrt((0.9 - 0.5) / np.pi)
        assert l2_distance(a, b) == pytest.approx(expected, rel=1e-12)

    def test_spectral_vs_lattice_agreement(self):
        # the inverse decays like 1/x, so the Riemann window must be wide
        lattice = LatticeSpec((-200.0,), (200.0,), (20001,))
        a = invert(poly_d1([1.0, 0.2, -0.1]), 0.6, lattice)
        b = invert(poly_d1([1.0, -0.15, 0.05]), 0.6, lattice)
        spectral = l2_distance(a, b)
        lattice_val = l2_distance(without_spectrum(a), without_spectrum(b))
        assert lattice_val == pytest.approx(spectral, rel=0.02)

    def test_incompatible_lattices(self):
        a = DensityGrid(LatticeSpec((-1.0,), (1.0,), (5,)), np.zeros(5))
        b = DensityGrid(LatticeSpec((-2.0,), (2.0,), (5,)), np.zeros(5))
        with pytest.raises(ConfigError, match="identical lattices"):
            l2_distance(a, b)
        # a spectrum on one side only also falls back to the lattice sum
        c = invert(poly_d1([1.0]), 0.5, b.lattice)
        with pytest.raises(ConfigError, match="identical lattices"):
            l2_distance(a, c)

    def test_norm_matches_plancherel(self):
        omega = 0.5
        lattice = LatticeSpec((-4.0,), (4.0,), (33,))
        a = invert(poly_d1([1.0, 0.3]), omega, lattice)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        ts, ws = omega * nodes, omega * weights
        expected = np.sqrt(float(ws @ np.abs(1.0 + 0.3j * ts) ** 2) / (2.0 * np.pi))
        assert l2_norm(a) == pytest.approx(expected, rel=1e-10)
        bare = without_spectrum(a)
        assert l2_norm(bare) == l2_distance(bare, DensityGrid(lattice, np.zeros(33)))


class TestSmoothness:
    def test_zero_candidate(self):
        rep = smoothness_integral(lambda pts: np.zeros(pts.shape[0]), 1.0, 1.0, 1)
        assert rep.value == 0.0

    def test_indicator_closed_form(self):
        # |phi| = 1 on [-1,1], beta=1: integral of (1+t^2) is 8/3
        rep = smoothness_integral(lambda pts: np.ones(pts.shape[0]), 1.0, 1.0, 1)
        assert rep.value == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert rep.tail_flagged  # indicator mass does not decay

    def test_triangular_cf_refinement(self):
        # CF of the symmetric triangle: (sin(t/2)/(t/2))^2, beta = 0.5
        def tri(pts):
            t = pts[:, 0]
            half = t / 2.0
            out = np.ones_like(t)
            nz = np.abs(half) > 1e-12
            out[nz] = (np.sin(half[nz]) / half[nz]) ** 2
            return out

        coarse = smoothness_integral(tri, 0.5, 3.0, 1, nodes_per_axis=64)
        fine = smoothness_integral(tri, 0.5, 3.0, 1, nodes_per_axis=256)
        assert coarse.value == pytest.approx(fine.value, abs=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            smoothness_integral(lambda pts: np.ones(pts.shape[0]), 1.0, -1.0, 1)


class TestPlancherelConsistency:
    def test_spectral_identity_for_truncations(self):
        lattice = LatticeSpec((-30.0,), (30.0,), (3001,))
        p = poly_d1([1.0, 0.25, -0.05])
        q = poly_d1([1.0, -0.1, 0.02])
        omega = 0.7
        a = invert(p, omega, lattice)
        b = invert(q, omega, lattice)
        # same-box closed form: (2 pi)^-1 integral over [-w, w] of
        # |p(t) - q(t)|^2 dt, by dense quadrature
        ts = np.linspace(-omega, omega, 40001)
        dp = (0.25 + 0.1) * 1j * ts
        dq = (-0.05 - 0.02) * ts**2
        diff2 = np.abs(dp + dq) ** 2
        expected = np.sqrt(np.trapezoid(diff2, ts) / (2.0 * np.pi))
        assert l2_distance(a, b) == pytest.approx(expected, rel=1e-8)
