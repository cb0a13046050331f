"""Quadrature grids and the three contrast functionals."""

import numpy as np
import pytest

from cfdeconv import ConfigError
from cfdeconv._util import legendre_rule
from cfdeconv.contrast import (
    OracleModel,
    QuadratureGrid,
    contrast_empirical,
    contrast_gradient,
    contrast_oracle,
    ecf_table_for_grid,
    make_grid,
    poly_tables,
)
from cfdeconv.ecf import EcfTable, SampleSet, ecf_on_grid
from cfdeconv.minimize import minimize_contrast
from cfdeconv.multiindex_taylor import TaylorPoly, UpsilonParams, random_member

from test_ecf import closed
from test_multiindex_taylor import poly_11


def table_from_poly(poly, grid):
    """EcfTable whose values are the candidate's own grid tables."""
    full, first, second = poly_tables(poly, grid)
    return EcfTable(grid_id=grid.grid_id, n=1, first=first, second=second, full=full)


def trapezoid_nodes(nu, count):
    """Equispaced nodes on [-nu, nu], closed under negation exactly
    (np.linspace can miss it by an ulp)."""
    return closed(np.linspace(-nu, nu, count))


def trapezoid_grid(nu, dims, count):
    """A QuadratureGrid built by hand on the trapezoid rule: a box rule
    other than make_grid's Gauss-Legendre one."""
    h = 2.0 * nu / (count - 1)
    weights = np.full(count, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureGrid(nu, count, dims, trapezoid_nodes(nu, count), weights)


def zero_sample_table(grid):
    s = SampleSet(1, 1, np.zeros((1, 2)))
    return ecf_table_for_grid(s, grid)


class TestMakeGrid:
    def test_two_node_constant(self):
        grid = make_grid(1.0, (1, 1), 2)
        assert grid.axis_weights.sum() == pytest.approx(2.0, abs=1e-15)

    def test_two_node_quadratic_exact(self):
        grid = make_grid(1.0, (1, 1), 2)
        val = np.sum(grid.axis_weights * grid.axis_nodes**2)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_eight_node_sextic(self):
        # closed form: int_{-2}^{2} t^6 dt = 2*2^7/7
        grid = make_grid(2.0, (1, 1), 8)
        val = np.sum(grid.axis_weights * grid.axis_nodes**6)
        assert val == pytest.approx(2.0 * 2.0**7 / 7.0, rel=1e-12)

    @pytest.mark.parametrize("rule", ["gauss_legendre", "trapezoid"])
    @pytest.mark.parametrize("nodes", [5, 6, 11, 12, 47, 48, 64])
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    def test_nodes_closed_under_negation(self, rule, nodes, nu):
        # make_grid's nodes, and the hand-built trapezoid nodes the tests use
        if rule == "gauss_legendre":
            x = make_grid(nu, (1, 1), nodes).axis_nodes
        else:
            x = trapezoid_nodes(nu, nodes)
            assert x[0] == -nu and x[-1] == nu
        assert np.array_equal(x, -x[::-1])
        table = ecf_on_grid(SampleSet(1, 1, np.zeros((1, 2))), [x, x])
        assert np.all(table.full == 1.0)

    @pytest.mark.parametrize("nodes", [12, 16, 40, 48, 57, 64, 160])
    def test_shared_rule_is_leggauss_read_only(self, nodes):
        # the one cached rule behind make_grid, the lab's panel and mollifier
        # rules, the errors-in-variables CF and smoothness_integral
        x, w = legendre_rule(nodes)
        expected_x, expected_w = np.polynomial.legendre.leggauss(nodes)
        np.testing.assert_array_equal(x, expected_x)
        np.testing.assert_array_equal(w, expected_w)
        assert not x.flags.writeable and not w.flags.writeable
        assert legendre_rule(nodes)[0] is x
        np.testing.assert_array_equal(make_grid(1.5, (1, 1), nodes).axis_nodes, 1.5 * x)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            make_grid(-1.0, (1, 1), 8)
        with pytest.raises(ConfigError):
            make_grid(1.0, (1, 1), 1)
        with pytest.raises(ConfigError):
            make_grid(1.0, (0, 1), 8)


class TestContrastEmpirical:
    @pytest.mark.parametrize("named", [False, True])
    def test_table_of_other_nodes_refused(self, grid24, rng, named):
        # a table on the nu = 3 nodes has grid24's sizes, so only its grid
        # id tells it apart; one tabulated without an id is refused too
        samples = SampleSet(1, 1, rng.normal(size=(200, 2)))
        other = make_grid(3.0, (1, 1), 24)
        table = (ecf_table_for_grid(samples, other) if named
                 else ecf_on_grid(samples, [other.axis_nodes] * 2))
        poly = poly_11(2, {(1, 0): 0.2})
        with pytest.raises(ConfigError, match="different grid"):
            contrast_empirical(poly, table, grid24)
        with pytest.raises(ConfigError, match="different grid"):
            minimize_contrast(table, grid24, UpsilonParams(0.75, 1.5), 2)

    def test_constant_one_zero_sample(self, grid24):
        poly = poly_11(2, {})
        assert contrast_empirical(poly, zero_sample_table(grid24), grid24) == 0.0

    def test_candidate_matching_table_cancels(self, grid24):
        poly = poly_11(2, {(1, 0): 0.2, (1, 1): 0.35})
        table = table_from_poly(poly, grid24)
        assert contrast_empirical(poly, table, grid24) == pytest.approx(0.0, abs=1e-18)

    def test_mixed_term_closed_form(self, grid24):
        # flat table, candidate 1 + a t1 t2: integral a^2 (2/3)^2 at nu=1
        a = 1.0
        poly = poly_11(2, {(1, 1): a})
        val = contrast_empirical(poly, zero_sample_table(grid24), grid24)
        assert val == pytest.approx(a**2 * 4.0 / 9.0, rel=1e-12)

    def test_grid_mismatch(self, grid24, grid48):
        poly = poly_11(2, {})
        table = zero_sample_table(grid24)
        with pytest.raises(ConfigError):
            contrast_empirical(poly, table, grid48)

    @pytest.mark.parametrize("contrast", [contrast_empirical, contrast_gradient,
                                          contrast_oracle])
    def test_callable_candidate_refused(self, grid24, uniform_repeated, contrast):
        # candidates are TaylorPolys; a CF given as a callable is no candidate
        other = uniform_repeated.oracle() if contrast is contrast_oracle else (
            zero_sample_table(grid24))
        with pytest.raises(ConfigError, match="TaylorPoly"):
            contrast(uniform_repeated.oracle().phi_R, other, grid24)

    def test_nonnegative_on_random_candidates(self, grid24, rng):
        s = SampleSet(1, 1, rng.normal(size=(50, 2)))
        table = ecf_table_for_grid(s, grid24)
        for _ in range(10):
            poly = random_member(UpsilonParams(0.75, 1.5), (1, 1), 4, rng)
            assert contrast_empirical(poly, table, grid24) >= 0.0


class TestContrastOracle:
    def test_truth_is_zero(self, grid24):
        # point-mass signal: the unit candidate reproduces the joint CF
        model = OracleModel(
            phi_R=lambda t: np.ones(t.shape[0], dtype=complex),
            phi_Q1=lambda t: np.exp(-0.5 * t[:, 0] ** 2),
            phi_Q2=lambda t: np.exp(-0.5 * t[:, 0] ** 2),
        )
        poly = poly_11(2, {})
        assert contrast_oracle(poly, model, grid24) <= 1e-10

    def test_uniform_truth_on_grid(self, uniform_repeated, grid48):
        # scenario truth evaluated through its closed-form CF tables
        model = uniform_repeated.oracle()
        probe = poly_11(2, {(1, 1): 0.1})
        base = contrast_oracle(probe, model, grid48)
        assert base > 0.0

    def test_pointmass_noise_reduces_to_plain_weight(self, grid24, rng):
        # Q = point mass: weight one; verified against a hand-rolled loop
        model = OracleModel(
            phi_R=lambda t: np.exp(1j * 0.3 * t.sum(axis=1) - 0.1 * (t**2).sum(axis=1)),
            phi_Q1=lambda t: np.ones(t.shape[0], dtype=complex),
            phi_Q2=lambda t: np.ones(t.shape[0], dtype=complex),
        )
        poly = poly_11(2, {(1, 0): 0.25, (1, 1): -0.1})
        got = contrast_oracle(poly, model, grid24)

        nodes, weights = grid24.axis_nodes, grid24.axis_weights
        pf, p1, p2 = poly_tables(poly, grid24)
        acc = 0.0
        for i, t1 in enumerate(nodes):
            for j, t2 in enumerate(nodes):
                t = np.array([[t1, t2]])
                t10 = np.array([[t1, 0.0]])
                t02 = np.array([[0.0, t2]])
                phi_r = model.phi_R(t)[0]
                r1 = model.phi_R(t10)[0]
                r2 = model.phi_R(t02)[0]
                defect = pf[i, j] * r1 * r2 - phi_r * p1[i] * p2[j]
                acc += weights[i] * weights[j] * abs(defect) ** 2
        assert got == pytest.approx(acc, rel=1e-12)

    def test_perturbation_quadratic_decay(self, grid48, uniform_repeated):
        # point-mass truth, candidate 1 + eps t1 t2: quadratic in eps
        model = OracleModel(
            phi_R=lambda t: np.ones(t.shape[0], dtype=complex),
            phi_Q1=uniform_repeated.oracle().phi_Q1,
            phi_Q2=uniform_repeated.oracle().phi_Q2,
        )
        eps_grid = [1e-1, 1e-2, 1e-3]
        vals = []
        for eps in eps_grid:
            poly = poly_11(2, {(1, 1): eps})
            vals.append(contrast_oracle(poly, model, grid48))
        slope = np.polyfit(np.log(eps_grid), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-6)

    def test_monotone_in_nu(self, uniform_repeated):
        # integrand nonnegative: the half-width box integral cannot exceed
        # the full box, up to quadrature error
        model = uniform_repeated.oracle()
        poly = poly_11(2, {(1, 1): 0.2, (2, 0): -0.1})
        small = contrast_oracle(poly, model, make_grid(0.5, (1, 1), 48))
        big = contrast_oracle(poly, model, make_grid(1.0, (1, 1), 48))
        assert small <= big + 1e-12

    def test_grid_refinement_stable(self, uniform_repeated):
        model = uniform_repeated.oracle()
        poly = poly_11(2, {(1, 1): 0.1})
        at32 = contrast_oracle(poly, model, make_grid(1.0, (1, 1), 32))
        at64 = contrast_oracle(poly, model, make_grid(1.0, (1, 1), 64))
        assert abs(at64 - at32) < 1e-8


class TestEmpiricalToOracle:
    def test_exact_cf_table_recovers_oracle(self, uniform_repeated, grid24):
        # tables built from the true CF: M_n degenerates to weighted M
        model = uniform_repeated.oracle()
        full, first, second = model.tables(grid24)
        table = EcfTable(grid_id=grid24.grid_id, n=10**9, first=first, second=second, full=full)
        truthlike = poly_11(2, {})
        emp = contrast_empirical(truthlike, table, grid24)
        assert emp > 0.0
        defectless = contrast_empirical(
            TaylorPoly((1, 1), 0, np.ones(1)), table_from_poly(poly_11(0, {}), grid24), grid24
        )
        assert defectless == 0.0
