"""Normalized Legendre systems and the quantitative envelope checks."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from cfdeconv import ConfigError, NumericalError, legendre_bounds
from cfdeconv.legendre_bounds import (
    BoundReport,
    bound_suite,
    change_of_basis,
    class_sup_bound,
    f_kappa,
    f_kappa_bound,
    legendre_eval,
    psi_sum,
    psi_sum_bound,
    sigma1_bound,
    truncation_sup_bound,
    x_zero,
)
from cfdeconv._util import tensor_points
from cfdeconv.multiindex_taylor import UpsilonParams, index_table, monomial_matrix, random_member


class TestLegendreEval:
    def test_constant_member(self):
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(legendre_eval(0, 1.0, xs), math.sqrt(0.5))
        np.testing.assert_allclose(legendre_eval(0, 2.0, xs), math.sqrt(0.25))

    def test_linear_member_endpoint(self):
        assert legendre_eval(1, 1.0, 1.0) == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert legendre_eval(1, 1.0, -1.0) == pytest.approx(-math.sqrt(1.5), rel=1e-15)

    def test_orthonormality_gauss(self):
        # 20-node Gauss rule is exact for products of degree <= 39
        nu = 1.4
        nodes, weights = np.polynomial.legendre.leggauss(20)
        xs, ws = nu * nodes, nu * weights
        for i in range(13):
            vi = legendre_eval(i, nu, xs)
            for j in range(i, 13):
                inner = float(np.sum(ws * vi * legendre_eval(j, nu, xs)))
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_outside_interval_warns(self):
        with pytest.warns(RuntimeWarning):
            legendre_eval(2, 1.0, np.array([0.0, 1.5]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            legendre_eval(-1, 1.0, 0.0)
        with pytest.raises(ConfigError):
            legendre_eval(0, 0.0, 0.0)


class TestChangeOfBasis:
    def test_first_rows_d1(self):
        for nu in (1.0, 0.5, 3.0):
            mat = change_of_basis(1, nu, 1)
            assert mat[0, 0] == pytest.approx(math.sqrt(1 / (2 * nu)), rel=1e-14)
            assert mat[0, 1] == 0.0
            assert mat[1, 0] == 0.0
            assert mat[1, 1] == pytest.approx(math.sqrt(1.5) * nu**-1.5, rel=1e-14)

    def test_parity_sparsity(self):
        # entry (i, j) vanishes unless i - j is even and nonnegative
        mat = change_of_basis(6, 1.0, 1)
        for i in range(7):
            for j in range(7):
                if j > i or (i - j) % 2 == 1:
                    assert mat[i, j] == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_reproduce_evaluation(self, rng, d):
        m, nu = 4, 1.3
        entries = index_table(d, m)[0]
        mat = change_of_basis(m, nu, d)
        pts = rng.uniform(-nu, nu, size=(60, d))
        mono = np.stack([np.prod(pts**e, axis=1) for e in entries], axis=1)
        for row, idx in enumerate(entries):
            direct = np.prod([legendre_eval(int(i), nu, pts[:, a]) for a, i in enumerate(idx)], axis=0)
            np.testing.assert_allclose(mono @ mat[row], direct, rtol=1e-11, atol=1e-11)


class TestSeriesAndEnvelopes:
    def test_f_kappa_at_zero(self):
        assert f_kappa(0.0, 0.7, 1) == 0.0

    def test_f_kappa_reference_value(self):
        assert f_kappa(1.0, 1.0, 2) == pytest.approx(0.40466847150311922, rel=1e-14)

    def test_f_kappa_below_envelope(self):
        for u in (0.3, 1.0, 2.5):
            for kappa in (0.6, 0.8, 1.0):
                for d in (1, 2, 3):
                    assert f_kappa(u, kappa, d, terms=200) <= f_kappa_bound(u, kappa)

    def test_f_kappa_needs_enough_terms(self):
        with pytest.raises(NumericalError):
            f_kappa(4.0, 0.55, 1, terms=3)

    def test_psi_sum_reference_value(self):
        assert psi_sum(1.0, 1.0, 1) == pytest.approx(1.6284737129015844, rel=1e-14)

    def test_psi_sum_at_zero(self):
        assert psi_sum(0.0, 0.8, 2) == 0.0

    def test_psi_sum_below_envelope(self):
        for x in (0.5, 1.0, 2.0):
            for kappa in (0.6, 1.0):
                for d in (1, 2):
                    assert psi_sum(x, kappa, d, terms=600) <= psi_sum_bound(x, kappa, d)

    def test_x_zero_formula(self):
        for kappa in (0.55, 0.75, 1.0):
            for d in (1, 2, 4):
                expected = max(1.0, ((d + 4.0 / 3.0) / kappa) ** kappa)
                assert x_zero(kappa, d) == pytest.approx(expected, rel=1e-15)

    def test_class_sup_bound_grows_with_window(self):
        assert class_sup_bound(0.75, 1.5, 4.0, 2) > class_sup_bound(0.75, 1.5, 2.0, 2)


class TestTruncationBound:
    def test_low_degree_rejected(self):
        # needs m >= d / kappa
        with pytest.raises(ConfigError):
            truncation_sup_bound(1, 0.6, 1.5, 1.0, 2)

    def test_decreasing_in_degree(self):
        b = [truncation_sup_bound(m, 1.0, 1.5, 1.0, 1) for m in (2, 4, 8)]
        assert b[0] > b[1] > b[2] > 0


class TestSigma1:
    def test_bound_closed_form(self):
        assert sigma1_bound(2, 1.0, 1) == pytest.approx(32.0, rel=1e-14)
        # nu = 0.5: 0.5^(-1/2) * 2 * 16 * 2^2
        assert sigma1_bound(2, 0.5, 1) == pytest.approx(math.sqrt(2) * 128, rel=1e-13)

    @pytest.mark.parametrize("m, nu, d", [(4, 1.0, 2), (6, 0.5, 1), (3, 2.0, 3)])
    def test_suite_row_is_top_singular_value(self, m, nu, d):
        row = bound_suite(0.75, 1.0, nu, d, m, n_members=2, member_degree=6)[-1]
        top = np.linalg.svd(change_of_basis(m, nu, d), compute_uv=False)[0]
        assert row.name == "sigma1"
        assert row.measured == pytest.approx(top, rel=1e-12)


class TestBoundSuite:
    def test_single_cell_all_hold(self):
        reports = bound_suite(0.75, 1.5, 1.0, 1, 4, n_members=8, seed=5)
        names = [r.name for r in reports]
        assert names == ["truncation_sup", "class_sup", "psi_sum", "sigma1"]
        for r in reports:
            assert r.holds(), f"{r.name}: measured {r.measured} > bound {r.bound}"
            assert r.slack >= 0

    def test_no_members_is_refused(self):
        with pytest.raises(ConfigError, match="n_members"):
            bound_suite(0.75, 1.5, 1.0, 1, 4, n_members=0)

    def test_truncation_row_dropped_when_degree_low(self):
        reports = bound_suite(0.6, 1.0, 1.0, 2, 1, n_members=4, seed=5)
        assert [r.name for r in reports] == ["class_sup", "psi_sum", "sigma1"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sup_rows_match_one_dense_product(self, d, monkeypatch):
        # the suite contracts one axis at a time, so its sums run in another
        # order than the points x monomials product it replaced: the maxima
        # agree to rounding (4.3e-16 relative measured), not to the bit
        kappa, S, nu, m, degree = 0.75, 1.5, 1.0, 4, 12
        rng = np.random.default_rng(3)
        params = UpsilonParams(kappa=kappa, S=S)
        dims = (d, 0) if d == 1 else (d - 1, 1)
        members = [random_member(params, dims, degree, rng) for _ in range(5)]
        drawn = []

        def recording(*args):
            drawn.append(random_member(*args))
            return drawn[-1]

        monkeypatch.setattr(legendre_bounds, "random_member", recording)
        rows = {r.name: r.measured for r in
                bound_suite(kappa, S, nu, d, m, n_members=5, seed=3, member_degree=degree)}
        for got, want in zip(drawn, members, strict=True):
            np.testing.assert_array_equal(got.theta, want.theta)
        coeffs = np.stack([p.coeffs for p in members])
        tail = members[0].orders > m
        grid = np.linspace(-nu, nu, {1: 801, 2: 101}.get(d, 31))
        pts = tensor_points([grid] * d)
        sup = worst = 0.0
        for block in np.array_split(pts, -(-pts.shape[0] // 4096)):
            mono = monomial_matrix(block, d, degree)
            sup = max(sup, float(np.max(np.abs(mono @ coeffs.T))))
            worst = max(worst, float(np.max(np.abs(mono[:, tail] @ coeffs[:, tail].T))))
        assert rows["class_sup"] == pytest.approx(sup, rel=1e-13, abs=0)
        assert rows["truncation_sup"] == pytest.approx(worst, rel=1e-13, abs=0)

    @pytest.mark.parametrize("budget", [None, 2 * 10**3 - 1, 2 * 10**2 - 1])
    def test_box_sup_matches_the_monomial_product(self, budget, monkeypatch):
        # random coefficients on an asymmetric grid, so the maximum is no
        # corner's; a budget below one polynomial's tensors fixes the first
        # variable one node at a time (once or twice over), the path a
        # member takes at d >= 5 by default
        rng = np.random.default_rng(7)
        entries = index_table(3, 5)[0]
        values = rng.standard_normal((2, 4, entries.shape[0]))
        nodes = np.linspace(-0.4, 1.1, 10)
        mono = monomial_matrix(tensor_points([nodes] * 3), 3, 5)
        want = float(np.max(np.hypot(mono @ values[0].T, mono @ values[1].T)))
        if budget is not None:
            monkeypatch.setattr(legendre_bounds, "_TENSOR_DOUBLES", budget)
        got = legendre_bounds._box_sup(entries, values, nodes[:, None] ** np.arange(6))
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_memory_does_not_scale_with_the_box(self):
        # memory must not grow with the box: one points x monomials matrix of
        # this suite's 31^3 box and 455 monomials would be 108 MB by itself,
        # while a batch of member tensors stays under _TENSOR_DOUBLES doubles
        tracemalloc.start()
        try:
            bound_suite(0.75, 1.0, 1.0, 3, 4, member_degree=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_four_dimensions_at_the_default_degree(self):
        # 31^4 box points and 46376 coefficients per member: one member's
        # tensors are about 15 MB each, and a suite takes about 0.1 s per member
        start = time.perf_counter()
        tracemalloc.start()
        try:
            reports = bound_suite(0.75, 1.0, 1.0, 4, 4, n_members=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 20.0
        assert peak < 100e6
        assert [r.name for r in reports] == ["class_sup", "psi_sum", "sigma1"]
        assert all(r.holds() for r in reports)

    def test_report_slack_sign(self):
        good = BoundReport(name="x", inputs={}, bound=2.0, measured=1.5)
        bad = BoundReport(name="x", inputs={}, bound=1.0, measured=1.5)
        assert good.holds() and good.slack == pytest.approx(0.5)
        assert not bad.holds()
