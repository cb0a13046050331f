"""Coefficient bookkeeping: index order, class projection, truncation."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from cfdeconv import ConfigError
from cfdeconv.multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    _bound_vector,
    block_split,
    evaluate,
    from_json_record,
    index_rows,
    index_table,
    monomial_matrix,
    project_upsilon,
    parity_phase,
    random_member,
    sum_map,
    to_json_record,
    truncate,
    upsilon_bound,
)


def brute_row(entries, index):
    """The one row of entries equal to index, found by comparing every row."""
    (row,) = np.flatnonzero(np.all(entries == np.asarray(index), axis=1))
    return row


def poly_11(max_degree, assign, cf_candidate=True):
    """dims (1,1) candidate with theta entries set by multi-index."""
    entries = index_table(2, max_degree)[0]
    theta = np.zeros(entries.shape[0])
    for idx, val in assign.items():
        theta[brute_row(entries, idx)] = val
    return TaylorPoly((1, 1), max_degree, theta, cf_candidate)


class TestIndexTable:
    def test_degree_then_lex_order(self):
        entries, orders = index_table(2, 2)
        rows = [tuple(r) for r in entries]
        assert rows == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert list(orders) == [0, 1, 1, 2, 2, 2]

    def test_zero_index_always_first(self):
        for d in (1, 2, 3):
            entries, _ = index_table(d, 4)
            assert tuple(entries[0]) == (0,) * d

    @pytest.mark.parametrize("d, m", [(0, 0), (0, 3), (1, 0), (1, 7), (2, 6), (3, 5), (4, 4),
                                      (5, 3)])
    def test_matches_sorted_product(self, d, m):
        # every tuple of digits 0..m with order <= m, sorted by (order, tuple)
        want = sorted((t for t in itertools.product(range(m + 1), repeat=d) if sum(t) <= m),
                      key=lambda t: (sum(t), t))
        entries, orders = index_table(d, m)
        assert entries.dtype == orders.dtype == np.int64 and entries.shape == (len(want), d)
        assert [tuple(r) for r in entries.tolist()] == want
        np.testing.assert_array_equal(orders, [sum(t) for t in want])
        assert not entries.flags.writeable and not orders.flags.writeable

    def test_degree_30_build_is_fast_and_small(self):
        # d = 5, degree 30: 324,632 rows
        index_table.cache_clear()
        start = time.perf_counter()
        index_table(5, 30)
        elapsed = time.perf_counter() - start
        index_table.cache_clear()
        tracemalloc.start()
        try:
            entries, _ = index_table(5, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            index_table.cache_clear()
        assert entries.shape == (324_632, 5)
        assert elapsed < 0.5 and peak < 40e6


class TestIndexRows:
    @pytest.mark.parametrize("d, m", [(1, 4), (2, 3), (3, 2)])
    def test_every_digit_tuple_against_brute_force(self, d, m):
        # digits -1..m+1 cover the aliases of a bare base-(m + 1) code
        entries = index_table(d, m)[0]
        probe = np.array(list(itertools.product(range(-1, m + 2), repeat=d)))
        rows = index_rows(d, m, probe)
        for index, row in zip(probe, rows):
            inside = np.all(index >= 0) and index.sum() <= m
            assert row == (brute_row(entries, index) if inside else -1)

    def test_aliases_are_absent(self):
        # base 4 codes: (-1, 1) -> 3 = (3, 0), (4, 0) -> 4 = (0, 1)
        np.testing.assert_array_equal(index_rows(2, 3, [[-1, 1], [4, 0], [3, 1]]), -1)

    def test_batch_shape_and_zero_dimensions(self):
        assert index_rows(2, 3, np.zeros((4, 5, 2), dtype=np.int64)).shape == (4, 5)
        np.testing.assert_array_equal(index_rows(0, 3, np.zeros((3, 0), dtype=np.int64)), 0)


class TestBlockSplit:
    @pytest.mark.parametrize("dims, m", [((1, 0), 3), ((0, 1), 2), ((1, 1), 4), ((2, 1), 3),
                                         ((1, 2), 3), ((2, 2), 3)])
    def test_patterns_against_brute_force(self, dims, m):
        d1, d2 = dims
        entries = index_table(d1 + d2, m)[0]
        first, second = index_table(d1, m)[0], index_table(d2, m)[0]
        p1, p2, n1, n2 = block_split(dims, m)
        assert (n1, n2) == (len(first), len(second))
        assert p1.dtype == p2.dtype == np.int64
        assert not p1.flags.writeable and not p2.flags.writeable
        for row, index in enumerate(entries):
            assert p1[row] == brute_row(first, index[:d1])
            assert p2[row] == brute_row(second, index[d1:])


class TestSumMap:
    @pytest.mark.parametrize("d, m", [(1, 0), (1, 5), (2, 4), (3, 3), (4, 2)])
    def test_row_of_the_sum(self, d, m):
        entries = index_table(d, m)[0]
        big = index_table(d, 2 * m)[0]
        out = sum_map(d, m)
        assert out.shape == (len(entries), len(entries)) and not out.flags.writeable
        for q, row in enumerate(entries):
            for s, other in enumerate(entries):
                assert out[q, s] == brute_row(big, row + other)
        np.testing.assert_array_equal(out, out.T)

    def test_products_of_monomials(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(9, 2))
        low, high = monomial_matrix(pts, 2, 3), monomial_matrix(pts, 2, 6)
        np.testing.assert_allclose(low[:, :, None] * low[:, None, :], high[:, sum_map(2, 3)],
                                   rtol=1e-14)

    @pytest.mark.parametrize("fn, args", [
        (index_table, (2, 3)), (parity_phase, (2, 3)), (block_split, ((1, 1), 3)),
        (sum_map, (2, 3)),
    ])
    def test_cache_is_bounded(self, fn, args):
        fn(*args)
        assert fn.cache_info().maxsize == 32


class TestUpsilonBound:
    def test_order_one_equals_S(self):
        params = UpsilonParams(0.7, 1.3)
        assert upsilon_bound((1, 0), params) == pytest.approx(1.3)

    def test_order_three_value(self):
        # oracle: S^k k^(-kappa k) at k=3, S=1.5, kappa=0.55
        params = UpsilonParams(0.55, 1.5)
        assert upsilon_bound((2, 1), params) == pytest.approx(
            0.55083776422502765, rel=1e-14
        )

    @pytest.mark.parametrize("degree, kappa, S", [
        (70, 0.5, 1e5),  # S^k overflows from order 62
        (160, 1.0, 100.0),  # S^k overflows and k^(-k) underflows: nan from order 155
    ])
    def test_caps_past_float_range_of_S_power(self, degree, kappa, S):
        orders = index_table(2, degree)[1]
        caps = _bound_vector(2, degree, UpsilonParams(kappa, S))
        k = orders[orders * math.log(S) > math.log(np.finfo(np.float64).max)].astype(np.float64)
        assert k.size and np.all(np.isfinite(caps[1:]))
        np.testing.assert_allclose(np.log(caps[-k.size:]), k * (math.log(S) - kappa * np.log(k)),
                                   rtol=1e-12)
        assert caps[0] == np.inf

    @pytest.mark.parametrize("d, degree, kappa, S", [
        (1, 160, 1.0, 100.0),  # k^(-k) underflows from order 144, S^k overflows from 155
        (2, 70, 0.5, 1e5),
        (2, 12, 0.55, 1.5),
    ])
    def test_every_cap_matches_the_log_formula(self, d, degree, kappa, S):
        orders = index_table(d, degree)[1]
        k = orders[1:].astype(np.float64)
        caps = _bound_vector(d, degree, UpsilonParams(kappa, S))[1:]
        np.testing.assert_allclose(caps, np.exp(k * (math.log(S) - kappa * np.log(k))),
                                   rtol=1e-12)

    @pytest.mark.parametrize("k, kappa, S", [(62, 0.5, 1e5), (150, 1.0, 100.0)])
    def test_upsilon_bound_past_the_float_range_of_a_factor(self, k, kappa, S):
        # S^62 overflows; 150^(-150) underflows to 0
        assert upsilon_bound(k, UpsilonParams(kappa, S)) == pytest.approx(
            math.exp(k * (math.log(S) - kappa * math.log(k))), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("degree, kappa, S", [(12, 0.55, 1.5), (70, 0.5, 1e5)])
    def test_finite_caps_keep_their_bits(self, degree, kappa, S):
        # caps whose factors S^k and k^(-kappa k) are both normal floats are
        # their plain product
        k = index_table(2, degree)[1][1:].astype(np.float64)
        with np.errstate(over="ignore"):
            direct = S**k * k ** (-kappa * k)
        caps = _bound_vector(2, degree, UpsilonParams(kappa, S))[1:]
        finite = np.isfinite(direct)
        assert finite.any()
        np.testing.assert_array_equal(caps[finite], direct[finite])

    def test_random_member_draws_within_large_caps(self, rng):
        params = UpsilonParams(0.5, 1e5)
        orders = index_table(2, 70)[1]
        theta = random_member(params, (1, 1), 70, rng).theta
        caps = _bound_vector(2, 70, params)
        assert theta[0] == 1.0 and np.all(np.abs(theta[1:]) <= caps[1:])
        # caps near 1e254 and above, not the pinned coefficient's 1
        assert np.all(np.abs(theta[orders >= 62]) > 1.0)

    def test_random_member_refuses_caps_past_the_float_range(self, rng):
        # caps: 1e200 at order 1, 2.5e399 at order 2
        with pytest.raises(ConfigError, match="order 2 exceeds the float range"):
            random_member(UpsilonParams(1.0, 1e200), (1, 1), 2, rng)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            UpsilonParams(0.0, 1.0)
        with pytest.raises(ConfigError):
            UpsilonParams(1.2, 1.0)
        with pytest.raises(ConfigError):
            UpsilonParams(0.5, -1.0)


class TestProjectUpsilon:
    def test_idempotent_on_feasible(self, rng):
        params = UpsilonParams(0.75, 2.0)
        poly = random_member(params, (1, 1), 5, rng)
        out = project_upsilon(poly, params)
        np.testing.assert_array_equal(out.theta, poly.theta)

    def test_zero_index_forced_to_one(self):
        theta = np.zeros(6)
        theta[0] = 0.9
        poly = TaylorPoly((1, 1), 2, theta)
        # pinned structurally at construction, projection keeps it
        assert poly.theta[0] == 1.0
        out = project_upsilon(poly, UpsilonParams(1.0, 1.0))
        assert out.theta[0] == 1.0

    def test_clamp_to_bound(self):
        # d=1, kappa=1, S=1: order-2 bound is 2^-2 = 0.25
        theta = np.array([1.0, 0.0, 0.5])
        poly = TaylorPoly((1, 0), 2, theta)
        out = project_upsilon(poly, UpsilonParams(1.0, 1.0))
        assert out.theta[2] == pytest.approx(0.25)

    def test_clamp_preserves_sign(self):
        theta = np.array([1.0, 0.0, -0.5])
        poly = TaylorPoly((1, 0), 2, theta)
        out = project_upsilon(poly, UpsilonParams(1.0, 1.0))
        assert out.theta[2] == pytest.approx(-0.25)

    def test_membership_after_projection(self, rng):
        params = UpsilonParams(0.6, 0.8)
        for _ in range(20):
            theta = rng.normal(scale=3.0, size=index_table(2, 6)[0].shape[0])
            poly = TaylorPoly((1, 1), 6, theta)
            out = project_upsilon(poly, params)
            entries, orders = index_table(2, 6)
            for row, order, th in zip(entries, orders, out.theta):
                if order == 0:
                    assert th == 1.0
                else:
                    assert abs(th) <= upsilon_bound(tuple(row), params) + 1e-15


class TestTruncate:
    def test_identity_beyond_degree(self):
        poly = poly_11(3, {(1, 1): 0.2, (2, 1): 0.05})
        out = truncate(poly, 3)
        np.testing.assert_array_equal(out.theta, poly.theta)

    def test_degree_zero_is_constant_one(self):
        poly = poly_11(3, {(1, 1): 0.2})
        out = truncate(poly, 0)
        assert out.max_degree == 0
        np.testing.assert_array_equal(out.theta, [1.0])

    def test_degree_filter(self):
        # 1 + i a t1 + b t1 t2, truncated at 1, keeps only the linear term
        poly = poly_11(2, {(1, 0): 0.4, (1, 1): 0.7})
        out = truncate(poly, 1)
        assert out.coeff((1, 0)) == pytest.approx(0.4j)
        assert out.max_degree == 1
        ts = np.array([[0.3, -0.8], [1.0, 2.0]])
        expected = 1.0 + 0.4j * ts[:, 0]
        np.testing.assert_allclose(evaluate(out, ts), expected, rtol=1e-15)

    def test_idempotent(self):
        poly = poly_11(4, {(1, 1): 0.1, (2, 2): 0.02})
        once = truncate(poly, 2)
        twice = truncate(once, 2)
        np.testing.assert_array_equal(once.theta, twice.theta)


class TestEvaluate:
    def test_against_naive_loop(self, rng):
        params = UpsilonParams(0.7, 1.2)
        entries, orders = index_table(2, 5)
        for _ in range(10):
            poly = random_member(params, (1, 1), 5, rng)
            pts = rng.uniform(-1.5, 1.5, size=(6, 2))
            coeffs = poly.coeffs
            for t in pts:
                acc = 0.0 + 0.0j
                for row, c in zip(entries, coeffs):
                    acc += c * t[0] ** row[0] * t[1] ** row[1]
                got = evaluate(poly, t)
                assert abs(got - acc) <= 1e-12 * max(1.0, abs(acc))

    def test_hermitian_symmetry(self, rng):
        poly = random_member(UpsilonParams(0.9, 1.0), (1, 1), 6, rng)
        pts = rng.uniform(-2, 2, size=(40, 2))
        plus = evaluate(poly, pts)
        minus = evaluate(poly, -pts)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-14, atol=1e-15)

    def test_monomial_matrix_shape(self):
        pts = np.array([[0.5, -1.0], [2.0, 0.25]])
        mat = monomial_matrix(pts, 2, 3)
        entries = index_table(2, 3)[0]
        assert mat.shape == (2, entries.shape[0])
        assert mat[0, 0] == 1.0

    def test_dimension_mismatch(self):
        poly = poly_11(2, {})
        with pytest.raises(ConfigError):
            evaluate(poly, np.zeros((3, 3)))


class TestSerialization:
    def test_round_trip(self, rng):
        poly = random_member(UpsilonParams(0.65, 1.8), (1, 1), 5, rng)
        back = from_json_record(to_json_record(poly))
        assert back.dims == poly.dims
        assert back.max_degree == poly.max_degree
        np.testing.assert_array_equal(back.theta, poly.theta)

    @pytest.mark.parametrize("index", [(-1, 1), (4, 0), (3, 1)])
    def test_index_outside_degree_refused(self, index):
        # at degree 3, (-1, 1) and (4, 0) share a base-4 code with (3, 0)
        # and (0, 1); (3, 1) has order 4
        record = to_json_record(poly_11(3, {(1, 1): 0.25}))
        record["coeffs"].append([*index, 0.0, 0.5])
        with pytest.raises(ConfigError, match="outside degree 3"):
            from_json_record(record)

    @pytest.mark.parametrize("row, message", [
        ([1, 1, 0.25, 0.1], "even-order index .* real coefficient"),
        ([1, 0, 0.3, 0.1], "odd-order index .* imaginary coefficient"),
    ])
    def test_parity_violation_refused(self, row, message):
        record = to_json_record(poly_11(3, {}))
        record["coeffs"].append(row)
        with pytest.raises(ConfigError, match=message):
            from_json_record(record)

    @pytest.mark.parametrize("index", [(-1, 1), (4, 0), (3, 1)])
    def test_coeff_outside_the_table_raises(self, index):
        poly = poly_11(3, {(3, 0): 0.1, (0, 1): 0.2})
        with pytest.raises(KeyError):
            poly.coeff(index)
        assert poly.coeff((3, 0)) == pytest.approx(0.1j)
        assert poly.coeff((0, 1)) == pytest.approx(0.2j)

    def test_zero_coefficients_dropped(self):
        poly = poly_11(3, {(1, 1): 0.25})
        record = to_json_record(poly)
        # only the pinned constant and the one set entry are stored
        assert len(record["coeffs"]) == 2

    def test_random_member_feasible(self, rng):
        params = UpsilonParams(0.55, 2.0)
        entries, orders = index_table(2, 6)
        for _ in range(10):
            poly = random_member(params, (1, 1), 6, rng)
            for row, order, th in zip(entries, orders, poly.theta):
                if order == 0:
                    assert th == 1.0
                else:
                    assert abs(th) <= upsilon_bound(tuple(row), params)
