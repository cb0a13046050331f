"""Empirical characteristic function: pointwise, gridded, persisted."""

import itertools
import sys
import threading
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest

from cfdeconv import ConfigError, ecf
from cfdeconv._util import CHUNK, ROW_BLOCK, PairwiseAccumulator, cos_sin, one_blas_thread
from cfdeconv.contrast import make_grid
from cfdeconv.ecf import SampleSet, ecf_eval, ecf_on_grid, export_csv, load_csv


def make_samples(rows, d1=1, d2=1):
    return SampleSet(d1, d2, np.asarray(rows, dtype=np.float64))


def closed(x):
    """x averaged with its mirror, so that x == -x[::-1] holds exactly (as
    ecf_on_grid requires of every axis)."""
    x = np.asarray(x, dtype=np.float64)
    return (x - x[::-1]) / 2


class TestEcfEval:
    def test_single_zero_sample(self):
        s = make_samples([[0.0, 0.0]])
        for t in ([0.0, 0.0], [1.3, -2.0], [10.0, 0.5]):
            assert ecf_eval(s, np.array(t)) == 1.0

    def test_two_symmetric_samples_cosine(self):
        s = make_samples([[1.0, 0.0], [-1.0, 0.0]])
        got = ecf_eval(s, np.array([np.pi, 0.0]))
        assert got.real == pytest.approx(-1.0, abs=1e-15)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_symmetry(self, rng):
        s = make_samples(rng.normal(size=(64, 2)))
        for _ in range(20):
            t = rng.uniform(-3, 3, size=2)
            plus = ecf_eval(s, t)
            minus = ecf_eval(s, -t)
            assert abs(minus - np.conj(plus)) <= 1e-14

    def test_modulus_bounded_and_one_at_zero(self, rng):
        s = make_samples(rng.standard_t(3, size=(200, 2)))
        assert ecf_eval(s, np.zeros(2)) == 1.0
        pts = rng.uniform(-5, 5, size=(50, 2))
        vals = np.array([ecf_eval(s, t) for t in pts])
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            SampleSet(1, 1, np.zeros((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            make_samples([[np.nan, 0.0]])

    @pytest.mark.parametrize("row", [0, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK])
    def test_nonfinite_found_in_any_row_block(self, row):
        data = np.zeros((2 * ROW_BLOCK + 1, 2))
        data[row, 1] = np.inf
        with pytest.raises(ConfigError, match="non-finite"):
            make_samples(data)

    @pytest.mark.parametrize("t", [
        np.array([0.1, 0.2, 0.3, 0.4]),  # reshapes to two d=2 points
        np.array([0.1, 0.2, 0.3]),
        np.zeros((5, 3)),
        np.float64(0.1),
    ])
    def test_wrong_point_dimension_rejected(self, t):
        s = make_samples([[0.5, -0.5], [1.0, 0.0]])
        with pytest.raises(ConfigError, match="expected"):
            ecf_eval(s, t)


class TestEcfOnGrid:
    def test_degenerate_origin_grid(self):
        s = make_samples([[0.4, -0.2], [1.0, 0.3]])
        table = ecf_on_grid(s, [np.zeros(1), np.zeros(1)])
        assert table.full[0, 0] == 1.0
        assert table.first[0] == 1.0
        assert table.second[0] == 1.0

    def test_agreement_with_pointwise(self, rng):
        s = make_samples(rng.normal(size=(37, 2)))
        nodes = [closed(np.sort(rng.uniform(-2, 2, 10))), closed(np.sort(rng.uniform(-2, 2, 5)))]
        table = ecf_on_grid(s, nodes)
        for i, t1 in enumerate(nodes[0]):
            for j, t2 in enumerate(nodes[1]):
                direct = ecf_eval(s, np.array([t1, t2]))
                assert abs(table.full[i, j] - direct) <= 1e-14
        for i, t1 in enumerate(nodes[0]):
            assert abs(table.first[i] - ecf_eval(s, np.array([t1, 0.0]))) <= 1e-14

    def test_monte_carlo_concentration(self):
        # n=1e4 symmetric-uniform draws: ecf at (1,0) near sin(1)/1
        rng = np.random.default_rng(7)
        n = 10_000
        data = rng.uniform(-1.0, 1.0, size=(n, 2))
        s = make_samples(data)
        got = ecf_eval(s, np.array([1.0, 0.0]))
        assert abs(got - 0.8414709848078965) <= 3.0 / np.sqrt(n)

    def test_modulus_bound_on_tables(self, rng):
        s = make_samples(rng.normal(size=(100, 2)))
        table = ecf_on_grid(s, [np.linspace(-4, 4, 9), np.linspace(-4, 4, 9)])
        assert np.all(np.abs(table.full) <= 1.0 + 1e-12)
        assert np.all(np.abs(table.first) <= 1.0 + 1e-12)
        assert np.all(np.abs(table.second) <= 1.0 + 1e-12)

    def test_determinism(self, rng):
        data = rng.normal(size=(51, 2))
        nodes = [closed(np.linspace(-1, 1, 7)), closed(np.linspace(-2, 2, 6))]
        t1 = ecf_on_grid(make_samples(data), nodes)
        t2 = ecf_on_grid(make_samples(data.copy()), nodes)
        np.testing.assert_array_equal(t1.full, t2.full)
        np.testing.assert_array_equal(t1.first, t2.first)
        np.testing.assert_array_equal(t1.second, t2.second)


def lattice(axis_nodes):
    """Tensor lattice points of per-axis node arrays, flattened C-order."""
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, len(axis_nodes))


def assert_matches_pointwise(s, axis_nodes):
    """ecf_on_grid's full, first and second tables equal ecf_eval at every
    lattice point to within 1e-14."""
    d1 = s.d1
    pts1, pts2 = lattice(axis_nodes[:d1]), lattice(axis_nodes[d1:])
    pairs = np.concatenate(
        [np.repeat(pts1, len(pts2), axis=0), np.tile(pts2, (len(pts1), 1))], axis=1
    )
    zeros1, zeros2 = np.zeros((len(pts1), s.d2)), np.zeros((len(pts2), d1))
    want = (
        ecf_eval(s, pairs).reshape(len(pts1), len(pts2)),
        ecf_eval(s, np.concatenate([pts1, zeros1], axis=1)),
        ecf_eval(s, np.concatenate([zeros2, pts2], axis=1)),
    )
    table = ecf_on_grid(s, axis_nodes)
    for got, ref in zip((table.full, table.first, table.second), want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14
    return table


HALF_LATTICE_CASES = [
    ((1, 1), 7), ((1, 1), 8), ((2, 1), 5), ((2, 1), 6),
    ((1, 2), 5), ((1, 2), 6), ((2, 2), 5), ((2, 2), 6),
]


class TestHalfLattice:
    """ecf_on_grid tabulates half the sign patterns and mirrors the rest."""

    @pytest.mark.parametrize("dims, nodes", HALF_LATTICE_CASES)
    def test_agreement_on_gauss_legendre(self, dims, nodes, rng):
        s = make_samples(rng.normal(size=(CHUNK + 37, sum(dims))), *dims)
        assert_matches_pointwise(s, [make_grid(1.5, dims, nodes).axis_nodes] * sum(dims))

    @pytest.mark.parametrize("dims, nodes", HALF_LATTICE_CASES)
    def test_exact_hermitian_mirror(self, dims, nodes, rng):
        s = make_samples(rng.normal(size=(200, sum(dims))), *dims)
        table = ecf_on_grid(s, [make_grid(1.0, dims, nodes).axis_nodes] * sum(dims))
        assert np.array_equal(table.full[::-1, ::-1], np.conj(table.full))
        assert np.array_equal(table.first[::-1], np.conj(table.first))
        assert np.array_equal(table.second[::-1], np.conj(table.second))

    @pytest.mark.parametrize("dims, nodes", [((1, 1), 8), ((2, 1), 5)])
    def test_pooled_halves_match_union(self, dims, nodes, rng):
        # the n-weighted mean of two tables is the union's table up to
        # rounding, and stays exactly Hermitian
        data = rng.normal(size=(2 * CHUNK + 301, sum(dims)))
        axes = [make_grid(1.0, dims, nodes).axis_nodes] * sum(dims)
        half = data.shape[0] // 2
        table = ecf.pooled(ecf_on_grid(make_samples(data[:half], *dims), axes),
                           ecf_on_grid(make_samples(data[half:], *dims), axes))
        union = ecf_on_grid(make_samples(data, *dims), axes)
        assert table.n == union.n
        for got, ref in zip((table.full, table.first, table.second),
                            (union.full, union.first, union.second)):
            assert np.max(np.abs(got - ref)) <= 1e-14
            assert np.array_equal(got[::-1, ::-1] if got.ndim == 2 else got[::-1], np.conj(got))

    def test_pooled_refuses_other_grid(self, rng):
        # nu = 1 and nu = 3 tables have the same sizes; only their grid ids
        # tell them apart, and a pooled table would mix the two grids' values
        s = make_samples(rng.normal(size=(50, 2)))
        a, b = (ecf_on_grid(s, [make_grid(nu, (1, 1), 8).axis_nodes] * 2,
                            grid_id=make_grid(nu, (1, 1), 8).grid_id) for nu in (1.0, 3.0))
        with pytest.raises(ConfigError, match="different grids"):
            ecf.pooled(a, b)
        assert ecf.pooled(a, a).grid_id == a.grid_id

    @pytest.mark.parametrize("is_closed", [True, False])
    def test_hand_built_trapezoid_nodes(self, is_closed, rng):
        # a different closed node list per axis is tabulated; a node list
        # that is not closed under negation is rejected
        x = closed(np.linspace(-1.0, 1.0, 9))
        axes = [x, x[1:-1], x[::2]] if is_closed else [x, x[2:], x[::2]]
        s = make_samples(rng.normal(size=(90, 3)), d1=2, d2=1)
        if not is_closed:
            with pytest.raises(ConfigError, match="closed under negation"):
                ecf_on_grid(s, axes)
            return
        table = assert_matches_pointwise(s, axes)
        assert table.full.shape == (9 * 7, 5)

    def test_nonfinite_nodes_rejected(self):
        s = make_samples([[0.1, 0.2]])
        with pytest.raises(ConfigError):
            ecf_on_grid(s, [np.array([-1.0, np.nan, 1.0]), np.zeros(1)])

    @pytest.mark.parametrize("dims, nodes", [((1, 1), 8), ((2, 1), 7), ((2, 2), 6)])
    def test_block_one_tabulated_on_half_first_axis(self, dims, nodes, monkeypatch, rng):
        calls = []
        real = ecf._half_lattice

        def recording(out, block_data, axis_nodes):
            view = real(out, block_data, axis_nodes)
            calls.append((block_data.shape, [len(a) for a in axis_nodes], view.shape))
            return view

        monkeypatch.setattr(ecf, "_half_lattice", recording)
        d1, d2 = dims
        s = make_samples(rng.normal(size=(2 * CHUNK + 5, d1 + d2)), d1, d2)
        ecf_on_grid(s, [make_grid(1.0, dims, nodes).axis_nodes] * (d1 + d2))
        assert len(calls) == 2 * 3
        half = (nodes + 1) // 2
        # [cos; sin; 1] on the half lattice, one column per sample
        for (shape, sizes, out_shape) in calls[0::2]:
            assert shape[1] == d1 and sizes == [nodes] * d1
            assert out_shape == (2 * half * nodes ** (d1 - 1) + 1, shape[0])
        for (shape, _, out_shape) in calls[1::2]:
            assert out_shape == (2 * half * nodes ** (d2 - 1) + 1, shape[0])

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("nodes", [5, 6])
    def test_heavy_tailed_sample(self, dims, nodes, rng):
        # standard_t(1.5) draws reach |y| ~ 1e3, so t.y spans many periods;
        # n is not a multiple of CHUNK
        s = make_samples(rng.standard_t(1.5, size=(CHUNK + 211, sum(dims))), *dims)
        table = assert_matches_pointwise(s, [make_grid(3.0, dims, nodes).axis_nodes] * sum(dims))
        assert np.array_equal(table.full[::-1, ::-1], np.conj(table.full))
        assert np.array_equal(table.first[::-1], np.conj(table.first))
        assert np.array_equal(table.second[::-1], np.conj(table.second))


def stack_by_allocation(block_data, axis_nodes):
    """[cos; sin; 1] on a block's half lattice as a fresh stack: cos_sin per
    axis, angle addition over whole arrays, then np.vstack."""
    first = axis_nodes[0]
    c, s = cos_sin(first[: (len(first) + 1) // 2], block_data[:, 0])
    for nodes, y in zip(axis_nodes[1:], block_data.T[1:]):
        ca, sa = cos_sin(nodes, y)
        c, s = ((c[:, None] * ca - s[:, None] * sa).reshape(-1, len(y)),
                (s[:, None] * ca + c[:, None] * sa).reshape(-1, len(y)))
    return np.vstack([c, s, np.ones(len(block_data))])


class TestChunkRuns:
    """Aligned runs of chunks on worker threads: the table's bytes do not
    depend on the worker count."""

    @staticmethod
    def tables(monkeypatch, samples, axes, counts):
        """The table for each worker count, and the pool sizes started."""
        pools, real = [], ecf.ThreadPoolExecutor
        monkeypatch.setattr(ecf, "ThreadPoolExecutor",
                            lambda workers: pools.append(workers) or real(workers))
        out = []
        for count in counts:
            monkeypatch.setattr(ecf, "_cpu_count", lambda: count)
            out.append(ecf_on_grid(samples, axes))
        return out, pools

    @pytest.mark.parametrize("dims, nodes", [((1, 1), 48), ((2, 2), 12)])
    def test_same_bytes_for_every_worker_count(self, dims, nodes, monkeypatch, rng):
        # three full runs, a partial run and a partial chunk
        run = CHUNK << ecf.RUN_LEVEL
        s = make_samples(rng.standard_t(3, size=(3 * run + 5 * CHUNK + 17, sum(dims))), *dims)
        axes = [make_grid(1.0, dims, nodes).axis_nodes] * sum(dims)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as they can
        try:
            tables, pools = self.tables(monkeypatch, s, axes, (1, 2, 3, 4))
        finally:
            sys.setswitchinterval(interval)
        assert pools == [2, 3, 4]
        # one run holding the whole sample: the plain serial loop
        monkeypatch.setattr(ecf, "RUN_LEVEL", 60)
        tables += self.tables(monkeypatch, s, axes, (3,))[0]
        for table in tables[1:]:
            for field in ("first", "second", "full"):
                assert getattr(table, field).tobytes() == getattr(tables[0], field).tobytes()

    def test_one_run_starts_no_pool(self, monkeypatch, rng):
        s = make_samples(rng.normal(size=(CHUNK << ecf.RUN_LEVEL, 2)))
        _, pools = self.tables(monkeypatch, s, [make_grid(1.0, (1, 1), 8).axis_nodes] * 2, (4,))
        assert pools == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rows", [CHUNK, CHUNK - 211])
    def test_stack_filled_in_place_as_by_allocation(self, d, rows, rng):
        # a reused stack, a partial chunk in its leading columns included,
        # holds the bits of a fresh one, and so does their product
        axes = [make_grid(1.0, (d, 1), 7).axis_nodes] * d
        half = 4 * 7 ** (d - 1)
        out = np.ones((2 * half + 1, CHUNK))
        ecf._half_lattice(out, rng.standard_t(3, size=(CHUNK, d)), axes)
        y = rng.standard_t(3, size=(rows, d))
        view = ecf._half_lattice(out, y, axes)
        fresh = stack_by_allocation(y, axes)
        assert view.shape == fresh.shape and view.tobytes() == fresh.tobytes()
        with one_blas_thread():
            assert (view @ view.T).tobytes() == (fresh @ fresh.T).tobytes()

    def test_error_in_one_chunk_reaches_the_caller(self, monkeypatch, rng, blas_pools):
        calls, real = itertools.count(), ecf._half_lattice

        def failing(*args):
            if next(calls) == 70:
                raise FloatingPointError("chunk failed")
            return real(*args)

        monkeypatch.setattr(ecf, "_half_lattice", failing)
        monkeypatch.setattr(ecf, "_cpu_count", lambda: 2)
        s = make_samples(rng.normal(size=(3 * (CHUNK << ecf.RUN_LEVEL) + 5, 2)))
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="chunk failed"):
            ecf_on_grid(s, [make_grid(1.0, (1, 1), 8).axis_nodes] * 2)
        assert set(blas_pools()) == {2}
        assert threading.active_count() == threads


def blocks_of(data, sizes):
    """The rows of `data` as consecutive blocks of the given sizes (the
    last one repeated), each a new array, as a stream makes them."""
    sizes, at = iter(sizes), 0
    size = next(sizes)
    while at < len(data):
        yield data[at : at + size].copy()
        at += size
        size = next(sizes, size)


def stream_of(data, sizes, d1=1, d2=1):
    return ecf.RowStream(d1, d2, len(data), lambda: blocks_of(data, sizes))


def random_sizes(seed):
    rng = np.random.default_rng(seed)
    return iter(lambda: int(rng.integers(1, 3 * CHUNK << ecf.RUN_LEVEL)), None)


class TestAccumulator:
    """Rows fed in blocks of any size give the serial loop's table."""

    @pytest.mark.parametrize("n", [1, 1025, (1 << 15) + 1, 3 * (1 << 15) + 1000 + 1])
    @pytest.mark.parametrize("sizes", [[1], [1000], [ROW_BLOCK], "random"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 2)])
    def test_bits_of_the_serial_table(self, n, sizes, dims, monkeypatch):
        data = np.random.default_rng(n).standard_t(3, size=(n, sum(dims)))
        axes = [make_grid(1.0, dims, 6).axis_nodes] * sum(dims)
        blocks = random_sizes(n) if sizes == "random" else sizes
        streamed = ecf_on_grid(stream_of(data, blocks, *dims), axes)
        # one run holding the whole matrix: the plain serial loop
        monkeypatch.setattr(ecf, "RUN_LEVEL", 60)
        serial = ecf_on_grid(make_samples(data, *dims), axes)
        assert streamed.n == n
        for field in ("first", "second", "full"):
            assert getattr(streamed, field).tobytes() == getattr(serial, field).tobytes()

    @pytest.mark.parametrize("rows, message", [
        (99, "yields 99 rows, not its n = 100"),
        (101, "more than its n = 100 rows"),
    ])
    def test_rows_checked_against_n(self, rows, message, rng):
        data = rng.normal(size=(rows, 2))
        source = ecf.RowStream(1, 1, 100, lambda: blocks_of(data, [7]))
        with pytest.raises(ConfigError, match=message):
            ecf_on_grid(source, [make_grid(1.0, (1, 1), 6).axis_nodes] * 2)

    def test_error_in_a_stream_reaches_the_caller(self, monkeypatch, rng, blas_pools):
        # the stream fails after five runs went to the pool: the error
        # propagates once they are done, and no worker or BLAS hold is left
        run = CHUNK << ecf.RUN_LEVEL
        data = rng.normal(size=(8 * run, 2))

        def failing():
            yield from blocks_of(data[: 5 * run + 7], [ROW_BLOCK])
            raise FloatingPointError("draw failed")

        monkeypatch.setattr(ecf, "_cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            ecf_on_grid(ecf.RowStream(1, 1, len(data), failing),
                        [make_grid(1.0, (1, 1), 8).axis_nodes] * 2)
        assert set(blas_pools()) == {2}
        assert threading.active_count() == threads

    def test_block_width_checked(self, rng):
        data = rng.normal(size=(10, 3))
        with pytest.raises(ConfigError, match=r"shape \(rows, 2\)"):
            ecf_on_grid(stream_of(data, [4]), [make_grid(1.0, (1, 1), 6).axis_nodes] * 2)

    def test_runs_in_flight_bounded(self, monkeypatch, rng):
        # ten runs on two workers: at most four are submitted and not yet
        # absorbed, where pool.map would submit all ten at once
        real, runs = ecf.ThreadPoolExecutor, {"open": 0, "most": 0}

        class Counting(real):
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                runs["open"] += 1
                runs["most"] = max(runs["most"], runs["open"])
                result = future.result

                def absorbed():
                    runs["open"] -= 1
                    return result()

                future.result = absorbed
                return future

        monkeypatch.setattr(ecf, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(ecf, "_cpu_count", lambda: 2)
        data = rng.normal(size=(10 * (CHUNK << ecf.RUN_LEVEL), 2))
        ecf_on_grid(stream_of(data, [ROW_BLOCK]), [make_grid(1.0, (1, 1), 6).axis_nodes] * 2)
        assert runs == {"open": 0, "most": 4}

    def test_only_straddling_rows_copied(self, rng):
        # a 40-chunk sample in one block: both runs are views of it, the
        # partial last one too, since it ends the sample; cut at row 1000,
        # the first run straddles the cut and is copied, and the second
        # lies inside the second piece
        data = rng.normal(size=(40 * CHUNK, 2))
        runs = list(ecf._runs(iter([data]), len(data), 2, CHUNK << ecf.RUN_LEVEL))
        assert [len(r) for r in runs] == [32 * CHUNK, 8 * CHUNK]
        assert all(np.shares_memory(r, data) for r in runs)
        pieces = [data[:1000].copy(), data[1000:].copy()]
        runs = list(ecf._runs(iter(pieces), len(data), 2, CHUNK << ecf.RUN_LEVEL))
        assert not np.shares_memory(runs[0], pieces[0])
        assert np.shares_memory(runs[1], pieces[1])
        assert np.concatenate(runs).tobytes() == data.tobytes()


class TestRowSources:
    @pytest.mark.parametrize("k", [1, 1000, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK - 1])
    def test_split_halves_are_consecutive(self, k, rng):
        data = rng.normal(size=(3 * ROW_BLOCK, 2))
        for source in (make_samples(data), stream_of(data, [ROW_BLOCK])):
            head, tail = source.split(k)
            assert (head.n, tail.n) == (k, len(data) - k)
            rows = [np.concatenate(list(half.blocks())) for half in (head, tail)]
            assert np.concatenate(rows).tobytes() == data.tobytes()

    def test_stream_tail_read_after_its_head(self, rng):
        head, tail = stream_of(rng.normal(size=(50, 2)), [8]).split(25)
        with pytest.raises(ConfigError, match="after its head"):
            list(tail.blocks())
        list(head.blocks())
        assert len(np.concatenate(list(tail.blocks()))) == 25

    @pytest.mark.parametrize("k", [0, 50, 1.5])
    def test_split_point_checked(self, k, rng):
        for source in (make_samples(rng.normal(size=(50, 2))),
                       stream_of(rng.normal(size=(50, 2)), [8])):
            with pytest.raises(ConfigError, match="k must be|split point"):
                source.split(k)


def allocating_tree_sum(blocks):
    """The pairwise tree as first written: every merge allocates a new sum."""
    stack = []
    for cur in blocks:
        level = 0
        while stack and stack[-1][0] == level:
            cur = cur + stack.pop()[1]
            level += 1
        stack.append((level, cur))
    acc = None
    for _, arr in stack:
        acc = arr if acc is None else acc + arr
    return acc


class TestPairwiseAccumulator:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 20, 31, 33])
    def test_bits_of_the_allocating_tree(self, count, rng):
        blocks = [rng.standard_t(3, size=(5, 3)) for _ in range(count)]
        copies = [b.copy() for b in blocks]
        acc = PairwiseAccumulator()
        for block in blocks:
            acc.add(block)
        assert acc.total().tobytes() == allocating_tree_sum(copies).tobytes()
        # the caller's blocks are only read
        assert all(b.tobytes() == c.tobytes() for b, c in zip(blocks, copies))

    @pytest.mark.parametrize("split", [0, 3, 8, 13])
    def test_absorb_equals_adding_the_blocks(self, split, rng):
        # a run of 8 blocks is one level-3 node, as ecf_on_grid's runs are
        blocks = [rng.normal(size=4) for _ in range(13)]
        whole, head = PairwiseAccumulator(), PairwiseAccumulator()
        for block in blocks:
            whole.add(block)
        for start in range(0, 13, 8):
            run = PairwiseAccumulator()
            for block in blocks[start:start + 8]:
                run.add(block)
            head.absorb(run)
            assert run.stack == []
        assert head.total().tobytes() == whole.total().tobytes()

    def test_live_buffers_bounded_by_depth(self, rng):
        # 31 blocks make a tree of depth 5, and so do the 16 runs of two
        # blocks it absorbs: at most 6 of the buffers it made stay alive
        acc, made = PairwiseAccumulator(), []

        def alive():
            return len({id(ref()) for ref in made if ref() is not None})

        for _ in range(31):
            acc.add(rng.normal(size=3))
            made.extend(weakref.ref(arr) for _, arr in acc.stack)
            assert alive() <= 6
        assert len(acc.stack) == 5
        head = PairwiseAccumulator()
        for _ in range(16):
            run = PairwiseAccumulator()
            for _ in range(2):
                run.add(rng.normal(size=3))
            head.absorb(run)
            del run
            made.extend(weakref.ref(arr) for _, arr in head.stack)
            assert alive() <= 6 + 5

    # RUN_LEVEL 1 splits the 31 chunks into 16 runs, one after another
    @pytest.mark.parametrize("run_level", [ecf.RUN_LEVEL, 1])
    def test_table_peak_memory(self, run_level, monkeypatch):
        # d1 = d2 = 2 on 24 nodes: half lattices of H = 12 * 24 points, so a
        # partial sum is (2H + 1)^2 doubles and a run's [cos; sin; 1] stacks
        # are 2 (2H + 1) CHUNK doubles.  31 chunks make a tree of depth 5:
        # bound the peak by the stacks and 5 + 2 partial sums (the
        # allocating tree reached 29.3 MB, this one 25.4 MB either way)
        monkeypatch.setattr(ecf, "RUN_LEVEL", run_level)
        monkeypatch.setattr(ecf, "_cpu_count", lambda: 1)
        grid = make_grid(1.0, (2, 2), 24)
        s = make_samples(np.random.default_rng(3).normal(size=(31 * CHUNK, 4)), 2, 2)
        side = 2 * 12 * 24 + 1
        bound = 8 * (2 * side * CHUNK + 7 * side * side)
        tracemalloc.start()
        try:
            table = ecf_on_grid(s, [grid.axis_nodes] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.full.shape == (576, 576)
        assert peak <= bound


class TestCosSin:
    """cos and sin from the tangent of the half angle, against mpmath."""

    @staticmethod
    def arguments():
        tiny = np.nextafter(0.0, 1.0)
        pts = [0.0, tiny, -tiny, 2.2e-308, -1e-310, 1e6, -1e6, 1e12, -1e12]
        # next to odd multiples of pi, where tan of the half angle has its pole
        for k in np.unique(np.geomspace(1, 31831, 120).astype(int) | 1):
            v = k * np.pi
            pts += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        pts = np.array(pts)
        return np.concatenate([pts, -pts])

    def test_against_mpmath(self):
        x = self.arguments()
        cos, sin = cos_sin(x, np.ones(1))
        mp.mp.prec = 200
        for v, c, s in zip(x, cos[:, 0], sin[:, 0]):
            arg = mp.mpf(float(v))
            assert abs(float(mp.cos(arg)) - c) <= 4.5e-16, v
            assert abs(float(mp.sin(arg)) - s) <= 4.5e-16, v

    def test_outer_product(self, rng):
        x, y = rng.normal(size=3), 10 * rng.normal(size=5)
        cos, sin = cos_sin(x, y)
        assert cos.shape == sin.shape == (3, 5)
        np.testing.assert_allclose(cos, np.cos(np.outer(x, y)), rtol=0, atol=4.5e-16)
        np.testing.assert_allclose(sin, np.sin(np.outer(x, y)), rtol=0, atol=4.5e-16)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        s = make_samples(rng.normal(size=(23, 3)), d1=2, d2=1)
        path = tmp_path / "samples.csv"
        export_csv(s, path)
        header = path.read_text().splitlines()[0]
        assert header == "y1,y2,y3"
        back = load_csv(path, 2, 1)
        assert (back.d1, back.d2) == (2, 1)
        np.testing.assert_array_equal(back.data, s.data)

    @pytest.mark.parametrize("text, message", [
        ("y1,y2\n1,2\n\n3,x\n", ", line 4: non-numeric value in ['3', 'x']"),
        ("y1,y2\n1,2\n3,4,5\n", ", line 3: 3 values, expected 2"),
        ("y1,y2\n1\n", ", line 2: 1 values, expected 2"),
    ], ids=["non-numeric", "long-row", "short-row"])
    def test_malformed_row_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_csv(path, 1, 1)
        assert str(err.value).startswith(str(path) + message)

    def test_load_peak_is_twice_the_matrix(self, tmp_path, rng):
        # the float64 blocks and the matrix they are joined into; one Python
        # float per value would take 12x
        data = rng.normal(size=(200_000, 2))
        path = tmp_path / "samples.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="y1,y2", comments="")
        tracemalloc.start()
        try:
            back = load_csv(path, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.data, data)
        assert peak <= 2.5 * data.nbytes

    @pytest.mark.parametrize("sizes", [[1], [7], [ROW_BLOCK]])
    def test_streamed_export_has_the_matrix_bytes(self, tmp_path, rng, sizes):
        data = np.concatenate([rng.normal(size=(40, 2)), [[np.pi, -0.0]], [[1e-300, 3.0]]])
        whole, streamed = tmp_path / "whole.csv", tmp_path / "streamed.csv"
        export_csv(make_samples(data), whole)
        export_csv(stream_of(data, sizes), streamed)
        assert streamed.read_bytes() == whole.read_bytes()

    def test_dimension_mismatch_on_load(self, tmp_path, rng):
        s = make_samples(rng.normal(size=(5, 2)))
        path = tmp_path / "samples.csv"
        export_csv(s, path)
        with pytest.raises(ConfigError):
            load_csv(path, 2, 1)
