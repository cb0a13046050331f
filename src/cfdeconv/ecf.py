"""Empirical characteristic function of two-block samples.

Observations are rows Y = (Y1, Y2) with block dimensions (d1, d2); the
empirical CF at t is the sample mean of exp(i t . Y).  Evaluation streams
over fixed-size sample chunks with tree-merged partial sums, so results are
bit-reproducible regardless of platform memory heuristics.

A sample is a row source (`RowSource`): a `SampleSet` holds its (n, d)
matrix, and a `RowStream` makes its rows block by block, as
`ScenarioSpec.stream` does.  `ecf_on_grid` is one accumulator over the
row blocks, in order, of either kind: it regroups them into aligned runs
of CHUNK << RUN_LEVEL rows counted from the table's first row, so any
block sizes give the same table, to the bit.  A run inside one block is a
view of it, and only a run that straddles a block edge is copied, into a
carry of less than one run.

Grid tables use the symmetry ecf(-t) = conj(ecf(t)).  Every axis must be
closed under negation (x == -x[::-1], as for every grid `contrast.make_grid`
builds); then negating t reverses the flattened lattice index, so only the
leading half of each block's lattice is summed over the sample and the rest
is the conjugate mirror, which makes every table exactly Hermitian.  The
per-chunk work is real: cos and sin of y.t from one tangent of the half
angle (`_util.cos_sin`) and one real matrix product per chunk, whose sums
give every sign pattern of (t1, t2) by angle addition.

The chunks run on every CPU the process may use.  Each aligned run of
2^RUN_LEVEL chunks is one task, a subtree of the serial pairwise tree,
so the merged sums are the serial loop's bit for bit.  A task fills its
two [cos; sin; 1] stacks in place, chunk after chunk.  A thread pool
lives for one call and starts only for two or more runs (n is known
before the first block).  At most 2 x workers runs are in flight, each
absorbed in order, so a stream is read no faster than its runs are
summed.  The accumulator, the making of a stream's blocks included, runs
with both OpenBLAS pools held at one thread (`_util.one_blas_thread`), so
a table's bytes depend on the sample and the grid alone, not on the core
count or OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import (CHUNK, ROW_BLOCK, ConfigError, PairwiseAccumulator, as_type, cos_sin,
                    one_blas_thread, row_blocks, write_csv)

# `ecf_on_grid`'s tasks are aligned runs of 2^RUN_LEVEL chunks
RUN_LEVEL = 5


class RowSource:
    """Observations read as consecutive row blocks.

    A row source has block dimensions d1 and d2, a row count n, `blocks()`,
    an iterator of (rows, d1 + d2) float64 arrays that hold its n rows in
    order, and `split(k)`, its first k rows and the rest as two row
    sources.  A reader only reads the blocks, and may hold one after it has
    asked for the next.  `SampleSet` holds its rows in one matrix, and
    `RowStream` makes them block by block; `ecf_on_grid` and `export_csv`
    read either.
    """

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def _split_point(self, k) -> int:
        k = as_type(k, int, "k")
        if not 1 <= k < self.n:
            raise ConfigError(f"a split point must lie in [1, {self.n}), got {k}")
        return k


@dataclass(frozen=True)
class SampleSet(RowSource):
    """An (n, d1+d2) array of observations split into two blocks.  The
    finiteness check runs one row block at a time, so it holds no n x d
    mask."""

    d1: int
    d2: int
    data: np.ndarray

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ConfigError(f"block dimensions must be >= 1, got ({self.d1}, {self.d2})")
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.d1 + self.d2:
            raise ConfigError(
                f"data must have shape (n, {self.d1 + self.d2}), got {data.shape}"
            )
        if data.shape[0] < 1:
            raise ConfigError("need at least one observation")
        if not all(np.isfinite(data[rows]).all() for rows in row_blocks(len(data))):
            raise ConfigError("sample contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def blocks(self):
        """The rows as one block: the matrix itself."""
        return iter((self.data,))

    def split(self, k: int) -> tuple:
        """The first k rows and the rest, as two SampleSets of views."""
        k = self._split_point(k)
        return SampleSet(self.d1, self.d2, self.data[:k]), SampleSet(self.d1, self.d2, self.data[k:])


class RowStream(RowSource):
    """A row source whose rows are made block by block: `make_blocks()`
    returns a fresh iterator of its blocks, so the stream reads again from
    its start, and each block must be a new array."""

    def __init__(self, d1: int, d2: int, n: int, make_blocks):
        self.d1, self.d2, self.n, self._make_blocks = d1, d2, n, make_blocks

    def blocks(self):
        return self._make_blocks()

    def split(self, k: int) -> tuple:
        """The first k rows and the rest, as two streams over one reading:
        the head reads up to row k, splitting the block that straddles it,
        and the tail continues that reading, so it is read after the head."""
        k, rest = self._split_point(k), []

        def head():
            seen, blocks = 0, self.blocks()
            for block in blocks:
                if seen + len(block) >= k:
                    rest[:] = [(block[k - seen :], blocks)]
                    yield block[: k - seen]
                    return
                seen += len(block)
                yield block

        def tail():
            if not rest:
                raise ConfigError("a stream's tail is read after its head")
            block, blocks = rest.pop()
            if len(block):
                yield block
            yield from blocks

        return (RowStream(self.d1, self.d2, k, head),
                RowStream(self.d1, self.d2, self.n - k, tail))


@dataclass(frozen=True)
class EcfTable:
    """Empirical CF tabulated on a tensor grid and its two embedded axes.

    `full` holds values at (t1, t2) pairs, flattened C-order over the block-1
    then block-2 lattice; `first` and `second` hold the values at (t1, 0) and
    (0, t2).  `grid_id` ties the table to the grid that produced it.
    """

    grid_id: str
    n: int
    first: np.ndarray
    second: np.ndarray
    full: np.ndarray


def ecf_eval(samples: SampleSet, t) -> np.ndarray:
    """Empirical CF at points t of shape (..., d) (or a single point (d,))."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0 or t.shape[-1] != samples.d:
        raise ConfigError(f"points have shape {t.shape}, expected (..., {samples.d})")
    scalar = t.ndim == 1
    pts = t.reshape(-1, samples.d)
    acc = PairwiseAccumulator()
    data = samples.data
    for start in range(0, samples.n, CHUNK):
        block = data[start : start + CHUNK]
        acc.add(np.exp(1j * (block @ pts.T)).sum(axis=0))
    out = acc.total() / samples.n
    if scalar:
        return complex(out[0])
    return out.reshape(t.shape[:-1])


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _half_size(axis_nodes) -> int:
    """Points of a block's half lattice: the first ceil(G/2) nodes of the
    first axis times every node of the others."""
    return (len(axis_nodes[0]) + 1) // 2 * math.prod(map(len, axis_nodes[1:]))


def _half_lattice(out, block_data, axis_nodes):
    """[cos; sin; 1] of y.t on a block's half lattice, its H points
    flattened C-order, written into the leading len(block_data) columns of
    `out`, shape (2H + 1, CHUNK) with a last row of ones, and returned as
    that view.  Axes combine by angle addition into the stack directly."""
    out = out[:, : len(block_data)]
    h, last = (len(out) - 1) // 2, len(axis_nodes) - 1
    stack = out[:h], out[h:-1]
    first = axis_nodes[0][: (len(axis_nodes[0]) + 1) // 2]
    c, s = cos_sin(first, block_data[:, 0], out=stack if last == 0 else None)
    for k, (nodes, y) in enumerate(zip(axis_nodes[1:], block_data.T[1:]), 1):
        dst = stack if k == last else np.empty((2, len(c) * len(nodes), len(y)))
        c, s = _angle_add(c, s, *cos_sin(nodes, y), out=dst)
    return out


def _angle_add(c, s, ca, sa, out):
    """cos and sin of every sum of an angle of (c, s) and one of (ca, sa),
    C-order, written into out = (cos, sin) one row of c at a time, so the
    only temporary is one row's (len(ca), n) product."""
    g, tmp = len(ca), np.empty_like(ca)
    for i, (ci, si) in enumerate(zip(c, s)):
        oc, os_ = out[0][i * g : (i + 1) * g], out[1][i * g : (i + 1) * g]
        np.multiply(ci, ca, out=oc)
        oc -= np.multiply(si, sa, out=tmp)
        np.multiply(si, ca, out=os_)
        os_ += np.multiply(ci, sa, out=tmp)
    return out


def _mirrored(half, size):
    """Values at all `size` points of a flattened lattice closed under
    negation (the last axis of `half`) from those at its leading points:
    negation reverses the flattened index, and f(-t) = conj(f(t)).  Only the
    first ceil(size/2) values of `half` are read, so the result is exactly
    Hermitian even where `half` holds more."""
    keep, rest = size - size // 2, size // 2
    return np.concatenate([half[..., :keep], np.conj(half[..., :rest][..., ::-1])], axis=-1)


def _runs(blocks, n: int, d: int, size: int):
    """The rows of `blocks` regrouped into the aligned runs of `size` rows
    that cover range(n), the last one shorter.  A run inside one block is a
    view of it; only a run that straddles a block edge is copied, into a
    carry of less than one run.  Blocks of another width, or rows beyond n
    or short of it, are refused."""
    start, carry, filled = 0, None, 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != d:
            raise ConfigError(f"row blocks must have shape (rows, {d}), got {block.shape}")
        at = 0
        while at < len(block):
            if start == n:
                raise ConfigError(f"the row source yields more than its n = {n} rows")
            length = min(size, n - start)
            if carry is None and len(block) - at >= length:
                yield block[at : at + length]
                at, start = at + length, start + length
                continue
            if carry is None:
                carry, filled = np.empty((length, d)), 0
            take = min(length - filled, len(block) - at)
            carry[filled : filled + take] = block[at : at + take]
            filled, at = filled + take, at + take
            if filled == length:
                yield carry
                carry, start = None, start + length
    if carry is not None:
        start += filled
    if start != n:
        raise ConfigError(f"the row source yields {start} rows, not its n = {n}")


def ecf_on_grid(source: RowSource, axis_nodes, grid_id: str = "") -> EcfTable:
    """Tabulate the empirical CF of a row source on a tensor grid.

    Parameters
    ----------
    source : RowSource
        The observations, read once, block by block (`SampleSet` or
        `RowStream`).
    axis_nodes : sequence of d arrays
        Node list per coordinate, each closed under negation
        (x == -x[::-1] exactly); the first d1 belong to block 1.
    grid_id : str
        Identifier copied into the table; the contrast refuses a table whose
        id is not its grid's, an empty one included.

    Per sample chunk, one real product of the blocks' `_half_lattice`
    stacks, (2 H1 + 1) x (2 H2 + 1), is the only O(n * grid) work.  Its sums
    of c1 c2, c1 s2, s1 c2 and s1 s2 give the values at (t1, t2) as CC - SS
    + i (SC + CS) and at (t1, -t2) as CC + SS + i (SC - CS); its ones give
    `first` and `second`.  The rest of every field is the conjugate mirror.
    """
    if len(axis_nodes) != source.d:
        raise ConfigError(f"expected {source.d} axis node arrays, got {len(axis_nodes)}")
    nodes = [np.asarray(a, dtype=np.float64).reshape(-1) for a in axis_nodes]
    if not all(np.all(np.isfinite(a)) for a in nodes):
        raise ConfigError("axis nodes must be finite")
    if not all(np.array_equal(a, -a[::-1]) for a in nodes):
        raise ConfigError("axis nodes must be closed under negation (x == -x[::-1])")
    nodes1, nodes2 = nodes[: source.d1], nodes[source.d1 :]
    size1, size2 = math.prod(map(len, nodes1)), math.prod(map(len, nodes2))
    n, d1, run = source.n, source.d1, CHUNK << RUN_LEVEL

    def run_sum(rows):
        """The pairwise sum of one aligned run's chunk products, as its
        accumulator: one node of level RUN_LEVEL for a full run.  The run's
        two stacks are filled in place chunk by chunk."""
        a1, a2 = (np.ones((2 * _half_size(b) + 1, CHUNK)) for b in (nodes1, nodes2))
        acc = PairwiseAccumulator()
        for lo in range(0, len(rows), CHUNK):
            block = rows[lo : lo + CHUNK]
            acc.add(_half_lattice(a1, block[:, :d1], nodes1)
                    @ _half_lattice(a2, block[:, d1:], nodes2).T)
        return acc

    acc = PairwiseAccumulator()
    workers = min(-(-n // run), _cpu_count())
    with (one_blas_thread(),
          ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool):
        pending = collections.deque()
        for rows in _runs(source.blocks(), n, source.d, run):
            if pool is None:
                acc.absorb(run_sum(rows))
                continue
            pending.append(pool.submit(run_sum, rows))
            if len(pending) == 2 * workers:
                acc.absorb(pending.popleft().result())
        while pending:
            acc.absorb(pending.popleft().result())
    p = acc.total()
    p /= n
    h1, h2 = len(p) // 2, p.shape[1] // 2
    cc, cs, sc, ss = p[:h1, :h2], p[:h1, h2:-1], p[h1:-1, :h2], p[h1:-1, h2:-1]
    plus, minus = cc - ss + 1j * (sc + cs), cc + ss + 1j * (sc - cs)
    half = np.concatenate([plus[:, : size2 - size2 // 2], minus[:, : size2 // 2][:, ::-1]], axis=1)
    return EcfTable(
        grid_id=grid_id,
        n=n,
        first=_mirrored(p[:h1, -1] + 1j * p[h1:-1, -1], size1),
        second=_mirrored(p[-1, :h2] + 1j * p[-1, h2:-1], size2),
        full=_mirrored(half.reshape(-1), size1 * size2).reshape(size1, size2),
    )


def pooled(a: EcfTable, b: EcfTable) -> EcfTable:
    """The union of two samples' tables on one grid: each field's n-weighted
    mean, which is exactly Hermitian and equals the union's up to rounding.
    Tables from different grids are refused."""
    if a.grid_id != b.grid_id:
        raise ConfigError("cannot pool ECF tables computed on different grids")
    n = a.n + b.n
    first, second, full = ((a.n * x + b.n * y) / n for x, y in
                           ((a.first, b.first), (a.second, b.second), (a.full, b.full)))
    return EcfTable(a.grid_id, n, first, second, full)


def export_csv(source: RowSource, path) -> None:
    """Write a row source's observations as CSV with header y1..yd, one
    line per row, 17 significant digits (`_util.write_csv`), one block at a
    time; `load_csv` reads it back."""
    write_csv(path, [f"y{k + 1}" for k in range(source.d)], source.blocks())


def load_csv(path, d1: int, d2: int) -> SampleSet:
    """Read a CSV written by export_csv back into a SampleSet; a wrong header,
    row length or non-numeric cell is a ConfigError naming file and line.
    Parsed rows become float64 one row block at a time, so the load peaks
    at the blocks and their joined (n, d) matrix, plus one block of Python
    floats."""
    expected = [f"y{k + 1}" for k in range(d1 + d2)]
    blocks, rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ConfigError(f"{path}: unexpected CSV header {header}, expected {expected}")
        for row in filter(None, reader):
            if len(row) != len(expected):
                raise ConfigError(f"{path}, line {reader.line_num}: {len(row)} values, "
                                  f"expected {len(expected)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ConfigError(f"{path}, line {reader.line_num}: non-numeric value "
                                  f"in {row}") from None
            if len(rows) == ROW_BLOCK:
                blocks.append(np.array(rows, dtype=np.float64))
                rows = []
    if rows or not blocks:
        blocks.append(np.array(rows, dtype=np.float64))
    del rows  # the last block's Python floats, before the join
    return SampleSet(d1=d1, d2=d2,
                     data=blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
