"""Empirical characteristic function of two-block samples.

Observations are rows Y = (Y1, Y2) with block dimensions (d1, d2); the
empirical CF at t is the sample mean of exp(i t . Y).  Evaluation streams
over fixed-size sample chunks with tree-merged partial sums, so results are
bit-reproducible regardless of platform memory heuristics.

Grid tables use the symmetry ecf(-t) = conj(ecf(t)).  On a tensor lattice
whose axes are closed under negation (x == -x[::-1], as for every grid
`contrast.make_grid` builds), negating t reverses the flattened lattice
index, so only the leading half of the lattice is summed over the sample;
the rest is the conjugate mirror, which makes every table exactly Hermitian.
Other node lists are closed under negation first and gathered back after.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._util import CHUNK, ConfigError, PairwiseAccumulator, fmt17


@dataclass(frozen=True)
class SampleSet:
    """An (n, d1+d2) array of observations split into two blocks."""

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
        if not np.all(np.isfinite(data)):
            raise ConfigError("sample contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class EcfTable:
    """Empirical CF tabulated on a tensor grid and its two embedded axes.

    `full` holds values at (t1, t2) pairs, flattened C-order over the block-1
    then block-2 lattice; `first` and `second` hold the values at (t1, 0) and
    (0, t2).  `grid_id` ties the table to the grid that produced it.
    """

    grid_id: str
    n: int
    shape1: tuple
    shape2: tuple
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


def _axis_phases(y, nodes):
    """exp(i y t) for samples y and nodes t as an (n, len(t)) complex array,
    written as cos and sin into its real and imaginary parts."""
    arg = np.outer(y, nodes)
    out = np.empty(arg.shape, dtype=np.complex128)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _block_phases(block_data, axis_nodes):
    """exp(i y.t) on a block's half lattice: the first ceil(G/2) nodes of the
    first axis times every node of the other axes, flattened C-order (first
    axis slowest).  With every axis closed under negation, `_mirrored`
    extends it to the whole lattice."""
    first = axis_nodes[0]
    vals = _axis_phases(block_data[:, 0], first[: (len(first) + 1) // 2])
    for a in range(1, len(axis_nodes)):
        e = _axis_phases(block_data[:, a], axis_nodes[a])
        vals = (vals[:, :, None] * e[:, None, :]).reshape(block_data.shape[0], -1)
    return vals


def _closed_under_negation(nodes):
    """(node set closed under negation, with x == -x[::-1], and the index of
    each requested node in it)."""
    if np.array_equal(nodes, -nodes[::-1]):
        return nodes, np.arange(len(nodes))
    closed = np.unique(np.concatenate([nodes, -nodes]))
    return closed, np.searchsorted(closed, nodes)


def _mirrored(half, size):
    """Values at all `size` points of a flattened lattice closed under
    negation (the last axis of `half`) from those at its leading points:
    negation reverses the flattened index, and f(-t) = conj(f(t)).  Only the
    first ceil(size/2) values of `half` are read, so the result is exactly
    Hermitian even where `half` holds more."""
    keep, rest = size - size // 2, size // 2
    return np.concatenate([half[..., :keep], np.conj(half[..., :rest][..., ::-1])], axis=-1)


def _lattice_picks(closed, picks):
    """Flattened positions of the requested lattice in the closed one."""
    return np.ravel_multi_index(np.ix_(*picks), [len(c) for c in closed]).reshape(-1)


def ecf_on_grid(samples: SampleSet, axis_nodes, grid_id: str = "") -> EcfTable:
    """Tabulate the empirical CF on a tensor grid.

    Parameters
    ----------
    axis_nodes : sequence of d arrays
        Node list per coordinate; the first d1 belong to block 1.
    grid_id : str
        Identifier copied into the table for downstream consistency checks.

    Each axis's node set is closed under negation (a no-op for `make_grid`
    axes).  Per sample chunk, block 1's phases are formed on its half lattice
    (the first ceil(G/2) nodes of its first axis), block 2's on its own half
    and mirrored to its full lattice, and one complex product of the two
    gives half of `full`; this is the only O(n * grid) work.  The other half
    of `full`, `first` and `second` is the conjugate mirror, and nodes the
    closure added are dropped at the end.  The closure can double an axis,
    so a node list far from closed under negation costs up to 2**d times the
    time and memory of its requested lattice before that gather.
    """
    if len(axis_nodes) != samples.d:
        raise ConfigError(f"expected {samples.d} axis node arrays, got {len(axis_nodes)}")
    nodes = [np.asarray(a, dtype=np.float64).reshape(-1) for a in axis_nodes]
    if not all(np.all(np.isfinite(a)) for a in nodes):
        raise ConfigError("axis nodes must be finite")
    closed, picks = zip(*(_closed_under_negation(a) for a in nodes))
    nodes1, nodes2 = closed[: samples.d1], closed[samples.d1 :]
    size1, size2 = math.prod(map(len, nodes1)), math.prod(map(len, nodes2))
    acc_full, acc_1, acc_2 = PairwiseAccumulator(), PairwiseAccumulator(), PairwiseAccumulator()
    data = samples.data
    for start in range(0, samples.n, CHUNK):
        block = data[start : start + CHUNK]
        b1 = _block_phases(block[:, : samples.d1], nodes1)
        h2 = _block_phases(block[:, samples.d1 :], nodes2)
        b2 = _mirrored(h2, size2)
        acc_full.add(b1.T @ b2)
        acc_1.add(b1.sum(axis=0))
        acc_2.add(h2.sum(axis=0))
    n = samples.n
    full = _mirrored(acc_full.total().reshape(-1) / n, size1 * size2).reshape(size1, size2)
    flat1 = _lattice_picks(nodes1, picks[: samples.d1])
    flat2 = _lattice_picks(nodes2, picks[samples.d1 :])
    return EcfTable(
        grid_id=grid_id,
        n=n,
        shape1=tuple(map(len, picks[: samples.d1])),
        shape2=tuple(map(len, picks[samples.d1 :])),
        first=_mirrored(acc_1.total() / n, size1)[flat1],
        second=_mirrored(acc_2.total() / n, size2)[flat2],
        full=full[np.ix_(flat1, flat2)],
    )


def pooled(a: EcfTable, b: EcfTable) -> EcfTable:
    """The union of two samples' tables on one grid: each field's n-weighted
    mean, which is exactly Hermitian and equals the union's up to rounding."""
    n = a.n + b.n
    first, second, full = ((a.n * x + b.n * y) / n for x, y in
                           ((a.first, b.first), (a.second, b.second), (a.full, b.full)))
    return EcfTable(a.grid_id, n, a.shape1, a.shape2, first, second, full)


def second_moment(samples: SampleSet) -> float:
    """Mean squared Euclidean norm of the observations."""
    acc = PairwiseAccumulator()
    for start in range(0, samples.n, CHUNK):
        block = samples.data[start : start + CHUNK]
        acc.add((block * block).sum())
    return float(acc.total() / samples.n)


def export_csv(samples: SampleSet, path) -> None:
    """Write observations as CSV with header y1..yd, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{k + 1}" for k in range(samples.d)])
        for row in samples.data:
            writer.writerow([fmt17(v) for v in row])


def load_csv(path, d1: int, d2: int) -> SampleSet:
    """Read a CSV written by export_csv back into a SampleSet."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [f"y{k + 1}" for k in range(d1 + d2)]
        if header != expected:
            raise ConfigError(f"unexpected CSV header {header}, expected {expected}")
        rows = [[float(v) for v in row] for row in reader if row]
    return SampleSet(d1=d1, d2=d2, data=np.array(rows, dtype=np.float64))
