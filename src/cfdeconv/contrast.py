"""Factorization contrasts for blind deconvolution on a quadrature box.

The empirical contrast integrates, over the box [-nu, nu]^d,

    | phi(t) ecf(t1, 0) ecf(0, t2)  -  ecf(t) phi(t1, 0) phi(0, t2) |^2

against tensor Gauss-Legendre weights (`make_grid`, the one quadrature built
here).  It vanishes exactly when phi factorizes the observed CF the same way
the truth does; its population analogue weights the integrand by the squared
moduli of the per-block noise CFs instead of using empirical tables.

Candidate values on a grid factor through per-block pattern matrices: with
U[g1, q] the block-1 monomials and W[g2, r] the block-2 monomials, the full
table of a candidate with scattered coefficient matrix C is U C W^T, and the
two slice tables are U C[:, 0] and W C[0, :].  All contrast evaluations and
the exact gradient reduce to a handful of small dense matrix products.

Nothing here is cached across calls at module level: a grid memoizes its own
derived arrays and pattern matrices, and candidate tables are recomputed on
every call, which costs less than hashing the coefficients would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._util import ConfigError, NumericalError, content_hash, tensor_points, tensor_weights
from .ecf import EcfTable, SampleSet, ecf_on_grid
from .multiindex_taylor import TaylorPoly, block_split, monomial_matrix


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor quadrature on the box [-nu, nu]^(d1+d2); `make_grid` builds
    the Gauss-Legendre one.

    One shared axis rule (nodes, weights) is tensored over all coordinates;
    block point lists are flattened C-order, matching `ecf.ecf_on_grid`.
    The id, block points and block weights are computed once per instance
    and returned read-only.
    """

    nu: float
    nodes_per_axis: int
    dims: tuple
    axis_nodes: np.ndarray
    axis_weights: np.ndarray

    @property
    def d(self) -> int:
        return self.dims[0] + self.dims[1]

    @cached_property
    def grid_id(self) -> str:
        return content_hash("grid", self.dims, self.nu, self.axis_nodes)

    @cached_property
    def block1_points(self) -> np.ndarray:
        return _read_only(tensor_points([self.axis_nodes] * self.dims[0]))

    @cached_property
    def block2_points(self) -> np.ndarray:
        return _read_only(tensor_points([self.axis_nodes] * self.dims[1]))

    @cached_property
    def w1(self) -> np.ndarray:
        return _read_only(tensor_weights(self.axis_weights, self.dims[0]))

    @cached_property
    def w2(self) -> np.ndarray:
        return _read_only(tensor_weights(self.axis_weights, self.dims[1]))

    @cached_property
    def _pattern_memo(self) -> dict:
        """max_degree -> _GridTables of this grid, filled by _GridTables.get."""
        return {}

    def embedded1(self) -> np.ndarray:
        """Block-1 points zero-padded to full dimension (t1, 0)."""
        pts = self.block1_points
        out = np.zeros((pts.shape[0], self.d))
        out[:, : self.dims[0]] = pts
        return out

    def embedded2(self) -> np.ndarray:
        pts = self.block2_points
        out = np.zeros((pts.shape[0], self.d))
        out[:, self.dims[0] :] = pts
        return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_grid(nu: float, dims: tuple, nodes_per_axis: int = 48) -> QuadratureGrid:
    """Build the box's Gauss-Legendre quadrature, exact to degree 2n-1.

    The axis nodes satisfy x == -x[::-1] exactly, as `ecf.ecf_on_grid`
    requires."""
    if nu <= 0:
        raise ConfigError(f"nu must be positive, got {nu}")
    if nodes_per_axis < 2:
        raise ConfigError(f"need at least 2 nodes per axis, got {nodes_per_axis}")
    d1, d2 = dims
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"both blocks need dimension >= 1, got {dims}")
    x, w = _legendre_rule(nodes_per_axis)
    nodes, weights = nu * x, nu * w
    total = weights.sum()
    if abs(total - 2.0 * nu) > 1e-12 * max(1.0, 2.0 * nu):
        raise NumericalError(f"axis weights sum to {total}, expected {2.0 * nu}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(float(nu), int(nodes_per_axis), (d1, d2), nodes, weights)


@lru_cache(maxsize=8)
def _legendre_rule(nodes_per_axis: int) -> tuple:
    """leggauss on [-1, 1], read-only: its eigensolve costs more than the
    rest of a small grid, and translation_align builds one grid per call."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def ecf_table_for_grid(samples: SampleSet, grid: QuadratureGrid) -> EcfTable:
    """Tabulate the empirical CF of `samples` on `grid`."""
    if (samples.d1, samples.d2) != grid.dims:
        raise ConfigError(f"sample dims {(samples.d1, samples.d2)} != grid dims {grid.dims}")
    return ecf_on_grid(samples, [grid.axis_nodes] * grid.d, grid_id=grid.grid_id)


@dataclass
class OracleModel:
    """Closed-form CF triple (signal joint, per-block noise) for oracle runs."""

    phi_R: callable
    phi_Q1: callable
    phi_Q2: callable
    _cache: dict = field(default_factory=dict, repr=False)

    def tables(self, grid: QuadratureGrid):
        """Signal-CF tables (full, first slice, second slice) on the grid."""
        key = grid.grid_id
        if key not in self._cache:
            self._cache[key] = _callable_tables(self.phi_R, grid)
        return self._cache[key]

    def noise_weights(self, grid: QuadratureGrid):
        key = "noise:" + grid.grid_id
        if key not in self._cache:
            q1 = np.asarray(self.phi_Q1(grid.block1_points), dtype=np.complex128)
            q2 = np.asarray(self.phi_Q2(grid.block2_points), dtype=np.complex128)
            self._cache[key] = (np.abs(q1) ** 2, np.abs(q2) ** 2)
        return self._cache[key]


class _GridTables:
    """Per-(grid, degree) pattern monomial matrices U, W and scatter maps."""

    def __init__(self, grid: QuadratureGrid, max_degree: int):
        d1, d2 = grid.dims
        self.U = monomial_matrix(grid.block1_points, d1, max_degree)
        self.W = monomial_matrix(grid.block2_points, d2, max_degree)
        self.p1, self.p2, self.n1, self.n2 = block_split((d1, d2), max_degree)

    @classmethod
    def get(cls, grid: QuadratureGrid, max_degree: int) -> "_GridTables":
        memo = grid._pattern_memo
        if max_degree not in memo:
            memo[max_degree] = cls(grid, max_degree)
        return memo[max_degree]


def scatter_matrix(poly: TaylorPoly, tables: _GridTables) -> np.ndarray:
    """Coefficients arranged as a block-1 pattern x block-2 pattern matrix."""
    C = np.zeros((tables.n1, tables.n2), dtype=np.complex128)
    C[tables.p1, tables.p2] = poly.coeffs
    return C


def poly_tables(poly: TaylorPoly, grid: QuadratureGrid):
    """Candidate values (full grid, first slice, second slice).

    Computed afresh on every call: three small products against the grid's
    memoized pattern matrices.
    """
    if poly.dims != grid.dims:
        raise ConfigError(f"poly dims {poly.dims} != grid dims {grid.dims}")
    gt = _GridTables.get(grid, poly.max_degree)
    C = scatter_matrix(poly, gt)
    full = gt.U @ C @ gt.W.T
    first = gt.U @ C[:, 0]
    second = gt.W @ C[0, :]
    return full, first, second


def _callable_tables(fn, grid: QuadratureGrid):
    first = np.asarray(fn(grid.embedded1()), dtype=np.complex128)
    second = np.asarray(fn(grid.embedded2()), dtype=np.complex128)
    pts1, pts2 = grid.block1_points, grid.block2_points
    full = np.empty((pts1.shape[0], pts2.shape[0]), dtype=np.complex128)
    row_block = max(1, int(2**22 // max(1, pts2.shape[0] * grid.d)))
    for start in range(0, pts1.shape[0], row_block):
        stop = min(start + row_block, pts1.shape[0])
        chunk = np.concatenate(
            [
                np.repeat(pts1[start:stop], pts2.shape[0], axis=0),
                np.tile(pts2, (stop - start, 1)),
            ],
            axis=1,
        )
        full[start:stop] = np.asarray(fn(chunk), dtype=np.complex128).reshape(
            stop - start, pts2.shape[0]
        )
    return full, first, second


def _tables_for(candidate, grid: QuadratureGrid):
    if isinstance(candidate, TaylorPoly):
        return poly_tables(candidate, grid)
    if callable(candidate):
        return _callable_tables(candidate, grid)
    raise ConfigError(f"candidate must be a TaylorPoly or a callable, got {type(candidate)}")


def _defect(cand_tables, ref_tables):
    full_c, first_c, second_c = cand_tables
    full_r, first_r, second_r = ref_tables
    return full_c * (first_r[:, None] * second_r[None, :]) - full_r * (
        first_c[:, None] * second_c[None, :]
    )


def _ref_tables(table: EcfTable, grid: QuadratureGrid):
    """The ECF table's (full, first slice, second slice), checked against the grid."""
    if table.grid_id != grid.grid_id:
        raise ConfigError("ECF table was computed on a different grid")
    return table.full, table.first, table.second


def _empirical_value(A, grid: QuadratureGrid) -> float:
    """Box integral of |A|^2 for a defect table A."""
    val = float(grid.w1 @ (np.abs(A) ** 2) @ grid.w2)
    if not np.isfinite(val):
        raise NumericalError("contrast evaluated to a non-finite value")
    return val


def contrast_empirical(candidate, table: EcfTable, grid: QuadratureGrid) -> float:
    """Empirical factorization contrast of a candidate against an ECF table."""
    ref = _ref_tables(table, grid)
    return _empirical_value(_defect(_tables_for(candidate, grid), ref), grid)


def contrast_oracle(candidate, model: OracleModel, grid: QuadratureGrid) -> float:
    """Population contrast: the empirical tables are replaced by the true
    signal CF and the integrand is weighted by the squared noise CF moduli."""
    A = _defect(_tables_for(candidate, grid), model.tables(grid))
    q1, q2 = model.noise_weights(grid)
    val = float((grid.w1 * q1) @ (np.abs(A) ** 2) @ (grid.w2 * q2))
    if not np.isfinite(val):
        raise NumericalError("oracle contrast evaluated to a non-finite value")
    return val
