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
two slice tables are U C[:, 0] and W C[0, :].  `contrast_empirical`,
`contrast_oracle` and `contrast_gradient` evaluate the integrand on the grid:
they are the definition, and their exact zeros are exact.

The minimizer values every start, iterate and estimate from moments instead
(`ContrastMoments`).  A product of two degree-m monomials is one of degree
2m, so expanding |defect|^2 leaves the grid only in moment matrices of the
ECF table against the degree-2m monomial tables, computed once per table and
degree.  A candidate's value and gradient are then small contractions whose
cost does not depend on the grid.  The expansion sums three terms that
cancel, so it agrees with the grid to rounding relative to those terms.
The grid functions stay the definition and the tests' reference, and the
only ones that take a callable candidate such as a scenario's true CF.

Nothing here is cached across calls at module level: a grid memoizes its own
derived arrays and pattern matrices, and candidate tables are recomputed on
every call, which costs less than hashing the coefficients would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import (ConfigError, NumericalError, content_hash, legendre_rule, tensor_points,
                    tensor_weights)
from .ecf import EcfTable, SampleSet, ecf_on_grid
from .multiindex_taylor import (
    TaylorPoly,
    block_split,
    index_table,
    monomial_matrix,
    parity_phase,
    sum_map,
)


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
    x, w = legendre_rule(nodes_per_axis)
    nodes, weights = nu * x, nu * w
    total = weights.sum()
    if abs(total - 2.0 * nu) > 1e-12 * max(1.0, 2.0 * nu):
        raise NumericalError(f"axis weights sum to {total}, expected {2.0 * nu}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(float(nu), int(nodes_per_axis), (d1, d2), nodes, weights)


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
    """Per-(grid, degree) pattern monomial matrices U and W."""

    def __init__(self, grid: QuadratureGrid, max_degree: int):
        d1, d2 = grid.dims
        self.U = monomial_matrix(grid.block1_points, d1, max_degree)
        self.W = monomial_matrix(grid.block2_points, d2, max_degree)

    @classmethod
    def get(cls, grid: QuadratureGrid, max_degree: int) -> "_GridTables":
        memo = grid._pattern_memo
        if max_degree not in memo:
            memo[max_degree] = cls(grid, max_degree)
        return memo[max_degree]


def scatter_matrix(poly: TaylorPoly) -> np.ndarray:
    """Coefficients arranged as a block-1 pattern x block-2 pattern matrix."""
    p1, p2, n1, n2 = block_split(poly.dims, poly.max_degree)
    C = np.zeros((n1, n2), dtype=np.complex128)
    C[p1, p2] = poly.coeffs
    return C


def poly_tables(poly: TaylorPoly, grid: QuadratureGrid):
    """Candidate values (full grid, first slice, second slice).

    Computed afresh on every call: three small products against the grid's
    memoized pattern matrices.
    """
    if poly.dims != grid.dims:
        raise ConfigError(f"poly dims {poly.dims} != grid dims {grid.dims}")
    gt = _GridTables.get(grid, poly.max_degree)
    C = scatter_matrix(poly)
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


def contrast_gradient(poly: TaylorPoly, table: EcfTable, grid: QuadratureGrid) -> np.ndarray:
    """Exact gradient of the empirical contrast in the theta coordinates, on
    the grid.  Pinned coordinates (the unit value at the zero index) get 0."""
    if poly.dims != grid.dims:
        raise ConfigError(f"poly dims {poly.dims} != grid dims {grid.dims}")
    full_r, first_r, second_r = ref = _ref_tables(table, grid)
    gt = _GridTables.get(grid, poly.max_degree)
    _, first_p, second_p = tables = poly_tables(poly, grid)
    B = (grid.w1[:, None] * grid.w2[None, :]) * np.conj(_defect(tables, ref))
    T1 = gt.U.T @ (B * (first_r[:, None] * second_r[None, :])) @ gt.W
    BF = B * full_r
    S1 = gt.U.T @ (BF @ second_p)
    S2 = gt.W.T @ (BF.T @ first_p)
    p1, p2, _, _ = block_split(poly.dims, poly.max_degree)
    inner = T1[p1, p2]
    inner = inner - np.where(p2 == 0, S1[p1], 0.0)
    inner = inner - np.where(p1 == 0, S2[p2], 0.0)
    return _theta_gradient(inner, poly)


def _theta_gradient(inner, poly: TaylorPoly) -> np.ndarray:
    """2 Re(phase * inner): the theta gradient from the derivative in the
    coefficients, pinned coordinate 0."""
    grad = 2.0 * np.real(parity_phase(poly.d, poly.max_degree) * inner)
    if poly.cf_candidate:
        grad[0] = 0.0
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite contrast gradient")
    return grad


# i^k for k mod 4
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


class ContrastMoments:
    """The empirical contrast of degree-m candidates against one ECF table,
    from moment matrices of the table.

    With V1, V2 the blocks' degree-2m monomial tables, a, b, Phi the table's
    slices and full values and w = w1 w2 the weights, the table enters only
    through

        Ga[q, s] = ma[q+s],  ma = V1^T (w1 |a|^2),  and Gb likewise from b,
        K = V1^T (w |Phi|^2) V2,   N = V1^T (w conj(a b) Phi) V2,

    where q+s is the row of the sum of two degree-m patterns (`sum_map`).
    For a scattered coefficient matrix C with slices c1 = C[:, 0] and
    c2 = C[0, :], the contrast is

        <C, Ga C Gb> + y1^T K y2 - 2 Re <C, Z>,
        Z[q, r] = sum_{s, u} c1[s] c2[u] N[q+s, r+u],

    with y1, y2 the products conj(c) c of each slice folded onto the
    degree-2m patterns.  The sums over q+s and r+u are products with
    scatter matrices of the slices, H1[q+s, q] = c1[s], so every
    contraction of a candidate is a matrix product no larger than N.

    The table and the grid are symmetric under t -> -t, so N[k, l] is
    i^(|k| + |l|) times a real number, and c1[s] i^|s| is real: in these
    twisted coordinates the N terms, the largest, are real products.
    """

    def __init__(self, table: EcfTable, grid: QuadratureGrid, max_degree: int):
        full, a, b = _ref_tables(table, grid)
        gt = _GridTables.get(grid, 2 * max_degree)
        self.S1, self.S2 = (sum_map(d, max_degree) for d in grid.dims)
        self.p1, self.p2, n1, n2 = block_split(grid.dims, max_degree)
        w = grid.w1[:, None] * grid.w2[None, :]
        ma = gt.U.T @ (grid.w1 * np.abs(a) ** 2)
        mb = gt.W.T @ (grid.w2 * np.abs(b) ** 2)
        self.Ga = ma[self.S1].astype(np.complex128)
        self.Gb = mb[self.S2].astype(np.complex128)
        self.K = gt.U.T @ (w * np.abs(full) ** 2) @ gt.W
        X = w * np.conj(a[:, None] * b[None, :]) * full
        N = gt.U.T @ X.real @ gt.W + 1j * (gt.U.T @ X.imag @ gt.W)
        rho1, rho2 = (_QUARTER_TURNS[index_table(d, 2 * max_degree)[1] % 4] for d in grid.dims)
        self.Nt = (N * np.conj(rho1)[:, None] * np.conj(rho2)).real
        self.rho1, self.rho2 = rho1[:n1], rho2[:n2]
        self.twist = self.rho1[:, None] * self.rho2

    def evaluate(self, poly: TaylorPoly) -> tuple:
        """(contrast, theta gradient) of a candidate of this degree; the
        pinned coordinate (the unit value at the zero index) gets 0."""
        S1, S2, (n1, n2) = self.S1, self.S2, self.twist.shape
        C = scatter_matrix(poly)
        c1, c2 = C[:, 0], C[0, :]
        # twisted real coordinates: Ct = conj(C) i^(|q| + |r|), c1t = c1 i^|s|
        Ct = (C * np.conj(self.twist)).real
        H1, H2 = np.zeros((self.Nt.shape[0], n1)), np.zeros((self.Nt.shape[1], n2))
        H1[S1, np.arange(n1)[:, None]] = (self.rho1 * c1).real
        H2[S2, np.arange(n2)[:, None]] = (self.rho2 * c2).real
        GCG = self.Ga @ C @ self.Gb
        # P[k, r] = sum_u c2t[u] Nt[k, r+u], and Z = twist * (H1^T P)
        P = self.Nt @ H2
        Zt = H1.T @ P
        y1 = np.bincount(S1.ravel(), np.real(np.conj(c1)[:, None] * c1).ravel(), self.K.shape[0])
        y2 = np.bincount(S2.ravel(), np.real(np.conj(c2)[:, None] * c2).ravel(), self.K.shape[1])
        Ky2, Ky1 = self.K @ y2, y1 @ self.K
        value = float(np.vdot(C, GCG).real + y1 @ Ky2 - 2.0 * (Ct.ravel() @ Zt.ravel()))
        if not np.isfinite(value):
            raise NumericalError("contrast evaluated to a non-finite value")
        # the contrast is an integral of |defect|^2; where the three terms
        # cancel completely, their rounding can fall below 0
        value = max(value, 0.0)
        # derivative in conj(C); the slices add column 0 and row 0, where
        # X1[s] and X2[u] sum Ct[q, r] c1t[s] c2t[u] Nt[q+s, r+u] over all
        # indices but s, or but u
        G = GCG - self.twist * Zt
        X1 = (P @ Ct.T)[S1, np.arange(n1)[:, None]].sum(axis=0)
        X2 = ((H1 @ Ct).T @ self.Nt)[np.arange(n2)[:, None], S2].sum(axis=0)
        G[:, 0] += Ky2[S1] @ c1 - np.conj(self.rho1) * X1
        G[0, :] += Ky1[S2] @ c2 - np.conj(self.rho2) * X2
        return value, _theta_gradient(np.conj(G[self.p1, self.p2]), poly)


def contrast_oracle(candidate, model: OracleModel, grid: QuadratureGrid) -> float:
    """Population contrast: the empirical tables are replaced by the true
    signal CF and the integrand is weighted by the squared noise CF moduli."""
    A = _defect(_tables_for(candidate, grid), model.tables(grid))
    q1, q2 = model.noise_weights(grid)
    val = float((grid.w1 * q1) @ (np.abs(A) ** 2) @ (grid.w2 * q2))
    if not np.isfinite(val):
        raise NumericalError("oracle contrast evaluated to a non-finite value")
    return val
