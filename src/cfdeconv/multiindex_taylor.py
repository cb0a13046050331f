"""Multi-index bookkeeping and truncated Taylor candidates for CF estimation.

A candidate characteristic function is represented by its Taylor coefficients
c_i over multi-indices i with total order at most `max_degree`.  Candidates
satisfy two structural constraints that this module enforces by construction
rather than by validation:

* c_0 = 1 (a characteristic function equals 1 at the origin), and
* the Hermitian parity c_i real for even ``|i|_1`` and purely imaginary for
  odd ``|i|_1``, which encodes conj(phi(t)) = phi(-t).

Each coefficient is therefore stored as a single real number `theta[k]`; the
complex coefficient is theta[k] or 1j*theta[k] depending on order parity.
Row k is that of `index_table(d, max_degree)`; `index_rows` is the one
lookup from a multi-index to its row.

The admissible class with decay parameters (kappa, S) constrains coefficient
moduli by S^k k^(-kappa k) at order k; see `upsilon_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import ConfigError, as_type


@dataclass(frozen=True)
class UpsilonParams:
    """Decay parameters (kappa, S) of the admissible coefficient class."""

    kappa: float
    S: float

    def __post_init__(self):
        for name in ("kappa", "S"):
            object.__setattr__(self, name, as_type(getattr(self, name), float, name))
        if not (0.0 < self.kappa <= 1.0):
            raise ConfigError(f"kappa must lie in (0, 1], got {self.kappa}")
        if not (self.S > 0.0):
            raise ConfigError(f"S must be positive, got {self.S}")


@lru_cache(maxsize=32)
def index_table(d: int, max_degree: int):
    """All multi-indices in d coordinates with total order <= max_degree.

    Returns (entries, orders): an (N, d) int array in total-degree-then-
    lexicographic order and the (N,) total orders, both read-only.  The zero
    index is always row 0; `index_rows` finds the row of an index.
    """
    if d < 0 or max_degree < 0:
        raise ConfigError("dimension and degree must be nonnegative")
    entries, orders = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(d):
        # lexicographic: each row once per last coordinate its order allows
        room = max_degree + 1 - orders
        rows = np.repeat(np.arange(orders.shape[0]), room)
        entries = np.column_stack(
            [entries[rows], np.arange(rows.shape[0]) - np.repeat(np.cumsum(room) - room, room)])
        orders = orders[rows] + entries[:, -1]
    # a stable sort by order keeps lexicographic order within each order
    rows = np.argsort(orders, kind="stable")
    orders, entries = orders[rows], entries[rows]
    for table in (entries, orders):
        table.setflags(write=False)
    return entries, orders


def index_rows(d: int, max_degree: int, indices) -> np.ndarray:
    """Row of index_table(d, max_degree) holding each multi-index of an
    (..., d) int array, or -1 where it has none: matched by code in base
    max_degree + 1 once every digit is in 0..max_degree (a code alone
    aliases (-1, 1) with (max_degree, 0)).  Codes fit in int64 while
    (max_degree + 1)^d < 2^63, as for every table that fits in memory."""
    entries = index_table(d, max_degree)[0]
    indices = np.asarray(indices, dtype=np.int64)
    radix = (max_degree + 1) ** np.arange(d, dtype=np.int64)
    codes, want = entries @ radix, indices @ radix
    order = np.argsort(codes)
    rows = order[np.searchsorted(codes, want, sorter=order).clip(max=codes.shape[0] - 1)]
    found = (codes[rows] == want) & np.all((indices >= 0) & (indices <= max_degree), axis=-1)
    return np.where(found, rows, -1)


@lru_cache(maxsize=32)
def parity_phase(d: int, max_degree: int) -> np.ndarray:
    """1 (even order) or 1j (odd order) per index_table(d, max_degree) row,
    read-only: theta * phase is the complex coefficient vector."""
    orders = index_table(d, max_degree)[1]
    phase = np.where(orders % 2 == 0, 1.0 + 0.0j, 1.0j)
    phase.setflags(write=False)
    return phase


@lru_cache(maxsize=32)
def block_split(dims: tuple, max_degree: int):
    """Per-block pattern tables for indices split as (first d1, last d2) axes.

    Returns (p1, p2, n1, n2): for each full index row, the row of its first-
    block pattern in index_table(d1, max_degree) and of its second-block
    pattern in index_table(d2, max_degree), plus the two pattern counts.
    """
    d1, d2 = dims
    entries = index_table(d1 + d2, max_degree)[0]
    p1 = index_rows(d1, max_degree, entries[:, :d1])
    p2 = index_rows(d2, max_degree, entries[:, d1:])
    p1.setflags(write=False)
    p2.setflags(write=False)
    return p1, p2, len(index_table(d1, max_degree)[0]), len(index_table(d2, max_degree)[0])


@lru_cache(maxsize=32)
def sum_map(d: int, max_degree: int) -> np.ndarray:
    """Row of index_table(d, 2 * max_degree) holding the sum of rows q and s
    of index_table(d, max_degree), as a read-only symmetric int array:
    t^q t^s is column [q, s] of the degree-2m monomial table."""
    entries = index_table(d, max_degree)[0]
    out = index_rows(d, 2 * max_degree, entries[:, None, :] + entries[None, :, :])
    out.setflags(write=False)
    return out


@dataclass
class TaylorPoly:
    """Truncated Taylor candidate with structural parity.

    Parameters
    ----------
    dims : tuple
        (d1, d2) coordinate split; the total dimension is d1 + d2.  A second
        block of size 0 is allowed (bound_suite's d = 1 members use it).
    max_degree : int
        Total-order truncation degree, >= 0.
    theta : ndarray
        One real number per index in ``index_table(d, max_degree)`` order;
        the complex coefficient is theta (even order) or 1j*theta (odd).
    cf_candidate : bool
        When True (default) the zero-index coefficient is pinned to 1.
    """

    dims: tuple
    max_degree: int
    theta: np.ndarray
    cf_candidate: bool = True

    def __post_init__(self):
        d1, d2 = self.dims
        if d1 < 0 or d2 < 0 or d1 + d2 < 1:
            raise ConfigError(f"invalid dims {self.dims}")
        if self.max_degree < 0:
            raise ConfigError("max_degree must be >= 0")
        entries = index_table(self.d, self.max_degree)[0]
        theta = np.array(self.theta, dtype=np.float64).reshape(-1)
        if theta.shape[0] != entries.shape[0]:
            raise ConfigError(
                f"theta has {theta.shape[0]} entries, expected {entries.shape[0]} "
                f"for d={self.d}, max_degree={self.max_degree}"
            )
        if self.cf_candidate:
            theta[0] = 1.0
        self.theta = theta

    @property
    def d(self) -> int:
        return self.dims[0] + self.dims[1]

    @property
    def orders(self) -> np.ndarray:
        return index_table(self.d, self.max_degree)[1]

    @property
    def coeffs(self) -> np.ndarray:
        """Complex coefficient vector in index_table order."""
        return self.theta * parity_phase(self.d, self.max_degree)

    def coeff(self, index) -> complex:
        row = index_rows(self.d, self.max_degree, index)
        if row < 0:
            raise KeyError(tuple(index))
        return complex(self.coeffs[row])

    def copy(self) -> "TaylorPoly":
        return TaylorPoly(self.dims, self.max_degree, self.theta.copy(), self.cf_candidate)


def monomial_matrix(pts: np.ndarray, d: int, max_degree: int) -> np.ndarray:
    """Monomial values t^i for every index_table(d, max_degree) entry.

    pts has shape (N, d); the result has one column per multi-index, so a
    batch of polynomials sharing (d, max_degree) evaluates as one matrix
    product against their stacked coefficient vectors.
    """
    if pts.shape[-1] != d:
        raise ConfigError(f"points have dimension {pts.shape[-1]}, expected {d}")
    entries = index_table(d, max_degree)[0]
    vals = np.ones((pts.shape[0], entries.shape[0]))
    for a in range(d):
        powers = pts[:, a, None] ** np.arange(max_degree + 1)
        vals *= powers[:, entries[:, a]]
    return vals


def evaluate(poly: TaylorPoly, t) -> np.ndarray:
    """Evaluate the truncated series at points t of shape (..., d).

    Returns a complex array of the batch shape (a scalar for a single point).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.shape[-1] != poly.d:
        raise ConfigError(f"points have dimension {t.shape[-1]}, expected {poly.d}")
    scalar = t.ndim == 1
    pts = t.reshape(-1, poly.d)
    out = monomial_matrix(pts, poly.d, poly.max_degree) @ poly.coeffs
    if scalar:
        return complex(out[0])
    return out.reshape(t.shape[:-1])


def upsilon_bound(index, params: UpsilonParams) -> float:
    """Admissible modulus S^k k^(-kappa k) at total order k = |index|_1, for
    a multi-index tuple or an order given as an int: _bound_vector's cap.

    The zero index carries the pinned coefficient 1 and has no decay bound;
    asking for it is an error.
    """
    k = int(index) if isinstance(index, (int, np.integer)) else int(sum(index))
    if k == 0:
        raise ConfigError("the zero index is pinned to 1 and has no modulus bound")
    return float(_bound_vector(1, k, params)[k])


@lru_cache(maxsize=256)
def _bound_vector(d: int, max_degree: int, params: UpsilonParams) -> np.ndarray:
    """Read-only modulus cap per index_table(d, max_degree) row; the zero
    index is uncapped.  A cap whose factors S^k and k^(-kappa k) are not
    both normal floats is recomputed in log space; it is inf only when the
    cap itself exceeds the float range."""
    orders = index_table(d, max_degree)[1]
    k = orders.astype(np.float64)
    tiny = np.finfo(np.float64).tiny
    with np.errstate(all="ignore"):
        power, decay = params.S**k, np.where(k > 0, k, 1.0) ** (-params.kappa * k)
        b = power * decay
        bad = ~(np.isfinite(power) & (power >= tiny) & (decay >= tiny))
        b[bad] = np.exp(k[bad] * (math.log(params.S) - params.kappa * np.log(k[bad])))
    b[orders == 0] = np.inf
    b.setflags(write=False)
    return b


def project_upsilon(poly: TaylorPoly, params: UpsilonParams) -> TaylorPoly:
    """Project onto the admissible class: pin c_0 = 1, clamp coefficient
    moduli to their order bound preserving sign.  Idempotent."""
    bounds = _bound_vector(poly.d, poly.max_degree, params)
    theta = np.clip(poly.theta, -bounds, bounds)
    return TaylorPoly(poly.dims, poly.max_degree, theta, cf_candidate=True)


def truncate(poly: TaylorPoly, m: int) -> TaylorPoly:
    """Drop all coefficients of total order above m."""
    if m < 0:
        raise ConfigError("truncation degree must be >= 0")
    if m >= poly.max_degree:
        return poly.copy()
    n_keep = index_table(poly.d, m)[0].shape[0]
    return TaylorPoly(poly.dims, m, poly.theta[:n_keep].copy(), poly.cf_candidate)


def random_member(params: UpsilonParams, dims: tuple, max_degree: int, rng) -> TaylorPoly:
    """Draw an admissible candidate with each coefficient uniform on its
    modulus interval [-bound, bound]; refuses caps beyond the float range."""
    d = dims[0] + dims[1]
    bounds = _bound_vector(d, max_degree, params)
    orders = index_table(d, max_degree)[1]
    over = orders[(orders > 0) & np.isinf(bounds)]
    if over.size:
        raise ConfigError(f"the Upsilon cap at order {over[0]} exceeds the float range")
    theta = rng.uniform(-1.0, 1.0, size=bounds.shape[0]) * np.where(orders == 0, 1.0, bounds)
    return TaylorPoly(dims, max_degree, theta, cf_candidate=True)


def to_json_record(poly: TaylorPoly) -> dict:
    """JSON-safe record: dims, degree, and a [i_1..i_d, re, im] coefficient list.

    Zero coefficients are omitted except for the pinned zero index.
    """
    entries = index_table(poly.d, poly.max_degree)[0]
    coeffs = poly.coeffs
    rows = []
    for k in range(entries.shape[0]):
        c = coeffs[k]
        if k > 0 and c == 0:
            continue
        rows.append([int(v) for v in entries[k]] + [float(c.real), float(c.imag)])
    return {
        "dims": [int(poly.dims[0]), int(poly.dims[1])],
        "max_degree": int(poly.max_degree),
        "cf_candidate": bool(poly.cf_candidate),
        "coeffs": rows,
    }


def from_json_record(record: dict) -> TaylorPoly:
    """Inverse of to_json_record; validates the parity structure."""
    dims = tuple(record["dims"])
    max_degree = int(record["max_degree"])
    cf_candidate = bool(record.get("cf_candidate", True))
    d = dims[0] + dims[1]
    orders = index_table(d, max_degree)[1]
    theta = np.zeros(orders.shape[0])
    indices = [tuple(int(v) for v in row[:d]) for row in record["coeffs"]]
    found = index_rows(d, max_degree, np.array(indices, dtype=np.int64).reshape(len(indices), d))
    for row, entries, k in zip(record["coeffs"], indices, found):
        re, im = float(row[d]), float(row[d + 1])
        if k < 0:
            raise ConfigError(f"index {entries} outside degree {max_degree}")
        even = orders[k] % 2 == 0
        if (im if even else re) != 0.0:
            raise ConfigError(f"{'even' if even else 'odd'}-order index {entries} must have "
                              f"{'a real' if even else 'an imaginary'} coefficient")
        theta[k] = re if even else im
    return TaylorPoly(dims, max_degree, theta, cf_candidate)
