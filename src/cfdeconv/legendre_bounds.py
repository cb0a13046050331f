"""Legendre machinery on [-nu, nu] and executable quantitative bounds.

Two halves.  First, normalized Legendre polynomials, their tensor products
and the change-of-basis matrix from monomial to normalized-Legendre
coefficients.  Second, the growth/truncation bound functions used by the
theory, implemented as oracles: each returns a certified numerical value so
property tests can assert measured <= bound with honest slack.

Bound right-hand sides are evaluated in mpmath because factors like
(S nu)^m m^{-kappa m} mix huge and tiny magnitudes; the float64 conversion
happens only at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp
import numpy as np

from ._util import ConfigError, NumericalError, tensor_points
from .multiindex_taylor import (
    TaylorPoly,
    UpsilonParams,
    index_table,
    monomial_matrix,
    random_member,
)

_DPS = 40


def _legendre_raw(i: int, y: np.ndarray) -> np.ndarray:
    """Classical P_i(y) by the three-term recurrence."""
    y = np.asarray(y, dtype=np.float64)
    if i == 0:
        return np.ones_like(y)
    prev, cur = np.ones_like(y), y.copy()
    for k in range(1, i):
        prev, cur = cur, ((2 * k + 1) * y * cur - k * prev) / (k + 1)
    return cur


def legendre_eval(i: int, nu: float, x) -> np.ndarray:
    """Normalized Legendre polynomial (i+1/2)^(1/2) nu^(-1/2) P_i(x/nu).

    Points outside [-nu, nu] are evaluated anyway (the polynomial extends)
    but trigger a warning since orthonormality only holds on the interval.
    """
    if i < 0 or nu <= 0:
        raise ConfigError("need index >= 0 and nu > 0")
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > nu * (1 + 1e-12)):
        warnings.warn("legendre_eval points outside [-nu, nu]", RuntimeWarning, stacklevel=2)
    return math.sqrt((i + 0.5) / nu) * _legendre_raw(i, x / nu)


def legendre_eval_multi(index, nu: float, pts: np.ndarray) -> np.ndarray:
    """Tensor-product normalized Legendre value at points of shape (n, d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    index = tuple(int(v) for v in index)
    if pts.shape[1] != len(index):
        raise ConfigError("point dimension does not match the multi-index")
    out = np.ones(pts.shape[0])
    for a, ia in enumerate(index):
        out = out * legendre_eval(ia, nu, pts[:, a])
    return out


@dataclass
class LegendreBasis:
    """Normalized Legendre system on [-nu, nu] up to max_index (one axis).

    coeff_table[i, j] is the monomial-j coefficient of the i-th normalized
    polynomial; rows follow the classical expansion so the table is the
    d=1 change-of-basis matrix.
    """

    nu: float
    max_index: int
    coeff_table: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.nu <= 0 or self.max_index < 0:
            raise ConfigError("need nu > 0 and max_index >= 0")
        self.coeff_table = change_of_basis(self.max_index, self.nu, 1)

    def eval(self, i: int, x) -> np.ndarray:
        if i > self.max_index:
            raise ConfigError(f"index {i} above max_index {self.max_index}")
        return legendre_eval(i, self.nu, x)


def change_of_basis(m: int, nu: float, d: int) -> np.ndarray:
    """Matrix taking monomial coefficients to the normalized Legendre basis.

    Row i, column j (total-degree multi-index positions of order <= m) holds
    the monomial-j coefficient of the tensor normalized Legendre polynomial
    with index i.  Entries vanish unless j <= i coordinatewise with every
    difference even; the nonzero entries come from the classical expansion
    P_i(y) = 2^-i sum_k (-1)^k C(i,k) C(2i-2k,i) y^(i-2k) rescaled to
    [-nu, nu] and normalized.
    """
    if m < 0 or d < 1 or nu <= 0:
        raise ConfigError("need m >= 0, d >= 1, nu > 0")
    entries, _, position = index_table(d, m)
    n = entries.shape[0]
    out = np.zeros((n, n))
    for row in range(n):
        i = entries[row]
        norm = nu ** (-d / 2.0) * math.sqrt(float(np.prod(i + 0.5))) * 2.0 ** (-int(i.sum()))
        for k in np.ndindex(*(ia // 2 + 1 for ia in i)):
            k = np.asarray(k)
            j = i - 2 * k
            col = position[tuple(j)]
            comb = 1.0
            for a in range(d):
                comb *= math.comb(int(i[a]), int(k[a])) * math.comb(int(2 * i[a] - 2 * k[a]), int(i[a]))
            out[row, col] = norm * (-1.0) ** int(k.sum()) * nu ** (-int(j.sum())) * comb
    return out


def f_kappa(u: float, kappa: float, d: int, terms: int = 80) -> float:
    """Series sum_{m>=1} (m + d/kappa)^(-kappa m) u^m with a tail certificate.

    Raises NumericalError when the ratio-test tail bound at the requested
    number of terms is not below 1e-15 of the partial sum.
    """
    if u < 0 or not (0 < kappa <= 1) or d < 1 or terms < 2:
        raise ConfigError("invalid f_kappa arguments")
    if u == 0:
        return 0.0
    with mp.workdps(_DPS):
        uu, kk = mp.mpf(u), mp.mpf(kappa)
        shift = mp.mpf(d) / kk
        total = mp.mpf(0)
        prev_term = None
        for mdx in range(1, terms + 1):
            term = (mdx + shift) ** (-kk * mdx) * uu**mdx
            total += term
            prev_term = term
        nxt = (terms + 1 + shift) ** (-kk * (terms + 1)) * uu ** (terms + 1)
        ratio = nxt / prev_term if prev_term > 0 else mp.mpf(0)
        if ratio >= 1:
            raise NumericalError(
                f"f_kappa series not yet decaying after {terms} terms (u={u})"
            )
        tail = nxt / (1 - ratio)
        if tail > mp.mpf("1e-15") * total:
            raise NumericalError(
                f"f_kappa tail certificate {float(tail):.3e} above 1e-15 of the sum; "
                "increase terms"
            )
        return float(total)


def x_zero(kappa: float, d: int) -> float:
    """Threshold 1 v ((d + 4/3)/kappa)^kappa used by the growth bounds."""
    if not (0 < kappa <= 1) or d < 1:
        raise ConfigError("invalid x_zero arguments")
    return max(1.0, ((d + 4.0 / 3.0) / kappa) ** kappa)


def f_kappa_bound(u: float, kappa: float) -> float:
    """Upper envelope 6 (u v u0)^(1/kappa) exp(kappa (u v u0)^(1/kappa))."""
    if u < 0 or not (0 < kappa <= 1):
        raise ConfigError("invalid f_kappa_bound arguments")
    with mp.workdps(_DPS):
        u0 = (mp.mpf(4) / (3 * mp.mpf(kappa))) ** mp.mpf(kappa)
        v = max(mp.mpf(u), u0) ** (1 / mp.mpf(kappa))
        return float(6 * v * mp.e ** (mp.mpf(kappa) * v))


def psi_sum(x: float, kappa: float, d: int, terms: int = 400) -> float:
    """Series sum_{m>=1} m^d x^m m^(-kappa m), certified like f_kappa."""
    if x < 0 or not (0 < kappa <= 1) or d < 1 or terms < 2:
        raise ConfigError("invalid psi_sum arguments")
    if x == 0:
        return 0.0
    with mp.workdps(_DPS):
        xx, kk = mp.mpf(x), mp.mpf(kappa)
        total = mp.mpf(0)
        prev_term = None
        for mdx in range(1, terms + 1):
            term = mp.mpf(mdx) ** d * xx**mdx * mp.mpf(mdx) ** (-kk * mdx)
            total += term
            prev_term = term
        mnx = terms + 1
        nxt = mp.mpf(mnx) ** d * xx**mnx * mp.mpf(mnx) ** (-kk * mnx)
        ratio = nxt / prev_term if prev_term > 0 else mp.mpf(0)
        if ratio >= 1:
            raise NumericalError(f"psi_sum not yet decaying after {terms} terms (x={x})")
        tail = nxt / (1 - ratio)
        if tail > mp.mpf("1e-15") * total:
            raise NumericalError("psi_sum tail certificate above 1e-15; increase terms")
        return float(total)


def psi_sum_bound(x: float, kappa: float, d: int) -> float:
    """Envelope 6 (x v x0)^((d+1)/kappa) exp(kappa (x v x0)^(1/kappa))."""
    with mp.workdps(_DPS):
        xs = max(mp.mpf(x), mp.mpf(x_zero(kappa, d)))
        kk = mp.mpf(kappa)
        return float(6 * xs ** ((d + 1) / kk) * mp.e ** (kk * xs ** (1 / kk)))


def class_sup_bound(kappa: float, S: float, nu: float, d: int) -> float:
    """Envelope 7 (S nu v x0)^((d+1)/kappa) exp(kappa (S nu v x0)^(1/kappa))."""
    if S <= 0 or nu <= 0:
        raise ConfigError("need S > 0 and nu > 0")
    with mp.workdps(_DPS):
        xs = max(mp.mpf(S) * mp.mpf(nu), mp.mpf(x_zero(kappa, d)))
        kk = mp.mpf(kappa)
        return float(7 * xs ** ((d + 1) / kk) * mp.e ** (kk * xs ** (1 / kk)))


def truncation_sup_bound(m: int, kappa: float, S: float, nu: float, d: int) -> float:
    """Sup-norm tail bound 2^d (S nu)^m m^(-kappa m + d) f_kappa(S nu).

    Valid for truncation degrees m >= d/kappa; smaller m is rejected.
    """
    if S <= 0 or nu <= 0 or not (0 < kappa <= 1) or d < 1:
        raise ConfigError("invalid truncation bound arguments")
    if m < d / kappa:
        raise ConfigError(f"truncation bound needs m >= d/kappa = {d / kappa:.3f}, got {m}")
    with mp.workdps(_DPS):
        sn = mp.mpf(S) * mp.mpf(nu)
        val = (
            mp.mpf(2) ** d
            * sn**m
            * mp.mpf(m) ** (-mp.mpf(kappa) * m + d)
            * mp.mpf(f_kappa(float(sn), kappa, d))
        )
        return float(val)


def sigma1_bound(m: int, nu: float, d: int) -> float:
    """Spectral bound nu^(-d/2) m^d 4^m (nu^-1 v 1)^m for the degree-m block."""
    if m < 1 or nu <= 0 or d < 1:
        raise ConfigError("invalid sigma1 bound arguments")
    with mp.workdps(_DPS):
        nn = mp.mpf(nu)
        return float(nn ** (-mp.mpf(d) / 2) * mp.mpf(m) ** d * mp.mpf(4) ** m * max(1 / nn, mp.mpf(1)) ** m)


def sigma1_power_iteration(mat: np.ndarray, iters: int = 400, tol: float = 1e-13,
                           seed: int = 7) -> float:
    """Largest singular value via power iteration on mat^T mat."""
    mat = np.asarray(mat, dtype=np.float64)
    gram = mat.T @ mat
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        lam_new = float(v @ gram @ v)
        if abs(lam_new - lam) <= tol * max(lam_new, 1.0):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    bound: float
    measured: float

    @property
    def slack(self) -> float:
        return self.bound - self.measured

    def holds(self) -> bool:
        return self.slack >= 0


def _dense_box(nu: float, d: int) -> np.ndarray:
    per_axis = 801 if d == 1 else (101 if d == 2 else 31)
    return tensor_points([np.linspace(-nu, nu, per_axis)] * d)


def bound_suite(kappa: float, S: float, nu: float, d: int, m: int,
                n_members: int = 25, seed: int = 0,
                member_degree: int = 30) -> list:
    """Measured-vs-bound reports for the quantitative lemmas.

    Rows: truncation sup-norm over random class members (only when
    m >= d/kappa), class sup-norm, the psi series at x = S nu, and the
    largest singular value of the degree-m change-of-basis block.  Random
    members are truncations at member_degree, high enough that the ignored
    tail is far below the bounds being tested.
    """
    params = UpsilonParams(kappa=kappa, S=S)
    dims = (d, 0) if d == 1 else (d - 1, 1)
    rng = np.random.default_rng(seed)
    pts = _dense_box(nu, d)
    members = [random_member(params, dims, member_degree, rng) for _ in range(n_members)]
    # one shared monomial matrix; member and tail values are single products
    mono = monomial_matrix(pts, d, member_degree)
    coeffs = np.stack([p.coeffs for p in members])
    values = mono @ coeffs.T
    reports = []
    base_inputs = {"kappa": kappa, "S": S, "nu": nu, "d": d, "m": m}
    if m >= d / kappa:
        orders = members[0].orders
        tail_mask = orders > m
        tails = mono[:, tail_mask] @ coeffs[:, tail_mask].T
        worst = float(np.max(np.abs(tails)))
        reports.append(BoundReport(
            name="truncation_sup",
            inputs=dict(base_inputs, members=n_members),
            bound=truncation_sup_bound(m, kappa, S, nu, d),
            measured=worst,
        ))
    sup_phi = float(np.max(np.abs(values)))
    reports.append(BoundReport(
        name="class_sup",
        inputs=dict(base_inputs, members=n_members),
        bound=class_sup_bound(kappa, S, nu, d),
        measured=sup_phi,
    ))
    x = S * nu
    reports.append(BoundReport(
        name="psi_sum",
        inputs=dict(base_inputs, x=x),
        bound=psi_sum_bound(x, kappa, d),
        measured=psi_sum(x, kappa, d),
    ))
    block = change_of_basis(m, nu, d)
    reports.append(BoundReport(
        name="sigma1",
        inputs=base_inputs,
        bound=sigma1_bound(m, nu, d),
        measured=sigma1_power_iteration(block),
    ))
    return reports
