"""Legendre machinery on [-nu, nu] and executable quantitative bounds.

Two halves.  First, normalized Legendre polynomials (numpy's legval) and
the change-of-basis matrix from monomial to tensor normalized-Legendre
coefficients (built from numpy's leg2poly).  Second, the growth/truncation
bound functions used by the theory, implemented as oracles: each returns a
certified numerical value so property tests can assert measured <= bound
with honest slack.  The spectral row measures the change-of-basis block's
largest singular value with LAPACK's SVD (np.linalg.norm(., 2)).

Bound right-hand sides are evaluated in mpmath because factors like
(S nu)^m m^{-kappa m} mix huge and tiny magnitudes; the float64 conversion
happens only at the end; each function that evaluates in mpmath imports
it, so importing this module loads no mpmath.  The two series share one
certified summation and the three growth envelopes share one formula.  The
sup-norm rows evaluate random members on 801, 101 or 31 points per axis
(d = 1, 2, >= 3), one axis at a time, in batches whose tensors stay under
16 MB at any d (bound_suite).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import ConfigError, NumericalError, one_blas_thread
from .multiindex_taylor import UpsilonParams, index_table, random_member

_DPS = 40
# doubles (16 MB) of coefficient or value tensor bound_suite forms at once
_TENSOR_DOUBLES = 1 << 21


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
    return math.sqrt((i + 0.5) / nu) * np.polynomial.legendre.legval(x / nu, np.eye(i + 1)[i])


def change_of_basis(m: int, nu: float, d: int) -> np.ndarray:
    """Matrix taking monomial coefficients to the normalized Legendre basis.

    Row i, column j (total-degree multi-index positions of order <= m) holds
    the monomial-j coefficient of the tensor normalized Legendre polynomial
    with index i: the product over axes of one per-axis table, whose entry
    (i, j) is the y^j coefficient of P_i (numpy's leg2poly) times
    sqrt((i+1/2)/nu) nu^-j.  Entries vanish unless j <= i coordinatewise
    with every difference even.
    """
    if m < 0 or d < 1 or nu <= 0:
        raise ConfigError("need m >= 0, d >= 1, nu > 0")
    leg2poly = np.polynomial.legendre.leg2poly
    axis = np.array([np.pad(leg2poly(row), (0, m - i)) for i, row in enumerate(np.eye(m + 1))])
    deg = np.arange(m + 1)
    axis *= np.sqrt((deg[:, None] + 0.5) / nu) * nu ** -deg[None, :]
    entries = index_table(d, m)[0]
    return axis[entries[:, None, :], entries[None, :, :]].prod(axis=2)


def _certified_series(term: Callable, terms: int, name: str) -> float:
    """Sequential mpmath sum of term(1), ..., term(terms) with a tail certificate.

    Raises NumericalError when the ratio of the next term to the last is not
    below 1, or when the geometric tail bound is not below 1e-15 of the
    partial sum.
    """
    import mpmath as mp

    with mp.workdps(_DPS):
        total = mp.mpf(0)
        for mdx in range(1, terms + 1):
            last = term(mdx)
            total += last
        nxt = term(terms + 1)
        ratio = nxt / last if last > 0 else mp.mpf(0)
        if ratio >= 1:
            raise NumericalError(f"{name} not yet decaying after {terms} terms")
        tail = nxt / (1 - ratio)
        if tail > mp.mpf("1e-15") * total:
            raise NumericalError(
                f"{name} tail certificate {float(tail):.3e} above 1e-15 of the sum; "
                "increase terms"
            )
        return float(total)


def f_kappa(u: float, kappa: float, d: int, terms: int = 80) -> float:
    """Series sum_{m>=1} (m + d/kappa)^(-kappa m) u^m with a tail certificate."""
    if u < 0 or not (0 < kappa <= 1) or d < 1 or terms < 2:
        raise ConfigError("invalid f_kappa arguments")
    import mpmath as mp

    uu, kk = mp.mpf(u), mp.mpf(kappa)
    return _certified_series(lambda m: (m + d / kk) ** (-kk * m) * uu**m, terms, "f_kappa")


def psi_sum(x: float, kappa: float, d: int, terms: int = 400) -> float:
    """Series sum_{m>=1} m^d x^m m^(-kappa m), certified like f_kappa."""
    if x < 0 or not (0 < kappa <= 1) or d < 1 or terms < 2:
        raise ConfigError("invalid psi_sum arguments")
    import mpmath as mp

    xx, kk = mp.mpf(x), mp.mpf(kappa)
    return _certified_series(
        lambda m: mp.mpf(m) ** d * xx**m * mp.mpf(m) ** (-kk * m), terms, "psi_sum"
    )


def _envelope(c: int, x, floor, p: int, kappa: float) -> float:
    """c X^(p/kappa) exp(kappa X^(1/kappa)) at X = x v floor, in mpmath.

    Call inside mp.workdps(_DPS) so that x and floor keep their digits.
    """
    import mpmath as mp

    X, kk = max(mp.mpf(x), mp.mpf(floor)), mp.mpf(kappa)
    return float(c * X ** (p / kk) * mp.e ** (kk * X ** (1 / kk)))


def x_zero(kappa: float, d: int) -> float:
    """Threshold 1 v ((d + 4/3)/kappa)^kappa used by the growth bounds."""
    if not (0 < kappa <= 1) or d < 1:
        raise ConfigError("invalid x_zero arguments")
    return max(1.0, ((d + 4.0 / 3.0) / kappa) ** kappa)


def f_kappa_bound(u: float, kappa: float) -> float:
    """Upper envelope 6 (u v u0)^(1/kappa) exp(kappa (u v u0)^(1/kappa))."""
    if u < 0 or not (0 < kappa <= 1):
        raise ConfigError("invalid f_kappa_bound arguments")
    import mpmath as mp

    with mp.workdps(_DPS):
        u0 = (mp.mpf(4) / (3 * mp.mpf(kappa))) ** mp.mpf(kappa)
        return _envelope(6, u, u0, 1, kappa)


def psi_sum_bound(x: float, kappa: float, d: int) -> float:
    """Envelope 6 (x v x0)^((d+1)/kappa) exp(kappa (x v x0)^(1/kappa))."""
    import mpmath as mp

    with mp.workdps(_DPS):
        return _envelope(6, x, x_zero(kappa, d), d + 1, kappa)


def class_sup_bound(kappa: float, S: float, nu: float, d: int) -> float:
    """Envelope 7 (S nu v x0)^((d+1)/kappa) exp(kappa (S nu v x0)^(1/kappa))."""
    if S <= 0 or nu <= 0:
        raise ConfigError("need S > 0 and nu > 0")
    import mpmath as mp

    with mp.workdps(_DPS):
        return _envelope(7, mp.mpf(S) * mp.mpf(nu), x_zero(kappa, d), d + 1, kappa)


def truncation_sup_bound(m: int, kappa: float, S: float, nu: float, d: int) -> float:
    """Sup-norm tail bound 2^d (S nu)^m m^(-kappa m + d) f_kappa(S nu).

    Valid for truncation degrees m >= d/kappa; smaller m is rejected.
    """
    if S <= 0 or nu <= 0 or not (0 < kappa <= 1) or d < 1:
        raise ConfigError("invalid truncation bound arguments")
    if m < d / kappa:
        raise ConfigError(f"truncation bound needs m >= d/kappa = {d / kappa:.3f}, got {m}")
    import mpmath as mp

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
    import mpmath as mp

    with mp.workdps(_DPS):
        nn = mp.mpf(nu)
        return float(nn ** (-mp.mpf(d) / 2) * mp.mpf(m) ** d * mp.mpf(4) ** m * max(1 / nn, mp.mpf(1)) ** m)


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


def _box_sup(entries: np.ndarray, values: np.ndarray, vander: np.ndarray) -> float:
    """Largest |re + i im| over the tensor grid of vander's (P, D+1) rows x^j.

    values (2, B, N) holds the real and imaginary coefficients of B
    polynomials at the N distinct multi-indices `entries`.  Scattered into
    dense (D+1)^d tensors and contracted one axis at a time, they take
    2 B max(P, D+1)^d doubles; past _TENSOR_DOUBLES per polynomial (d >= 5
    at the default degree) the first variable is fixed at each node in turn.
    """
    d = entries.shape[1]
    if 2 * max(vander.shape) ** d > _TENSOR_DOUBLES:
        rest, where = np.unique(entries[:, 1:], axis=0, return_inverse=True)
        sup = 0.0
        for row in vander:
            fixed = np.zeros(values.shape[:2] + (rest.shape[0],))
            np.add.at(fixed, (slice(None), slice(None), where), values * row[entries[:, 0]])
            sup = max(sup, _box_sup(rest, fixed, vander))
        return sup
    parts = np.zeros(values.shape[:2] + (vander.shape[1],) * d)
    parts[(slice(None), slice(None)) + tuple(entries.T)] = values
    for _ in range(d):
        parts = np.tensordot(parts, vander, axes=(2, 1))
    return float(np.max(np.hypot(parts[0], parts[1])))


def bound_suite(kappa: float, S: float, nu: float, d: int, m: int,
                n_members: int = 25, seed: int = 0,
                member_degree: int = 30) -> list:
    """Measured-vs-bound reports for the quantitative lemmas.

    Rows: truncation sup-norm over random class members (only when
    m >= d/kappa), class sup-norm, the psi series at x = S nu, and the
    largest singular value of the degree-m change-of-basis block.  Random
    members are truncations at member_degree, high enough that the ignored
    tail is far below the bounds being tested.  The sup-norms are maxima on
    801, 101 or 31 points per axis of [-nu, nu] (d = 1, 2, >= 3), evaluated
    axis by axis (_box_sup) with even orders real and odd imaginary, the
    tail with orders <= m zeroed, in batches of members whose tensors stay
    under _TENSOR_DOUBLES doubles at any d.
    """
    if n_members < 1:
        raise ConfigError("bound_suite needs n_members >= 1")
    params = UpsilonParams(kappa=kappa, S=S)
    dims = (d, 0) if d == 1 else (d - 1, 1)
    rng = np.random.default_rng(seed)
    entries, orders = index_table(d, member_degree)
    nodes = np.linspace(-nu, nu, 801 if d == 1 else (101 if d == 2 else 31))
    vander = nodes[:, None] ** np.arange(member_degree + 1)
    truncated = m >= d / kappa
    batch = max(1, _TENSOR_DOUBLES // (2 * max(vander.shape) ** d))
    sup_phi = worst = 0.0
    # small products: one BLAS thread is faster here, and its bits do not
    # depend on the core count
    with one_blas_thread():
        for lo in range(0, n_members, batch):
            theta = np.stack([random_member(params, dims, member_degree, rng).theta
                              for _ in range(min(batch, n_members - lo))])
            values = np.stack([theta * (orders % 2 == odd) for odd in (0, 1)])
            sup_phi = max(sup_phi, _box_sup(entries, values, vander))
            if truncated:
                values[:, :, orders <= m] = 0.0
                worst = max(worst, _box_sup(entries, values, vander))
    reports = []
    base_inputs = {"kappa": kappa, "S": S, "nu": nu, "d": d, "m": m}
    if truncated:
        reports.append(BoundReport(
            name="truncation_sup",
            inputs=dict(base_inputs, members=n_members),
            bound=truncation_sup_bound(m, kappa, S, nu, d),
            measured=worst,
        ))
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
    reports.append(BoundReport(
        name="sigma1",
        inputs=base_inputs,
        bound=sigma1_bound(m, nu, d),
        measured=float(np.linalg.norm(change_of_basis(m, nu, d), 2)),
    ))
    return reports
