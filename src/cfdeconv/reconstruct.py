"""Density reconstruction from an estimated CF by truncated Fourier inversion.

The estimate is f(x) = (2 pi)^{-d} * integral over [-omega, omega]^d of
e^{-i t.x} times the truncated series.  Because the integrand is a polynomial
times a separable exponential, the integral factors into per-axis moment
integrals

    I_k(x) = integral_{-omega}^{omega} t^k e^{-itx} dt,

computed in closed form (no quadrature in t): with t = omega u, u^k in
Legendre polynomials P_l and integral_{-1}^{1} P_l(u) e^{-izu} du =
2 (-i)^l j_l(z), each moment is a finite sum of spherical Bessel values
j_l(omega x), with no branch on omega x and no degree limit.  I_k is real
for even k and purely imaginary for odd k; combined with the coefficient
parity the reconstruction is exactly real up to float roundoff, and the
leftover imaginary residue is tracked as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import ConfigError, NumericalError, as_type, legendre_rule, tensor_points, tensor_weights
from .multiindex_taylor import TaylorPoly, evaluate, index_table


def m_rule(n: int, kappa: float) -> int:
    """Theoretical truncation degree floor(log n / (8 kappa log log(n/4))).

    Requires n >= 12 so the inner logarithm is positive.  Note the rule is 0
    for every desk-scale n; experiment configs may override the degree and
    record that they did.
    """
    if n < 12:
        raise ConfigError(f"n must be >= 12, got {n}")
    if not (0 < kappa <= 1):
        raise ConfigError(f"kappa must lie in (0, 1], got {kappa}")
    return int(math.floor(math.log(n) / (8.0 * kappa * math.log(math.log(n / 4.0)))))


def omega_rule(m: int, kappa: float, S: float, nu: float, d: int) -> float:
    """Inversion window c_kappa m^kappa / S for truncation degree m >= 1,
    with c_kappa = min(nu, 2 kappa e^{-(3d+5)/2})."""
    if not (0 < kappa <= 1) or S <= 0 or nu <= 0 or d < 1:
        raise ConfigError("invalid tuning parameters")
    if m < 1:
        raise ConfigError(f"truncation degree must be >= 1, got {m}")
    return float(min(nu, 2.0 * kappa * math.exp(-(3 * d + 5) / 2.0)) * m**kappa / S)


@dataclass(frozen=True)
class LatticeSpec:
    """Uniform evaluation lattice: per-axis [min, max] with point counts."""

    mins: tuple
    maxs: tuple
    counts: tuple

    def __post_init__(self):
        # convert before comparing: string bounds would compare as text
        for name, kind in (("mins", float), ("maxs", float), ("counts", int)):
            key = "lattice." + name
            values = tuple(as_type(v, kind, key) for v in as_type(getattr(self, name), tuple, key))
            object.__setattr__(self, name, values)
        if not (len(self.mins) == len(self.maxs) == len(self.counts)):
            raise ConfigError("lattice mins/maxs/counts must have equal length")
        for lo, hi, c in zip(self.mins, self.maxs, self.counts):
            if not (hi > lo) or c < 2:
                raise ConfigError("each axis needs max > min and >= 2 points")

    @property
    def d(self) -> int:
        return len(self.mins)

    @property
    def steps(self) -> tuple:
        return tuple(
            (hi - lo) / (c - 1) for lo, hi, c in zip(self.mins, self.maxs, self.counts)
        )

    def axes(self):
        return [
            np.linspace(lo, hi, c)
            for lo, hi, c in zip(self.mins, self.maxs, self.counts)
        ]

    def points(self) -> np.ndarray:
        """All lattice points, shape (prod(counts), d), in C order."""
        return tensor_points(self.axes())

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.steps))


@dataclass
class DensityGrid:
    """Real density values on a lattice, with inversion metadata.

    spectrum, when present, is the (poly, omega) pair that produced the
    values; it enables exact Plancherel distances between reconstructions.
    imag_residue records the largest imaginary part discarded by inversion.
    """

    lattice: LatticeSpec
    values: np.ndarray
    imag_residue: float = 0.0
    spectrum: Optional[tuple] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != tuple(self.lattice.counts):
            raise ConfigError(
                f"values shape {values.shape} != lattice counts {self.lattice.counts}"
            )
        self.values = values


def _monomial_legendre(kmax: int) -> np.ndarray:
    """(kmax+1, kmax+1) matrix whose row k is poly2leg of u^k: numpy's
    legmulx recurrence x P_i = ((i+1) P_{i+1} + i P_{i-1}) / (2i+1) applied
    k times to P_0, one whole row at a time in legmulx's operation order,
    so each row has poly2leg's bits (its coefficients are nonnegative, so
    the additions of exact zeros change none)."""
    c = np.zeros((kmax + 1, kmax + 1))
    c[0, 0] = 1.0
    i = np.arange(1.0, kmax + 1)
    for k in range(1, kmax + 1):
        prev, row = c[k - 1], c[k]
        row[0] = prev[0] * 0
        row[1:] = (prev[:-1] * i) / (2 * i - 1)
        row[:-1] += (prev[1:] * i) / (2 * i + 1)
    return c


def _axis_moments(x: np.ndarray, omega: float, c: np.ndarray) -> np.ndarray:
    """Matrix of I_k(x) for k = 0..kmax, shape (len(x), kmax+1), complex,
    with c = _monomial_legendre(kmax).

    I_k(x) = omega^(k+1) sum_l c_kl 2 (-i)^l j_l(omega x), from u^k =
    sum_l c_kl P_l(u) and integral_{-1}^{1} P_l(u) e^{-izu} du =
    2 (-i)^l j_l(z).  The c_kl are
    nonnegative with sum 1 and |j_l| <= 1, so the rounding error is a few
    ulps of 2 omega^(k+1) whatever omega x is.
    """
    from scipy.special import spherical_jn

    z = omega * np.asarray(x, dtype=np.float64)
    ls = np.arange(len(c))
    # j_l has the parity of l: evaluate at |z|, restore the sign for odd l
    jl = spherical_jn(ls, np.abs(z)[:, None]) * np.where(ls % 2, np.sign(z)[:, None], 1.0)
    phases = np.array([1, -1j, -1, 1j])[ls % 4]
    return (2.0 * phases * jl) @ c.T * omega ** (ls + 1.0)


def invert(poly: TaylorPoly, omega: float, lattice: LatticeSpec) -> DensityGrid:
    """Truncated Fourier inversion of a candidate CF on a lattice.

    Raises NumericalError if the imaginary residue exceeds 1e-9 (the parity
    structure makes the exact result real); residues above 1e-12 are kept in
    the grid's check field either way.
    """
    if omega <= 0:
        raise ConfigError(f"omega must be positive, got {omega}")
    d = poly.d
    if lattice.d != d:
        raise ConfigError(f"lattice dimension {lattice.d} != candidate dimension {d}")
    entries = index_table(d, poly.max_degree)[0]
    kmax = poly.max_degree
    shape = tuple([kmax + 1] * d)
    coeff_tensor = np.zeros(shape, dtype=np.complex128)
    coeff_tensor[tuple(entries.T)] = poly.coeffs
    vals, legendre = coeff_tensor, _monomial_legendre(kmax)
    for axis_pts in lattice.axes():
        moments = _axis_moments(axis_pts, omega, legendre)
        # contract the leading degree axis; evaluated axes cycle to the back,
        # so after d contractions the axes are back in x-order
        vals = np.tensordot(vals, moments, axes=([0], [1]))
    vals = vals / (2.0 * math.pi) ** d
    residue = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if residue > 1e-9:
        raise NumericalError(
            f"inversion imaginary residue {residue:.3e} exceeds 1e-9; "
            "coefficients or window are numerically unusable"
        )
    return DensityGrid(
        lattice=lattice,
        values=np.ascontiguousarray(vals.real),
        imag_residue=residue if residue > 1e-12 else 0.0,
        spectrum=(poly.copy(), float(omega)),
    )


def _box_pair_integral(pa: TaylorPoly, pb: TaylorPoly, omega: float) -> complex:
    """Integral over [-omega, omega]^d of pa(t) * conj(pb(t))."""
    ea, eb = (index_table(p.d, p.max_degree)[0] for p in (pa, pb))
    kmax = pa.max_degree + pb.max_degree
    mom = np.zeros(kmax + 1)
    ks = np.arange(0, kmax + 1, 2)
    mom[ks] = 2.0 * omega ** (ks + 1) / (ks + 1)
    total_deg = ea[:, None, :] + eb[None, :, :]
    prod = np.prod(mom[total_deg], axis=-1)
    ca, cb = pa.coeffs, pb.coeffs
    return complex(ca @ prod @ np.conj(cb))


def l2_distance(a: DensityGrid, b: DensityGrid) -> float:
    """L2 distance between two reconstructions.

    When both grids carry spectra it is the Plancherel identity on the
    truncated spectra (exact polynomial moments over the two inversion
    boxes, intersection handled by the smaller box); otherwise it is the
    Riemann sum on their shared lattice.
    """
    if a.spectrum is not None and b.spectrum is not None:
        pa, wa = a.spectrum
        pb, wb = b.spectrum
        if pa.d != pb.d:
            raise ConfigError("spectra have different dimensions")
        w_min = min(wa, wb)
        sq = (
            _box_pair_integral(pa, pa, wa).real
            + _box_pair_integral(pb, pb, wb).real
            - 2.0 * _box_pair_integral(pa, pb, w_min).real
        ) / (2.0 * math.pi) ** pa.d
        return float(math.sqrt(max(sq, 0.0)))
    if a.lattice != b.lattice:
        raise ConfigError("lattice distance requires identical lattices")
    diff = a.values - b.values
    return float(np.sqrt(np.sum(diff * diff) * a.lattice.cell_volume))


def l2_norm(a: DensityGrid) -> float:
    """L2 norm of a reconstruction: spectral when it carries a spectrum,
    else the Riemann sum on its lattice."""
    if a.spectrum is not None:
        poly, omega = a.spectrum
        sq = _box_pair_integral(poly, poly, omega).real / (2.0 * math.pi) ** poly.d
        return float(math.sqrt(max(sq, 0.0)))
    return float(np.sqrt(np.sum(a.values**2) * a.lattice.cell_volume))


@dataclass(frozen=True)
class SmoothnessReport:
    value: float
    tail_share: float
    tail_flagged: bool


def smoothness_integral(candidate, beta: float, nu: float, d: int,
                        nodes_per_axis: int = 64) -> SmoothnessReport:
    """Sobolev-type integral of |phi|^2 (1 + |t|^2)^beta over [-nu, nu]^d.

    The outermost 10 percent band of the box (sup-norm radius above 0.9 nu)
    is flagged when it contributes more than 1 percent of the total,
    indicating that the box truncates a non-negligible tail.
    """
    if nu <= 0 or d < 1:
        raise ConfigError("need nu > 0 and d >= 1")
    if nodes_per_axis**d > 2**22:
        raise ConfigError("quadrature grid too large; reduce nodes_per_axis")
    x, w = legendre_rule(nodes_per_axis)
    pts = tensor_points([nu * x] * d)
    wt = tensor_weights(nu * w, d)
    if isinstance(candidate, TaylorPoly):
        phi = evaluate(candidate, pts)
    else:
        phi = np.asarray(candidate(pts), dtype=np.complex128)
    integrand = np.abs(phi) ** 2 * (1.0 + np.sum(pts * pts, axis=1)) ** beta
    contrib = wt * integrand
    total = float(np.sum(contrib))
    shell = np.max(np.abs(pts), axis=1) > 0.9 * nu
    share = float(np.sum(contrib[shell]) / total) if total > 0 else 0.0
    return SmoothnessReport(value=total, tail_share=share, tail_flagged=share > 0.01)
