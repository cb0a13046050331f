"""Numerical laboratory for the weighted-polynomial lower-bound machinery.

This module builds the even weight family h_kappa, the polynomials that are
orthonormal for the h_kappa^2 inner product, the scaled profile statistics
and interval census behind the oscillation conjecture, the mollified
two-point construction, and the final testing-risk lower bound value.

Everything downstream of the basis lives on one dyadic master grid (step
2^-9).  Mollification is a discrete convolution with exactly normalized
taps, so unit mass survives smoothing to float precision and the discrete
Young inequality makes the norm chain an exact inequality of two sums.

The weight and the profile scale factors take exp and powers from the
fixed-operation kernels in _util rather than np.exp/np.power, whose last
bits vary with numpy's SIMD dispatch and with libm.  The normalizers c_h
and c_u are sums on the same Gauss-Legendre panel rule as the basis, so
the module needs no scipy.  Basis and profile values are therefore the
same bytes on every CPU, given the same Gauss-Legendre nodes (LAPACK, via
the library's one rule, _util.legendre_rule).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ._util import (ConfigError, NumericalError, det_exp, det_pow, inverse_cdf_sampler,
                    legendre_rule)

_STEP = 2.0**-9
_EXP_CUTOFF = 45.0  # weight treated as zero once the exponent exceeds this
_K_STABLE = 16
_PANELS, _NODES = 24, 40  # build_weighted_basis's panel Gauss rule
FIT_K, HOLDOUT_K = range(4, 11), range(11, _K_STABLE + 1)  # census degrees
_MOLLIFIER_NODES = 64  # Gauss-Legendre nodes of mollifier_rule
_GRID_PAD = 1.0  # master grid margin beyond the weight support plus 1/b
_ENVELOPE_WINDOW = 5  # half-width of envelope_values' running max
# lecam_value's v and w grids: [-half, half] at the given step
_V_HALF, _V_STEP, _W_HALF, _W_STEP = 40.0, 0.1, 60.0, 0.05
_V_BLOCK = 64  # v rows per block of lecam_value's support-window products
_KERNEL_BLOCK = 128  # w rows per block of _noise_kernel's in-place build


# ---------------------------------------------------------------------------
# weight family


@dataclass(frozen=True)
class WeightSpec:
    """Even weight h(x) = c_h exp(-[(1+(x/x0)^2)/2]^(1/(2(1-kappa)))).

    c_h normalizes h to unit integral and is computed on construction, on
    build_weighted_basis's panel rule over [-cutoff, cutoff].  The kappa = 1
    member is the flat limit: the uniform density on [-x0, x0].
    """

    kappa: float
    x0: float = 1.0
    c_h: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (0 < self.kappa <= 1) or self.x0 <= 0:
            raise ConfigError("need kappa in (0, 1] and x0 > 0")
        if self.kappa == 1.0:
            object.__setattr__(self, "c_h", 1.0 / (2.0 * self.x0))
            return
        cut = self.cutoff()
        x, w = _panel_rule(-cut, cut, _PANELS, _NODES)
        object.__setattr__(self, "c_h", 1.0 / float(np.sum(w * self._raw(x))))

    def _raw(self, x: np.ndarray) -> np.ndarray:
        power = 1.0 / (2.0 * (1.0 - self.kappa))
        expo = det_pow((1.0 + (x / self.x0) ** 2) / 2.0, power)
        return np.where(expo < _EXP_CUTOFF, det_exp(-np.minimum(expo, _EXP_CUTOFF)), 0.0)

    def cutoff(self) -> float:
        """|x| beyond which h is numerically zero (exponent above 45)."""
        if self.kappa == 1.0:
            return self.x0
        scale = float(det_pow(_EXP_CUTOFF, 2.0 * (1.0 - self.kappa)))
        return self.x0 * math.sqrt(2.0 * scale - 1.0)


def h_kappa_eval(spec: WeightSpec, x) -> np.ndarray:
    """Weight density value; even in x, zero outside the numerical support."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kappa == 1.0:
        return np.where(np.abs(x) <= spec.x0, spec.c_h, 0.0)
    return spec.c_h * spec._raw(x)


# ---------------------------------------------------------------------------
# weighted orthonormal basis (Stieltjes recurrence on panel quadrature)


def _panel_rule(lo: float, hi: float, panels: int, nodes: int):
    base_x, base_w = legendre_rule(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass
class WeightedBasis:
    """Polynomials orthonormal for integral f g h^2, degrees 0..K_max.

    alpha/beta are the three-term recurrence coefficients
    beta[k+1] P_{k+1}(x) = (x - alpha[k]) P_k(x) - beta[k] P_{k-1}(x),
    with P_0 = 1/beta[0]; `polys` runs it once for P_0..P_K, and eval_poly
    keeps its last value.
    cert records the independent-quadrature orthonormality check.
    """

    weight: WeightSpec
    K_max: int
    alpha: np.ndarray
    beta: np.ndarray
    cert: dict

    def polys(self, K: int, x):
        """P_0, ..., P_K at x, yielded in order from one run of the
        recurrence (stable far beyond the coefficient form)."""
        if not (0 <= K <= self.K_max):
            raise ConfigError(f"K={K} outside 0..{self.K_max}")
        x = np.asarray(x, dtype=np.float64)
        prev = np.zeros_like(x)
        cur = np.full_like(x, 1.0 / self.beta[0])
        yield cur
        for k in range(K):
            prev, cur = cur, ((x - self.alpha[k]) * cur - self.beta[k] * prev) / self.beta[k + 1]
            yield cur

    def eval_poly(self, K: int, x) -> np.ndarray:
        """P_K by the recurrence."""
        return deque(self.polys(K, x), maxlen=1)[0]

    def eval_ph(self, K: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.eval_poly(K, x) * h_kappa_eval(self.weight, x)


def build_weighted_basis(spec: WeightSpec, K_max: int,
                         cert_tol: float = 1e-6) -> WeightedBasis:
    """Stieltjes construction of the h^2-orthonormal polynomials.

    Recurrence coefficients come from inner products of the running
    polynomial values on a panel Gauss rule over the weight's numerical
    support; orthonormality is then certified on an independent rule
    (different panel and node counts).  Degrees above 16 are refused: the
    weighted recurrence loses orthogonality around there.
    """
    if not (0 <= K_max <= _K_STABLE):
        raise ConfigError(f"K_max must lie in 0..{_K_STABLE}")
    cut = spec.cutoff()
    x, w = _panel_rule(-cut, cut, _PANELS, _NODES)
    wgt = w * h_kappa_eval(spec, x) ** 2
    alpha = np.zeros(max(K_max, 1))
    beta = np.zeros(K_max + 2)
    beta[0] = math.sqrt(float(np.sum(wgt)))
    vals = np.zeros((K_max + 1, x.shape[0]))
    vals[0] = 1.0 / beta[0]
    prev = np.zeros_like(x)
    for k in range(K_max + 1):
        cur = vals[k]
        if k == K_max:
            break
        alpha[k] = float(np.sum(wgt * x * cur * cur))
        q = (x - alpha[k]) * cur - beta[k] * prev
        beta[k + 1] = math.sqrt(float(np.sum(wgt * q * q)))
        if beta[k + 1] <= 0:
            raise NumericalError(f"degenerate recurrence at K={k + 1}")
        vals[k + 1] = q / beta[k + 1]
        prev = cur
    basis = WeightedBasis(
        weight=spec,
        K_max=K_max,
        alpha=alpha[:max(K_max, 1)],
        beta=beta[: K_max + 1],
        cert={},
    )
    cx, cw = _panel_rule(-cut, cut, _PANELS + 13, _NODES + 17)
    cwgt = cw * h_kappa_eval(spec, cx) ** 2
    table = np.stack(list(basis.polys(K_max, cx)))
    gram = (table * cwgt) @ table.T
    dev = np.abs(gram - np.eye(K_max + 1))
    worst = float(dev.max())
    if worst > cert_tol:
        bad = int(np.max(np.nonzero(dev > cert_tol)[0]))
        raise NumericalError(
            f"orthonormality lost at K={bad}: deviation {worst:.3e} > {cert_tol}"
        )
    basis.cert = {
        "gram_error": worst,
        "rule": f"panels={_PANELS + 13} nodes={_NODES + 17} on [-{cut:.6g}, {cut:.6g}]",
    }
    return basis


# ---------------------------------------------------------------------------
# profiles and interval census


def scaled_profile(basis: WeightedBasis, K: int, scaling: str, x_grid) -> np.ndarray:
    """Rescaled polynomial-times-weight profile on a figure grid.

    stretch evaluates K^((1-kappa)/2) (P_K h)(K^(1-kappa) x); squeeze uses
    argument scale K^-kappa instead.  At K=1 both reduce to P_1 h on a
    rescaled axis.
    """
    if scaling not in ("stretch", "squeeze"):
        raise ConfigError(f"unknown scaling {scaling!r}")
    kappa = basis.weight.kappa
    s = det_pow(K, 1.0 - kappa) if scaling == "stretch" else det_pow(K, -kappa)
    x = np.asarray(x_grid, dtype=np.float64)
    return det_pow(K, (1.0 - kappa) / 2.0) * basis.eval_ph(K, s * x)


@dataclass(frozen=True)
class CensusResult:
    count: int
    intervals: tuple
    threshold: float
    min_length: float


def interval_census(basis: WeightedBasis, K: int, c1: float, c2: float) -> CensusResult:
    """Count sub-intervals of [-1, 1] where |P_K h| clears the scaled bar.

    Scans with step c1 K^-kappa / 20, keeps maximal runs with
    |P_K h| >= c2 K^((kappa-1)/2) and reports those of length at least
    c1 K^-kappa.
    """
    if c1 <= 0 or c2 <= 0:
        raise ConfigError("c1 and c2 must be positive")
    kappa = basis.weight.kappa
    min_len = c1 * K**-kappa
    step = min_len / 20.0
    xs = np.arange(-1.0, 1.0 + step / 2.0, step)
    vals = np.abs(basis.eval_ph(K, xs))
    mask = vals >= c2 * K ** ((kappa - 1.0) / 2.0)
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    intervals = [(float(xs[a]), float(xs[b])) for a, b in zip(starts, stops)
                 if (b - a) * step >= min_len]
    return CensusResult(
        count=len(intervals),
        intervals=tuple(intervals),
        threshold=float(c2 * K ** ((kappa - 1.0) / 2.0)),
        min_length=float(min_len),
    )


def census_protocol(basis: WeightedBasis, c1: float, c2: float):
    """Fit the count constant on FIT_K, test it on the larger HOLDOUT_K.

    c0 is the largest constant consistent with every fit-range count
    (min over K of count / K^kappa); the holdout passes when each count
    reaches ceil(c0 K^kappa).  Returns (c0, rows, holdout_ok) with rows of
    (K, count, required) for the holdout range.
    """
    kappa = basis.weight.kappa
    counts_fit = {K: interval_census(basis, K, c1, c2).count for K in FIT_K}
    if min(counts_fit.values()) == 0:
        return 0.0, tuple((K, interval_census(basis, K, c1, c2).count, 0) for K in HOLDOUT_K), False
    c0 = min(cnt / K**kappa for K, cnt in counts_fit.items())
    rows = []
    ok = True
    for K in HOLDOUT_K:
        cnt = interval_census(basis, K, c1, c2).count
        need = math.ceil(c0 * K**kappa)
        rows.append((K, cnt, need))
        ok = ok and cnt >= need
    return float(c0), tuple(rows), ok


# ---------------------------------------------------------------------------
# mollifier and master-grid helpers


@lru_cache(maxsize=1)
def mollifier_constant() -> float:
    """c_u with integral of c_u exp(-1/(1-x^2)) over [-1, 1] equal to 1, on
    build_weighted_basis's panel rule (the bump is smooth at +-1)."""
    x, w = _panel_rule(-1.0, 1.0, _PANELS, _NODES)
    return 1.0 / float(np.sum(w * _bump(x)))


def _bump(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    inside = np.abs(y) < 1.0
    out = np.zeros_like(y)
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(1.0 / (y[inside] ** 2 - 1.0))
    return out


def mollifier_eval(b: float, x) -> np.ndarray:
    """Scaled bump u_b(x) = b c_u exp(-1/(1-(bx)^2)) on [-1/b, 1/b]."""
    if b <= 0:
        raise ConfigError("b must be positive")
    x = np.asarray(x, dtype=np.float64)
    return b * mollifier_constant() * _bump(b * x)


def mollifier_rule(b: float) -> tuple:
    """Gauss-Legendre nodes u on [-1/b, 1/b] and weights w proportional to
    u_b(u), renormalized to unit total, so that sum w f(u) approximates the
    integral of f u_b and reproduces constants exactly."""
    if b <= 0:
        raise ConfigError("b must be positive")
    base_x, base_w = legendre_rule(_MOLLIFIER_NODES)
    u = base_x / b
    w = base_w / b * mollifier_eval(b, u)
    return u, w / float(np.sum(w))


@dataclass(frozen=True)
class GridFunction:
    """Values on a uniform grid with linear interpolation, zero outside."""

    xs: np.ndarray
    values: np.ndarray

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=np.float64), self.xs, self.values,
                         left=0.0, right=0.0)

    def support(self) -> tuple:
        """(lo, hi) outside which the interpolant is zero: the nodes next to
        the first and last nonzero value (the grid ends if those are ends)."""
        nz = np.flatnonzero(self.values)
        lo, hi = (nz[0] - 1, nz[-1] + 1) if nz.size else (0, 0)
        return float(self.xs[max(lo, 0)]), float(self.xs[min(hi, self.xs.shape[0] - 1)])

    def mass(self) -> float:
        return float(np.sum(self.values) * self.step)

    def l2_sq(self) -> float:
        return float(np.sum(self.values**2) * self.step)


def master_grid(spec: WeightSpec, b: float) -> np.ndarray:
    """Dyadic symmetric grid covering the weight support plus 1/b plus a pad."""
    half = int(math.ceil((spec.cutoff() + 1.0 / b + _GRID_PAD) / _STEP))
    return np.arange(-half, half + 1) * _STEP


def _mollifier_taps(b: float, step: float) -> np.ndarray:
    """Discrete u_b taps at spacing step, renormalized so step * sum == 1."""
    m = int(math.floor(1.0 / (b * step)))
    offsets = np.arange(-m, m + 1) * step
    raw = mollifier_eval(b, offsets)
    total = float(np.sum(raw) * step)
    if total <= 0:
        raise NumericalError("empty mollifier taps")
    return raw / total


def grid_convolve(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolution of master-grid values with taps, as a Riemann sum."""
    if taps.shape[0] > values.shape[0]:
        raise ConfigError("mollifier support wider than the grid")
    return np.convolve(values, taps, mode="same") * _STEP


def norm_chain(basis: WeightedBasis, K: int, b: float) -> tuple:
    """Squared L2 norms of P_K h^2 before and after u_b smoothing.

    Both sums run on the same master grid, so smoothed <= plain is the
    discrete Young inequality verbatim; b -> infinity degenerates the taps
    to an identity and the ratio to exactly 1.
    """
    xs = master_grid(basis.weight, b)
    vals = basis.eval_poly(K, xs) * h_kappa_eval(basis.weight, xs) ** 2
    plain = float(np.sum(vals**2) * _STEP)
    smoothed = grid_convolve(vals, _mollifier_taps(b, _STEP))
    return plain, float(np.sum(smoothed**2) * _STEP)


def envelope_values(basis: WeightedBasis, xs: np.ndarray) -> np.ndarray:
    """Empirical envelope max_K K^((1-kappa)/2) |P_K h| with a running max."""
    kappa = basis.weight.kappa
    h = h_kappa_eval(basis.weight, xs)
    env = np.zeros_like(xs)
    for K, p_K in enumerate(basis.polys(basis.K_max, xs)):
        if K:
            np.maximum(env, K ** ((1.0 - kappa) / 2.0) * np.abs(p_K) * h, out=env)
    padded = np.pad(env, _ENVELOPE_WINDOW, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(
        padded, 2 * _ENVELOPE_WINDOW + 1).max(axis=1)


# ---------------------------------------------------------------------------
# two-point construction


@dataclass(frozen=True)
class LowerBoundInstance:
    """Frozen parameters of one two-point experiment at sample size n."""

    n: int
    d1: int
    d2: int
    a: float
    beta: float
    K_n: int
    b_n: float
    alpha_n: float
    c_K: float
    c_b: float
    c_mass: float

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def matrix(self) -> np.ndarray:
        A = np.eye(self.d)
        A[0, self.d1:] = self.a
        A[self.d1, : self.d1] = self.a
        return A


def make_instance(basis: WeightedBasis, n: int, *, d1: int = 1, d2: int = 1,
                  a: float = 0.4, beta: float = 1.0,
                  c_K: float = 1.0, c_b: float = 4.0,
                  c_mass: float = 1e-8) -> LowerBoundInstance:
    """Resolve the (K_n, b_n, alpha_n) schedule for one sample size.

    K_n = ceil((c_K/kappa) log n / log log n) clipped to [2, K_max];
    b_n = c_b K_n^kappa; alpha_n is the smaller of the sup-norm cap
    1/||P_K h||_inf and the smoothing-mass cap sqrt(c_mass) b_n^-beta /
    ||P_K h^2||.
    """
    if n < 3:
        raise ConfigError("n must be >= 3")
    if not (0 < a < 1):
        raise ConfigError("a must lie in (0, 1)")
    if d1 < 1 or d2 < 1:
        raise ConfigError("d1 and d2 must be >= 1")
    kappa = basis.weight.kappa
    raw = (c_K / kappa) * math.log(n) / math.log(math.log(n))
    K_n = int(min(max(math.ceil(raw), 2), basis.K_max))
    b_n = c_b * K_n**kappa
    xs = master_grid(basis.weight, b_n)
    ph = basis.eval_ph(K_n, xs)
    ph2 = ph * h_kappa_eval(basis.weight, xs)
    sup_cap = 1.0 / float(np.max(np.abs(ph)))
    norm_ph2 = math.sqrt(float(np.sum(ph2**2) * (xs[1] - xs[0])))
    mass_cap = math.sqrt(c_mass) * b_n**-beta / norm_ph2
    return LowerBoundInstance(
        n=int(n), d1=d1, d2=d2, a=float(a), beta=float(beta),
        K_n=K_n, b_n=float(b_n), alpha_n=float(min(sup_cap, mass_cap)),
        c_K=float(c_K), c_b=float(c_b), c_mass=float(c_mass),
    )


@dataclass
class TwoPoint:
    """The 1-D densities of the two-point pair and ||f_0 - f_n||^2; the pair
    itself is the mixture scenarios.make_two_point builds from them."""

    instance: LowerBoundInstance
    zeta0: GridFunction
    zeta_n: GridFunction
    pert: GridFunction
    l2_sq: float
    zeta_mass: float
    zeta_min: float


def build_two_point(instance: LowerBoundInstance, basis: WeightedBasis) -> TwoPoint:
    """Assemble zeta_0, zeta_n, the perturbation and ||f_0 - f_n||^2.

    zeta_0 smooths the normalized envelope-times-weight density; zeta_n adds
    alpha_n (P_K h^2) * u_b.  The perturbation has exactly zero grid mass
    (orthogonality of P_K to constants survives the trapezoid sum to float
    precision), so zeta_n keeps unit mass; nonnegativity is checked densely
    and a violation means alpha_n was too large.
    """
    xs = master_grid(basis.weight, instance.b_n)
    taps = _mollifier_taps(instance.b_n, _STEP)
    h = h_kappa_eval(basis.weight, xs)
    env_density = envelope_values(basis, xs) * h
    total = float(np.sum(env_density) * _STEP)
    if total <= 0:
        raise NumericalError("degenerate envelope density")
    env_density /= total
    zeta0_vals = grid_convolve(env_density, taps)
    ph2 = basis.eval_poly(instance.K_n, xs) * h * h
    pert_vals = grid_convolve(ph2, taps)
    zeta_n_vals = zeta0_vals + instance.alpha_n * pert_vals
    zmin = float(zeta_n_vals.min())
    if zmin < -1e-12:
        raise NumericalError(
            f"zeta_n dips to {zmin:.3e}: alpha_n={instance.alpha_n:.3e} too large"
        )
    zeta0 = GridFunction(xs=xs, values=zeta0_vals)
    zeta_n = GridFunction(xs=xs, values=zeta_n_vals)
    pert = GridFunction(xs=xs, values=pert_vals)
    mass = zeta_n.mass()
    if abs(mass - 1.0) > 1e-8:
        raise NumericalError(f"zeta_n mass {mass} deviates from 1 beyond 1e-8")
    det = abs(float(np.linalg.det(instance.matrix())))
    l2_sq = (instance.alpha_n**2 / det) * pert.l2_sq() * zeta0.l2_sq() ** (instance.d - 1)
    return TwoPoint(
        instance=instance, zeta0=zeta0, zeta_n=zeta_n, pert=pert,
        l2_sq=l2_sq, zeta_mass=mass, zeta_min=zmin,
    )


# ---------------------------------------------------------------------------
# compactly supported CF noise


@dataclass(frozen=True)
class NoisePack:
    """A noise law: scale c, density, CF and sampler.

    _kernel holds lecam_value's pushforward kernel on its w-grid, one
    read-only 2401 x 2401 float64 array (about 46 MB) keyed by (a, det), so
    repeated Le Cam values under one noise evaluate the density once per
    point.  The kernel is built in row blocks into its own buffer: the
    build peaks at the kernel plus one block's temporaries.
    """

    c: float
    density: Callable
    cf: Callable
    sampler: Callable
    _kernel: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def noise_g(c: float) -> NoisePack:
    """Noise with density 2 pi c (1 + cos(cx)) / (pi^2 - (cx)^2)^2.

    The normalizer is exact: the CF below is the Fourier transform of the
    density, and value-at-zero matching forces c_g = 2 pi c.  The CF is
    (1 - |t|/c) cos(pi t/c) + sin(pi |t|/c)/pi on [-c, c] and vanishes
    outside, so the noise has compactly supported spectrum.  The density's
    removable singularities at |x| = pi/c are evaluated by a stable
    half-angle form.
    """
    if c <= 0:
        raise ConfigError("c must be positive")
    c_g = 2.0 * math.pi * c

    def density(x):
        y = np.abs(np.asarray(x, dtype=np.float64)) * c
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (1.0 + np.cos(y)) / (math.pi**2 - y**2) ** 2
        eps = y - math.pi
        near = np.abs(eps) < 0.5
        es = eps[near]
        # 1 + cos(pi + e) = 2 sin^2(e/2); (pi^2 - y^2)^2 = e^2 (2pi + e)^2
        half = np.sinc(es / (2.0 * math.pi)) / 2.0
        out[near] = half**2 / (2.0 * math.pi + es) ** 2 * 2.0
        return c_g * out

    def cf(t):
        s = np.abs(np.asarray(t, dtype=np.float64)) / c
        inside = s <= 1.0
        vals = (1.0 - s) * np.cos(math.pi * s) + np.sin(math.pi * s) / math.pi
        return np.where(inside, vals, 0.0)

    # inverse-CDF table; cx out to 2000 keeps the two-sided tail below 1e-9
    xs = np.linspace(-2000.0 / c, 2000.0 / c, 2**16 + 1)
    sampler = inverse_cdf_sampler(xs, density(xs))
    return NoisePack(c=float(c), density=density, cf=cf, sampler=sampler)


# ---------------------------------------------------------------------------
# Le Cam two-point value


@dataclass(frozen=True)
class LeCamReport:
    value: float
    l2_sq: float
    l1_single: float
    n: int
    K_n: int
    alpha_n: float


def _noise_kernel(noise: NoisePack, a: float, det: float, w: np.ndarray) -> np.ndarray:
    """Pushforward of the product noise through A, a density on w x w.

    g(a w_i + w_j) is the transpose of M = g(w_i + a w_j) bit for bit, so
    one density evaluation per point builds det * g(w_i + a w_j) *
    g(a w_i + w_j).  The kernel is built in place, _KERNEL_BLOCK rows at a
    time: the first pass writes M's rows into the buffer, the second turns
    each pair of mirrored tiles M[s, t], M[t, s] into (det M[s, t]) M[t, s]^T
    and (det M[t, s]) M[s, t]^T.  The peak is the kernel plus one block's
    temporaries, and every element is the one-shot (det M) * M^T.
    """
    key = (a, det)
    QA = noise._kernel.get(key)
    if QA is None:
        n, b = w.shape[0], _KERNEL_BLOCK
        QA = np.empty((n, n))
        for s in range(0, n, b):
            QA[s:s + b] = noise.density(w[s:s + b, None] + a * w[None, :])
        for s in range(0, n, b):
            for t in range(s, n, b):
                st, ts = QA[s:s + b, t:t + b], QA[t:t + b, s:s + b]
                st[...], ts[...] = (det * st) * ts.T, (det * ts) * st.T
        QA.flags.writeable = False
        noise._kernel.clear()
        noise._kernel[key] = QA
    return QA


def _w_window(f: GridFunction, v_first: float, v_last: float, w: np.ndarray) -> slice:
    """The w columns (w increasing) where f(v - w) can be nonzero for some
    v in [v_first, v_last]."""
    f_lo, f_hi = f.support()
    return slice(np.searchsorted(w, v_first - f_hi, side="left"),
                 np.searchsorted(w, v_last - f_lo, side="right"))


def _lecam_grids() -> tuple:
    """lecam_value's (v, w): w on [-_W_HALF, _W_HALF] at _W_STEP, and v every
    r-th node of w on [-_V_HALF, _V_HALF], r = _V_STEP / _W_STEP, so that
    every v_i - w_k is a node difference of w.  Steps that are no whole
    multiple of each other are refused."""
    r = round(_V_STEP / _W_STEP)
    if r * _W_STEP != _V_STEP:
        raise ConfigError(f"the v step {_V_STEP} must be a whole multiple of the "
                          f"w step {_W_STEP}")
    w = np.arange(-_W_HALF, _W_HALF + _W_STEP / 2, _W_STEP)
    first = round((_W_HALF - _V_HALF) / _W_STEP)
    return w[first:w.shape[0] - first:r], w


def _support_windows(f: GridFunction, v: np.ndarray, w: np.ndarray):
    """Yield (rows, cols, F) per block of _V_BLOCK v rows, F = f(v[rows, None]
    - w[None, cols]) over the w window where f can be nonzero.

    v is every r-th node of w's lattice (r = _V_STEP / _W_STEP; w may be a
    contiguous slice of it), so v_i - w_k = u_m with m = r i + len(w) - 1 - k
    on one 1-D lattice u of r (len(v) - 1) + len(w) points.  f is evaluated
    once on u, and each block is gathered from windows of the reversed
    values into one contiguous copy: the same arguments as the pointwise
    f(v_i - w_k), not interpolated again per (v, w) pair.
    """
    r, n_v, n_w = round(_V_STEP / _W_STEP), v.shape[0], w.shape[0]
    u = (v[0] - w[-1]) + (v[1] - v[0]) / r * np.arange(r * (n_v - 1) + n_w)
    reversed_f = f(u)[::-1]  # f(v_i - w_k) is reversed_f[r (n_v - 1 - i) + k]
    for start in range(0, n_v, _V_BLOCK):
        rows = slice(start, min(start + _V_BLOCK, n_v))
        cols = _w_window(f, v[rows.start], v[rows.stop - 1], w)
        windows = np.lib.stride_tricks.sliding_window_view(reversed_f, cols.stop - cols.start)
        yield rows, cols, windows[r * (n_v - 1 - np.arange(rows.start, rows.stop)) + cols.start]


def _support_product(f: GridFunction, v: np.ndarray, w: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """f(v_i - w_k) @ right from one 1-D evaluation of f: block by block
    over the windows _support_windows gathers (r = _V_STEP / _W_STEP),
    skipping the w columns where f is zero."""
    out = np.empty((v.shape[0], right.shape[1]))
    for rows, cols, block in _support_windows(f, v, w):
        out[rows] = block @ right[cols]
    return out


def lecam_value(two_point: TwoPoint, noise: NoisePack, n: int) -> LeCamReport:
    """Testing-risk lower bound 0.25 ||f0 - fn||^2 (1 - L1/2)_+^n, with
    ||f0 - fn||^2 the two-point's closed-form l2_sq.

    L1 is the single-observation total variation distance between the two
    noise-convolved models, computed by factoring the convolution through
    the mixing matrix: with Delta(v) = alpha G(v_1) zeta0(v_2) ... the
    integrand is G-row times noise-kernel times zeta0-column, C2 =
    (G @ QA) @ Z^T on tensor grids.  The kernel is QA = det M * M^T with
    M = g(w_i + a w_j), one density evaluation per point, built in row
    blocks into its own buffer (peak: the kernel plus one block's
    temporaries), and is kept on the noise (NoisePack._kernel) for the
    next call with the same a.  The v grid is every r-th node of the w grid
    (r = _V_STEP / _W_STEP, refused unless whole), so every v_i - w_k lies
    on one 1-D lattice: each of G and Z is one 1-D evaluation of its grid
    function, and both products run one block of v rows at a time on
    windows gathered from it, over the w window where v - w lies in the
    function's support.  The first product computes only the columns of
    G @ QA that the second reads.
    n = 0 turns the bracket into 1 and is only a formula check.
    """
    inst = two_point.instance
    if inst.d != 2:
        raise ConfigError("the L1 reduction is implemented for d = 2")
    if n < 0:
        raise ConfigError("n must be >= 0")
    v, w = _lecam_grids()
    QA = _noise_kernel(noise, inst.a, abs(float(np.linalg.det(inst.matrix()))), w)
    # the second product reads only the w columns where some zeta0(v_i - w) > 0
    cols = _w_window(two_point.zeta0, v[0], v[-1], w)
    GQ = _support_product(two_point.pert, v, w, QA[:, cols])
    C2T = _support_product(two_point.zeta0, v, w[cols], GQ.T)  # Z @ (G @ QA)^T = C2^T
    l1 = float(inst.alpha_n * np.sum(np.abs(C2T)) * _W_STEP**2 * _V_STEP**2)
    if not np.isfinite(l1):
        raise NumericalError("L1 quadrature diverged")
    if n == 0:
        bracket = 1.0
    elif l1 >= 2.0:
        bracket = 0.0
    else:
        bracket = math.exp(n * math.log1p(-l1 / 2.0))
    return LeCamReport(
        value=0.25 * two_point.l2_sq * bracket,
        l2_sq=float(two_point.l2_sq),
        l1_single=l1,
        n=int(n),
        K_n=inst.K_n,
        alpha_n=inst.alpha_n,
    )
