"""Synthetic scenario generators with closed-form oracle CFs.

Three observation schemes over a latent signal: repeated measurements
(Y = (X + e1, X + e2)), nonlinear errors-in-variables (Y = (X + e1,
g(X) + e2)), and noisy linear mixtures (Y = A S + e).  Each scenario knows
how to sample itself reproducibly, expose the true joint CF of its signal
part together with the per-block noise CFs, and (when one exists) the true
signal density for L2 scoring.

Every oracle CF is a product of 1-D CFs at a linear image of its argument
(_product_cf), every tabulated density is a GridSource, and the
errors-in-variables CF integrates on the library's one Gauss-Legendre
rule, _util.legendre_rule.

Construction-time diagnostics reject degenerate scenarios: the joint CF
must pass a probe-grid non-nullity check on every first-block slice, and
each noise block's CF modulus must clear a floor on the working box.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ._util import (ConfigError, as_type, cos_sin, inverse_cdf_sampler, legendre_rule,
                    row_blocks, tensor_points, tensor_weights)
from .contrast import OracleModel, make_grid, poly_tables
from .ecf import RowStream, SampleSet
from .reconstruct import DensityGrid

# conjecture_lab is imported where an h_kappa or compact_bump source or
# g_density noise needs it, so scenarios without them never load it
if TYPE_CHECKING:
    from .conjecture_lab import GridFunction, NoisePack, TwoPoint

_PROBE_AXIS = np.array([-1.0, -0.7, -0.3, 0.0, 0.3, 0.7, 1.0])


def cubic_plus_x(x: np.ndarray) -> np.ndarray:
    """Default errors-in-variables link, one-to-one on all of R."""
    return x**3 + x


_LINKS = {"cubic_plus_x": cubic_plus_x, "identity": lambda x: x}


# ---------------------------------------------------------------------------
# 1-D building blocks


# signal kind -> its parameter names, in order
_SIGNAL_PARAMS = {
    "uniform": ("half_width",),
    "point_mass": ("location",),
    "compact_bump": ("half_width", "b"),
    "h_kappa": ("kappa", "x0"),
}


@dataclass(frozen=True)
class SignalSpec:
    """One-dimensional signal law with sampler, CF, and optional density.

    kind: uniform(half_width), point_mass(location), compact_bump
    (half_width, b) or h_kappa(kappa, x0).  Every parameter is stored as a
    float and must be finite, half_width, b and x0 positive, and kappa in
    (0, 1].  The h_kappa and compact_bump laws are tabulated on a grid
    (_grid_source).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SIGNAL_PARAMS:
            raise ConfigError(f"unknown signal kind {self.kind!r}")
        names = _SIGNAL_PARAMS[self.kind]
        params = as_type(self.params, tuple, f"{self.kind} signal params")
        if len(params) != len(names):
            raise ConfigError(f"{self.kind} signal needs params ({', '.join(names)}), "
                              f"got {len(params)} values")
        object.__setattr__(self, "params", tuple(
            as_type(v, float, f"{self.kind} signal {name}") for name, v in zip(names, params)))
        for name, value in zip(names, self.params):
            if not math.isfinite(value):
                raise ConfigError(f"{self.kind} signal {name} must be finite, got {value}")
            if name in ("half_width", "b", "x0") and not value > 0:
                raise ConfigError(f"{self.kind} signal {name} must be positive, got {value}")
        if self.kind == "h_kappa" and not 0 < self.params[0] <= 1:
            raise ConfigError(f"h_kappa signal kappa must be in (0, 1], got {self.params[0]}")

    def _grid_source(self) -> Optional["GridSource"]:
        """The h_kappa or compact_bump law as a density on a uniform grid;
        None for the other kinds."""
        if self.kind == "h_kappa":
            xs, values = _h_kappa_grid(*self.params)
        elif self.kind == "compact_bump":
            xs, values = _bump_uniform_density(*self.params)
        else:
            return None
        from .conjecture_lab import GridFunction

        return GridSource(GridFunction(xs, values))

    def sampler_parts(self) -> tuple:
        """Samplers (n, rng) -> n values whose sum is n draws of the law,
        each reading the stream after the one before: the box and then the
        bump for compact_bump, the law itself for every other kind."""
        if self.kind == "uniform":
            (w,) = self.params
            return (lambda n, rng: rng.uniform(-w, w, size=n),)
        if self.kind == "point_mass":
            (x0,) = self.params
            return (lambda n, rng: np.full(n, x0),)
        if self.kind == "compact_bump":
            from .conjecture_lab import mollifier_eval

            w, b = self.params
            xs = np.linspace(-1.0 / b, 1.0 / b, 4097)
            bump = inverse_cdf_sampler(xs, mollifier_eval(b, xs))
            return (lambda n, rng: rng.uniform(-w, w, size=n), bump)
        return self._grid_source().sampler_parts()

    def sampler(self) -> Callable:
        """Sampler (n, rng) -> n draws: the parts' draws, summed in order."""
        first, *rest = self.sampler_parts()
        if not rest:
            return first

        def draw(n, rng):
            out = first(n, rng)
            for part in rest:
                out += part(n, rng)
            return out

        return draw

    def cf(self) -> Callable:
        if self.kind == "uniform":
            (w,) = self.params
            return lambda t: np.sinc(w * np.asarray(t, dtype=np.float64) / math.pi).astype(
                np.complex128
            )
        if self.kind == "point_mass":
            (x0,) = self.params
            return lambda t: np.exp(1j * x0 * np.asarray(t, dtype=np.float64))
        if self.kind == "compact_bump":
            w, b = self.params
            bump_cf = _bump_cf(b)
            return lambda t: (
                np.sinc(w * np.asarray(t, dtype=np.float64) / math.pi) * bump_cf(t)
            ).astype(np.complex128)
        return self._grid_source().cf()

    def density(self) -> Optional[Callable]:
        if self.kind == "uniform":
            (w,) = self.params
            return lambda x: np.where(np.abs(np.asarray(x, dtype=np.float64)) <= w, 0.5 / w, 0.0)
        if self.kind == "h_kappa":
            from .conjecture_lab import WeightSpec, h_kappa_eval

            kappa, x0 = self.params
            spec = WeightSpec(kappa=kappa, x0=x0)
            return lambda x: h_kappa_eval(spec, x)
        if self.kind == "compact_bump":
            return self._grid_source().density()
        return None  # point mass has no density

    def norm_sq(self) -> Optional[float]:
        """Squared L2 norm of the density: 1/(2w) for the uniform, the sum
        over the tabulated grid for the others; None for the point mass."""
        if self.kind == "uniform":
            return 0.5 / self.params[0]
        grid = self._grid_source()
        return None if grid is None else grid.norm_sq()

    def support_halfwidth(self) -> float:
        if self.kind == "uniform":
            return self.params[0]
        if self.kind == "point_mass":
            return abs(self.params[0]) + 1e-9
        if self.kind == "compact_bump":
            return self.params[0] + 1.0 / self.params[1]
        from .conjecture_lab import WeightSpec

        kappa, x0 = self.params
        return WeightSpec(kappa=kappa, x0=x0).cutoff()


def _atoms_cf(xs: np.ndarray, weights: np.ndarray) -> Callable:
    """CF of the discrete measure with the given atoms and real weights, as
    cos(t x) @ w + i sin(t x) @ w over blocks of about 2^20 point-atom pairs."""
    block = max(1, 2**20 // len(xs))

    def cf(t):
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        out = np.empty(len(flat), dtype=np.complex128)
        for i in range(0, len(flat), block):
            cos, sin = cos_sin(flat[i : i + block], xs)
            out[i : i + block] = cos @ weights + 1j * (sin @ weights)
        return out.reshape(t.shape)

    return cf


@lru_cache(maxsize=8)
def _bump_cf(b: float) -> Callable:
    from .conjecture_lab import mollifier_rule

    return _atoms_cf(*mollifier_rule(b))


@lru_cache(maxsize=8)
def _h_kappa_grid(kappa: float, x0: float):
    from .conjecture_lab import WeightSpec, h_kappa_eval

    spec = WeightSpec(kappa=kappa, x0=x0)
    cut = spec.cutoff()
    xs = np.linspace(-cut, cut, 8193)
    return xs, h_kappa_eval(spec, xs)


@dataclass(frozen=True)
class GridSource:
    """One-dimensional source whose density is tabulated on a uniform grid,
    such as a two-point zeta; same interface as SignalSpec's."""

    grid: GridFunction

    def sampler(self) -> Callable:
        return inverse_cdf_sampler(self.grid.xs, np.clip(self.grid.values, 0.0, None))

    def sampler_parts(self) -> tuple:
        return (self.sampler(),)

    def cf(self) -> Callable:
        """CF of the tabulated density normalized to unit mass, as atoms."""
        g = self.grid
        return _atoms_cf(g.xs, g.values * g.step / g.mass())

    def density(self) -> Callable:
        return self.grid

    def norm_sq(self) -> float:
        return self.grid.l2_sq()


def _prefix_sums(values: np.ndarray) -> tuple:
    """Prefix sums of `values` (starting at 0) as a pair (total, error):
    the running float sum and the running sum of each step's rounding
    error (TwoSum), so total + error is exact to a few ulps and a
    difference of two large prefixes loses no digits."""
    total = np.concatenate([[0.0], np.cumsum(values)])
    before, after = total[:-1], total[1:]
    added = after - before
    error = np.cumsum((before - (after - added)) + (values - added))
    return total, np.concatenate([[0.0], error])


@lru_cache(maxsize=8)
def _bump_uniform_density(w: float, b: float):
    """Density of Uniform(-w, w) * u_b on a grid: the box averaged over each
    cell, convolved with the u_b taps.  The box is 1/(2w) on the cells
    inside it plus two fractional edge cells, so each value is 1/(2w) times
    a window sum of the taps (a difference of prefix sums) plus two edge
    terms: linear in the grid length."""
    from .conjecture_lab import _mollifier_taps

    step = min(w, 1.0 / b) / 256.0
    half = int(math.ceil((w + 1.0 / b + step) / step))
    xs = np.arange(-half, half + 1) * step
    # Uniform(-w, w) averaged over each cell [x - step/2, x + step/2], so the
    # grid has unit mass wherever w falls between nodes
    overlap = np.minimum(xs + step / 2, w) - np.maximum(xs - step / 2, -w)
    uni = np.clip(overlap, 0.0, None) / (2.0 * w * step)
    taps = _mollifier_taps(b, step)
    first, last = np.flatnonzero(uni)[[0, -1]]
    # value i sums uni[j] taps[k - j] with k = i + (half-length of the taps)
    k = np.arange(xs.shape[0]) + (taps.shape[0] - 1) // 2
    lo, hi = (np.clip(k - j, 0, taps.shape[0]) for j in (last - 1, first))
    total, error = _prefix_sums(taps)
    window = (total[hi] - total[lo]) + (error[hi] - error[lo])
    padded = np.concatenate([[0.0], taps, [0.0]])
    edges = sum(uni[j] * padded[np.clip(k - j, -1, taps.shape[0]) + 1] for j in (first, last))
    return xs, (window / (2.0 * w) + edges) * step


@dataclass(frozen=True)
class AxisNoise:
    """One noise coordinate: kind in {g_density, uniform, laplace,
    point_mass, gaussian}, with its scalar parameter, stored as a float:
    finite, and positive except for point_mass.  All kinds are symmetric so the block is
    mean-zero by construction."""

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in ("g_density", "uniform", "laplace", "point_mass", "gaussian"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "param", as_type(self.param, float, f"{self.kind} noise param"))
        if not math.isfinite(self.param):
            raise ConfigError(f"{self.kind} noise param must be finite, got {self.param}")
        if self.kind != "point_mass" and self.param <= 0:
            raise ConfigError(f"{self.kind} noise param must be positive, got {self.param}")

    def cf(self) -> Callable:
        if self.kind == "g_density":
            return _g_pack(self.param).cf
        if self.kind == "uniform":
            w = self.param
            return lambda t: np.sinc(w * np.asarray(t, dtype=np.float64) / math.pi)
        if self.kind == "laplace":
            s = self.param
            return lambda t: 1.0 / (1.0 + (s * np.asarray(t, dtype=np.float64)) ** 2)
        if self.kind == "gaussian":
            s = self.param
            return lambda t: np.exp(-0.5 * (s * np.asarray(t, dtype=np.float64)) ** 2)
        return lambda t: np.ones_like(np.asarray(t, dtype=np.float64))

    def draw(self, n: int, rng) -> np.ndarray:
        if self.kind == "g_density":
            return _g_pack(self.param).sampler(n, rng)
        if self.kind == "uniform":
            return rng.uniform(-self.param, self.param, size=n)
        if self.kind == "laplace":
            return rng.laplace(0.0, self.param, size=n)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.param, size=n)
        return np.zeros(n)


@lru_cache(maxsize=8)
def _g_pack(c: float) -> NoisePack:
    from .conjecture_lab import noise_g

    return noise_g(c)


def _product_cf(cfs: Sequence[Callable], project: Callable) -> Callable:
    """CF on points t of shape (n, d) of a vector whose coordinates are
    independent 1-D laws: the product over j of cfs[j] at column j of
    project(t).  project is the identity for a noise block, t @ A for a
    mixture A S, and the sum of the two blocks for repeated measurements."""

    def phi(t):
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        args = project(t)
        out = np.ones(t.shape[0], dtype=np.complex128)
        for j, cf in enumerate(cfs):
            out = out * cf(args[:, j])
        return out

    return phi


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class ScenarioSpec:
    """A fully specified observation scheme with oracle evaluators.

    Built through the make_* factories, which run the construction
    diagnostics (probe-grid CF non-nullity per first-block slice, noise CF
    floor on the working box) and reject failing configurations.
    """

    variant: str
    d1: int
    d2: int
    signal: Optional[SignalSpec]
    noise1: tuple
    noise2: tuple
    link_name: Optional[str] = None
    sources: Optional[tuple] = None
    mixing: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def sample(self, n: int, seed: int) -> SampleSet:
        """Reproducible draw: the blocks of `stream(n, seed)` gathered into
        one (n, d) float64 matrix, so the peak is the matrix plus one
        block's temporaries."""
        stream = self.stream(n, seed)
        data, blocks = np.empty((stream.n, self.d)), stream.blocks()
        for rows in row_blocks(stream.n):
            data[rows] = next(blocks)  # no block is held while the next is made
        return SampleSet(d1=self.d1, d2=self.d2, data=data)

    def stream(self, n: int, seed: int) -> RowStream:
        """The sample of `sample(n, seed)` as a row source made one row
        block (`_util.row_blocks`) at a time; each reading draws it afresh.

        The master seed splits into one stream for the signal and one per
        noise block, and each stream's draws are n-draw segments read in
        order: a source's or signal column's sampler parts (a compact_bump's
        box, then its bump), then each noise axis of the block
        (`_segments`).  A block holds each column's draws, a mixture's
        product `block @ A.T`, link(x), and each noise axis's draws added to
        its column, so it has the bits of those rows of the unblocked
        construction.  Each block is checked to be finite.
        """
        n, seed = as_type(n, int, "n"), as_type(seed, int, "seed")
        if n < 1 or seed < 0:
            raise ConfigError(f"need n >= 1 and seed >= 0, got n={n}, seed={seed}")
        if self.sources is None and self.variant not in ("repeated", "eiv"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        return RowStream(self.d1, self.d2, n, lambda: self._blocks(n, seed))

    def _blocks(self, n: int, seed: int):
        sig_ss, *noise_ss = np.random.SeedSequence(seed).spawn(3)
        if self.sources is not None:
            columns = [_segments(ss, src.sampler_parts(), n) for src, ss in
                       zip(self.sources, sig_ss.spawn(len(self.sources)))]
        else:
            # d1 signal columns for repeated measurements, one for eiv
            parts = self.signal.sampler_parts()
            segments = _segments(sig_ss, parts * self.d1, n)
            columns = [segments[j : j + len(parts)] for j in range(0, len(segments), len(parts))]
        noise = [(offset, _segments(ss, [axis.draw for axis in axes], n)) for offset, axes, ss
                 in zip((0, self.d1), (self.noise1, self.noise2), noise_ss)]
        for rows in row_blocks(n):
            size = rows.stop - rows.start
            block = np.empty((size, self.d))
            for j, segments in enumerate(columns):
                _draw_into(block[:, j], segments, size)
            if self.sources is not None:
                block = block @ self.mixing.T
            elif self.variant == "repeated":
                block[:, self.d1 :] = block[:, : self.d1]
            else:
                # a contiguous x, as the whole-column call had
                block[:, 1] = _LINKS[self.link_name](np.ascontiguousarray(block[:, 0]))
            for offset, segments in noise:
                for j, segment in enumerate(segments):
                    _draw_into(block[:, offset + j], [segment], size, add=True)
            if not np.isfinite(block).all():
                raise ConfigError("sample contains non-finite values")
            yield block

    def signal_cf(self) -> Callable:
        """Joint CF of the signal part R on points of shape (n, d)."""
        if self.sources is not None:
            A = self.mixing
            return _product_cf([src.cf() for src in self.sources], lambda t: t @ A)
        if self.variant == "repeated":
            d1 = self.d1
            return _product_cf([self.signal.cf()] * d1, lambda t: t[:, :d1] + t[:, d1:])
        return _eiv_cf(self.signal, _LINKS[self.link_name])

    def oracle(self):
        phi_Q1, phi_Q2 = (_product_cf([axis.cf() for axis in axes], lambda t: t)
                          for axes in (self.noise1, self.noise2))
        return OracleModel(phi_R=self.signal_cf(), phi_Q1=phi_Q1, phi_Q2=phi_Q2)

    def true_density(self) -> Optional[Callable]:
        """Joint density of R for a mixture of sources with densities; None
        otherwise (the repeated and eiv joint laws are singular)."""
        if self.sources is not None:
            dens = [src.density() for src in self.sources]
            if any(f is None for f in dens):
                return None
            A_inv = np.linalg.inv(self.mixing)
            det = abs(float(np.linalg.det(self.mixing)))

            def f(x):
                x = np.atleast_2d(np.asarray(x, dtype=np.float64))
                s = x @ A_inv.T
                out = np.full(x.shape[0], 1.0 / det)
                for j, fj in enumerate(dens):
                    out = out * fj(s[:, j])
                return out

            return f
        return None

    def density_norm_sq(self) -> Optional[float]:
        """Squared L2 norm of true_density(), prod_j ||f_j||^2 / |det A| for
        a mixture; None wherever true_density() is None."""
        if self.sources is None:
            return None
        norms = [src.norm_sq() for src in self.sources]
        if any(v is None for v in norms):
            return None
        return math.prod(norms) / abs(float(np.linalg.det(self.mixing)))

    def density_truth(self) -> Optional["DensityTruth"]:
        """The signal CF and density norm that translation_align scores
        against; None wherever true_density() is None."""
        norm_sq = self.density_norm_sq()
        return None if norm_sq is None else DensityTruth(self.signal_cf(), norm_sq)


def _segments(ss, parts, n: int) -> list:
    """(sampler, Generator) per part of one stream whose n-draw parts are
    read in order, each Generator placed where its part's draws begin: a
    later part's is the stream after the earlier parts' draws, made by
    drawing and discarding them one row block at a time (a sampler may use
    more than one raw draw per value, so no fixed advance would do)."""
    rng, out = np.random.default_rng(ss), []
    for part in parts[:-1]:
        out.append((part, copy.deepcopy(rng)))
        for rows in row_blocks(n):
            part(rows.stop - rows.start, rng)
    return out + [(parts[-1], rng)]


def _draw_into(column: np.ndarray, segments, size: int, add: bool = False) -> None:
    """Write into `column`, a block's (size,) view, the sum of the
    segments' next `size` draws (or add it, with `add`); each later
    segment is added in place, as `SignalSpec.sampler` adds it."""
    for part, rng in segments:
        if add:
            column += part(size, rng)
        else:
            column[:] = part(size, rng)
        add = True


def _eiv_cf(signal: SignalSpec, link: Callable) -> Callable:
    dens = signal.density()
    if dens is None:
        if signal.kind == "point_mass":
            (x0,) = signal.params
            return lambda t: np.exp(
                1j
                * (
                    np.atleast_2d(t)[:, 0] * x0
                    + np.atleast_2d(t)[:, 1] * float(link(np.asarray([x0]))[0])
                )
            )
        raise ConfigError("errors-in-variables oracle CF needs a signal density")
    half = signal.support_halfwidth()
    base_x, base_w = legendre_rule(160)
    xs = half * base_x
    ws = half * base_w * dens(xs)
    gxs = link(xs)

    def phi(t):
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        phase = np.exp(1j * (t[:, :1] * xs + t[:, 1:2] * gxs))
        return phase @ ws.astype(np.complex128)

    return phi


# ---------------------------------------------------------------------------
# construction diagnostics and factories


def _h2_probe(phi: Callable, d1: int, d2: int) -> float:
    """min over probe z1 of max over probe z2 of |Phi_R(z1, z2)|."""
    moduli = np.abs(phi(tensor_points([_PROBE_AXIS] * (d1 + d2))))
    return float(np.min(np.max(moduli.reshape(-1, len(_PROBE_AXIS) ** d2), axis=1)))


def _noise_floor(axes: tuple, nu: float) -> float:
    """min over the box of |block CF| = product of per-axis minima."""
    grid = np.linspace(-nu, nu, 81)
    out = 1.0
    for axis in axes:
        out *= float(np.min(np.abs(axis.cf()(grid))))
    return out


def _validate(spec: ScenarioSpec, nu: float, c_nu: float) -> ScenarioSpec:
    h2 = _h2_probe(spec.signal_cf(), spec.d1, spec.d2)
    if not math.isfinite(h2):
        raise ConfigError(f"scenario rejected: joint CF probe is {h2}, not finite")
    if not (h2 > 1e-12):
        raise ConfigError("scenario rejected: joint CF vanishes on a probe slice")
    floors = (_noise_floor(spec.noise1, nu), _noise_floor(spec.noise2, nu))
    if not all(map(math.isfinite, floors)):
        raise ConfigError(f"scenario rejected: noise CF floors {floors} are not all finite")
    if min(floors) < c_nu:
        raise ConfigError(
            f"scenario rejected: noise CF floor {min(floors):.3e} below c_nu={c_nu}"
        )
    spec.diagnostics = {
        "h2_probe_min": h2,
        "noise_cf_floor_1": floors[0],
        "noise_cf_floor_2": floors[1],
        "nu": nu,
        "c_nu": c_nu,
    }
    return spec


def _as_axes(noise, d: int) -> tuple:
    if isinstance(noise, AxisNoise):
        return tuple([noise] * d)
    noise = tuple(noise)
    if len(noise) != d:
        raise ConfigError(f"need {d} per-axis noise entries, got {len(noise)}")
    return noise


def make_repeated(signal: SignalSpec, noise1, noise2, d1: int = 1,
                  nu: float = 1.0, c_nu: float = 1e-3) -> ScenarioSpec:
    """Two noisy copies of the same d1-dimensional signal (iid coordinates)."""
    d1 = as_type(d1, int, "d1")
    spec = ScenarioSpec(
        variant="repeated", d1=d1, d2=d1, signal=signal,
        noise1=_as_axes(noise1, d1), noise2=_as_axes(noise2, d1),
    )
    return _validate(spec, nu, c_nu)


def make_eiv(signal: SignalSpec, noise1, noise2, link: str = "cubic_plus_x",
             nu: float = 1.0, c_nu: float = 1e-3) -> ScenarioSpec:
    """Noisy (X, g(X)) pair; the link must be one-to-one where the signal lives."""
    if link not in _LINKS:
        raise ConfigError(f"unknown link {link!r}; register it in scenarios._LINKS")
    spec = ScenarioSpec(
        variant="eiv", d1=1, d2=1, signal=signal,
        noise1=_as_axes(noise1, 1), noise2=_as_axes(noise2, 1),
        link_name=link,
    )
    return _validate(spec, nu, c_nu)


def make_ica(sources: Sequence[SignalSpec], mixing: np.ndarray, noise1, noise2,
             d1: int, nu: float = 1.0, c_nu: float = 1e-3) -> ScenarioSpec:
    """Noisy linear mixture Y = A S + e with independent 1-D sources."""
    A = np.asarray(mixing, dtype=np.float64)
    d = len(sources)
    if A.shape != (d, d):
        raise ConfigError(f"mixing matrix must be {d}x{d}")
    if not np.all(np.isfinite(A)):
        raise ConfigError("mixing matrix must be finite")
    d1 = as_type(d1, int, "d1")
    if not (1 <= d1 < d):
        raise ConfigError("need 1 <= d1 < d")
    d2 = d - d1
    if np.any(np.all(A[:d1] == 0, axis=0)) or np.any(np.all(A[d1:] == 0, axis=0)):
        raise ConfigError("every source must load on both observation blocks")
    if abs(np.linalg.det(A)) < 1e-12:
        raise ConfigError("mixing matrix is singular")
    spec = ScenarioSpec(
        variant="ica", d1=d1, d2=d2, signal=None,
        noise1=_as_axes(noise1, d1), noise2=_as_axes(noise2, d2),
        sources=tuple(sources), mixing=A,
    )
    return _validate(spec, nu, c_nu)


def make_two_point(two_point: TwoPoint, noise1, noise2, perturbed: bool = False,
                   nu: float = 1.0, c_nu: float = 1e-3) -> ScenarioSpec:
    """Noisy mixture Y = A S + e whose signal is one of the two-point
    densities: A is the instance's matrix, S_1 has density zeta_n (perturbed)
    or zeta_0 and every other source zeta_0.  Unlike make_ica, no source
    needs to load on both blocks."""
    inst = two_point.instance
    first = two_point.zeta_n if perturbed else two_point.zeta0
    spec = ScenarioSpec(
        variant="two_point", d1=inst.d1, d2=inst.d2, signal=None,
        noise1=_as_axes(noise1, inst.d1), noise2=_as_axes(noise2, inst.d2),
        sources=(GridSource(first),) + (GridSource(two_point.zeta0),) * (inst.d - 1),
        mixing=inst.matrix(),
    )
    return _validate(spec, nu, c_nu)


# ---------------------------------------------------------------------------
# translation alignment


@dataclass(frozen=True)
class DensityTruth:
    """A signal density known by its CF (on points of shape (n, d)) and its
    squared L2 norm: all that an exact L2 distance to a spectral estimate
    needs."""

    cf: Callable
    norm_sq: float


# Gauss-Legendre nodes per axis of the inversion box: doubling them moves
# the distance by less than 1e-10 up to omega = 3 (tests/test_scenarios.py)
_BOX_NODES = 16
# points per truth-CF call, which bounds an atom-sum CF's temporary array
_CF_CHUNK = 1024


class _ShiftedL2:
    """Exact L2(R^d) distance between a spectral estimate and the truth
    shifted by a, for any a.

    The estimate is the inverse Fourier transform of phi_hat on the box
    [-omega, omega]^d, so by Plancherel

        ||f_hat - f(. - a)||^2 = ||f||^2 + (2 pi)^-d (int_box |phi_hat|^2
                                 - 2 Re int_box phi_hat conj(phi) e^{-i t.a} dt),

    which is the same as (2 pi)^-d (int_box |phi_hat e^{-i t.a} - phi|^2
    + int_outside |phi|^2).  The box integrals run on a tensor
    Gauss-Legendre rule; the shift enters only through
    F(a) = Re sum_t z(t) e^{-i t.a} with z = w phi_hat conj(phi), and the
    phase factors per axis, so F, its gradient and F on a whole shift grid
    contract one axis at a time.
    """

    def __init__(self, estimate: DensityGrid, truth: DensityTruth):
        if estimate.spectrum is None:
            raise ConfigError("the L2 distance to the truth needs an estimate with a spectrum")
        poly, omega = estimate.spectrum
        grid = make_grid(omega, poly.dims, _BOX_NODES)
        shape = (_BOX_NODES,) * poly.d
        pts = tensor_points([grid.axis_nodes] * poly.d)
        ref = np.concatenate([np.asarray(truth.cf(pts[i:i + _CF_CHUNK]), dtype=np.complex128)
                              for i in range(0, pts.shape[0], _CF_CHUNK)])
        est = poly_tables(poly, grid)[0].reshape(-1)
        w = tensor_weights(grid.axis_weights, poly.d)
        self.nodes, self.omega = grid.axis_nodes, float(omega)
        self.z = (w * est * np.conj(ref)).reshape(shape)
        self.f_scale = max(float(np.sum(np.abs(self.z))), np.finfo(float).tiny)
        self.inv = (2.0 * math.pi) ** -poly.d
        self.const = truth.norm_sq + self.inv * float(w @ np.abs(est) ** 2)

    def _contract(self, vectors) -> np.ndarray:
        """z contracted with one vector (or (N, K) matrix) per axis."""
        out = self.z
        for v in vectors:
            out = np.tensordot(out, v, axes=([0], [0]))
        return out

    def error(self, a) -> float:
        f = self._contract(np.exp(-1j * np.outer(a, self.nodes))).real
        return math.sqrt(max(self.const - 2.0 * self.inv * float(f), 0.0))

    def neg_f(self, b):
        """-F(a) / sum |z| at a = b / omega, and its gradient in b: F in
        units where the curvature is of order 1 whatever omega is."""
        phases = np.exp(-1j * np.outer(b / self.omega, self.nodes))
        f = self._contract(phases).real
        grad = np.empty(len(b))
        for k in range(len(b)):
            swapped = phases.copy()
            swapped[k] *= -1j * self.nodes / self.omega
            grad[k] = self._contract(swapped).real
        return -f / self.f_scale, -grad / self.f_scale

    def coarse(self, axis: np.ndarray) -> np.ndarray:
        """F on the tensor grid of `axis` in every coordinate, contracting
        one axis at a time with an (N, K) phase matrix for N nodes and K
        shifts, so no N^d x K^d array is formed."""
        phases = np.exp(-1j * np.outer(self.nodes, axis))
        return self._contract([phases] * self.z.ndim).real


def truth_l2(estimate: DensityGrid, truth: DensityTruth) -> float:
    """Exact L2(R^d) distance between a spectral estimate and the truth."""
    problem = _ShiftedL2(estimate, truth)
    return problem.error(np.zeros(problem.z.ndim))


def translation_align(estimate: DensityGrid, truth: DensityTruth,
                      shift_window: float, step: float):
    """The shift a minimizing the exact L2 distance ||f_hat - f(. - a)||.

    The search starts from the best point of the shift grid of half-width
    shift_window and spacing step in every coordinate, refines it with
    BFGS on the exact gradient, and keeps the best of the distances at 0,
    the start and the refined shift, so the aligned error never exceeds the
    raw one (truth_l2).  Returns (best_shift, aligned_error).
    """
    from scipy.optimize import minimize

    if shift_window < step or step <= 0:
        raise ConfigError("need shift_window >= step > 0")
    problem = _ShiftedL2(estimate, truth)
    d = problem.z.ndim
    n_steps = int(math.floor(shift_window / step + 1e-9))
    axis = np.arange(-n_steps, n_steps + 1) * step
    coarse = problem.coarse(axis)
    start = axis[np.array(np.unravel_index(int(np.argmax(coarse)), coarse.shape))]
    refined = minimize(problem.neg_f, start * problem.omega, jac=True, method="BFGS",
                       options={"gtol": 1e-12}).x / problem.omega
    candidates = [np.zeros(d), start, refined]
    errors = [problem.error(a) for a in candidates]
    best = int(np.argmin(errors))
    return tuple(float(s) for s in candidates[best]), errors[best]
