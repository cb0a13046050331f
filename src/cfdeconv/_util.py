"""Small shared helpers: error types, config conversion, row blocks,
deterministic reduction and elementary functions, the Gauss-Legendre
rule, tensor lattices, inverse-CDF sampling, hashing, numeric CSV
writing, and a one-thread hold on the OpenBLAS pools."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import threading

import numpy as np

# chunk length for streaming passes over samples; fixed so that reduction
# order (and therefore output bytes) never depends on memory pressure
CHUNK = 1024

# rows per block of a pass that writes, checks or converts a whole sample, so
# the pass holds the (n, d) matrix plus one block's temporaries
ROW_BLOCK = 1 << 14


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def as_type(value, kind, key: str):
    """kind(value), with a failed conversion raised as a ConfigError naming key;
    a str, bytes or dict is no list or tuple ("48" is not [4, 8]), and a
    bool is no int or float, and a fraction, NaN or an infinity is no int (a
    numeric string is)."""
    try:
        if (kind in (list, tuple) and isinstance(value, (str, bytes, dict))
                or kind in (int, float) and isinstance(value, (bool, np.bool_))):
            raise TypeError(value)
        converted = kind(value)
        if kind is int and not isinstance(value, (str, bytes)) and converted != value:
            raise TypeError(value)
        return converted
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}") from None


def check_instance(value, kind, key: str):
    """value, refused with a ConfigError naming key and kind unless it is a kind."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def row_blocks(n: int) -> list:
    """Slices of ROW_BLOCK consecutive rows covering range(n), with a one-row
    remainder joined to the block before it: numpy multiplies a one-row
    matrix by gemv, whose bits differ from gemm's, so a blocked product of
    at least two rows has the whole product's bits."""
    edges = list(range(0, n, ROW_BLOCK)) + [n]
    if len(edges) > 2 and n - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class PairwiseAccumulator:
    """Streaming pairwise (tree) summation of equal-shaped arrays.

    Partial sums are merged only between equal tree levels, so the float
    rounding pattern is a function of the number of blocks alone.  `stack`
    holds the (level, partial sum) pairs, levels decreasing.  Every partial
    sum lives in a buffer the accumulator owns: a merge adds into the older
    sum's buffer in place and drops the newer one, and an added block is
    only read, so a tree of depth k keeps at most k + 1 buffers alive.
    """

    def __init__(self):
        self.stack = []

    def add(self, block):
        """Add a block."""
        block = np.asarray(block)
        if self.stack and self.stack[-1][0] == 0:
            _, acc = self.stack.pop()
            self._push(np.add(acc, block, out=acc), 1)
        else:
            self.stack.append((0, block.copy()))

    def absorb(self, other: "PairwiseAccumulator"):
        """Add the partial sums of `other`, taking over its buffers; `other`
        is left empty."""
        stack, other.stack = other.stack, []
        for level, own in stack:
            self._push(own, level)

    def _push(self, own, level):
        while self.stack and self.stack[-1][0] == level:
            _, acc = self.stack.pop()
            own, level = np.add(acc, own, out=acc), level + 1
        self.stack.append((level, own))

    def total(self):
        """The sum of every block added: the partial sums added in stack
        order into the oldest one's buffer, which passes to the caller; the
        accumulator is left empty."""
        if not self.stack:
            raise ValueError("no blocks accumulated")
        (_, acc), *rest = self.stack
        for _, arr in rest:
            acc += arr
        self.stack = []
        return acc


# Fixed-operation exp/log.  numpy's float64 exp/power give different last
# bits depending on the SIMD target it dispatches to (and libm differs
# between builds), so values that must be byte-stable everywhere use these
# kernels instead.  They are built only from + - * /, rint, frexp and ldexp,
# each exact or correctly rounded under IEEE-754, so the result is a
# function of the input bits alone.  Both stay within 1 ulp of the true
# value on the ranges the weight family uses.

_INV_LN2 = float.fromhex("0x1.71547652b82fep0")
# ln 2 split so that n * _LN2_HI is exact for |n| < 2^21 (Cody-Waite)
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_SQRT_HALF = float.fromhex("0x1.6a09e667f3bcdp-1")
# Taylor coefficients, highest order first; the truncation error is below
# 0.05 ulp on the reduced ranges |r| <= ln2/2 and |s| <= 3 - 2 sqrt(2)
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13, 1, -1))
_ATANH_TAYLOR = tuple(2.0 / (2 * k + 1) for k in range(10, 0, -1))


def _horner(coeffs, t):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * t + c
    return acc


def det_exp(x) -> np.ndarray:
    """exp(x) whose bits do not depend on the CPU, numpy build or libm.

    x = n ln2 + r with |r| <= ln2/2, exp(r) by a fixed Taylor polynomial,
    then an exact scaling by 2^n.  Overflows to inf and underflows to 0
    like np.exp.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -800.0, 800.0)
    n = np.rint(x * _INV_LN2)
    r = (x - n * _LN2_HI) - n * _LN2_LO
    y = 1.0 + (r + r * r * _horner(_EXP_TAYLOR, r))
    return np.ldexp(y, np.nan_to_num(n).astype(np.int64))


def det_log(x) -> np.ndarray:
    """Natural log whose bits do not depend on the CPU, numpy build or libm.

    x = 2^e (1 + f) with sqrt(1/2) <= 1 + f < sqrt(2); log(1 + f) is
    2 atanh(f / (2 + f)) by a fixed series in s^2, arranged so that f is
    added last.  Zero, negative, infinite and nan inputs give np.log's
    values (which are exact).
    """
    x = np.asarray(x, dtype=np.float64)
    ok = np.isfinite(x) & (x > 0)
    m, e = np.frexp(np.where(ok, x, 1.0))
    low = m < _SQRT_HALF
    m = np.where(low, 2.0 * m, m)
    e = (e - low).astype(np.float64)
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    tail = z * _horner(_ATANH_TAYLOR, z)
    hfsq = 0.5 * f * f
    out = e * _LN2_HI - ((hfsq - (s * (hfsq + tail) + e * _LN2_LO)) - f)
    return np.where(ok, out, np.log(np.where(ok, 1.0, x)))


def det_pow(base, exponent) -> np.ndarray:
    """base ** exponent for base > 0 as det_exp(exponent * det_log(base))."""
    return det_exp(exponent * det_log(base))


def cos_sin(x, y, out=None):
    """cos and sin of the outer product of the 1-D arrays x and y from one
    tangent of the half angle: h = tan(x y / 2), cos = (1 - h^2) / (1 + h^2),
    sin = 2h / (1 + h^2).  On x86-64 numpy 2.4's float64 tan is about 2.5x
    faster per value than its cos or sin; both results stay within 2.2e-16
    of libm's, and no double is near enough an odd multiple of pi for h^2
    to overflow.  `out`, a pair of (len(x), len(y)) arrays, receives cos
    and sin; the bits are the same either way."""
    cos, sin = np.empty((2, len(x), len(y))) if out is None else out
    np.tan(np.multiply.outer(x, 0.5 * y, out=sin), out=sin)
    q = sin * sin
    np.subtract(1.0, q, out=cos)
    q += 1.0
    cos /= q
    sin += sin
    sin /= q
    return cos, sin


@functools.lru_cache(maxsize=32)
def legendre_rule(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached:
    the library's one call to leggauss, whose eigensolve costs more than
    the rest of a small grid (translation_align builds one grid per call).
    Callers ask for 12 to 160 nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def tensor_points(axes) -> np.ndarray:
    """All points of the tensor lattice of the 1-D `axes`, shape (N, len(axes)),
    in C order (the last axis varies fastest)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def tensor_weights(axis_weights, d: int) -> np.ndarray:
    """Product weights of d copies of one axis rule, in tensor_points order."""
    w = np.ones(1)
    for _ in range(d):
        w = np.outer(w, axis_weights).reshape(-1)
    return w


def inverse_cdf_sampler(xs, dens):
    """Sampler (n, rng) -> n draws from the density tabulated as dens on the
    increasing nodes xs: a trapezoid CDF normalized to 1, inverted by linear
    interpolation of one uniform per draw."""
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
    cdf /= cdf[-1]
    return lambda n, rng: np.interp(rng.random(n), cdf, xs)


def content_hash(*parts) -> str:
    """Stable sha256 over arrays, strings, numbers, and nested tuples."""
    h = hashlib.sha256()
    for part in _flatten(parts):
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        elif isinstance(part, (bytes, bytearray)):
            h.update(bytes(part))
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _flatten(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _flatten(item)
    else:
        yield obj


def fmt17(x) -> str:
    """Float to text with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def write_csv(path, header, blocks) -> None:
    """The header, then the rows of each matrix of `blocks` in fmt17's text,
    one np.savetxt call per matrix; lines end in \r\n, as the csv module's
    do, on every platform (newline="")."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for matrix in blocks:
            np.savetxt(fh, matrix, fmt="%.17g", delimiter=",", newline="\r\n")


def _extension_file(package: str, *names: str):
    """Path of the first compiled extension among `names` ("a/b" is module
    b of subpackage a) under `package`'s directory, found without importing
    anything from the package; None if there is none."""
    spec = importlib.util.find_spec(package)
    for root in (spec.submodule_search_locations if spec else None) or ():
        for name in names:
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(root, *name.split("/")) + suffix
                if os.path.isfile(path):
                    return path
    return None


@functools.cache
def blas_setters() -> tuple:
    """OpenBLAS's `openblas_set_num_threads_local`, which returns the prior
    count, for each distinct pool: numpy's and the one scipy's L-BFGS-B
    links (dlsym on an extension finds the OpenBLAS it links).  Both
    extensions are loaded by file (numpy's under `_core`, or `core` before
    numpy 2), so finding the setters imports no scipy module.  A setter
    that does not resolve (MKL, Accelerate, OpenBLAS < 0.3.27) is left out,
    and one library shared by both appears once."""
    found = {}
    for path in filter(None, (
            _extension_file("numpy", "_core/_multiarray_umath", "core/_multiarray_umath"),
            _extension_file("scipy", "optimize/_lbfgsb"))):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        found.setdefault(ctypes.cast(setter, ctypes.c_void_p).value, setter)
    return tuple(found.values())


_hold_lock, _hold = threading.Lock(), [0, ()]  # holders, counts to restore


@contextlib.contextmanager
def one_blas_thread():
    """Hold every OpenBLAS pool of `blas_setters` at one thread while the
    block runs.  A product's last bits depend on its pool's thread count,
    so under the hold they are those of one thread whatever the core count
    or OPENBLAS_NUM_THREADS.  The setters act on the whole process, so
    concurrent holders share one hold: the first sets 1, the last restores
    the counts the first found."""
    setters = blas_setters()
    with _hold_lock:
        if _hold[0] == 0:
            _hold[1] = tuple(setter(1) for setter in setters)
        _hold[0] += 1
    try:
        yield
    finally:
        with _hold_lock:
            _hold[0] -= 1
            if _hold[0] == 0:
                for setter, count in zip(setters, _hold[1]):
                    setter(count)
