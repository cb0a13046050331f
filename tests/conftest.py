"""Shared fixtures: canonical scenario, quadrature grids, basis caches."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cfdeconv import (
    _util,
    AxisNoise,
    SignalSpec,
    WeightSpec,
    build_weighted_basis,
    ecf_table_for_grid,
    make_grid,
    make_repeated,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# hypothesis draws the same bounded set of examples on every run, with no
# per-example deadline and no example database on disk
settings.register_profile("cfdeconv", derandomize=True, max_examples=20, deadline=None,
                          database=None)
settings.load_profile("cfdeconv")


@pytest.fixture
def blas_pools():
    """Every OpenBLAS pool of `_util.blas_setters` at 2 threads for the
    test, then as it was; yields a reader of their thread counts (each read
    by setting it and setting it back)."""
    setters = _util.blas_setters()
    if not setters:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local")

    def read():
        counts = tuple(setter(1) for setter in setters)
        for setter, count in zip(setters, counts):
            setter(count)
        return counts

    prior = [setter(2) for setter in setters]
    try:
        if read() != (2,) * len(setters):
            pytest.skip(f"OpenBLAS keeps {read()} threads when asked for 2")
        yield read
    finally:
        for setter, count in zip(setters, prior):
            setter(count)


@pytest.fixture(scope="session")
def uniform_repeated():
    """Uniform(-1,1) signal observed twice under cosine-kernel noise."""
    return make_repeated(
        SignalSpec("uniform", (1.0,)),
        AxisNoise("g_density", 2.0),
        AxisNoise("g_density", 2.0),
    )


@pytest.fixture(scope="session")
def pointmass_repeated():
    return make_repeated(
        SignalSpec("point_mass", (0.0,)),
        AxisNoise("point_mass", 0.0),
        AxisNoise("point_mass", 0.0),
    )


@pytest.fixture(scope="session")
def grid48():
    return make_grid(1.0, (1, 1), 48)


@pytest.fixture(scope="session")
def grid24():
    return make_grid(1.0, (1, 1), 24)


@pytest.fixture(scope="session")
def ecf_table_10k(uniform_repeated, grid48):
    samples = uniform_repeated.sample(10_000, seed=314159)
    return samples, ecf_table_for_grid(samples, grid48)


@pytest.fixture(scope="session")
def basis_cache():
    """Weighted bases are expensive; share one per (kappa, K_max)."""
    cache = {}

    def get(kappa, K_max=16, x0=1.0):
        key = (kappa, K_max, x0)
        if key not in cache:
            cache[key] = build_weighted_basis(WeightSpec(kappa, x0), K_max)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
