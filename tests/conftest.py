"""Shared fixtures: canonical scenario, quadrature grids, basis caches."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cfdeconv import (
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
