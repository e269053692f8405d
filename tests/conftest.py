import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logit

import seqtest as st

# two atoms at the natural logits of 0.3 and 0.7, equal weights, threshold 0:
# the standing benchmark instance used across the suite
BENCH_ATOMS = (float(logit(0.3)), float(logit(0.7)))


def traced_peak(call):
    """Bytes tracemalloc reads at its peak while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def bernoulli_family():
    return st.make_named_family("bernoulli")


@pytest.fixture(scope="session")
def gaussian_mean_family():
    return st.make_named_family("gaussian-mean")


@pytest.fixture(scope="session")
def benchmark_prior():
    return st.make_prior(BENCH_ATOMS, [1.0, 1.0], 0.0)


@pytest.fixture(scope="session")
def benchmark_surface(benchmark_prior, bernoulli_family):
    horizon = st.choose_horizon(0.05, 0.1)
    return st.solve(benchmark_prior, bernoulli_family, 0.05, horizon, grid_size=2001)


@pytest.fixture(scope="session")
def three_atom_prior():
    return st.make_prior([-1.0, -0.1, 1.0], [1.0, 1.0, 1.0], 0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)



FIVE_MODELS = ("bernoulli", "binomial(3)", "gaussian-mean", "exponential-rate", "gaussian-variance")


@pytest.fixture(scope="session")
def five_model_priors():
    """A six-atom prior and its family for each of the five named models, keyed by model."""
    six = ([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 0.0)
    six_positive = ([0.4, 0.7, 1.0, 1.4, 1.9, 2.5], [1.0, 2.0, 1.0, 1.0, 0.5, 1.0], 1.2)
    pairs = {}
    for model in FIVE_MODELS:
        prior = st.make_prior(*(six_positive if model in ("exponential-rate", "gaussian-variance") else six))
        pairs[model] = (prior, st.family_for_prior(model, prior))
    return pairs


@pytest.fixture(scope="session")
def five_model_surfaces(five_model_priors):
    """Solved surfaces of the five named models, and copies with injected defects.

    Keyed "model" for each surface (c = 0.05, 401 points, the model's prior
    in ``five_model_priors``) and "model/defect" for its copies.  "dip"
    lowers layer 2 by 1e-3 at pi = 0.1, where every layer stops;
    "equal-maxima" lowers layer 6 there too, so two layers hold the same
    worst concavity defect and time decrease; "stopped-below-half" sets
    layer 3 to the gain below 1/2.
    """
    surfaces = {}
    for model, (prior, family) in five_model_priors.items():
        surface = st.solve(prior, family, 0.05, st.choose_horizon(0.05), 401)
        surfaces[model] = surface
        grid, half = surface.pi_grid, surface.pi_grid.size // 2
        values = surface.values.copy()
        values[2, grid.size // 10] -= 1e-3
        surfaces[f"{model}/dip"] = replace(surface, values=values.copy())
        values[6, grid.size // 10] -= 1e-3
        surfaces[f"{model}/equal-maxima"] = replace(surface, values=values)
        values = surface.values.copy()
        values[3, 1:half] = st.gain(grid[1:half])
        surfaces[f"{model}/stopped-below-half"] = replace(surface, values=values)
    return surfaces
