"""Tests of the benchmark's exact references against the program and against quadrature.

    python3 -m pytest -q perfbench
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refs  # noqa: E402
import seqtest as st  # noqa: E402

PRIORS = (
    ((-1.3, -0.4, 0.35, 1.1), (1.0, 2.0, 1.5, 1.0), 0.0),
    ((-1.9, -1.2, -0.35, 0.45, 1.15, 1.8), (0.7, 1.2, 0.9, 1.4, 0.6, 1.1), 0.05),
)
CONTINUOUS_CASES = (
    ("gaussian-mean", (-2.0, -1.2, -0.4, 0.4, 1.2, 2.0), 0.0),
    ("exponential-rate", (0.4, 0.8, 1.2, 1.7, 2.3, 2.9), 1.45),
    ("gaussian-variance", (0.35, 0.9, 1.3, 1.8, 2.4, 2.9), 1.55),
)


@pytest.mark.parametrize("atoms, weights, theta0", PRIORS)
@pytest.mark.parametrize("model, n_trials, max_horizon", (("bernoulli", 1, 23), ("binomial(3)", 3, 11)))
def test_lattice_value_equals_oracle_at_every_accepted_horizon(atoms, weights, theta0, model, n_trials, max_horizon):
    prior = st.make_prior(atoms, weights, theta0)
    family = st.make_named_family(model)
    for horizon in range(max_horizon + 1):
        for cost in (0.01, 0.05):
            exact = refs.lattice_value(atoms, weights, theta0, n_trials, cost, horizon)
            assert exact == st.brute_force_value(prior, family, cost, horizon)
    with pytest.raises(ValueError, match="too large"):
        st.brute_force_value(prior, family, 0.01, max_horizon + 1)


def test_lattice_value_reaches_long_horizons_and_decreases_in_them():
    atoms, weights, theta0 = PRIORS[1]
    values = [refs.lattice_value(atoms, weights, theta0, 1, 0.01, h) for h in (30, 60, 120, 240)]
    assert all(0.0 < v <= 0.5 for v in values)
    assert values == sorted(values, reverse=True)


def _stop_rules(cap):
    return (
        (lambda n, pi: np.full(pi.shape, n >= 0), 0),
        (lambda n, pi: np.full(pi.shape, n >= 3), 3),
        (lambda n, pi: (pi <= 0.2) | (pi >= 0.8), cap),
        (lambda n, pi: ~((0.35 + 0.01 * n < pi) & (pi < 0.7 - 0.01 * n)), cap),
    )


@pytest.mark.parametrize("atoms, weights, theta0", PRIORS)
def test_rule_loss_equals_path_enumeration(atoms, weights, theta0):
    prior = st.make_prior(atoms, weights, theta0)
    family = st.make_named_family("bernoulli")
    w = np.asarray(weights) / np.sum(weights)
    cost = 0.02
    for stop, cap in _stop_rules(8):
        total = 0.0
        for u, wu in zip(atoms, w):
            p1 = float(expit(u))
            for path in itertools.product((0, 1), repeat=cap):
                n, prob = 0, 1.0
                while True:
                    pi = np.array([st.pi_of_y(prior, family, n, float(sum(path[:n])))])
                    if n == cap or stop(n, pi)[0]:
                        wrong = (pi[0] > 0.5) != (u > theta0)
                        total += wu * prob * (wrong + cost * n) / 2 ** (cap - n)
                        break
                    prob *= p1 if path[n] else 1.0 - p1
                    n += 1
        assert refs.rule_loss(atoms, weights, theta0, cost, stop, cap) == pytest.approx(total, abs=1e-13)


def test_rule_loss_of_stopping_at_once_is_prior_misclassification():
    atoms, weights, theta0 = PRIORS[1]
    w = np.asarray(weights) / np.sum(weights)
    upper = float(np.sum(w[np.asarray(atoms) > theta0]))
    got = refs.rule_loss(atoms, weights, theta0, 0.02, lambda n, pi: np.full(pi.shape, True), 5)
    assert got == pytest.approx(min(upper, 1.0 - upper), abs=1e-15)


def _density(model, u, x):
    """Density of the stored observation against Lebesgue measure."""
    if model == "gaussian-mean":
        return math.exp(-0.5 * (x - u) ** 2) / math.sqrt(2 * math.pi)
    if model == "exponential-rate":
        return u * math.exp(u * x) if x < 0 else 0.0
    return math.sqrt(u / (-math.pi * x)) * math.exp(u * x) if x < 0 else 0.0  # gaussian-variance


@pytest.mark.parametrize("model, atoms, theta0", CONTINUOUS_CASES)
def test_last_layer_equals_quadrature_of_the_definition(model, atoms, theta0):
    weights = (0.8, 1.3, 1.0, 0.6, 1.4, 1.1)
    cost, horizon = 0.02, 5
    grid = np.linspace(0.0, 1.0, 41)
    got = refs.last_layer(model, atoms, weights, theta0, cost, horizon, grid)
    prior = st.make_prior(atoms, weights, theta0)
    family = st.family_for_prior(model, prior)
    up = np.asarray(atoms) > theta0
    for j in range(1, grid.size - 1):
        pi = grid[j]
        state = st.posterior(prior, family, horizon - 1, st.y_of_pi(prior, family, horizon - 1, pi))
        w = np.exp(state.log_weights)

        def smaller_side(x):
            # min(pi', 1 - pi') times the predictive density at x
            return min(sum(wi * _density(model, u, x) for u, wi, s in zip(atoms, w, up) if s == side)
                       for side in (True, False))

        # the kink at the crossing x* splits the integral so quad sees smooth pieces
        x_star = st.y_of_pi(prior, family, horizon, 0.5) - state.y
        lo_end, hi_end = (-math.inf, math.inf) if model == "gaussian-mean" else (-math.inf, 0.0)
        split = min(x_star, hi_end)
        mass = sum(integrate.quad(smaller_side, a, b, epsabs=1e-15, limit=200)[0]
                   for a, b in ((lo_end, split), (split, hi_end)))
        expected = min(pi, 1.0 - pi, cost + mass)
        assert got[j] == pytest.approx(expected, abs=1e-12), f"pi={pi}"
    assert got[0] == got[-1] == 0.0


@pytest.mark.parametrize("model, atoms, theta0", CONTINUOUS_CASES)
def test_node_sum_reproduces_the_solver_whose_quadrature_error_the_closed_form_bounds(model, atoms, theta0):
    weights = (0.8, 1.3, 1.0, 0.6, 1.4, 1.1)
    prior = st.make_prior(atoms, weights, theta0)
    family = st.family_for_prior(model, prior)
    surface = st.solve(prior, family, 0.02, 4, 401)
    nodes = refs.last_layer_on_nodes(model, atoms, weights, theta0, 0.02, 4, surface.pi_grid,
                                     family.scheme.points, family.scheme.log_mass)
    assert np.max(np.abs(surface.values[3] - nodes)) <= 1e-12
    exact = refs.last_layer(model, atoms, weights, theta0, 0.02, 4, surface.pi_grid)
    assert np.max(np.abs(surface.values[3] - exact)) < 3e-3


def test_node_sum_on_a_fine_midpoint_rule_converges_to_the_closed_form():
    model, atoms, theta0 = CONTINUOUS_CASES[0]
    weights = np.ones(6)
    dx = 1e-3
    x = np.arange(-12.0, 12.0, dx) + 0.5 * dx
    log_mass = np.log(dx) - 0.5 * x * x - 0.5 * math.log(2 * math.pi)  # N(0, 1) base density
    grid = np.linspace(0.0, 1.0, 101)
    fine = refs.last_layer_on_nodes(model, atoms, weights, theta0, 0.02, 4, grid, x, log_mass)
    exact = refs.last_layer(model, atoms, weights, theta0, 0.02, 4, grid)
    assert np.max(np.abs(fine - exact)) < 1e-6
