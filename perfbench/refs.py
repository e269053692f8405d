"""Exact references for the seqtest benchmark, written apart from the program.

Nothing here imports seqtest.  Each reference restates the mathematics of the
model directly, so a fault in the program cannot hide in its own reference.

* ``lattice_value``: exact truncated value of the Bernoulli and binomial(N)
  models by dynamic programming on the (n, s) lattice, where s is the
  integer observation sum.  No grid, no interpolation.
* ``rule_loss``: exact expected loss P(wrong decision) + c E[tau] of any
  stopping rule replayed on the Bernoulli model, by propagating each atom's
  path distribution over the same lattice.
* ``last_layer``: layer H-1 of the continuous models in closed form.  By
  monotone likelihood ratio the next posterior probability crosses 1/2 at a
  single observation value x*, so E[min(pi', 1 - pi')] is a sum of the
  atoms' CDFs at x*; no quadrature is involved.
* ``last_layer_on_nodes``: the same layer with the expectation summed over a
  given node set, which is what a correct backward step computes on the
  program's quadrature scheme.  Against the solver it isolates arithmetic
  faults from quadrature error.

A prior is passed as (atoms, weights, theta0): strictly increasing natural
parameters, positive unnormalized weights, and the threshold; atoms above
theta0 form the upper hypothesis.
"""

import math

import numpy as np
from scipy.special import erf, erfc, expit, logsumexp, ndtr

# log-partition B(u) of each continuous model in natural form
_LOG_PARTITION = {
    "gaussian-mean": lambda u: 0.5 * u * u,
    "exponential-rate": lambda u: -np.log(u),
    "gaussian-variance": lambda u: -0.5 * np.log(u),
}


def _log_weights(weights):
    lw = np.log(np.asarray(weights, dtype=float))
    return lw - logsumexp(lw)


def _finite_terms(atoms, weights, n_trials):
    u = np.asarray(atoms, dtype=float)
    lw = _log_weights(weights)
    B = n_trials * np.logaddexp(0.0, u)
    ks = np.arange(n_trials + 1)
    log_c = np.log(np.array([math.comb(n_trials, k) for k in ks], dtype=float))
    return u, lw, B, ks, log_c


def _pi_on_lattice(u, lw, B, up, n, s):
    """Posterior probability of the upper side at time n for sums s."""
    z = lw + np.multiply.outer(np.asarray(s, dtype=float), u) - n * B
    return expit(logsumexp(z[:, up], axis=1) - logsumexp(z[:, ~up], axis=1)), z


def lattice_value(atoms, weights, theta0, n_trials, cost, horizon):
    """Exact value V(0, 0) of the binomial(n_trials) problem truncated at ``horizon``."""
    u, lw, B, ks, log_c = _finite_terms(atoms, weights, n_trials)
    up = u > theta0
    log_step = np.multiply.outer(ks, u) - B  # (K, A): log p_u(k) less log C(N, k)
    v = None
    for n in range(horizon, -1, -1):
        s = np.arange(n_trials * n + 1)
        pi, z = _pi_on_lattice(u, lw, B, up, n, s)
        g = np.minimum(pi, 1.0 - pi)
        if n == horizon:
            v = g
            continue
        w = z - logsumexp(z, axis=1, keepdims=True)
        log_pred = logsumexp(w[:, None, :] + log_step[None, :, :], axis=2) + log_c
        cont = np.full(s.size, float(cost))
        for k in ks:
            cont = cont + np.exp(log_pred[:, k]) * v[k : k + s.size]
        v = np.minimum(g, cont)
    return float(v[0])


def rule_loss(atoms, weights, theta0, cost, stop, cap):
    """Exact expected loss of a stopping rule on the Bernoulli model.

    ``stop(n, pi)`` returns the stop mask for posterior probabilities ``pi`` at
    time n; stopping is forced at ``cap``.  On stopping the upper hypothesis
    is accepted iff pi > 1/2.  The parameter is drawn from the prior, so the
    result is the Bayes risk of the rule: P(wrong) + cost * E[tau].
    """
    u, lw, B, _, _ = _finite_terms(atoms, weights, 1)
    up = u > theta0
    p_one = expit(u)[:, None]
    mass = np.ones((u.size, 1))  # P(active at (n, s)) for each atom
    loss = np.zeros(u.size)
    for n in range(cap + 1):
        s = np.arange(n + 1)
        pi, _ = _pi_on_lattice(u, lw, B, up, n, s)
        halt = np.ones(n + 1, dtype=bool) if n == cap else np.asarray(stop(n, pi), dtype=bool)
        accept = pi > 0.5
        wrong = np.where(up[:, None], ~accept[None, :], accept[None, :])
        loss += np.sum(mass * halt * (wrong + cost * n), axis=1)
        go = mass * ~halt
        mass = np.zeros((u.size, n + 2))
        mass[:, :-1] += go * (1.0 - p_one)
        mass[:, 1:] += go * p_one
    return float(np.dot(np.exp(_log_weights(weights)), loss))


def _log_odds(u, lw, B, up, n, y):
    z = lw + np.multiply.outer(y, u) - n * B
    return logsumexp(z[..., up], axis=-1) - logsumexp(z[..., ~up], axis=-1)


def _y_of_log_odds(u, lw, B, up, n, target):
    """Invert y -> log-odds at time n by bisection inside an a-priori bracket.

    The log-odds slope in y is E_up[u] - E_lo[u], which lies between the gap
    across theta0 and the span of the atoms, so the root is within
    |target - r0| / gap of y = 0.
    """
    target = np.asarray(target, dtype=float)
    gap = u[up].min() - u[~up].max()
    r0 = _log_odds(u, lw, B, up, n, np.zeros(1))[0]
    reach = (target - r0) / gap
    lo = np.minimum(0.0, reach) - 1.0
    hi = np.maximum(0.0, reach) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        below = _log_odds(u, lw, B, up, n, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _cdf_pair(model, u, x):
    """(P(X <= x), P(X > x)) of the stored observation under parameter u."""
    if model == "gaussian-mean":
        return ndtr(x - u), ndtr(u - x)
    neg = np.minimum(x, 0.0)
    if model == "exponential-rate":  # X = -E, E ~ Exp(rate u)
        below = np.exp(u * neg)
        return np.where(x < 0, below, 1.0), np.where(x < 0, -np.expm1(u * neg), 0.0)
    if model == "gaussian-variance":  # X = -Z^2/2, Z ~ N(0, 1/u)
        r = np.sqrt(-neg * u)
        return np.where(x < 0, erfc(r), 1.0), np.where(x < 0, erf(r), 0.0)
    raise ValueError(f"no closed form for model '{model}'")


def _layer_from_expectation(grid, cost, expected):
    inner = grid[1:-1]
    out = np.zeros(grid.size)
    out[1:-1] = np.minimum(np.minimum(inner, 1.0 - inner), cost + expected)
    return out


def _posterior_at_levels(u, lw, B, up, n, inner):
    """(y, log posterior weights) on the pi-level curves through ``inner`` at time n."""
    y = _y_of_log_odds(u, lw, B, up, n, np.log(inner) - np.log1p(-inner))
    z = lw + np.multiply.outer(y, u) - n * B
    return y, z - logsumexp(z, axis=1, keepdims=True)


def last_layer_on_nodes(model, atoms, weights, theta0, cost, horizon, grid, points, log_mass):
    """Layer H-1 with E[min(pi', 1 - pi')] summed over nodes ``points``.

    ``log_mass[k]`` is the log base-measure mass of node k, so the predictive
    mass of node k is sum_i w_i exp(log_mass[k] + u_i x_k - B(u_i)).
    """
    u = np.asarray(atoms, dtype=float)
    lw = _log_weights(weights)
    B = _LOG_PARTITION[model](u)
    up = u > theta0
    grid = np.asarray(grid, dtype=float)
    points = np.asarray(points, dtype=float)
    n = horizon - 1
    y, log_w = _posterior_at_levels(u, lw, B, up, n, grid[1:-1])
    log_node = np.asarray(log_mass, dtype=float)[:, None] + np.multiply.outer(points, u) - B
    expected = np.empty(y.size)
    for rows in np.array_split(np.arange(y.size), max(1, y.size // 256)):  # bounded memory
        pred = np.exp(logsumexp(log_w[rows, None, :] + log_node[None, :, :], axis=2))
        nxt = expit(_log_odds(u, lw, B, up, n + 1, y[rows, None] + points[None, :]))
        expected[rows] = np.sum(pred * np.minimum(nxt, 1.0 - nxt), axis=1)
    return _layer_from_expectation(grid, cost, expected)


def last_layer(model, atoms, weights, theta0, cost, horizon, grid):
    """Closed-form layer H-1 on ``grid`` when layer H is the gain min(pi, 1-pi)."""
    u = np.asarray(atoms, dtype=float)
    lw = _log_weights(weights)
    B = _LOG_PARTITION[model](u)
    up = u > theta0
    grid = np.asarray(grid, dtype=float)
    n = horizon - 1
    y, log_w = _posterior_at_levels(u, lw, B, up, n, grid[1:-1])
    x_star = _y_of_log_odds(u, lw, B, up, n + 1, np.zeros(1))[0] - y
    w = np.exp(log_w)
    below, above = _cdf_pair(model, u[None, :], x_star[:, None])
    return _layer_from_expectation(grid, cost, np.sum(np.where(up[None, :], w * below, w * above), axis=1))
