"""Monte Carlo policy evaluation and an exact lattice oracle.

The oracle enumerates the reachable (n, y) lattice of a finite-outcome
model, whose size grows with the distinct observation sums rather than the
number of paths, so it reaches the horizons the solver uses, and
backward-inducts the recursion with no grid and no interpolation, which
makes it an independent reference for the grid solver.  The simulator draws
the parameter from the prior's atoms (so the estimated quantity is exactly
the Bayes risk: misclassification probability plus cost times expected
stopping time), replays the optimal or an alternative stopping rule, and
reports replicate-level aggregates.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .families import NaturalFamily
from .priors import Prior, _Ctx, _log_odds, _unnorm_log_weights, validate_prior_for_family
from .solver import ValueSurface

__all__ = [
    "SimulationReport",
    "brute_force_value",
    "enumerate_reachable_pis",
    "FixedSampleRule",
    "ThresholdRule",
    "simulate_policy",
    "simulate_alternative",
]

# distinct (n, y) nodes the oracle lattice may hold
_MAX_NODES = 10**6
# replicates per simulation block and observations per draw: the replay's
# transient arrays hold at most _BLOCK x _CHUNK draws, whatever the
# replicate count or horizon
_BLOCK = 8192
_CHUNK = 8


@dataclass(frozen=True)
class SimulationReport:
    """Replicate-level summary of one simulation run.

    ``mean_cost`` is the average of 1{wrong decision} + c * tau over
    replicates and ``std_error`` its sample standard error.  ``error_rates``
    are the joint frequencies (accept upper & parameter below threshold,
    accept lower & parameter above threshold).  ``capped`` counts replicates
    that were still running when they hit the horizon cap.
    """

    replicates: int
    mean_cost: float
    std_error: float
    mean_stopping_time: float
    error_rates: tuple
    seed: int
    capped: int

    def to_json(self) -> str:
        d = asdict(self)
        d["error_rates"] = list(d["error_rates"])
        return json.dumps(d)


def _lattice(family: NaturalFamily, horizon: int):
    """Reachable (n, y) nodes of a finite-outcome model, layer by layer.

    Returns ``(layers, children)``: ``layers[n]`` holds the distinct sums y
    reachable after n observations and ``children[n][i, k]`` indexes the node
    of layer n + 1 that node i of layer n moves to on outcome k.  Paths that
    reach the same y share a node, so the lattice grows with the number of
    distinct sums, not with the number of paths.
    """
    if family.scheme.kind != "finite":
        raise ValueError("oracle requires finite outcomes")
    points = family.scheme.points
    layers = [np.zeros(1)]
    children = []
    nodes = 1
    for _ in range(horizon):
        ys = layers[-1]
        # the next layer has at most ys.size * K nodes; refuse before building it
        if nodes + ys.size * points.size > _MAX_NODES:
            raise ValueError("oracle tree too large for this horizon")
        nxt, child = np.unique(ys[:, None] + points, return_inverse=True)
        layers.append(nxt)
        children.append(child.reshape(ys.size, points.size))
        nodes += nxt.size
    return layers, children


def brute_force_value(prior: Prior, family: NaturalFamily, cost: float, horizon: int) -> float:
    """Exact truncated value at the root (0, prior mass above threshold).

    Builds the lattice of reachable (n, y) nodes and applies the
    dynamic-programming recursion on it directly, so the only numerical
    error is log-sum-exp roundoff.  Requires a finite observation scheme.
    """
    if cost <= 0:
        raise ValueError("cost must be positive")
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    layers, children = _lattice(family, horizon)
    validate_prior_for_family(prior, family)

    ctx = _Ctx(prior, family)
    for n in range(horizon, -1, -1):
        z = _unnorm_log_weights(ctx, n, layers[n])
        pi = expit(logsumexp(z[:, ctx.plus], axis=1) - logsumexp(z[:, ctx.minus], axis=1))
        g = np.minimum(pi, 1.0 - pi)
        if n == horizon:
            value = g
            continue
        lw = z - logsumexp(z, axis=1)[:, None]
        cont = np.full(g.shape, float(cost))
        for k in range(ctx.points.size):
            log_pred = logsumexp(lw + ctx.ux[k], axis=1) + ctx.log_mass[k]
            cont += np.exp(log_pred) * value[children[n][:, k]]
        value = np.minimum(g, cont)
    return float(value[0])


def enumerate_reachable_pis(prior: Prior, family: NaturalFamily, horizon: int, eps: float = 1e-9):
    """All posterior probabilities reachable on the exact outcome lattice.

    Useful for splicing into a solver grid so the oracle comparison is free
    of interpolation error.  Values within ``eps`` of 0 or 1 are dropped
    (they carry negligible value mass and cannot be inverted reliably).
    """
    layers, _ = _lattice(family, horizon)
    ctx = _Ctx(prior, family)
    pis = np.concatenate([expit(_log_odds(ctx, n, ys)) for n, ys in enumerate(layers)])
    return np.unique(pis[(pis > eps) & (pis < 1.0 - eps)])


@dataclass(frozen=True)
class FixedSampleRule:
    """Observe exactly ``size`` samples, then decide by the 1/2 rule."""

    size: int

    @property
    def cap(self) -> int:
        return self.size

    def stop_mask(self, n, pi):
        return np.full(pi.shape, n >= self.size)


@dataclass(frozen=True)
class ThresholdRule:
    """Stop once the posterior probability leaves (low, high), capped."""

    low: float
    high: float
    max_steps: int

    @property
    def cap(self) -> int:
        return self.max_steps

    def stop_mask(self, n, pi):
        if n >= self.max_steps:
            return np.full(pi.shape, True)
        return (pi <= self.low) | (pi >= self.high)


def _run_block(stop_fn, cap, ctx, prior, family, rng, size):
    """Replay one block of replicates drawn from its own generator ``rng``.

    Every draw covers all ``_BLOCK`` rows, whether a row is still running,
    has stopped or is padding past ``size`` (padding never runs), so a row's
    stream does not depend on the other rows.  Observations are drawn
    ``_CHUNK`` steps at a time, and no more once every row has stopped.
    Returns the first ``size`` rows' (theta, tau, accept).
    """
    thetas = prior.atoms[rng.choice(prior.n_atoms, size=_BLOCK, p=np.exp(prior.log_weights))]
    y = np.zeros(_BLOCK)
    tau = np.full(size, cap, dtype=int)
    accept = np.zeros(size, dtype=int)
    rows = np.arange(size)
    for n in range(cap + 1):
        pi_now = expit(_log_odds(ctx, n, y[rows]))
        stop_now = stop_fn(n, pi_now) if n < cap else np.full(pi_now.shape, True)
        stopping = rows[stop_now]
        tau[stopping] = n
        accept[stopping] = pi_now[stop_now] > 0.5
        rows = rows[~stop_now]
        if not rows.size:
            break
        if n % _CHUNK == 0:
            obs = family.sampler(thetas[:, None], rng, (_BLOCK, min(_CHUNK, cap - n)))
        y[rows] += obs[rows, n % _CHUNK]
    return thetas[:size], tau, accept


def _run(stop_fn, cap, prior, family, cost, replicates, seed, trace_path=None):
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    validate_prior_for_family(prior, family)
    ctx = _Ctx(prior, family)

    # block b holds replicates b * _BLOCK onwards and draws from its own
    # generator (seed, b), so replicate r's path depends only on (seed, r)
    blocks = [
        _run_block(stop_fn, cap, ctx, prior, family, np.random.default_rng([seed, b]),
                   min(_BLOCK, replicates - start))
        for b, start in enumerate(range(0, replicates, _BLOCK))
    ]
    thetas, tau, accept = (np.concatenate(parts) for parts in zip(*blocks))

    false_upper = (accept == 1) & (thetas <= prior.theta0)
    false_lower = (accept == 0) & (thetas > prior.theta0)
    wrong = false_upper | false_lower
    loss = wrong.astype(float) + cost * tau

    mean_cost = float(np.mean(loss))
    std_error = float(np.std(loss, ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
    report = SimulationReport(
        replicates=replicates,
        mean_cost=mean_cost,
        std_error=std_error,
        mean_stopping_time=float(np.mean(tau)),
        error_rates=(float(np.mean(false_upper)), float(np.mean(false_lower))),
        seed=int(seed),
        capped=int(np.sum(tau == cap)),
    )
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("replicate,theta,tau,decision,loss\n")
            for r in range(replicates):
                fh.write(f"{r},{float(thetas[r])!r},{int(tau[r])},{int(accept[r])},{float(loss[r])!r}\n")
    return report


def simulate_policy(
    surface: ValueSurface,
    prior: Prior,
    family: NaturalFamily,
    replicates: int,
    seed: int,
    trace_path=None,
) -> SimulationReport:
    """Replay the solved stopping policy; deterministic given the seed."""
    b1, b2 = surface.b1, surface.b2

    def stop_fn(n, pi):
        return ~((b1[n] < pi) & (pi < b2[n]))

    return _run(stop_fn, surface.horizon, prior, family, surface.cost, replicates, seed, trace_path)


def simulate_alternative(
    rule,
    prior: Prior,
    family: NaturalFamily,
    cost: float,
    replicates: int,
    seed: int,
    trace_path=None,
) -> SimulationReport:
    """Replay a baseline rule (fixed sample size or probability thresholds).

    Optimality of the solved policy means any rule's mean cost should come
    out at or above the solved value, up to Monte Carlo error.
    """
    if cost <= 0:
        raise ValueError("cost must be positive")
    return _run(rule.stop_mask, rule.cap, prior, family, float(cost), replicates, seed, trace_path)
