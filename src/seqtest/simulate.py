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
from scipy.special import expit, logit, logsumexp

from .families import NaturalFamily
from .priors import LEVEL_EPS, Prior, _Ctx, _log_odds, _unnorm_log_weights, _y_of_logit, validate_prior_for_family
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

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"fixed sample size must be non-negative, got {self.size}")

    @property
    def cap(self) -> int:
        return self.size

    def band(self, n):
        return -np.inf, np.inf


@dataclass(frozen=True)
class ThresholdRule:
    """Stop once the posterior probability leaves (low, high), capped."""

    low: float
    high: float
    max_steps: int

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(f"threshold rule needs 0 <= low <= high <= 1, got low={self.low}, high={self.high}")
        if self.max_steps < 0:
            raise ValueError(f"threshold rule cap must be non-negative, got {self.max_steps}")

    @property
    def cap(self) -> int:
        return self.max_steps

    def band(self, n):
        return self.low, self.high


# half-width of the uncertain band around a level curve, in log-odds, beyond
# the measured inversion residual: _BAND_REL times the summed magnitudes of
# the log-odds' terms covers its rounding (about 10 ulp of that sum) 10^5
# times over, and _BAND_ULPS ulp of p, turned into log-odds by dpi/dL =
# p(1 - p), covers the rounding of expit (about 2 ulp of p) 30 times over
_BAND_REL = 1e-9
_BAND_ULPS = 64


def _level_bands(ctx, n, p):
    """Uncertain y-interval [a, b] of the test pi > p at layer n, for each p.

    Where y < a, the pi the replay computes, expit(_log_odds(ctx, n, y)), is
    below p, and where y > b it is above p; only y in [a, b] needs that pi
    computed.  The interval is the level-curve point y(n, p) widened by the
    log-odds margin above divided by the atom gap across theta0, a lower
    bound on the log-odds slope.  A p outside the invertible range, such as
    a boundary at 0 or 1, is inverted at 1.01 LEVEL_EPS from its end and
    the band runs on to infinity past it; p = -inf or inf needs no band.
    ``n`` broadcasts against ``p``.
    """
    p = np.asarray(p, dtype=float)
    q = np.clip(p, 1.01 * LEVEL_EPS, 1.0 - 1.01 * LEVEL_EPS)
    t = logit(q)
    y = _y_of_logit(ctx, n, t)
    scale = (1.0 + np.abs(t) + np.abs(y) * np.max(np.abs(ctx.atoms)) + n * np.max(np.abs(ctx.B_atoms))
             + np.max(np.abs(ctx.lw0)))
    margin = (np.abs(_log_odds(ctx, n, y) - t) + _BAND_REL * scale
              + _BAND_ULPS * np.spacing(q) / (q * (1.0 - q)))
    dy = margin / (ctx.atoms[ctx.split] - ctx.atoms[ctx.split - 1])
    a = np.where(np.isinf(p), p, np.where(p < q, -np.inf, y - dy))
    b = np.where(np.isinf(p), p, np.where(p > q, np.inf, y + dy))
    return a, b


def _run_block(lo, hi, ya, yb, ctx, prior, family, rng, size):
    """Replay one block of replicates drawn from its own generator ``rng``.

    A row at layer n continues while lo[n] < pi < hi[n] and, once stopped,
    accepts the upper side if pi > 1/2; the last layer has lo = hi = inf, so
    every row still running stops there.  Since pi is increasing in the
    observation sum y, each test is made on y against the uncertain bands
    [ya[n, j], yb[n, j]] of the thresholds (lo[n], hi[n], 1/2) from
    ``_level_bands``.  Rows inside a band of (lo[n], hi[n]), and stopping
    rows inside the band of 1/2, compute pi from their log-odds, and no
    other row does, so every decision is the one a test on pi makes.

    Every draw covers all ``_BLOCK`` rows, whether a row is still running,
    has stopped or is padding past ``size`` (padding never runs), so a row's
    stream does not depend on the other rows.  Observations are drawn
    ``_CHUNK`` steps at a time, and no more once every row has stopped.
    Returns the first ``size`` rows' (theta, tau, accept).
    """
    cap = lo.size - 1
    thetas = prior.atoms[rng.choice(prior.n_atoms, size=_BLOCK, p=np.exp(prior.log_weights))]
    y = np.zeros(_BLOCK)
    tau = np.full(size, cap, dtype=int)
    accept = np.zeros(size, dtype=int)
    rows = np.arange(size)
    for n in range(cap + 1):
        yr = y[rows]
        a, b = ya[n], yb[n]
        stop = (yr < a[0]) | (yr > b[1])
        near = ((yr >= a[0]) & (yr <= b[0])) | ((yr >= a[1]) & (yr <= b[1]))
        if near.any():
            pi = expit(_log_odds(ctx, n, yr[near]))
            stop[near] = (pi <= lo[n]) | (pi >= hi[n])
        ys = yr[stop]
        up = ys > b[2]
        near = (ys >= a[2]) & (ys <= b[2])
        if near.any():
            up[near] = expit(_log_odds(ctx, n, ys[near])) > 0.5
        stopping = rows[stop]
        tau[stopping] = n
        accept[stopping] = up
        rows = rows[~stop]
        if not rows.size:
            break
        if n % _CHUNK == 0:
            obs = family.sampler(thetas[:, None], rng, (_BLOCK, min(_CHUNK, cap - n)))
        y[rows] += obs[rows, n % _CHUNK]
    return thetas[:size], tau, accept


def _run(band, cap, prior, family, cost, replicates, seed, trace_path=None):
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    validate_prior_for_family(prior, family)
    ctx = _Ctx(prior, family)
    # continuation intervals of layers 0 .. cap; the cap layer's is empty
    lo, hi = np.array([band(n) for n in range(cap)] + [(np.inf, np.inf)], dtype=float).T
    ya, yb = _level_bands(ctx, np.arange(cap + 1)[:, None], np.stack([lo, hi, np.full(cap + 1, 0.5)], axis=1))

    # block b holds replicates b * _BLOCK onwards and draws from its own
    # generator (seed, b), so replicate r's path depends only on (seed, r)
    blocks = [
        _run_block(lo, hi, ya, yb, ctx, prior, family, np.random.default_rng([seed, b]),
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
    return _run(lambda n: (b1[n], b2[n]), surface.horizon, prior, family, surface.cost, replicates, seed,
                trace_path)


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
    return _run(rule.band, rule.cap, prior, family, float(cost), replicates, seed, trace_path)
