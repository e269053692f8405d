"""Numerical certification of the structural properties of the problem.

Each check measures the worst violation of one claimed property on a
concrete model/prior instance and reports pass/fail against a tolerance:

* concavity of each value layer in the probability coordinate;
* concentration: posterior tail masses away from the threshold can only
  shrink along a level curve;
* level-curve spread: the horizontal distance between two level curves is
  non-decreasing in time;
* convex order: the one-step transition law from a fixed probability
  spreads out less at later times (stop-loss test with equal means);
* time monotonicity of the value surface and its boundaries;
* the binomial model solved per batch coincides with a Bernoulli model
  whose cost is charged once per batch and whose stopping is restricted to
  batch ends;
* a randomized probe hunting for time-monotonicity counterexamples, whose
  hits are findings to adjudicate, not assertion failures.

Checks are pure functions of their inputs (and seed) and may run
concurrently on independent instances.
"""

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .families import _MAX_VALUES, NaturalFamily, _count, family_for_prior, make_named_family
from .priors import (
    Prior,
    _Ctx,
    _level_logit,
    _unnorm_log_weights,
    _y_of_logit,
    make_prior,
    transition_distribution,
)
from .solver import ValueSurface, _backward, choose_horizon, solve

__all__ = [
    "CheckReport",
    "check_concavity",
    "check_concentration",
    "check_level_spread",
    "check_convex_order",
    "check_time_monotonicity",
    "check_binomial_reduction",
    "conjecture_probe",
    "sample_random_prior",
    "default_burn",
    "PROBE_WINDOWS",
]


@dataclass
class CheckReport:
    """Outcome of one check: pass iff worst_violation <= tolerance."""

    check: str
    instance: dict
    worst_violation: float
    tolerance: float
    passed: bool
    location: dict | None = None
    asserted: bool = True  # findings from the probe are informational

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _check_tol(tol):
    """Refuse ``tol`` unless it is a finite number >= 0; each check calls this first, before any work."""
    # nan and infinity are not JSON, and an infinite or negative tolerance would pass or fail every check
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _report(check, instance, worst, tol, location=None, asserted=True) -> CheckReport:
    worst = float(worst)
    return CheckReport(
        check=check,
        instance=instance,
        worst_violation=worst,
        tolerance=float(tol),
        passed=bool(worst <= tol),
        location=location if worst > tol else None,
        asserted=asserted,
    )


def _worst(a):
    """Largest entry of ``a`` and its first row-major index, as a float and a tuple of ints.

    The first index is the one a scan layer by layer, keeping a new worst
    only when it is strictly larger, would report; an empty ``a`` gives 0.0.
    """
    if not np.size(a):
        return 0.0, (0,) * np.ndim(a)
    idx = np.unravel_index(int(np.argmax(a)), np.shape(a))
    return float(a[idx]), tuple(int(i) for i in idx)


def check_concavity(surface: ValueSurface, tol: float = 1e-8) -> CheckReport:
    """Worst convexity defect over all layers and interior grid triples.

    A layer is concave when every interior point sits on or above the chord
    of its neighbours; the tolerance gets an allowance of h^2, h the widest
    grid spacing, for interpolation error.
    """
    _check_tol(tol)
    grid = surface.pi_grid
    h = float(np.max(np.diff(grid)))
    values = surface.values
    lam = (grid[2:] - grid[1:-1]) / (grid[2:] - grid[:-2])
    worst, (n, j) = _worst(lam * values[:, :-2] + (1.0 - lam) * values[:, 2:] - values[:, 1:-1])
    return _report(
        "concavity",
        {"horizon": surface.horizon, "grid_size": int(grid.size), "cost": surface.cost},
        worst,
        tol + h * h,
        {"n": n, "pi": float(grid[j + 1])},
    )


def _level_curves(prior: Prior, family: NaturalFamily, pis, n_max: int):
    """The context and y(n, pi) for n = 0 .. n_max (rows) and each pi (columns).

    One batched inversion, which equals the layer-by-layer ``y_of_pi`` bit
    for bit, under ``y_of_pi``'s range check.  With the concentration
    check's weights, the working set is at most 16 + 9 A doubles per (n, pi)
    entry for A atoms: traced at 2 to 200 atoms, the concentration check
    peaked at 8.2 A + 2 and the spread check at 3.1 A + 20.  A table over
    ``_MAX_VALUES`` by that count is refused before anything is allocated.
    """
    if (n_max + 1) * len(pis) * (16 + 9 * prior.n_atoms) > _MAX_VALUES:
        raise ValueError(f"n_max {n_max} needs a level-curve table over the budget of {_MAX_VALUES} values "
                         f"for {len(pis)} level(s) and {prior.n_atoms} atoms; lower n_max")
    ctx = _Ctx(prior, family)
    return ctx, _y_of_logit(ctx, np.arange(n_max + 1)[:, None], _level_logit(pis))


def check_concentration(prior: Prior, family: NaturalFamily, pi: float = 0.5, a: float | None = None,
                        b: float | None = None, n_max: int = 15, tol: float = 1e-8) -> CheckReport:
    """Along the pi-level curve, P(param <= a) and P(param > b) never grow.

    Defaults: pi = 0.5, n_max = 15, and ``a`` and ``b`` the midpoints between
    theta0 and the lowest and the highest atom.
    """
    _check_tol(tol)
    a = 0.5 * (float(prior.atoms[0]) + prior.theta0) if a is None else a
    b = 0.5 * (float(prior.atoms[-1]) + prior.theta0) if b is None else b
    if not a < prior.theta0 < b:
        raise ValueError("concentration check requires a < theta0 < b")
    n_max = _count(n_max, "n_max")
    ctx, y = _level_curves(prior, family, [pi], n_max)
    z = _unnorm_log_weights(ctx, np.arange(n_max + 1), y[:, 0])
    lw = z - logsumexp(z, axis=1, keepdims=True)

    def mass_at_or_below(cut):
        sel = prior.atoms <= cut
        return np.exp(logsumexp(lw[:, sel], axis=1)) if sel.any() else np.zeros(n_max + 1)

    worst, (side, j) = _worst(np.diff([mass_at_or_below(a), 1.0 - mass_at_or_below(b)], axis=1))
    return _report(
        "concentration",
        {"model": family.name, "pi": pi, "a": a, "b": b, "n_max": n_max},
        worst,
        tol,
        {"n": j, "side": ("below_a", "above_b")[side], "pi": pi},
    )


def check_level_spread(prior: Prior, family: NaturalFamily, pi1: float = 0.3, pi2: float = 0.7, n_max: int = 15,
                       tol: float = 1e-8) -> CheckReport:
    """y(n, pi2) - y(n, pi1) is non-decreasing in n (curves spread out); by default pi1 = 0.3, pi2 = 0.7, n_max = 15."""
    _check_tol(tol)
    if not 0.0 < pi1 <= pi2 < 1.0:
        raise ValueError("level spread check requires 0 < pi1 <= pi2 < 1")
    n_max = _count(n_max, "n_max")
    y = _level_curves(prior, family, [pi1, pi2], n_max)[1]
    worst, (j,) = _worst(-np.diff(y[:, 1] - y[:, 0]))
    return _report(
        "level-spread",
        {"model": family.name, "pi1": pi1, "pi2": pi2, "n_max": n_max},
        worst,
        tol,
        {"n": j},
    )


def check_convex_order(prior: Prior, family: NaturalFamily, pi: float = 0.5, m: int = 0, n: int = 5,
                       tol: float = 1e-8) -> CheckReport:
    """Stop-loss test: the step from time m spreads at least as much as from n >= m (by default pi = 0.5, m = 0, n = 5).

    With equal means (checked first; both transition laws are martingale
    steps from pi), stop-loss domination at every t = 0.01, 0.02, ..., 0.99
    is equivalent to convex order.  Finite supports make the stop-loss
    transform exact.
    """
    _check_tol(tol)
    m, n = _count(m, "convex order time m"), _count(n, "convex order time n")
    if m > n:
        raise ValueError(f"convex order check requires 0 <= m <= n, got m={m}, n={n}")
    t_grid = np.linspace(0.01, 0.99, 99)
    p_m, w_m = transition_distribution(prior, family, m, pi)
    p_n, w_n = transition_distribution(prior, family, n, pi)
    for label, p, w in (("m", p_m, w_m), ("n", p_n, w_n)):
        drift = abs(float(np.dot(w, p)) - pi)
        if drift > 1e-8:
            raise ValueError(
                f"transition mean at time {label} drifted by {drift:.2e} (> 1e-8); "
                "quadrature too coarse for the convex-order check"
            )
    sl_m = np.maximum(p_m[None, :] - t_grid[:, None], 0.0) @ w_m
    sl_n = np.maximum(p_n[None, :] - t_grid[:, None], 0.0) @ w_n
    worst, (j,) = _worst(sl_n - sl_m)
    return _report(
        "convex-order",
        {"model": family.name, "pi": pi, "m": m, "n": n},
        worst,
        tol,
        {"t": float(t_grid[j])},
    )


def default_burn(horizon: int) -> int:
    """Terminal layers excluded from time-monotonicity comparisons.

    The truncated terminal condition forces late layers up to the gain, so
    they say nothing about the untruncated surface.
    """
    return max(4, math.ceil(0.2 * horizon))


def check_time_monotonicity(surface: ValueSurface, tol: float = 1e-6, burn: int | None = None) -> CheckReport:
    """V non-decreasing in time; b1 non-decreasing and b2 non-increasing.

    Boundary moves within 1.5 grid cells are within reporting resolution
    and do not count as violations; only the excess beyond that enters the
    reported magnitude.
    """
    _check_tol(tol)
    burn = default_burn(surface.horizon) if burn is None else _count(burn, "burn")
    limit = surface.horizon - burn
    instance = {
        "horizon": surface.horizon,
        "cost": surface.cost,
        "grid_size": int(surface.pi_grid.size),
        "burn": burn,
    }
    if limit < 1:
        return _report("time-monotonicity", {**instance, "note": "horizon too short for burn"}, 0.0, tol)
    worst, (n, j) = _worst(surface.values[:limit] - surface.values[1 : limit + 1])
    loc = {"kind": "value", "n": n, "pi": float(surface.pi_grid[j])}
    cell = 1.5 * float(np.max(np.diff(surface.pi_grid)))
    b1_drop = surface.b1[:limit] - surface.b1[1 : limit + 1]
    b2_rise = surface.b2[1 : limit + 1] - surface.b2[:limit]
    excess, (side, j) = _worst(np.stack([b1_drop, b2_rise]) - cell)
    if excess > worst:
        worst, loc = excess, {"kind": ("b1", "b2")[side], "n": j}
    return _report("time-monotonicity", instance, worst, tol, loc)


def check_binomial_reduction(
    n_trials: int,
    prior: Prior,
    cost: float,
    grid_size: int = 2001,
    tol: float = 1e-6,
) -> CheckReport:
    """Batch equivalence of the binomial model with a batched Bernoulli model.

    Solves (a) the binomial(N) model charged c per observation and (b) the
    Bernoulli model charged c once per batch of N observations, with stopping
    restricted to batch ends, then compares layer n of (a) with the layer of
    (b) at time n*N across the whole grid.  Both run the solver's backward
    loop and transition step; they differ only in the law of a batch: (a)
    weights the N-trial outcome sum by the binomial predictive, (b) chains N
    one-step Bernoulli predictives through every intermediate posterior state,
    so only batch-end layers are interpolated.  Both run to
    ``choose_horizon(cost)`` batches, on the grid ``solve`` builds.  A batch
    step stacks its up to N states at every grid point, A N G doubles for A
    atoms and G grid points; more than ``_MAX_VALUES`` is refused before
    anything is solved.  Step j of a batch updates up to j + 1 states, so (b)
    costs O(N^2 A G) per layer (0.11-0.12, 0.28-0.30 and 0.87-0.91 s at
    N = 32, 64 and 128 on atoms +-0.8, c = 0.1, G = 201).  That is by
    design: a closed form for the batch law would be (a) itself, compared
    with itself.
    """
    _check_tol(tol)
    n_trials = _count(n_trials, "binomial reduction N", 1)
    horizon = choose_horizon(cost)
    binom = make_named_family(f"binomial({n_trials})")
    bern = make_named_family("bernoulli")
    grid_size = _count(grid_size, "grid size", 3)
    if prior.n_atoms * n_trials * grid_size > _MAX_VALUES:
        raise ValueError(f"binomial reduction N = {n_trials} on {grid_size} grid points needs stacked batch "
                         f"states over the budget of {_MAX_VALUES} values for {prior.n_atoms} atoms; lower N "
                         "or the grid size")
    surface = solve(prior, binom, float(cost), horizon, grid_size)
    grid = surface.pi_grid
    v_bern = _backward(_Ctx(prior, bern), grid, horizon, float(cost), steps=n_trials)
    worst, (n, j) = _worst(np.abs(surface.values - v_bern))
    return _report(
        "binomial-reduction",
        {"N": n_trials, "cost": cost, "grid_size": int(grid_size), "horizon": surface.horizon},
        worst,
        tol,
        {"n": n, "pi": float(grid[j])},
    )


# ---------------------------------------------------------------------------
# randomized probe for the open time-monotonicity question
# ---------------------------------------------------------------------------

PROBE_WINDOWS = {
    "gaussian-mean": (-2.0, 2.0),
    "bernoulli": (-2.5, 2.5),
    "binomial(3)": (-2.0, 2.0),
    "exponential-rate": (0.3, 3.0),
    "gaussian-variance": (0.3, 3.0),
}


def sample_random_prior(rng, window) -> Prior:
    """Random two-sided prior: 2-10 atoms uniform in the window, Dirichlet weights."""
    lo, hi = window
    k = int(rng.integers(2, 11))
    for _ in range(200):
        atoms = np.sort(rng.uniform(lo, hi, size=k))
        if np.min(np.diff(atoms)) > 1e-3 * (hi - lo):
            break
    weights = rng.dirichlet(np.ones(k))
    weights = np.maximum(weights, 1e-12)
    theta0 = float(rng.uniform(atoms[0], atoms[-1]))
    if not np.any(atoms > theta0):  # guard against the measure-zero edge draw
        theta0 = float(0.5 * (atoms[0] + atoms[-1]))
    return make_prior(atoms, weights, theta0)


def conjecture_probe(
    models,
    cost: float = 0.05,
    trials: int = 100,
    seed: int = 0,
    grid_size: int = 501,
) -> list:
    """Hunt for time-monotonicity violations over random priors.

    Per-trial randomness derives from (seed, trial index), so results are
    deterministic and independent of execution order; trials can be
    partitioned across workers.  Priors come from ``PROBE_WINDOWS``, each
    surface runs to ``choose_horizon(cost)``, and each report is
    ``check_time_monotonicity`` at its default tolerance.  A violation is a
    FINDING carrying full reproduction data, never an assertion failure: it
    may falsify the conjectured monotonicity or expose numerical error, and
    needs human adjudication either way.
    """
    models = list(models)
    if not models:
        raise ValueError("probe requires at least one model")
    trials = _count(trials, "probe trials", 1)
    seed = _count(seed, "probe seed")
    for model in models:
        if model not in PROBE_WINDOWS:
            raise ValueError(f"probe has no prior window for model '{model}'; "
                             f"models with windows: {', '.join(PROBE_WINDOWS)}")
    horizon = choose_horizon(cost)
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        model = models[trial % len(models)]
        prior = sample_random_prior(rng, PROBE_WINDOWS[model])
        family = family_for_prior(model, prior)
        surface = solve(prior, family, cost, horizon, grid_size)
        reports.append(replace(
            check_time_monotonicity(surface),
            check="conjecture-probe",
            instance={
                "trial": trial,
                "seed": seed,
                "model": model,
                "atoms": [float(v) for v in prior.atoms],
                "weights": [float(v) for v in np.exp(prior.log_weights)],
                "theta0": prior.theta0,
                "cost": cost,
                "grid_size": int(grid_size),
                "horizon": int(horizon),
            },
            asserted=False,
        ))
    return reports
