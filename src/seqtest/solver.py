"""Backward-induction solver for the sequential testing value function.

The value surface V[n][j] approximates the minimal expected remaining cost
(terminal misclassification loss pi ^ (1 - pi) plus a per-observation cost)
when the posterior probability of the upper hypothesis is pi_grid[j] at
time n.  The recursion is

    V[n] = min( pi ^ (1-pi),  c + E[ V[n+1](next pi) ] )

with the terminal layer of the truncated problem set to the gain.  The
expectation runs over the one-step posterior-probability transition law and
evaluates V[n+1] by piecewise-linear interpolation on the grid, which
preserves concavity of each layer.  Grid endpoints 0 and 1 are absorbing
with value 0; the expectation is never evaluated there.

Each layer's stopping set is an interval complement: the continuation
region is (b1[n], b2[n]) with b1 <= 1/2 <= b2.  Boundaries are reported as
grid values (one-cell uncertainty; no sub-grid polishing).

The expectation is computed only where stopping is not certified.  Every
layer is concave, so on each side of 1/2 the margin
f(pi) = c + E[V[n+1](next pi)] - pi ^ (1-pi) is concave, and it tends to
c > 0 at pi = 0 and at pi = 1.  Once f >= delta = 1e-9 at a grid point,
every point from there to that end of the grid stops.  ``_step`` computes
one range of points around layer n + 1's continuation interval and widens
it until f >= delta at both ends; the points outside take the gain, which
is what the full-grid step gives them, bit for bit.  It computes the whole
grid instead when the cost is at most delta or when layer n + 1 is not
concave within delta / 2 (``bellman_step`` accepts any layer).

The exact oracle (``brute_force_value``) runs the recursion on the (n, y)
lattice of a finite-outcome model (``_lattice``), with no grid and no
interpolation; ``_continuation`` merges a batch's paths by outcome sum.
"""

import csv
import json
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from scipy.special import expit, logit, logsumexp

from .families import _MAX_VALUES, NaturalFamily, _count, _positive_finite
from .priors import Prior, _Ctx, _log_odds, _predictive, _sum_rows, _transition, _unnorm_log_weights, _y_of_logit

__all__ = [
    "ValueSurface",
    "PolicyDecision",
    "make_grid",
    "gain",
    "bellman_step",
    "solve",
    "extract_boundaries",
    "policy_decide",
    "choose_horizon",
    "value_at",
    "write_surface_json",
    "read_surface_json",
    "write_boundaries_csv",
    "read_boundaries_csv",
    "write_value_layers_csv",
    "brute_force_value",
    "enumerate_reachable_pis",
]

# points with V >= gain - STOP_TOL are classified as stopped
STOP_TOL = 1e-12
# delta of the stopping certificate in ``_step``: a point whose margin
# c + E[V[n+1](next pi)] - gain reaches it stops, and so does every point
# between it and the nearer end of the grid
_STOP_MARGIN = 1e-9
# distinct (n, y) nodes a lattice may hold (``_lattice``)
_MAX_NODES = 10**6
# cells by which ``_step`` pads layer n + 1's continuation interval, on top
# of the boundary's last move, and its first widening chunk
_PAD = 16


def gain(pi):
    """Cost of stopping immediately at posterior probability pi."""
    pi = np.asarray(pi, dtype=float)
    return np.minimum(pi, 1.0 - pi)


@dataclass(frozen=True)
class ValueSurface:
    """Solved value grid plus extracted stopping boundaries; ``provenance`` names the model and
    prior ``solve`` solved it for, and is None for a surface read from a file that holds none."""

    cost: float
    horizon: int
    pi_grid: np.ndarray
    values: np.ndarray  # shape (horizon + 1, len(pi_grid))
    b1: np.ndarray
    b2: np.ndarray
    provenance: dict | None = None


@dataclass(frozen=True)
class PolicyDecision:
    action: str  # "continue" | "stop"
    accept: int | None = None  # 1 accepts the upper hypothesis; set when stopping


def make_grid(size: int, kind: str = "uniform", include=()) -> np.ndarray:
    """Probability grid on [0, 1] including the endpoints.

    ``include`` splices extra interior points into the base grid (used to
    make specific starting probabilities exactly representable).
    """
    size = _count(size, "grid size", 3)
    if kind == "uniform":
        base = np.linspace(0.0, 1.0, size)
    elif kind == "cosine":
        base = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, size)))
        # symmetrize so the endpoints and (for odd sizes) the midpoint are exact
        base = 0.5 * (base + (1.0 - base[::-1]))
        base[0] = 0.0
        base[-1] = 1.0
        if size % 2 == 1:
            base[size // 2] = 0.5
    else:
        raise ValueError(f"unknown grid kind '{kind}'")
    extra = np.asarray(list(include), dtype=float)
    if extra.size:
        # written so that nan fails it too
        if not np.all((extra > 0.0) & (extra < 1.0)):
            raise ValueError("include points must lie strictly inside (0, 1)")
        base = np.union1d(base, extra)
    return base


def _check_grid(grid, what: str = "grid") -> np.ndarray:
    """``grid`` as floats; refused unless a flat array of at least 3 points increasing strictly from 0 to 1."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or grid[0] != 0.0 or grid[-1] != 1.0 or not np.all(np.diff(grid) > 0):
        raise ValueError(f"{what} must be a flat array of at least 3 points that increase strictly from 0 to 1")
    return grid


def _lattice(points: np.ndarray, horizon: int):
    """Reachable (n, y) nodes of a model with the finite outcomes ``points``, layer by layer.

    Returns ``(layers, children)``: ``layers[n]`` holds the distinct sums y
    after n observations, increasing, and ``children[n][i, k]`` the node that
    node i of layer n reaches on outcome k, so paths with one sum share a
    node.  A lattice of more than ``_MAX_NODES`` nodes is refused.
    """
    layers, children, nodes = [np.zeros(1)], [], 1
    for _ in range(_count(horizon, "horizon")):
        ys = layers[-1]
        # the next layer has at most ys.size * K nodes; refuse before building it
        if nodes + ys.size * points.size > _MAX_NODES:
            raise ValueError("oracle tree too large for this horizon")
        nxt, child = np.unique(ys[:, None] + points, return_inverse=True)
        layers.append(nxt)
        children.append(child.reshape(ys.size, points.size))
        nodes += nxt.size
    return layers, children


def _continuation(ctx: _Ctx, grid: np.ndarray, a: int, b: int, n: int, next_layer: np.ndarray,
                  steps: int = 1) -> np.ndarray:
    """E[ interp(next_layer)(pi_{n+steps}) | pi_n = grid[a:b] ], with no stop in between.

    Each observation path carries the product of the predictive masses along
    it to the state it reaches, so only the layer at time n + steps is
    interpolated, and only there is next pi computed.  Paths with one outcome
    sum reach one state: after each intermediate step at most
    (steps - 1)(K - 1) + 1 states remain for K outcomes, not K^(steps - 1)
    paths.  The outcomes must be equally spaced, as bernoulli's and
    binomial(N)'s, the only schemes ever batched, are; then state i reaches
    state i + k on outcome k.  Each intermediate step takes its S states,
    stacked (S, P) for P points, in one ``_predictive`` call, and adds the
    masses of outcome k into the merged states by one shifted slice, k from
    K - 1 down to 0: each merged mass adds its paths from zero in source
    order, and keeps the y of the first.  The last step streams each state's
    ``_transition`` chunks, interpolated by one ``np.interp`` each, into the
    running sum in outcome order (``_sum_rows``), the one-outcome-at-a-time
    sum bit for bit; one observation per step leaves one state of mass 1.0,
    exact to multiply by.  Each point's values do not depend on the other
    points or states in the call, so any split of the grid into ranges gives
    the same values bit for bit.
    """
    y = _y_of_logit(ctx, n, logit(grid[a:b]))
    masses, ys, k = np.ones((1, y.size)), y[None], ctx.points.size
    for m in range(n, n + steps - 1):
        preds = np.concatenate([pred for _, pred in _predictive(ctx, m, ys)])
        merged = np.zeros((len(masses) + k - 1, y.size))
        for j in reversed(range(k)):
            merged[j:j + len(masses)] += masses * preds[j]
        masses, ys = merged, np.concatenate([ys[:1] + ctx.points[:k - 1, None], ys + ctx.points[k - 1]])
    cont = 0.0
    for mass, y in zip(masses, ys):
        for pred, next_pi in _transition(ctx, n + steps - 1, y):
            part = mass * pred * np.interp(next_pi, grid, next_layer)
            part[0] += cont
            cont = _sum_rows(part)
    return cont


def _concavity_defect(grid: np.ndarray, layer: np.ndarray) -> float:
    """A bound on how far ``layer`` lies above a concave function below it.

    The slopes' running maximum from the right, S_k = max(s_k, s_k+1, ...),
    never increases, so integrating it back from the right end gives a
    concave function below the layer.  The two part by at most
    sum_k (S_k - s_k) h_k over the cells k of width h_k, which is 0 on a
    concave layer; nan where the layer holds a non-finite value.
    """
    h = np.diff(grid)
    slope = np.diff(layer) / h
    return float((np.maximum.accumulate(slope[::-1])[::-1] - slope) @ h)


def _interval(grid, g, layer):
    """Grid indices of the first and last interior points where ``layer`` lies below the gain ``g``,
    widened to take in the grid points next to 1/2."""
    going = np.flatnonzero(layer[1:-1] < g[1:-1]) + 1
    lo = int(np.searchsorted(grid, 0.5, side="right")) - 1
    hi = int(np.searchsorted(grid, 0.5, side="left"))
    if going.size:
        lo, hi = min(lo, int(going[0])), max(hi, int(going[-1]))
    return lo, hi


def _step(ctx, grid, n, next_layer, cost, steps=1, later=None):
    """Layer n from layer n + 1: min(gain, cost + continuation) inside, 0 at both ends.

    The stopping certificate: the margin f(pi) = c + E[V[n+1](next pi)] -
    gain(pi) is concave on each side of pi = 1/2 when V[n+1] is concave,
    because the expectation keeps layers concave and the gain is linear
    there, and f tends to c + V[n+1](0) at pi = 0 and to c + V[n+1](1) at
    pi = 1, which are c on every layer ``_backward`` builds.  So once
    f >= delta = ``_STOP_MARGIN`` at a grid point, f stays positive from
    there to that end of the grid, and every point there takes the gain,
    which is what np.minimum returns.  The continuation is therefore
    computed on one range of interior points only: layer n + 1's
    continuation interval, or the grid points next to 1/2, padded by
    ``_PAD`` cells, then widened at each end by chunks of 16, 32, 64, ...
    cells until f >= delta at that end or the range reaches it.  Given
    layer n + 2 as ``later``, as ``_backward`` gives it, each end is padded
    by as many cells again as it moved out from layer n + 2's interval to
    layer n + 1's, since the boundaries widen backward in time; an end that
    moved in gets ``_PAD`` alone.  The prediction only saves widening calls:
    the widening still runs, so the certificate covers every skipped point
    whether or not the boundaries are monotone.

    The whole grid is computed instead where the certificate does not
    hold: a limit of f at an end is not above delta, as with a cost at or
    below delta; or ``_concavity_defect`` puts layer n + 1 more than
    delta / 2 from concave, as it may for a layer given to
    ``bellman_step``.  A defect D and the rounding of f (about 1e-13)
    lower the bound f >= delta on the skipped points by at most D plus
    twice that rounding, which leaves it positive.  ``make_grid``, the
    surface reader and ``bellman_step`` hand this step only grids that
    increase strictly from 0 to 1 (``_check_grid``).
    """
    g = gain(grid)
    out = g.copy()
    out[0] = out[-1] = 0.0
    end = grid.size - 1
    if (min(next_layer[0], next_layer[-1]) + cost > _STOP_MARGIN
            and _concavity_defect(grid, next_layer) <= _STOP_MARGIN / 2):
        lo, hi = _interval(grid, g, next_layer)
        # each end moves on by as many cells as it moved from layer n + 2
        lo_then, hi_then = (lo, hi) if later is None else _interval(grid, g, later)
        a = max(1, lo - _PAD - max(0, lo_then - lo))
        b = min(end, hi + 1 + _PAD + max(0, hi - hi_then))
    else:
        a, b = 1, end
    parts = [cost + _continuation(ctx, grid, a, b, n, next_layer, steps)]
    chunk = _PAD
    while a > 1 and parts[0][0] - g[a] < _STOP_MARGIN:
        a, stop = max(1, a - chunk), a
        parts.insert(0, cost + _continuation(ctx, grid, a, stop, n, next_layer, steps))
        chunk *= 2
    chunk = _PAD
    while b < end and parts[-1][-1] - g[b - 1] < _STOP_MARGIN:
        start, b = b, min(end, b + chunk)
        parts.append(cost + _continuation(ctx, grid, start, b, n, next_layer, steps))
        chunk *= 2
    out[a:b] = np.minimum(g[a:b], np.concatenate(parts))
    return out


def _backward(ctx: _Ctx, grid: np.ndarray, horizon: int, cost: float, steps: int = 1) -> np.ndarray:
    """Backward induction from V[horizon] = gain down to V[0].

    Layer n belongs to time n * steps: stop there, or pay ``cost`` once for
    the next ``steps`` observations, with no stop in between.  ``solve`` takes
    one observation per layer; the binomial-reduction check takes N.
    """
    values = np.empty((horizon + 1, grid.size))
    values[horizon] = gain(grid)
    for n in range(horizon - 1, -1, -1):
        later = values[n + 2] if n + 2 <= horizon else None
        values[n] = _step(ctx, grid, n * steps, values[n + 1], cost, steps, later)
    return values


def brute_force_value(prior: Prior, family: NaturalFamily, cost: float, horizon: int) -> float:
    """Exact truncated value at the root (0, prior mass above threshold).

    Builds the lattice of reachable (n, y) nodes and applies the
    dynamic-programming recursion on it directly, so the only numerical
    error is log-sum-exp roundoff.  Requires a finite observation scheme.
    """
    cost = _positive_finite(cost)
    if family.scheme.kind != "finite":
        raise ValueError("oracle requires finite outcomes")
    layers, children = _lattice(family.scheme.points, horizon)
    ctx = _Ctx(prior, family)
    horizon = len(layers) - 1
    for n in range(horizon, -1, -1):
        z = _unnorm_log_weights(ctx, n, layers[n])
        g = gain(expit(logsumexp(z[:, ctx.up], axis=1) - logsumexp(z[:, ctx.lo], axis=1)))
        if n == horizon:
            value = g
            continue
        lw = z - logsumexp(z, axis=1)[:, None]
        cont = np.full(g.shape, cost)
        for k in range(ctx.points.size):
            log_pred = logsumexp(lw + ctx.ux[k], axis=1) + ctx.log_mass[k]
            cont += np.exp(log_pred) * value[children[n][:, k]]
        value = np.minimum(g, cont)
    return float(value[0])


def enumerate_reachable_pis(prior: Prior, family: NaturalFamily, horizon: int):
    """All posterior probabilities reachable on the exact outcome lattice.

    Useful for splicing into a solver grid so the oracle comparison is free
    of interpolation error.  Values within 1e-9 of 0 or 1 are dropped (they
    carry negligible value mass and cannot be inverted reliably).
    """
    if family.scheme.kind != "finite":
        raise ValueError("oracle requires finite outcomes")
    layers, _ = _lattice(family.scheme.points, horizon)
    ctx = _Ctx(prior, family)
    pis = np.concatenate([expit(_log_odds(ctx, n, ys)) for n, ys in enumerate(layers)])
    return np.unique(pis[(pis > 1e-9) & (pis < 1.0 - 1e-9)])


def bellman_step(next_layer, n: int, grid, prior: Prior, family: NaturalFamily, cost: float):
    """One backward step: layer at time n from the layer at time n + 1."""
    n = _count(n, "observation count n")
    cost = _positive_finite(cost)
    grid = _check_grid(grid)
    next_layer = np.asarray(next_layer, dtype=float)
    if next_layer.shape != grid.shape:
        raise ValueError("next_layer must be defined on the same grid")
    return _step(_Ctx(prior, family), grid, n, next_layer, cost)


def solve(
    prior: Prior,
    family: NaturalFamily,
    cost: float,
    horizon: int,
    grid_size: int = 2001,
    grid_kind: str = "uniform",
    include=(),
) -> ValueSurface:
    """Solve the truncated problem and extract per-layer stopping boundaries.

    A surface of more than ``_MAX_VALUES`` values is refused before its grid is built.
    """
    cost = _positive_finite(cost)
    horizon = _count(horizon, "horizon", 1)
    include = list(include)
    points = _count(grid_size, "grid size", 3) + len(include)
    if (horizon + 1) * points > _MAX_VALUES:
        # a horizon such as choose_horizon(1e-300), about 6e299, is quoted in short form
        quoted = str(horizon) if horizon <= 10**15 else f"{Decimal(horizon):.2e}"
        raise ValueError(f"a surface of horizon {quoted} on {points} grid points exceeds the budget of "
                         f"{_MAX_VALUES} values; raise the cost or lower the horizon or the grid size")
    grid = make_grid(grid_size, grid_kind, include)
    values = _backward(_Ctx(prior, family), grid, horizon, cost)
    b1, b2 = _boundaries(values, grid)
    return ValueSurface(cost, horizon, grid, values, b1, b2, _provenance(prior, family))


def _boundaries(values: np.ndarray, grid: np.ndarray):
    """Per layer, the last stopped grid point at or below 1/2 and the first at or
    above it; 1/2 where there is none or where the layer stops everywhere."""
    i_lo = int(np.searchsorted(grid, 0.5, side="right")) - 1
    i_hi = int(np.searchsorted(grid, 0.5, side="left"))
    stopped = values >= gain(grid) - STOP_TOL
    some = ~stopped.all(axis=1)
    below, above = stopped[:, i_lo::-1], stopped[:, i_hi:]
    b1 = np.where(some & below.any(axis=1), grid[i_lo - np.argmax(below, axis=1)], 0.5)
    b2 = np.where(some & above.any(axis=1), grid[i_hi + np.argmax(above, axis=1)], 0.5)
    return b1, b2


def extract_boundaries(surface: ValueSurface):
    """Per-layer boundaries: outermost stopped grid points around 1/2."""
    return _boundaries(np.asarray(surface.values, dtype=float), np.asarray(surface.pi_grid, dtype=float))


def policy_decide(surface: ValueSurface, n: int, pi: float) -> PolicyDecision:
    """Optimal action at (n, pi): continue inside (b1[n], b2[n]), else stop.

    On stopping, the upper hypothesis is accepted iff pi > 1/2 (ties go to
    the lower hypothesis).  At the terminal layer stopping is forced.
    """
    if _count(n, "time index n") > surface.horizon:
        raise ValueError("time index outside the surface horizon")
    pi = _probability(pi)
    if n < surface.horizon and surface.b1[n] < pi < surface.b2[n]:
        return PolicyDecision(action="continue")
    return PolicyDecision(action="stop", accept=int(pi > 0.5))


def choose_horizon(cost: float, slack: float = 0.1) -> int:
    """Truncation horizon N = ceil(1/(2c)) + ceil(slack/c).

    Any policy expecting more than 1/(2c) observations is dominated by
    stopping immediately (the value never exceeds 1/2); the slack term
    pushes the residual truncation bias below ``slack``.  The bias left is
    not negligible at coarse costs: on the bundled two-atom Bernoulli prior
    at c = 0.05 the exact value moves by 2.9e-4 from N = 12 (this choice) to
    N = 23.  A cost so small that 1/(2c) or slack/c overflows is refused.
    """
    cost = _positive_finite(cost)
    slack = _positive_finite(slack, "slack")
    half, extra = 1.0 / (2.0 * cost), slack / cost
    if not (math.isfinite(half) and math.isfinite(extra)):
        raise ValueError(f"cost {cost!r} with slack {slack!r} gives no finite horizon: 1/(2c) or slack/c overflows")
    guard = 1e-12
    return int(math.ceil(half - guard)) + int(math.ceil(extra - guard))


def value_at(surface: ValueSurface, n: int, pi: float) -> float:
    """Piecewise-linear read of the surface at (n, pi)."""
    if _count(n, "time index n") > surface.horizon:
        raise ValueError("time index outside the surface horizon")
    return float(np.interp(_probability(pi), surface.pi_grid, surface.values[n]))


def _probability(pi) -> float:
    """``pi`` as a float, refused unless it lies in [0, 1] (nan does not)."""
    pi = float(pi)
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"probability pi must lie in [0, 1], got {pi!r}")
    return pi


# ---------------------------------------------------------------------------
# lossless import/export
# ---------------------------------------------------------------------------


def write_surface_json(surface: ValueSurface, path):
    """Write ``surface`` losslessly, with its provenance when it has one."""
    def floats(a):
        return np.asarray(a, dtype=float).tolist()

    # read_surface_json rejects nan and inf, so they are refused before the file is opened
    values = np.asarray(surface.values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("surface holds non-finite values; refusing to write it")
    g = gain(surface.pi_grid)
    if values.shape != (surface.horizon + 1, g.size):
        raise ValueError(f"surface values have shape {values.shape}, not (horizon + 1, grid size) = "
                         f"{(surface.horizon + 1, g.size)}; refusing to write them")
    head = {"cost": surface.cost, "horizon": surface.horizon, "pi_grid": floats(surface.pi_grid)}
    tail = {"b1": floats(surface.b1), "b2": floats(surface.b2)}
    if surface.provenance is not None:
        tail["provenance"] = surface.provenance
    head, tail = (json.dumps(part, allow_nan=False) for part in (head, tail))
    # Every stopped cell holds gain(pi_grid) bit for bit, and the stopped
    # cells sit at both ends of each layer, so the gain's text is formatted
    # once and each layer's ends are cut from it; only the span between the
    # first and last cell whose bits differ from the gain's goes through the
    # encoder.  Bits, not values, are compared, so -0.0 is not taken for 0.0.
    # json.dumps runs the C encoder, about twice as fast as json.dump's Python
    # one, but holds all its output in memory, so the values go out one layer
    # at a time; the bytes are those of json.dump on the whole payload
    g_bits = g.view(np.int64)
    parts = [repr(v) for v in g.tolist()]
    g_text = ", ".join(parts)
    # g_text[starts[i]:ends[i]] is the text of the gain's cell i
    ends = np.cumsum([len(t) + 2 for t in parts]) - 2
    starts = ends - [len(t) for t in parts]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "values": [')
        for n, layer in enumerate(values):
            cells = np.flatnonzero(layer.view(np.int64) != g_bits)
            if cells.size:
                a, b = cells[0], cells[-1]
                text = g_text[:starts[a]] + json.dumps(layer[a:b + 1].tolist())[1:-1] + g_text[ends[b]:]
            else:
                text = g_text
            fh.write((", " if n else "") + text)
        fh.write("], " + tail[1:] + "\n")


def _surface_array(payload, key):
    try:
        arr = np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"surface file: '{key}' is not a list of numbers") from exc
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError(f"surface file: '{key}' must be a flat list of finite numbers")
    return arr


def read_surface_json(path) -> ValueSurface:
    """Load a surface written by ``write_surface_json``, with its provenance, rejecting malformed files."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("surface file must hold a JSON object")
    missing = [key for key in ("cost", "horizon", "pi_grid", "values", "b1", "b2") if key not in payload]
    if missing:
        raise ValueError(f"surface file is missing key(s): {', '.join(missing)}")
    horizon = _count(payload["horizon"], "surface file: 'horizon'", 1)
    cost = payload["cost"]
    if type(cost) not in (int, float) or not (math.isfinite(cost) and cost > 0):
        raise ValueError("surface file: 'cost' must be a positive finite number")
    grid = _check_grid(_surface_array(payload, "pi_grid"), "surface file: 'pi_grid'")
    values = _surface_array(payload, "values")
    if values.size != (horizon + 1) * grid.size:
        raise ValueError(
            f"surface file: 'values' has {values.size} entries, expected "
            f"(horizon + 1) * grid size = {(horizon + 1) * grid.size}"
        )
    b1, b2 = _surface_array(payload, "b1"), _surface_array(payload, "b2")
    if b1.size != horizon + 1 or b2.size != horizon + 1:
        raise ValueError(f"surface file: 'b1' and 'b2' must have horizon + 1 = {horizon + 1} entries")
    if np.any(b1 < 0.0) or np.any(b1 > 0.5) or np.any(b2 < 0.5) or np.any(b2 > 1.0):
        raise ValueError("surface file: boundaries must satisfy 0 <= b1 <= 1/2 <= b2 <= 1")
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ValueError("surface file: 'provenance' must be a JSON object")
    return ValueSurface(
        cost=float(cost),
        horizon=horizon,
        pi_grid=grid,
        values=values.reshape(horizon + 1, grid.size),
        b1=b1,
        b2=b2,
        provenance=provenance,
    )


def _provenance(prior: Prior, family: NaturalFamily) -> dict:
    """The model and prior a surface is for, as ``solve`` records them.

    A family read from a scheme file, the only one named "custom", is named
    by its outcomes x and base weights h, so the same scheme under another
    path still matches.
    """
    if family.name == "custom":
        model = {"scheme": {"x": family.scheme.points.tolist(), "h": family.scheme.base_weights.tolist()}}
    else:
        model = {"model": family.name}
    weights = [math.exp(w) for w in prior.log_weights.tolist()]
    return {**model, "prior": {"atoms": prior.atoms.tolist(), "weights": weights, "theta0": prior.theta0}}


def _same_prior(recorded, current) -> bool:
    """Whether a recorded prior is ``current``: atoms and theta0 alike, weights within 1e-12.

    Weights are normalized when recorded, so the same prior written with
    scaled weights (1, 1 or 3, 3) can differ in the last bit.
    """
    if not isinstance(recorded, dict) or recorded.keys() != current.keys():
        return False
    weights = recorded["weights"]
    return (recorded["atoms"] == current["atoms"] and recorded["theta0"] == current["theta0"]
            and isinstance(weights, list) and len(weights) == len(current["weights"])
            and all(type(w) in (int, float) and math.isclose(w, v, rel_tol=1e-12)
                    for w, v in zip(weights, current["weights"])))


def _check_provenance(surface: ValueSurface, prior: Prior, family: NaturalFamily):
    """Refuse to replay ``surface`` against a model or prior it was not solved for.

    A surface without provenance, read from a file that holds none, is accepted as it is.
    """
    recorded, current = surface.provenance, _provenance(prior, family)
    if recorded is None:
        return

    def model(p):
        return f"model {p['model']!r}" if "model" in p else "a --scheme model"

    if (recorded.get("model"), recorded.get("scheme")) != (current.get("model"), current.get("scheme")):
        raise ValueError(f"surface was solved for {model(recorded)}, not {model(current)}")
    if not _same_prior(recorded.get("prior"), current["prior"]):
        raise ValueError("surface was solved for another prior (its atoms, weights or theta0 differ)")


def _boundaries_csv(surface: ValueSurface):
    """The lines of boundaries.csv, each ending in LF: the header n,b1,b2, then one row per layer."""
    yield "n,b1,b2\n"
    b1, b2 = (np.asarray(b, dtype=float).tolist() for b in (surface.b1, surface.b2))
    for n in range(surface.horizon + 1):
        yield f"{n},{b1[n]!r},{b2[n]!r}\n"


def write_boundaries_csv(surface: ValueSurface, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_boundaries_csv(surface))


def read_boundaries_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["n", "b1", "b2"]:
            raise ValueError(f"boundaries file must have header 'n,b1,b2', got {header!r}")
        rows = []
        for row in reader:
            try:
                n, b1, b2 = row
                rows.append((int(n), float(b1), float(b2)))
            except ValueError:
                raise ValueError(f"malformed boundaries row: {','.join(row)!r}") from None
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError("boundaries file rows must be consecutive layers starting at 0")
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


def _value_layers_csv(surface: ValueSurface):
    """The lines of value_layers.csv, each ending in LF: the header n,pi,V, then one row per grid point and layer."""
    yield "n,pi,V\n"
    grid = np.asarray(surface.pi_grid, dtype=float).tolist()
    for n in range(surface.horizon + 1):
        for p, v in zip(grid, np.asarray(surface.values[n], dtype=float).tolist()):
            yield f"{n},{p!r},{v!r}\n"


def write_value_layers_csv(surface: ValueSurface, path):
    """Long-format (n, pi, V) rows for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_value_layers_csv(surface))
