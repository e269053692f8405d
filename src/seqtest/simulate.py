"""Monte Carlo policy evaluation: draws the parameter from the prior's atoms
(so the estimate is exactly the Bayes risk: misclassification probability
plus cost times expected stopping time), replays the optimal or an
alternative stopping rule, and reports replicate-level aggregates.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit, logit

from .families import _MAX_VALUES, NaturalFamily, _count, _outcome_cdf, _positive_finite
from .priors import LEVEL_EPS, Prior, _Ctx, _log_odds, _side_lse_mean, _y_of_logit
from .solver import ValueSurface, _check_provenance

__all__ = [
    "SimulationReport",
    "FixedSampleRule",
    "ThresholdRule",
    "simulate_policy",
    "simulate_alternative",
]

# replicates per simulation block: with its straggler pool (``_replay``) the
# replay holds fewer than 2 _BLOCK rows, whatever the replicate count or
# horizon.  Every draw is keyed by (seed, replicate, step), so results do not
# depend on it.
_BLOCK = 32768

# SplitMix64 (Steele, Lea and Flood 2014): the golden-ratio increment and the
# finalizer's multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# the bits of the double 1.0
_ONE_BITS = np.uint64(0x3FF0000000000000)


def _mix(z):
    """SplitMix64 finalizer of a uint64 array, in place; a bijection.

    The shifts go through one scratch array, and the array ops wrap around
    without warnings.
    """
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _unit(z):
    """Map uint64 values to doubles strictly inside (0, 1), in place.

    The top 52 bits k become the mantissa of 1 + k 2^-52, and subtracting
    1 - 2^-53 leaves (k + 1/2) 2^-52 in [2^-53, 1 - 2^-53].  Both steps are
    exact, the subtraction by Sterbenz's lemma; with 53 bits the half would
    round the largest k onto 1.  Returns a float view of ``z``.
    """
    z >>= np.uint64(12)
    z |= _ONE_BITS
    u = z.view(float)
    u -= 1.0 - 2.0**-53
    return u


def _row_keys(seed, rows):
    """Key of each replicate r in ``rows``: the finalizer of (seed, r)."""
    seed_key = _mix(np.array([seed], dtype=np.uint64) + np.uint64(_GOLDEN))
    return _mix(seed_key ^ rows.astype(np.uint64))


def _keyed_word(keys, slot):
    """Output slot + 1 of the SplitMix64 generator seeded with each row key.

    ``slot`` is an int shared by the keys or an array of one slot per key;
    the offset (slot + 1) GOLDEN wraps around uint64 in array arithmetic,
    which emits no warnings.
    """
    offset = (np.atleast_1d(slot).astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    return _mix(keys + offset)


class _KeyedUniforms:
    """Uniform source of a set of replicates at one slot of their streams.

    ``random()`` returns U(seed, r, slot), ``_unit`` of each row key's
    ``_keyed_word``.  Slot 0 draws the parameter and slot n + 1 the
    observation taken at layer n.  It stands in for a Generator in
    ``family.sampler``, which reads only ``random``, and always returns one
    uniform per key.
    """

    def __init__(self, keys, slot):
        self.keys = keys
        self.slot = slot

    def random(self, size=None):
        return _unit(_keyed_word(self.keys, self.slot))


def _draw_thetas(prior, keys):
    """Each replicate's parameter, as an index into ``prior.atoms``: the
    prior's weight CDF inverted at its slot-0 uniform.

    The atom index counts the first A - 1 CDF values at or below U, which is
    min(searchsorted(cdf, U, "right"), A - 1).
    """
    cdf = np.cumsum(np.exp(prior.log_weights))
    u = _KeyedUniforms(keys, 0).random()
    idx = np.zeros(keys.size, dtype=np.intp)
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def _thresholds(scheme, atoms):
    """(K - 1, A) table T of a finite scheme's inverse CDF on the words' top 52 bits.

    T[j, i] is the least k in [0, 2^52] at which the finite sampler at
    atoms[i], handed the uniform U(k) = (k + 1/2) 2^-52 that ``_unit`` makes
    of a word whose top 52 bits are k, draws above points[j]; 2^52 where no
    k does.  With c the partial sum c_j and tot the total of ``_outcome_cdf``
    at atoms[i], the sampler draws above points[j] where U tot > c, which
    stays true as k grows, so it draws points[#{j : k >= T[j, i]}] at k.
    In exact arithmetic T is the least k above c/tot 2^52 - 1/2.  The
    rounding of U tot moves it by at most 1, because c/tot <= 1, and the
    rounding of c/tot 2^52 - 1/2 by at most 1 more, so T lies within 3 of
    floor(c/tot 2^52 - 1/2).  The table starts 4 below that floor and adds
    the number of the next 8 k at which the sampler's own comparison still
    fails.
    """
    cdf = _outcome_cdf(scheme, atoms)
    c, tot = cdf[:-1], cdf[-1]
    k0 = np.clip(np.floor(c / tot * 2.0**52 - 0.5) - 4, 0, 2**52).astype(np.uint64)
    k = k0 + np.arange(8, dtype=np.uint64)[:, None, None]
    # a k of 2^52 wraps to 0 in the shift; it never counts
    below = (k < np.uint64(2**52)) & ~(_unit(k << np.uint64(12)) * tot > c)
    return k0 + np.count_nonzero(below, axis=0).astype(np.uint64)


@dataclass(frozen=True)
class SimulationReport:
    """Replicate-level summary of one simulation run.

    ``mean_cost`` is the average of 1{wrong decision} + c * tau over
    replicates and ``std_error`` its sample standard error.  ``error_rates``
    are the joint frequencies (accept upper & parameter at or below
    threshold, accept lower & parameter above threshold).  ``capped`` counts
    replicates that were still running when they hit the horizon cap.  All
    of them are read from a count of replicates per (decision, side of
    theta0, tau), so memory does not grow with the replicate count.
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


@dataclass(frozen=True)
class FixedSampleRule:
    """Observe exactly ``size`` samples, then decide by the 1/2 rule."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _count(self.size, "fixed sample size"))

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
        object.__setattr__(self, "max_steps", _count(self.max_steps, "threshold rule cap"))

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
# halvings of the gap-based half-width tried against a steeper slope bound:
# 2^-23 covers a slope 8e6 times the gap
_BAND_HALVINGS = 24


def _level_bands(ctx, n, p):
    """Uncertain y-interval [a, b] of the test pi > p at layer n, for each p.

    Where y < a, the pi the replay computes, expit(_log_odds(ctx, n, y)), is
    below p, and where y > b it is above p; only y in [a, b] needs that pi
    computed.  The interval is the level-curve point y(n, p) widened by the
    log-odds margin above divided by a lower bound on the log-odds slope
    over the interval: the atom gap across theta0, or where larger the
    difference of the side-wise posterior means at the interval's ends.  A
    p outside the invertible range, such as a boundary at 0 or 1, is
    inverted at 1.01 LEVEL_EPS from its end and the band runs on to
    infinity past it; p = -inf or inf needs no band.
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
    # The log-odds slope E_up[u] - E_lo[u] is at least the atom gap across
    # theta0 and, since both side-wise means increase in y, at least
    # E_up[u](y - d) - E_lo[u](y + d) on [y - d, y + d].  Candidate half-widths
    # d halve down from the margin over the gap; the narrowest whose bound s
    # covers the margin (d s >= margin) gives the band margin / s, which lies
    # inside [y - d, y + d], where s holds.  The widest candidate always holds
    gap = ctx.atoms[ctx.split] - ctx.atoms[ctx.split - 1]
    d = (margin / gap)[..., None] * 0.5 ** np.arange(_BAND_HALVINGS)
    nd = n[..., None] if isinstance(n, np.ndarray) else n
    e_up = _side_lse_mean(ctx, ctx.up, nd, y[..., None] - d)[1]
    e_lo = _side_lse_mean(ctx, ctx.lo, nd, y[..., None] + d)[1]
    slope = np.maximum(gap, e_up - e_lo)
    enough = d * slope >= margin[..., None]
    enough[..., 0] = True
    k = _BAND_HALVINGS - 1 - np.argmax(enough[..., ::-1], axis=-1)
    dy = margin / np.take_along_axis(slope, k[..., None], axis=-1)[..., 0]
    a = np.where(np.isinf(p), p, np.where(p < q, -np.inf, y - dy))
    b = np.where(np.isinf(p), p, np.where(p > q, np.inf, y + dy))
    return a, b


def _advance(run, until, lo, hi, edges, ctx, draw, stops):
    """Replay the running rows ``run`` until at most ``until`` of them still run.

    ``run`` is (keys, idx, y, n, rows): each row's key, its parameter's
    index into the prior's atoms, its observation sum and layer, with n an
    int shared by the rows or an array of one layer per row, and the rows'
    replicate indices, or None where no trace asks for them.  A row at layer
    n continues while lo[n] < pi < hi[n] and, once stopped, accepts the
    upper side if pi > 1/2; the last layer has lo = hi = inf, so every row
    still running stops there.  Since pi is increasing in the observation
    sum y, each test is made on y against the uncertain bands [a, b] of the
    thresholds lo[n], hi[n] and 1/2 from ``_level_bands``; ``edges`` holds
    their ends per layer as (a_lo, b_lo, a_hi, b_hi, a_half, b_half).  Rows
    inside (b_lo[n], a_hi[n]) certainly continue; only the others are
    sorted into stopping rows and rows inside a band of lo[n] or hi[n],
    which compute pi from their log-odds, as do stopping rows inside the
    band of 1/2.  Every other row is decided by a band edge alone, which the
    bands make exact, so every decision is the one a test on pi makes.

    Only rows still running draw, one observation per step each:
    ``draw(idx, keys, n)``, a function of (seed, replicate, step) alone, so
    a row's path does not depend on the rows beside it.  Each step's
    stopped rows append (rows, codes) to ``stops``, with the code (2 accept
    + (theta > theta0)) (cap + 1) + tau of each row; returns the rows still
    running, in the layout of ``run``.
    """
    keys, idx, y, n, rows = run
    a_lo, b_lo, a_hi, b_hi, a_half, b_half = edges
    per_row = isinstance(n, np.ndarray)
    while keys.size > until:
        out = (y <= b_lo[n]) | (y >= a_hi[n])
        i = np.flatnonzero(out)
        if i.size:
            ys, ni = y[i], n[i] if per_row else n
            stop = (ys < a_lo[ni]) | (ys > b_hi[ni])
            if not stop.all():
                j = np.flatnonzero(~stop)
                nj = ni[j] if per_row else ni
                pi = expit(_log_odds(ctx, nj, ys[j]))
                stop[j] = (pi <= lo[nj]) | (pi >= hi[nj])
            if stop.any():
                out[i[~stop]] = False
                i, ys = i[stop], ys[stop]
                if per_row:
                    ni = ni[stop]
                up = ys > b_half[ni]
                near = (ys >= a_half[ni]) & (ys <= b_half[ni])
                if near.any():
                    j = np.flatnonzero(near)
                    up[j] = expit(_log_odds(ctx, ni[j] if per_row else ni, ys[j])) > 0.5
                stops.append((None if rows is None else rows[i], (2 * up + (idx[i] >= ctx.split)) * lo.size + ni))
                go = np.flatnonzero(~out)
                keys, idx, y = (v.take(go) for v in (keys, idx, y))
                if per_row:
                    n = n.take(go)
                if rows is not None:
                    rows = rows.take(go)
                if not keys.size:
                    break
        y += draw(idx, keys, n)
        n = n + 1
    return keys, idx, y, n, rows


def _outcomes(points, table, idx, words):
    """The finite model's draw at each word: points[#{j : k >= table[j, idx]}]
    for the word's top 52 bits k, ``_unit``'s bits; shifts ``words`` in place."""
    words >>= np.uint64(12)
    count = np.zeros(words.size, dtype=np.intp)
    for t in table:
        count += words >= t.take(idx)
    return points.take(count)


def _drawer(prior, family):
    """``draw(idx, keys, n)``: each running row's observation at layer n.

    It equals ``family.sampler(prior.atoms[idx], _KeyedUniforms(keys, n +
    1), idx.size)`` bit for bit.  A finite model draws it from the
    ``_thresholds`` table of the prior's atoms by ``_outcomes``, so no
    uniform, outcome mass or CDF is formed per row; a quadrature model
    calls the sampler.
    """
    atoms = prior.atoms
    if family.scheme.kind != "finite":
        return lambda idx, keys, n: family.sampler(atoms.take(idx), _KeyedUniforms(keys, n + 1), idx.size)
    points, table = family.scheme.points, _thresholds(family.scheme, atoms)
    return lambda idx, keys, n: _outcomes(points, table, idx, _keyed_word(keys, n + 1))


def _replay(lo, hi, ya, yb, ctx, prior, family, seed, replicates, traced=False):
    """Replay replicates 0 .. replicates - 1 of ``seed``; returns (table, trace).

    ``table`` counts the replicates by outcome: its (4, cap + 1) entries are
    indexed by (2 accept + (theta > theta0), tau), accept being 1 for the
    upper decision.  ``trace`` is None, or with ``traced`` each replicate's
    theta and its outcome, the flat table index (2 accept + (theta >
    theta0)) (cap + 1) + tau.

    Replicates run in blocks of ``_BLOCK``.  A block's rows share one layer
    until at most ``_BLOCK // 8`` of them still run; those stragglers join a
    pool, each row keeping its own layer, which is replayed to the end
    whenever it holds ``_BLOCK`` rows and once after the last block.  The
    tails of many blocks so take one run of steps over rows at mixed
    layers, and the replay holds fewer than 2 ``_BLOCK`` rows at any time.
    The stopped rows' codes are folded into the table after each block and
    each pool replay, so without a trace no array grows with the replicate
    count, and the rows' replicate indices are carried only for a trace.
    ``ya`` and ``yb`` are the band edges of (lo, hi, 1/2) per layer.
    """
    cap = lo.size - 1
    edges = tuple(np.ascontiguousarray(e[:, j]) for j in range(3) for e in (ya, yb))
    table = np.zeros(4 * (cap + 1), dtype=np.int64)
    trace = (np.empty(replicates), np.empty(replicates, dtype=np.int64)) if traced else None
    stops = []
    common = (lo, hi, edges, ctx, _drawer(prior, family), stops)

    def fold():
        if stops:
            codes = np.concatenate([c for _, c in stops])
            # np.add.at costs the codes' count; bincount's would grow with the cap
            np.add.at(table, codes, 1)
            if trace is not None:
                trace[1][np.concatenate([r for r, _ in stops])] = codes
            stops.clear()

    pool, held = [], 0
    for start in range(0, replicates, _BLOCK):
        end = min(start + _BLOCK, replicates)
        rows = np.arange(start, end)
        keys = _row_keys(seed, rows)
        idx = _draw_thetas(prior, keys)
        if trace is not None:
            trace[0][start:end] = prior.atoms.take(idx)
        run = _advance((keys, idx, np.zeros(keys.size), 0, rows if traced else None), _BLOCK // 8, *common)
        fold()
        keys, idx, y, n, rows = run
        if keys.size:
            pool.append((keys, idx, y, np.full(keys.size, n), rows))
            held += keys.size
        if pool and (held >= _BLOCK or end == replicates):
            _advance(tuple(None if parts[-1] is None else np.concatenate(parts) for parts in zip(*pool)), 0, *common)
            fold()
            pool, held = [], 0
    return table.reshape(4, cap + 1), trace


def _loss(codes, cap, cost):
    """1{wrong decision} + cost tau of each outcome code of ``_replay``.

    Codes 1 and 2 are wrong: the lower side accepted with theta above
    theta0, and the upper side accepted with theta at or below it.
    """
    kind, tau = np.divmod(codes, cap + 1)
    return ((kind == 1) | (kind == 2)).astype(float) + cost * tau


def _report(table, cost, replicates, seed):
    """The ``SimulationReport`` of an outcome table from ``_replay``.

    The counts, the error rates and the mean tau are exact integer sums
    divided by the replicate count.  Each of the table's cells has one loss,
    1{wrong} + cost tau, so the mean and the standard error are weighted
    sums over the occupied cells, which ``math.fsum`` adds without rounding
    between the terms, so neither the block size nor the order shows.
    """
    cap = table.shape[1] - 1
    kinds = table.sum(axis=1).tolist()
    taus = table.sum(axis=0)
    cells = np.flatnonzero(table)
    loss = _loss(cells, cap, cost)
    counts = table.ravel()[cells]
    mean_cost = math.fsum((counts * loss).tolist()) / replicates
    std_error = 0.0
    if replicates > 1:
        dev = loss - mean_cost
        std_error = math.sqrt(math.fsum((counts * dev * dev).tolist()) / (replicates - 1)) / math.sqrt(replicates)
    return SimulationReport(
        replicates=replicates,
        mean_cost=mean_cost,
        std_error=std_error,
        mean_stopping_time=int(taus @ np.arange(cap + 1)) / replicates,
        error_rates=(kinds[2] / replicates, kinds[1] / replicates),
        seed=seed,
        capped=int(taus[cap]),
    )


def _run(band, cap, prior, family, cost, replicates, seed, trace_path=None):
    replicates = _count(replicates, "replicates", 1)
    seed = _count(seed, "seed")
    if seed >= 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    # _level_bands evaluates each side's atoms at 3 thresholds and _BAND_HALVINGS widths per layer
    if (cap + 1) * 3 * _BAND_HALVINGS * prior.n_atoms > _MAX_VALUES:
        raise ValueError(f"a rule cap of {cap} steps needs a band table of more than {_MAX_VALUES} values "
                         f"for {prior.n_atoms} atoms; lower the cap")
    # a trace holds theta, tau and the decision of every replicate: 3 values each
    if trace_path is not None and 3 * replicates > _MAX_VALUES:
        raise ValueError(f"a trace of {replicates} replicates needs more than {_MAX_VALUES} values; "
                         f"lower the replicates or drop the trace")
    ctx = _Ctx(prior, family)
    # continuation intervals of layers 0 .. cap; the cap layer's is empty
    lo, hi = np.array([band(n) for n in range(cap)] + [(np.inf, np.inf)], dtype=float).T
    ya, yb = _level_bands(ctx, np.arange(cap + 1)[:, None], np.stack([lo, hi, np.full(cap + 1, 0.5)], axis=1))

    table, trace = _replay(lo, hi, ya, yb, ctx, prior, family, seed, replicates, trace_path is not None)
    report = _report(table, cost, replicates, seed)
    if trace is not None:
        thetas, codes = trace
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("replicate,theta,tau,decision,loss\n")
            # a block of rows at a time, formatted from Python numbers, so the
            # columns beside the trace take one block's memory; the text
            # "tau,decision,loss" of each outcome code in the block is formatted once
            for start in range(0, replicates, _BLOCK):
                outcomes, which = np.unique(codes[start:start + _BLOCK], return_inverse=True)
                columns = (outcomes % (cap + 1), outcomes // (2 * (cap + 1)), _loss(outcomes, cap, cost))
                tails = [f"{tau},{accept},{loss!r}\n" for tau, accept, loss in zip(*(c.tolist() for c in columns))]
                rows = zip(range(start, start + which.size), thetas[start:start + _BLOCK].tolist(), which.tolist())
                fh.writelines(f"{r},{theta!r},{tails[i]}" for r, theta, i in rows)
    return report


def simulate_policy(
    surface: ValueSurface,
    prior: Prior,
    family: NaturalFamily,
    replicates: int,
    seed: int,
    trace_path=None,
) -> SimulationReport:
    """Replay the solved stopping policy; deterministic given the seed.

    A surface solved for another model or prior is refused; one without
    provenance, read from a file that holds none, replays unchecked.
    """
    _check_provenance(surface, prior, family)
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
    return _run(rule.band, rule.cap, prior, family, _positive_finite(cost), replicates, seed, trace_path)
