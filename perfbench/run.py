#!/usr/bin/env python3
"""seqtest benchmark: four workloads, each checked against exact references.

    python3 perfbench/run.py --workload solve-finite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run prepares its inputs from the seed (several times, so
set-up time is a median), then repeats whole rounds of the workload's fixed
operations for about ``--seconds`` seconds, then checks every output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans to ``perfbench/results/``.  See perfbench/README.md.
"""

import os
import time

_START = time.perf_counter()
# one BLAS/OpenMP thread, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refs  # noqa: E402  (perfbench/refs.py, beside this file)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("solve-finite", "solve-quadrature", "simulate", "certify")
SETUP_REPS = 3

# prior windows on the natural parameter, per model
WINDOWS = {
    "bernoulli": (-2.0, 2.0),
    "binomial(3)": (-2.0, 2.0),
    "gaussian-mean": (-2.0, 2.0),
    "exponential-rate": (0.3, 3.0),
    "gaussian-variance": (0.3, 3.0),
}
FINITE_TRIALS = {"bernoulli": 1, "binomial(3)": 3}
CONTINUOUS = ("gaussian-mean", "exponential-rate", "gaussian-variance")

# correctness tolerances; README.md gives the basis of each
GRID_TOL = 3e-4  # |V0 - lattice DP| on the 2001-point grid
QUAD_BUDGET = 3e-3  # |V_(H-1) - closed form| with the 128-node schemes
NODE_TOL = 1e-9  # |V_(H-1) - the same expectation summed over the program's nodes|
CONCAVITY_TOL = 1e-12
ORACLE_TOL = 1e-12
MC_SIGMAS = 4.0

SOLVE_GRID = 2001
SIM_GRID = 501
PROBE_TRIALS = 5
PROBE_SEED = 0
ORACLE_COST = 0.01
REFUSED = "oracle tree too large"  # the known refusal of brute_force_value


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Instance:
    """One model/prior pair, kept as plain numbers for the references."""

    model: str
    atoms: tuple
    weights: tuple
    theta0: float

    @property
    def mass_above(self):
        w = np.asarray(self.weights) / math.fsum(self.weights)
        return math.fsum(w[np.asarray(self.atoms) > self.theta0])


def seeded_instance(rng, model, n_atoms=6):
    """Six atoms jittered around an even spread of the model's window.

    Jitter is +-0.3 of the spacing, weights are uniform in [0.5, 1.5], and
    the threshold sits midway between the middle atoms, so every prior is
    two-sided with three atoms per hypothesis and the work per call does not
    depend on the seed.
    """
    lo, hi = WINDOWS[model]
    gap = (hi - lo) / (n_atoms - 1)
    atoms = np.linspace(lo, hi, n_atoms) + rng.uniform(-0.3, 0.3, n_atoms) * gap
    weights = rng.uniform(0.5, 1.5, n_atoms)
    theta0 = 0.5 * (atoms[n_atoms // 2 - 1] + atoms[n_atoms // 2])
    return Instance(model, tuple(map(float, atoms)), tuple(map(float, weights)), float(theta0))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans ``[name, start, end, parent index]`` kept in memory; no-op when disabled."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def total(self, *names, under):
        """Summed duration of the spans named ``names`` that sit inside an ``under`` span."""
        out = 0.0
        for name, start, end, parent in self.spans:
            if name in names and self._inside(parent, under):
                out += end - start
        return out

    def _inside(self, idx, under):
        while idx is not None:
            if self.spans[idx][0] == under:
                return True
            idx = self.spans[idx][3]
        return False


@dataclasses.dataclass
class Op:
    """One public call a workload makes, and the check its output must pass.

    ``call(r)`` runs it in round r.  ``check(output)`` returns the checks the
    output failed (empty when correct).  ``expect`` is the message of a known
    refusal on seed-independent inputs, counted as failed but not incorrect.
    """

    label: str
    span: str
    call: object
    check: object
    expect: str | None = None


@dataclasses.dataclass
class Solve:
    """A solve a workload makes; the traced run replays it layer by layer."""

    inst: Instance
    prior: object
    family: object
    cost: float
    horizon: int
    grid_size: int
    argv: list | None = None  # the CLI arguments, when the workload solves through cli.run


@dataclasses.dataclass
class Work:
    ops: list
    solves: list
    transitions: list = dataclasses.field(default_factory=list)  # (prior, family, pi, m, n)
    sampler: dict | None = None  # sampler time and draws, filled in traced runs


# ---------------------------------------------------------------------------
# output checks (benchmark code only)
# ---------------------------------------------------------------------------


def surface_properties(horizon, grid, values, b1, b2):
    """Every layer concave, 0 <= V <= min(pi, 1 - pi), terminal layer == gain, b1 <= 1/2 <= b2."""
    if values.shape != (horizon + 1, grid.size) or b1.shape != (horizon + 1,) or b2.shape != (horizon + 1,):
        return [f"shape (H+1) x G = ({horizon + 1}, {grid.size}), got {values.shape}"]
    out = []
    gain = np.minimum(grid, 1.0 - grid)
    if not np.array_equal(values[-1], gain):
        out.append("terminal layer == gain")
    if np.any(values < 0.0) or np.any(values > gain):
        out.append("0 <= V <= min(pi, 1 - pi)")
    lam = (grid[2:] - grid[1:-1]) / (grid[2:] - grid[:-2])
    defect = float(np.max(lam * values[:, :-2] + (1.0 - lam) * values[:, 2:] - values[:, 1:-1]))
    if defect > CONCAVITY_TOL:
        out.append(f"concave layers (defect {defect:.2e} > {CONCAVITY_TOL:.0e})")
    if np.any(b1 > 0.5) or np.any(b2 < 0.5):
        out.append("b1 <= 1/2 <= b2")
    return out


class Checker:
    """Checks outputs against references computed by perfbench/refs.py, once per run."""

    def __init__(self):
        self._cache = {}

    def _ref(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def lattice(self, inst, cost, horizon):
        return self._ref(("lattice", inst, cost, horizon), lambda: refs.lattice_value(
            inst.atoms, inst.weights, inst.theta0, FINITE_TRIALS[inst.model], cost, horizon))

    def accuracy_error(self, inst, cost, horizon, grid, values):
        """|V0 - lattice DP| on finite models; max |V_(H-1) - closed form| on continuous ones."""
        if inst.model in FINITE_TRIALS:
            return abs(float(np.interp(inst.mass_above, grid, values[0])) - self.lattice(inst, cost, horizon))
        exact = self._ref(("last", inst, cost, horizon, grid.size), lambda: refs.last_layer(
            inst.model, inst.atoms, inst.weights, inst.theta0, cost, horizon, grid))
        return float(np.max(np.abs(values[horizon - 1] - exact)))

    def surface(self, inst, cost, horizon, grid, values, b1, b2, scheme=None):
        """The properties every surface has, then its accuracy against the references.

        On continuous models ``scheme`` (the family's quadrature nodes) also
        holds layer H-1 to the same expectation summed over those nodes, which
        separates faults in the backward step from quadrature error.
        """
        out = surface_properties(horizon, grid, values, b1, b2)
        if out:
            return out
        err = self.accuracy_error(inst, cost, horizon, grid, values)
        if inst.model in FINITE_TRIALS and err > GRID_TOL:
            out.append(f"V0 within {GRID_TOL:.0e} of the lattice DP (off by {err:.2e})")
        if inst.model in CONTINUOUS and err > QUAD_BUDGET:
            out.append(f"V_(H-1) within {QUAD_BUDGET:.0e} of the closed form (off by {err:.2e})")
        if inst.model in CONTINUOUS:
            nodes = self._ref(("nodes", inst, cost, horizon, grid.size), lambda: refs.last_layer_on_nodes(
                inst.model, inst.atoms, inst.weights, inst.theta0, cost, horizon, grid, scheme.points,
                scheme.log_mass))
            gap = float(np.max(np.abs(values[horizon - 1] - nodes)))
            if gap > NODE_TOL:
                out.append(f"V_(H-1) within {NODE_TOL:.0e} of the sum over the program's nodes (off by {gap:.2e})")
        return out

    def solved(self, inst, cost, horizon, scheme=None):
        def check(s):
            return self.surface(inst, cost, horizon, np.asarray(s.pi_grid), np.asarray(s.values),
                                np.asarray(s.b1), np.asarray(s.b2), scheme)

        return check

    def cli_solved(self, inst, cost, horizon):
        """The CLI exited 0 and its surface.json reads back as a correct (H+1) x G surface."""

        def check(result):
            rc, out, messages = result
            if rc != 0:
                return [f"exit code 0 (got {rc}: {messages.strip()})"]
            try:
                with open(out / "surface.json", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if payload["horizon"] != horizon:
                    raise ValueError(f"horizon {payload['horizon']}")
                grid = np.asarray(payload["pi_grid"], dtype=float)
                values = np.asarray(payload["values"], dtype=float).reshape(horizon + 1, SOLVE_GRID)
                b1 = np.asarray(payload["b1"], dtype=float)
                b2 = np.asarray(payload["b2"], dtype=float)
            except (OSError, KeyError, ValueError) as exc:
                return [f"surface.json reads back with shape ({horizon + 1}, {SOLVE_GRID}): {exc}"]
            return self.surface(inst, cost, horizon, grid, values, b1, b2)

        return check

    def simulated(self, inst, surface, rule, stop, cap, replicates):
        """Bernoulli: mean within 4 SE of the exact lattice loss of the rule.

        Gaussian-mean: the policy's mean within 4 SE + QUAD_BUDGET of V0, and no
        baseline below V0 by more than that.  The policy's check also holds the
        replayed surface to the properties every surface has.
        """
        cost = surface.cost
        policy = rule == "policy"
        v0 = float(np.interp(inst.mass_above, surface.pi_grid, surface.values[0]))
        first = []

        def check(report):
            out = []
            if policy:
                out += surface_properties(surface.horizon, surface.pi_grid, surface.values, surface.b1, surface.b2)
            if report.replicates != replicates:
                out.append(f"replicates == {replicates}")
            first.append(report)
            if first[0] != report:
                out.append("identical report in every round (same seed)")
            band = MC_SIGMAS * report.std_error
            if inst.model in FINITE_TRIALS:
                exact = self._ref(("rule", inst, cost, rule), lambda: refs.rule_loss(
                    inst.atoms, inst.weights, inst.theta0, cost, stop, cap))
                if abs(report.mean_cost - exact) > band:
                    out.append(f"mean cost within {MC_SIGMAS:g} SE of the exact lattice loss "
                               f"({report.mean_cost:.6f} vs {exact:.6f}, SE {report.std_error:.1e})")
                return out
            band += QUAD_BUDGET
            if policy and abs(report.mean_cost - v0) > band:
                out.append(f"policy mean within {MC_SIGMAS:g} SE + {QUAD_BUDGET:.0e} of V0 "
                           f"({report.mean_cost:.6f} vs {v0:.6f}, SE {report.std_error:.1e})")
            if not policy and report.mean_cost < v0 - band:
                out.append(f"baseline does not beat V0 by more than {MC_SIGMAS:g} SE + {QUAD_BUDGET:.0e} "
                           f"({report.mean_cost:.6f} vs {v0:.6f}, SE {report.std_error:.1e})")
            return out

        return check

    def oracle(self, inst, horizon):
        def check(value):
            exact = self.lattice(inst, ORACLE_COST, horizon)
            if not abs(value - exact) <= ORACLE_TOL:
                return [f"oracle equals the lattice DP to {ORACLE_TOL:.0e} ({value!r} vs {exact!r})"]
            return []

        return check


def certificate_check(report):
    if not (report.asserted and report.passed):
        return [f"{report.check} passes (worst {report.worst_violation:.2e} > tol {report.tolerance:.1e})"]
    return []


def probe_check(reports):
    if len(reports) != PROBE_TRIALS:
        return [f"probe returns {PROBE_TRIALS} reports (got {len(reports)})"]
    if any(r.asserted or not math.isfinite(r.worst_violation) for r in reports):
        return ["probe reports are finite, unasserted findings"]
    return []


# ---------------------------------------------------------------------------
# workloads: each prepare_* builds the inputs, makes one warm-up call and
# returns the ops of one round
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, st, seed, tracer, tmp):
        self.st = st
        self.seed = seed
        self.tracer = tracer
        self.tmp = tmp
        self.checker = Checker()

    def build(self, inst):
        """The program's prior and family for an instance."""
        prior = self.st.make_prior(inst.atoms, inst.weights, inst.theta0)
        with self.tracer.span("families.family_for_prior"):
            family = self.st.family_for_prior(inst.model, prior)
        return prior, family

    def cli_solve(self, argv, out):
        """(exit code, output directory, what the CLI printed)."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.st.cli.run(argv + ["--out", str(out)])
        return rc, out, sink.getvalue()


def prepare_solve_finite(ctx):
    """`seqtest solve` through cli.run for bernoulli and binomial(3); c = 0.01, G = 2001."""
    st = ctx.st
    rng = np.random.default_rng([ctx.seed, 1])
    cost = 0.01
    horizon = st.choose_horizon(cost)
    ops, solves = [], []
    for model in FINITE_TRIALS:
        inst = seeded_instance(rng, model)
        prior, family = ctx.build(inst)
        prior_csv = ctx.tmp / f"prior-{model}.csv"
        with open(prior_csv, "w", encoding="utf-8") as fh:
            fh.write(f"# theta0={inst.theta0!r}\nu,w\n")
            fh.writelines(f"{a!r},{w!r}\n" for a, w in zip(inst.atoms, inst.weights))
        argv = solve_argv(model, prior_csv, cost, "auto", SOLVE_GRID)
        solves.append(Solve(inst, prior, family, cost, horizon, SOLVE_GRID, argv))
        ops.append(Op(
            label=f"cli.run solve {model}",
            span="cli.run",
            call=lambda r, argv=argv, model=model: ctx.cli_solve(argv, ctx.tmp / f"round{r}" / model),
            check=ctx.checker.cli_solved(inst, cost, horizon),
        ))
    rc, _, messages = ctx.cli_solve(solve_argv(model, prior_csv, 0.25, "2", 101), ctx.tmp / "warm-up")
    if rc != 0:
        raise RuntimeError(f"warm-up solve exited {rc}: {messages.strip()}")
    return Work(ops, solves)


def solve_argv(model, prior_csv, cost, horizon, grid_size):
    return ["solve", "--model", model, "--prior", str(prior_csv), "--cost", repr(cost),
            "--horizon", horizon, "--grid-size", str(grid_size)]


def prepare_solve_quadrature(ctx):
    """solver.solve for the three continuous models; 128 nodes, c = 0.02, G = 2001."""
    st = ctx.st
    rng = np.random.default_rng([ctx.seed, 2])
    cost = 0.02
    horizon = st.choose_horizon(cost)
    ops, solves = [], []
    for model in CONTINUOUS:
        inst = seeded_instance(rng, model)
        prior, family = ctx.build(inst)
        solves.append(Solve(inst, prior, family, cost, horizon, SOLVE_GRID))
        ops.append(Op(
            label=f"solver.solve {model}",
            span="solver.solve",
            call=lambda r, prior=prior, family=family: st.solve(prior, family, cost, horizon, SOLVE_GRID),
            check=ctx.checker.solved(inst, cost, horizon, family.scheme),
        ))
    st.solve(prior, family, cost, 2, 101)  # warm-up
    return Work(ops, solves)


def prepare_simulate(ctx):
    """Replay a long-horizon bernoulli policy and a gaussian-mean policy, with baselines.

    Both surfaces are solved here, in set-up, so the timed rounds hold only
    Monte Carlo replay and the samplers.
    """
    st = ctx.st
    rng = np.random.default_rng([ctx.seed, 3])
    sim_seed = int(rng.integers(2**31))
    work = Work([], [], sampler={"s": 0.0, "draws": 0})
    for model, cost, replicates in (("bernoulli", 0.005, 200_000), ("gaussian-mean", 0.05, 50_000)):
        inst = seeded_instance(rng, model)
        prior, family = ctx.build(inst)
        horizon = st.choose_horizon(cost)
        with ctx.tracer.span("solver.solve"):
            surface = st.solve(prior, family, cost, horizon, SIM_GRID)
        work.solves.append(Solve(inst, prior, family, cost, horizon, SIM_GRID))
        replayed = family
        if ctx.tracer.enabled:
            replayed = dataclasses.replace(family, sampler=counting_sampler(family.sampler, work.sampler))
        b1, b2 = surface.b1, surface.b2
        # each rule with its stopping set restated here for the exact reference
        rules = (
            ("policy", None, lambda n, pi, b1=b1, b2=b2: ~((b1[n] < pi) & (pi < b2[n])), horizon),
            ("fixed:0", st.FixedSampleRule(0), lambda n, pi: np.full(pi.shape, True), 0),
            ("fixed:3", st.FixedSampleRule(3), lambda n, pi: np.full(pi.shape, n >= 3), 3),
            ("threshold:0.2,0.8", st.ThresholdRule(0.2, 0.8, horizon), lambda n, pi: (pi <= 0.2) | (pi >= 0.8),
             horizon),
        )
        for name, rule, stop, cap in rules:
            if rule is None:
                span = "simulate.simulate_policy"
                call = lambda r, s=surface, p=prior, f=replayed, n=replicates: st.simulate_policy(s, p, f, n, sim_seed)
            else:
                span = "simulate.simulate_alternative"
                call = lambda r, ru=rule, p=prior, f=replayed, c=cost, n=replicates: st.simulate_alternative(
                    ru, p, f, c, n, sim_seed)
            check = ctx.checker.simulated(inst, surface, name, stop, cap, replicates)
            work.ops.append(Op(f"{span} {model} {name}", span, call, check))
    st.simulate_policy(surface, prior, family, 1000, sim_seed)  # warm-up
    return work


def counting_sampler(sampler, stats):
    """The family's sampler, timed and counting the observations it draws."""

    def sample(u, rng, size=None):
        t = time.perf_counter()
        out = sampler(u, rng, size)
        stats["s"] += time.perf_counter() - t
        stats["draws"] += int(np.size(out))
        return out

    return sample


def prepare_certify(ctx):
    """Structural checks over the five models, the exact oracle, and a short probe."""
    st = ctx.st
    rng = np.random.default_rng([ctx.seed, 4])
    work = Work([], [])
    built = {}
    for model in WINDOWS:
        inst = seeded_instance(rng, model)
        prior, family = ctx.build(inst)
        built[model] = (inst, prior, family)
        a = 0.5 * (inst.atoms[0] + inst.theta0)
        b = 0.5 * (inst.atoms[-1] + inst.theta0)
        work.transitions.append((prior, family, 0.5, 0, 10))
        for name, call in (
            ("check_convex_order", lambda r, p=prior, f=family: st.check_convex_order(p, f, 0.5, 0, 10)),
            ("check_concentration", lambda r, p=prior, f=family, a=a, b=b: st.check_concentration(p, f, 0.5, a, b, 30)),
            ("check_level_spread", lambda r, p=prior, f=family: st.check_level_spread(p, f, 0.3, 0.7, 30)),
        ):
            work.ops.append(Op(f"checks.{name} {model}", "checks.certificate", call, certificate_check))
    bern = built["bernoulli"][1]
    work.ops.append(Op("checks.check_binomial_reduction N=3", "checks.certificate",
                       lambda r: st.check_binomial_reduction(3, bern, 0.05, SOLVE_GRID), certificate_check))
    # the production horizon is refused by the oracle's tree-size guard whatever
    # the prior, so that call uses a prior that does not depend on the seed
    fixed = Instance("bernoulli", (-1.5, -0.9, -0.3, 0.3, 0.9, 1.5), (1.0,) * 6, 0.0)
    for (inst, prior, family), horizon, expect in (
        (built["bernoulli"], 23, None),
        (built["binomial(3)"], 11, None),
        ((fixed,) + ctx.build(fixed), st.choose_horizon(ORACLE_COST), REFUSED),
    ):
        work.ops.append(Op(
            label=f"simulate.brute_force_value {inst.model} H={horizon}",
            span="simulate.brute_force_value",
            call=lambda r, p=prior, f=family, h=horizon: st.brute_force_value(p, f, ORACLE_COST, h),
            check=ctx.checker.oracle(inst, horizon),
            expect=expect,
        ))
    models = list(WINDOWS)
    work.ops.append(Op("checks.conjecture_probe", "checks.conjecture_probe",
                       lambda r: st.conjecture_probe(models, 0.05, PROBE_TRIALS, PROBE_SEED, SIM_GRID), probe_check))
    st.check_convex_order(*work.transitions[0])  # warm-up
    return work


PREPARE = {
    "solve-finite": prepare_solve_finite,
    "solve-quadrature": prepare_solve_quadrature,
    "simulate": prepare_simulate,
    "certify": prepare_certify,
}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("setup.import_s", "s"),
    ("families.family_for_prior_s", "s"),
    ("priors.inversion_s", "s"),
    ("priors.inversion_points", "count"),
    ("priors.transition_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.expectation_s", "s"),
    ("solver.node_evals", "count"),
    ("solver.root_err", "1"),
    ("solver.last_layer_err", "1"),
    ("families.sampler_s", "s"),
    ("families.draws", "count"),
    ("simulate.replay_s", "s"),
    ("simulate.draws_used_ratio", "ratio"),
    ("simulate.oracle_s", "s"),
    ("simulate.oracle_refused", "count"),
    ("checks.probe_s", "s"),
    ("checks.probe_trials", "count"),
    ("checks.certificates_s", "s"),
    ("cli.overhead_s", "s"),
)


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def layer_metrics(ctx, work, tracer, first_round, rounds, import_s):
    """Per-layer metrics; times are per round, or per set-up for set-up layers.

    Every solve the workload makes (directly, through the CLI, in set-up or
    inside the probe) is replayed after the timed region, in the order
    [cli.run], solver.solve, then for each layer priors.y_of_pi and
    solver.bellman_step, then solver.solve [, cli.run] again.  Timing each
    layer's inversion next to its backward step, and averaging the two ends,
    cancels most of the machine's drift in speed from the differences taken.
    """
    st = ctx.st
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    m["setup.import_s"] = import_s
    m["families.family_for_prior_s"] = tracer.total("families.family_for_prior", under="setup") / SETUP_REPS

    solves = list(work.solves)
    probe = [out for op, out, exc in first_round if op.span == "checks.conjecture_probe" and exc is None]
    for report in probe[0] if probe else ():
        i = report.instance
        inst = Instance(i["model"], tuple(i["atoms"]), tuple(i["weights"]), i["theta0"])
        prior = st.make_prior(inst.atoms, inst.weights, inst.theta0)
        solves.append(Solve(inst, prior, st.family_for_prior(inst.model, prior), i["cost"], i["horizon"],
                            i["grid_size"]))
        m["checks.probe_trials"] += 1
    for s in solves:
        def solve(s=s):
            return st.solve(s.prior, s.family, s.cost, s.horizon, s.grid_size)

        def cli(s=s):
            return ctx.cli_solve(s.argv, ctx.tmp / "replay")

        cli_first = timed(cli)[0] if s.argv else 0.0
        solve_first, surface = timed(solve)
        grid = surface.pi_grid
        for n in range(s.horizon - 1, -1, -1):
            inversion = timed(lambda: st.y_of_pi(s.prior, s.family, n, grid[1:-1]))[0]
            step = timed(lambda: st.bellman_step(surface.values[n + 1], n, grid, s.prior, s.family, s.cost))[0]
            m["priors.inversion_s"] += inversion
            m["solver.expectation_s"] += step - inversion
        solve_s = (solve_first + timed(solve)[0]) / 2
        m["solver.solve_s"] += solve_s
        if s.argv:
            m["cli.overhead_s"] += (cli_first + timed(cli)[0]) / 2 - solve_s
        m["priors.inversion_points"] += s.horizon * (grid.size - 2)
        m["solver.node_evals"] += s.horizon * (grid.size - 2) * s.family.scheme.n_points * s.prior.n_atoms
        err = ctx.checker.accuracy_error(s.inst, s.cost, s.horizon, grid, surface.values)
        key = "solver.root_err" if s.inst.model in FINITE_TRIALS else "solver.last_layer_err"
        m[key] = max(m[key], err)

    for prior, family, pi, m_step, n_step in work.transitions:
        t = time.perf_counter()
        st.transition_distribution(prior, family, m_step, pi)
        st.transition_distribution(prior, family, n_step, pi)
        m["priors.transition_s"] += time.perf_counter() - t

    def per_round(*names):
        return tracer.total(*names, under="round") / rounds

    if work.sampler is not None:
        m["families.sampler_s"] = work.sampler["s"] / rounds
        m["families.draws"] = work.sampler["draws"] / rounds
        used = sum(out.mean_stopping_time * out.replicates for op, out, exc in first_round
                   if op.span.startswith("simulate.simulate_") and exc is None)
        m["simulate.draws_used_ratio"] = used / m["families.draws"]
    m["simulate.replay_s"] = per_round("simulate.simulate_policy", "simulate.simulate_alternative")
    m["simulate.oracle_s"] = per_round("simulate.brute_force_value")
    m["simulate.oracle_refused"] = sum(
        1 for op, out, exc in first_round if op.expect and exc is not None and op.expect in str(exc))
    m["checks.probe_s"] = per_round("checks.conjecture_probe")
    m["checks.certificates_s"] = per_round("checks.certificate")
    return m


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------


def import_program():
    init = SRC / "seqtest" / "__init__.py"
    if not init.is_file():
        raise SystemExit("error: no seqtest sources under src/; run from the root of a seqtest checkout")
    sys.path.insert(0, str(SRC))
    import seqtest
    import seqtest.cli  # noqa: F401  (the package does not import its CLI)

    if Path(seqtest.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported seqtest from {seqtest.__file__}, not from src/")
    return seqtest


def run_op(op, r, tracer):
    with tracer.span(op.span):
        try:
            return op.call(r), None
        except Exception as exc:  # an operation that raises is a failed operation
            return None, exc


def judge(op, output, exc):
    """(failed, expected, reason) for one attempted operation."""
    if exc is not None:
        expected = op.expect is not None and op.expect in str(exc)
        if not expected:
            traceback.print_exception(exc, file=sys.stderr)
        return True, expected, f"raised {type(exc).__name__}: {exc}"
    problems = op.check(output)
    return bool(problems), False, "; ".join(problems)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    st = import_program()
    import_s = time.perf_counter() - _START
    tracer = Tracer(bool(args.trace))
    (HERE / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "tmp"))
    try:
        ctx = Context(st, args.seed, tracer, tmp)
        setup_times = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            with tracer.span("setup"):
                work = PREPARE[args.workload](ctx)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        outcomes, durations = [], []
        began = time.perf_counter()
        while True:
            t = time.perf_counter()
            with tracer.span("round"):
                outcomes += [(op, *run_op(op, len(durations), tracer)) for op in work.ops]
            durations.append(time.perf_counter() - t)
            # stop before a round that would end past the run length
            if time.perf_counter() - began + durations[-1] > args.seconds:
                break
        wall_s = statistics.median(durations)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks run

        failed, correct = 0, True
        for i, (op, output, exc) in enumerate(outcomes):
            bad, expected, reason = judge(op, output, exc)
            if bad:
                failed += 1
                correct &= expected
                tag = "expected failure" if expected else "FAILED"
                print(f"{tag}: {op.label} (round {i // len(work.ops)}): {reason}", file=sys.stderr)

        if args.trace:
            m = layer_metrics(ctx, work, tracer, outcomes[: len(work.ops)], len(durations), import_s)
            metrics = {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER}
            write_trace(args, tracer, metrics, durations, setup_s)
        else:
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: {len(durations)} rounds of {len(work.ops)} ops, "
          f"round s {[round(d, 3) for d in durations]}, set-up s {[round(d, 3) for d in setup_times]}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, tracer, metrics, durations, setup_s):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "round_s": durations,
        "traced_wall_s": statistics.median(durations),
        "traced_setup_s": setup_s,
        "metrics": metrics,
        "spans": [{"name": n, "start": s - _START, "end": e - _START, "parent": p} for n, s, e, p in tracer.spans],
    }
    with open(out / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
