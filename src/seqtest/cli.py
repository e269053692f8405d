"""Command-line entry point.

Subcommands: solve, boundaries, verify, simulate, oracle, probe, plot-data.
Exit codes: 0 success, 1 an asserted check failed, 2 usage/config error.
All randomness flows from --seed; every numeric output round-trips
losslessly through the matching importer.
"""

import argparse
import json
import os
import sys

from . import checks as checks_mod
from .families import _positive_finite, family_for_prior, family_from_scheme_csv
from .priors import load_prior_csv
from .simulate import FixedSampleRule, ThresholdRule, simulate_alternative, simulate_policy
from .solver import (
    _boundaries_csv,
    _check_provenance,
    brute_force_value,
    choose_horizon,
    read_surface_json,
    solve,
    value_at,
    write_boundaries_csv,
    write_surface_json,
    write_value_layers_csv,
)


def _load_model(args, prior):
    if args.scheme:
        if args.model is not None or args.nodes is not None:
            raise ValueError("a --scheme file defines the whole model, so model and nodes cannot be set beside it")
        return family_from_scheme_csv(args.scheme)
    if not args.model:
        raise ValueError("a --model name (or --scheme file) is required")
    params = None if args.nodes is None else {"nodes": args.nodes}
    return family_for_prior(args.model, prior, params)


def _emit(out, lines):
    """Write ``lines``, each ending in LF, to the file ``out``, or to stdout when ``out`` is unset."""
    if not out:
        sys.stdout.writelines(lines)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _require_file(path, what):
    if not path:
        raise ValueError(f"{what} is required")
    if not os.path.exists(path):
        raise ValueError(f"{what} not found: {path}")
    return path


def _resolve_horizon(args):
    h = args.horizon
    if h == "auto":
        return choose_horizon(args.cost, args.slack)
    if not (type(h) is int or isinstance(h, str) and h.strip().isdecimal()) or int(h) < 1:
        raise ValueError(f"horizon must be 'auto' or an integer >= 1, got {h!r}")
    return int(h)


# solve's settings: each one's default and the JSON type a config value must
# have (the horizon's rule is _resolve_horizon's); run_config.json records them
# with resolved_horizon and subcommand, and a config file may hold only those keys
_SOLVE_SETTINGS = {"model": (None, "a string"), "scheme": (None, "a string"), "prior": (None, "a string"),
                   "cost": (None, "a number"), "horizon": ("auto", None), "slack": (0.1, "a number"),
                   "grid_size": (2001, "an integer"), "grid_kind": ("uniform", "a string"),
                   "nodes": (None, "an integer"), "out": (None, "a string")}
# the Python types json.load gives each JSON type; a bool is an int to Python,
# but type() tells them apart, so true is neither a number nor a count
_JSON_TYPES = {"a string": (str,), "a number": (int, float), "an integer": (int,)}


def _cmd_solve(args):
    cfg = {}
    if args.config:
        with open(_require_file(args.config, "config file"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(cfg).__name__}")
        unknown = sorted(set(cfg) - set(_SOLVE_SETTINGS) - {"resolved_horizon", "subcommand"})
        if unknown:
            raise ValueError(f"config file has unknown key(s): {', '.join(unknown)}")
        for key, (default, kind) in _SOLVE_SETTINGS.items():
            value = cfg.get(key, default)
            if kind and not (value is None and default is None) and type(value) not in _JSON_TYPES[kind]:
                raise ValueError(f"config file: {key} must be {kind}, got {value!r}")

    def pick(key, default):
        # a flag given on the command line, even a zero, overrides the config
        flag = getattr(args, key)
        return flag if flag is not None else cfg.get(key, default)

    merged = {key: pick(key, default) for key, (default, _) in _SOLVE_SETTINGS.items()}
    if merged["cost"] is None:
        raise ValueError("cost is required")
    cost = _positive_finite(merged["cost"])
    # run_config.json records the slack, so it is checked whatever the horizon
    _positive_finite(merged["slack"], "slack")
    if not merged["out"]:
        raise ValueError("an --out directory is required")

    ns = argparse.Namespace(**merged)
    horizon = _resolve_horizon(ns)
    prior = load_prior_csv(_require_file(merged["prior"], "prior file"))
    family = _load_model(ns, prior)
    surface = solve(
        prior,
        family,
        cost,
        horizon,
        grid_size=merged["grid_size"],
        grid_kind=merged["grid_kind"],
    )
    out = merged["out"]
    os.makedirs(out, exist_ok=True)
    write_surface_json(surface, os.path.join(out, "surface.json"))
    write_boundaries_csv(surface, os.path.join(out, "boundaries.csv"))
    with open(os.path.join(out, "run_config.json"), "w", encoding="utf-8") as fh:
        json.dump({**merged, "resolved_horizon": horizon, "subcommand": "solve"}, fh, indent=2)
        fh.write("\n")
    print(f"solved: horizon={horizon} grid={surface.pi_grid.size} -> {out}")
    return 0


def _cmd_boundaries(args):
    surface = read_surface_json(_require_file(args.surface, "surface file"))
    _emit(args.out, _boundaries_csv(surface))
    return 0


def _cmd_plot_data(args):
    surface = read_surface_json(_require_file(args.surface, "surface file"))
    os.makedirs(args.out, exist_ok=True)
    write_value_layers_csv(surface, os.path.join(args.out, "value_layers.csv"))
    write_boundaries_csv(surface, os.path.join(args.out, "boundaries.csv"))
    return 0


# Each verify check: the inputs it is called with, built once per run from
# --surface, --prior and, for the family, --model, --scheme and --nodes; and
# each other flag it reads, with the keyword it is passed as (every check reads
# --tol too). An unset flag is not passed, so the check's own default holds.
_VERIFY_CHECKS = {
    "concavity": (("surface",), {}),
    "time-monotonicity": (("surface",), {"burn": "burn"}),
    "binomial-reduction": (("prior",), {"N": "n_trials", "cost": "cost", "grid_size": "grid_size"}),
    "concentration": (("prior", "family"), {"pi": "pi", "a": "a", "b": "b", "n_max": "n_max"}),
    "level-spread": (("prior", "family"), {"pi1": "pi1", "pi2": "pi2", "n_max": "n_max"}),
    "convex-order": (("prior", "family"), {"pi": "pi", "m": "m", "n": "n"}),
}


def _cmd_verify(args):
    wanted = [_VERIFY_CHECKS[name] for name in args.check]
    inputs = {key for keys, _ in wanted for key in keys}
    # command and func are the parser's own; every run reads --check, --tol and --out
    read = {"command", "func", "check", "tol", "out", *inputs, *(flag for _, flags in wanted for flag in flags),
            *(("model", "scheme", "nodes") if "family" in inputs else ())}
    unread = [f"--{flag.replace('_', '-')}" for flag, value in vars(args).items()
              if value is not None and flag not in read]
    if unread:  # refused before any input is read, not dropped
        raise ValueError(f"none of the requested checks ({', '.join(dict.fromkeys(args.check))}) reads "
                         + ", ".join(unread))
    built = {}
    if "surface" in inputs:
        built["surface"] = read_surface_json(_require_file(args.surface, "surface file"))
    if "prior" in inputs:
        built["prior"] = load_prior_csv(_require_file(args.prior, "prior file"))
    if "binomial-reduction" in args.check and (args.N is None or args.cost is None):
        raise ValueError("binomial-reduction requires --N and --cost")
    if "family" in inputs:
        built["family"] = _load_model(args, built["prior"])
    reports = []
    for name, (keys, flags) in zip(args.check, wanted):
        given = {kw: getattr(args, flag) for flag, kw in {"tol": "tol", **flags}.items()
                 if getattr(args, flag) is not None}
        check = getattr(checks_mod, "check_" + name.replace("-", "_"))
        reports.append(check(**{key: built[key] for key in keys}, **given))
    _emit(args.out, [r.to_json() + "\n" for r in reports])
    return 1 if any(r.asserted and not r.passed for r in reports) else 0


def _parse_rule(spec, default_cap):
    """The rule a ``--rule`` spec names; every refusal names the spec and the forms.

    A count reaches the rule as an int when it reads as one, else as its text,
    so the rule's own count check (``families._count``) words it.
    """
    forms = "use fixed:K or threshold:LO,HI[,CAP]"
    kind, _, rest = spec.partition(":")
    fields = rest.split(",")
    try:
        if kind == "fixed" and len(fields) == 1:
            return FixedSampleRule(size=_int_or_text(fields[0]))
        if kind == "threshold" and len(fields) in (2, 3):
            try:
                low, high = float(fields[0]), float(fields[1])
            except ValueError:
                raise ValueError(f"LO and HI must be numbers, got {fields[0]!r} and {fields[1]!r}") from None
            cap = _int_or_text(fields[2]) if len(fields) == 3 else default_cap
            return ThresholdRule(low=low, high=high, max_steps=cap)
    except ValueError as exc:
        raise ValueError(f"invalid rule spec '{spec}': {exc}; {forms}") from None
    raise ValueError(f"malformed rule spec '{spec}'; {forms}")


def _int_or_text(text):
    """``text`` as an int when ``int()`` reads it, else unchanged."""
    try:
        return int(text)
    except ValueError:
        return text


def _cmd_simulate(args):
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be an integer in [0, 2**64), got {args.seed}")
    surface = read_surface_json(_require_file(args.surface, "surface file"))
    prior = load_prior_csv(_require_file(args.prior, "prior file"))
    family = _load_model(args, prior)
    if args.rule:
        # simulate_policy checks the surface itself; a rule replay still takes its cost and horizon
        _check_provenance(surface, prior, family)
        rule = _parse_rule(args.rule, surface.horizon)
        report = simulate_alternative(
            rule, prior, family, surface.cost, args.replicates, args.seed, trace_path=args.trace
        )
    else:
        report = simulate_policy(surface, prior, family, args.replicates, args.seed, trace_path=args.trace)
    _emit(args.out, [report.to_json() + "\n"])
    root_pi = prior.mass_above_threshold
    print(
        f"value at root pi={root_pi!r}: {value_at(surface, 0, root_pi)!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_oracle(args):
    prior = load_prior_csv(_require_file(args.prior, "prior file"))
    family = _load_model(args, prior)
    value = brute_force_value(prior, family, args.cost, args.horizon)
    print(json.dumps({"value": value, "horizon": args.horizon, "cost": args.cost}))
    return 0


def _cmd_probe(args):
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    reports = checks_mod.conjecture_probe(
        models, cost=args.cost, trials=args.trials, seed=args.seed, grid_size=args.grid_size
    )
    _emit(args.out, [r.to_json() + "\n" for r in reports])
    findings = [r for r in reports if not r.passed]
    print(f"probe finished: {len(reports)} trials, {len(findings)} findings", file=sys.stderr)
    return 0  # findings never affect the exit code


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors reach ``run``'s one-line, exit-2 report; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_opts(p):
        p.add_argument("--model", help="named model, e.g. bernoulli, binomial(3), gaussian-mean")
        p.add_argument("--scheme", help="CSV (header x,h) defining a custom finite model")
        p.add_argument("--prior", help="prior CSV: '# theta0=...' line then header u,w")
        p.add_argument("--nodes", type=int, help="quadrature node count override")

    p = sub.add_parser("solve", help="solve the value surface and boundaries")
    add_model_opts(p)
    p.add_argument("--cost", type=float)
    p.add_argument("--horizon", default=None, help="integer or 'auto'")
    p.add_argument("--slack", type=float, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--grid-kind", dest="grid_kind", choices=("uniform", "cosine"), default=None)
    p.add_argument("--config", help="JSON config; flags override its values")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("boundaries", help="export boundaries from a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_boundaries)

    p = sub.add_parser("verify", help="run structural checks; exit 1 on failure")
    add_model_opts(p)
    p.add_argument("--check", action="append", required=True, help="repeatable check name", choices=_VERIFY_CHECKS)
    p.add_argument("--surface")
    p.add_argument("--tol", type=float)  # every flag defaults to None: _cmd_verify refuses one no check reads
    p.add_argument("--burn", type=int)
    p.add_argument("--pi", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--pi1", type=float)
    p.add_argument("--pi2", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int, help="binomial batch size")
    p.add_argument("--cost", type=float)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo run of the policy or a baseline rule")
    add_model_opts(p)
    p.add_argument("--surface", required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", help="fixed:K or threshold:LO,HI[,CAP]; default is the solved policy")
    p.add_argument("--trace", help="optional per-replicate CSV trace")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="exact lattice value for finite-outcome models")
    add_model_opts(p)
    p.add_argument("--cost", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("probe", help="randomized time-monotonicity probe")
    p.add_argument("--models", default=",".join(checks_mod.PROBE_WINDOWS))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--cost", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=501)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("plot-data", help="CSV data behind value/boundary figures")
    p.add_argument("--surface", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot_data)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
