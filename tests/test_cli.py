import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logit

import seqtest as st
from conftest import traced_peak
from seqtest import cli as cli_mod
from seqtest.cli import run


@pytest.fixture()
def prior_file(tmp_path):
    path = tmp_path / "prior.csv"
    path.write_text(
        "# theta0=0.0\nu,w\n" f"{float(logit(0.3))!r},1.0\n{float(logit(0.7))!r},1.0\n"
    )
    return str(path)


@pytest.fixture()
def solved_dir(tmp_path, prior_file):
    out = str(tmp_path / "run")
    code = run(
        [
            "solve",
            "--model",
            "bernoulli",
            "--prior",
            prior_file,
            "--cost",
            "0.05",
            "--horizon",
            "auto",
            "--out",
            out,
        ]
    )
    assert code == 0
    return out


class TestSolve:
    def test_writes_outputs(self, solved_dir):
        assert os.path.exists(os.path.join(solved_dir, "surface.json"))
        assert os.path.exists(os.path.join(solved_dir, "boundaries.csv"))
        assert os.path.exists(os.path.join(solved_dir, "run_config.json"))
        surface = st.read_surface_json(os.path.join(solved_dir, "surface.json"))
        assert surface.horizon == st.choose_horizon(0.05, 0.1)

    def test_zero_cost_is_usage_error(self, tmp_path, prior_file, capsys):
        code = run(
            ["solve", "--model", "bernoulli", "--prior", prior_file, "--cost", "0", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "cost must be positive" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path, prior_file, capsys):
        code = run(
            ["solve", "--model", "cauchy", "--prior", prior_file, "--cost", "0.1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_degenerate_prior(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# theta0=5.0\nu,w\n-1.0,1\n1.0,1\n")
        code = run(
            ["solve", "--model", "bernoulli", "--prior", str(bad), "--cost", "0.1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "degenerate prior" in capsys.readouterr().err

    def test_malformed_prior(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# theta0=0.0\nu,w\n-1.0,goat\n1.0,1\n")
        code = run(
            ["solve", "--model", "bernoulli", "--prior", str(bad), "--cost", "0.1", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--model", "bernoulli", "--grid-size", "0"], "grid size must be an integer >= 3, got 0",
                         id="grid-size"),
            pytest.param(["--model", "gaussian-mean", "--nodes", "0"], "positive integer", id="nodes"),
            pytest.param(["--model", "bernoulli", "--nodes", "0"],
                         "nodes applies only to the quadrature models", id="nodes-finite-model"),
        ],
    )
    def test_explicit_zero_is_not_unset(self, tmp_path, prior_file, capsys, flags, message):
        out = tmp_path / "x"
        code = run(["solve", *flags, "--prior", prior_file, "--cost", "0.2", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--model", "bernoulli", "--nodes", "5"], "nodes applies only to the quadrature models "
         "(gaussian-mean, exponential-rate, gaussian-variance), not 'bernoulli'"),
        (["--model", "binomial(3)", "--nodes", "128"], "nodes applies only to the quadrature models "
         "(gaussian-mean, exponential-rate, gaussian-variance), not 'binomial(3)'"),
        (["--model", "bernoulli", "--cost", "1e-320", "--horizon", "auto"],
         "cost 1e-320 with slack 0.1 gives no finite horizon: 1/(2c) or slack/c overflows"),
        *((["--model", "bernoulli", "--cost", cost, "--horizon", horizon],
           f"a surface of horizon {quoted} on 2001 grid "
           "points exceeds the budget of 100000000 values; raise the cost or lower the horizon or the grid size")
          for cost, horizon, quoted in (("1e-12", "auto", "600000000000"), ("0.2", "600000000000", "600000000000"),
                                        ("1e-300", "auto", "6.00e+299"))),
    ])
    def test_refused_with_one_line(self, tmp_path, prior_file, capsys, flags, message):
        out = tmp_path / "x"
        code = run(["solve", "--cost", "0.2", *flags, "--prior", prior_file, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gaussian-mean", "exponential-rate", "gaussian-variance"])
    @pytest.mark.parametrize("nodes", ["0", "-2"])
    def test_nodes_must_be_positive(self, tmp_path, capsys, model, nodes):
        prior = tmp_path / "prior.csv"
        prior.write_text("# theta0=1.0\nu,w\n0.5,1.0\n1.5,1.0\n")
        out = tmp_path / "x"
        code = run(["solve", "--model", model, "--nodes", nodes, "--prior", str(prior), "--cost", "0.2",
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: nodes for model '{model}' must be a positive integer, got {nodes}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["exponential-rate", "gaussian-variance"])
    @pytest.mark.parametrize("atom", ["-0.5", "0.0"])
    @pytest.mark.parametrize("command", [
        pytest.param(["solve", "--cost", "0.2", "--horizon", "3", "--out"], id="solve"),
        pytest.param(["verify", "--check", "level-spread", "--out"], id="verify"),
        pytest.param(["oracle", "--cost", "0.2", "--horizon", "3"], id="oracle"),
    ])
    def test_prior_atom_outside_natural_domain(self, tmp_path, capsys, model, atom, command):
        # the window is sized from the smallest atom, so it must not be refused first
        prior = tmp_path / "prior.csv"
        prior.write_text(f"# theta0=1.0\nu,w\n{atom},1.0\n1.5,1.0\n")
        out = tmp_path / "x"
        code = run([*command, *([str(out)] if command[-1] == "--out" else []), "--model", model,
                    "--prior", str(prior)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: prior atom outside natural domain (0.0, inf) of model '{model}'\n")
        assert not out.exists()

    def test_config_round_trip_reproduces_outputs(self, tmp_path, solved_dir):
        out2 = str(tmp_path / "rerun")
        cfg = os.path.join(solved_dir, "run_config.json")
        code = run(["solve", "--config", cfg, "--out", out2])
        assert code == 0
        a = open(os.path.join(solved_dir, "surface.json"), "rb").read()
        b = open(os.path.join(out2, "surface.json"), "rb").read()
        assert a == b


class TestVerify:
    @staticmethod
    def _inputs(check, solved_dir, prior_file):
        """The input flags ``check`` reads: a surface, or a model and its prior."""
        if check in ("concavity", "time-monotonicity"):
            return ["--surface", os.path.join(solved_dir, "surface.json")]
        return ["--model", "bernoulli", "--prior", prior_file]

    def test_concavity_passes(self, solved_dir, capsys):
        code = run(["verify", "--check", "concavity", "--surface", os.path.join(solved_dir, "surface.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["check"] == "concavity" and report["passed"]

    def test_multiple_checks_jsonl(self, solved_dir, prior_file, tmp_path):
        out = str(tmp_path / "reports.jsonl")
        code = run(
            [
                "verify",
                "--check",
                "concavity",
                "--check",
                "time-monotonicity",
                "--check",
                "concentration",
                "--check",
                "level-spread",
                "--check",
                "convex-order",
                "--surface",
                os.path.join(solved_dir, "surface.json"),
                "--model",
                "bernoulli",
                "--prior",
                prior_file,
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(l)["passed"] for l in lines)

    def test_failing_check_exits_one(self, solved_dir, tmp_path):
        surface = st.read_surface_json(os.path.join(solved_dir, "surface.json"))
        values = surface.values.copy()
        values[1, 900] -= 1e-3  # convex dent
        from dataclasses import replace

        broken = replace(surface, values=values)
        bad_path = str(tmp_path / "broken.json")
        st.write_surface_json(broken, bad_path)
        code = run(["verify", "--check", "concavity", "--surface", bad_path])
        assert code == 1

    def test_binomial_reduction_via_cli(self, prior_file):
        code = run(
            ["verify", "--check", "binomial-reduction", "--prior", prior_file, "--N", "2", "--cost", "0.1",
             "--grid-size", "801"]
        )
        assert code == 0

    def test_zero_tolerance_is_applied(self, solved_dir, tmp_path, capsys):
        surface = st.read_surface_json(os.path.join(solved_dir, "surface.json"))
        values = surface.values.copy()
        values[3, 900] = values[2, 900] - 1e-12  # layer 3 dips below layer 2
        from dataclasses import replace

        path = str(tmp_path / "dip.json")
        st.write_surface_json(replace(surface, values=values), path)
        assert run(["verify", "--check", "time-monotonicity", "--surface", path]) == 0
        capsys.readouterr()
        assert run(["verify", "--check", "time-monotonicity", "--surface", path, "--tol", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0

    def test_binomial_reduction_grid_size_zero(self, prior_file, capsys):
        code = run(
            ["verify", "--check", "binomial-reduction", "--prior", prior_file, "--N", "2", "--cost", "0.1",
             "--grid-size", "0"]
        )
        assert code == 2
        assert "grid size must be an integer >= 3, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("check, flags, message", [
        ("convex-order", ["--m", "-3"], "convex order time m must be a non-negative integer, got -3"),
        ("convex-order", ["--pi", "1e-300"], "level curve out of numerical range: pi must lie in (1e-12, 1-1e-12)"),
        ("level-spread", ["--n-max", "-1"], "n_max must be a non-negative integer, got -1"),
        ("concentration", ["--n-max", "-1"], "n_max must be a non-negative integer, got -1"),
        ("time-monotonicity", ["--burn", "-3"], "burn must be a non-negative integer, got -3"),
    ])
    def test_out_of_range_argument_is_usage_error(self, solved_dir, prior_file, capsys, check, flags, message):
        code = run(["verify", "--check", check, *flags, *self._inputs(check, solved_dir, prior_file)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("check", ["convex-order", "concavity"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_outside_zero_to_infinity_is_usage_error(self, solved_dir, prior_file, tmp_path, capsys,
                                                              check, tol):
        # refused in one line before any report is written: nan and Infinity are not JSON
        out = tmp_path / "check.jsonl"
        code = run(["verify", "--check", check, "--tol", tol, *self._inputs(check, solved_dir, prior_file),
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: tol must be a finite number >= 0, got ")
        assert captured.err.count("\n") == 1

    def test_concentration_over_one_layer_passes(self, prior_file, capsys):
        code = run(["verify", "--check", "concentration", "--n-max", "0", "--model", "bernoulli", "--prior",
                    prior_file])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        (line,) = captured.out.splitlines()
        report = json.loads(line)
        assert (report["worst_violation"], report["passed"], report["location"]) == (0.0, True, None)

    def test_unknown_check(self, solved_dir, capsys):
        code = run(["verify", "--check", "sorcery", "--surface", os.path.join(solved_dir, "surface.json")])
        assert code == 2

    @pytest.mark.parametrize("checks", [["concavty"], ["concavity", "level-sprd"]])
    def test_unknown_check_is_named_before_any_check_runs(self, solved_dir, capsys, monkeypatch, checks):
        ran = []
        monkeypatch.setattr("seqtest.checks.check_concavity", lambda *a, **k: ran.append(a))
        argv = ["verify", *(a for name in checks for a in ("--check", name)),
                "--surface", os.path.join(solved_dir, "surface.json")]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and ran == []
        assert err.startswith(f"error: argument --check: invalid choice: '{checks[-1]}'") and err.count("\n") == 1


class TestVerifyReadsEveryFlag:
    """A verify flag that no requested check reads is refused in one line, and each input is built once,
    before any check runs."""

    CHECKS = ("concavity", "time-monotonicity", "binomial-reduction", "concentration", "level-spread", "convex-order")
    MODEL = ["--model", "bernoulli", "--prior", "PRIOR"]

    @pytest.mark.parametrize("argv, message", [
        (["--check", "concavity", "--surface", "SURFACE", "--scheme", "SCHEME", "--model", "gaussian-mean",
          "--nodes", "9", "--prior", "NOSUCH.csv"],
         "none of the requested checks (concavity) reads --model, --scheme, --prior, --nodes"),
        (["--check", "binomial-reduction", "--N", "3", "--cost", "0.05", "--prior", "PRIOR",
          "--model", "gaussian-mean"], "none of the requested checks (binomial-reduction) reads --model"),
        (["--check", "convex-order", *MODEL, "--surface", "NOSUCH.json"],
         "none of the requested checks (convex-order) reads --surface"),
        (["--check", "time-monotonicity", "--surface", "SURFACE", "--cost", "0.3"],
         "none of the requested checks (time-monotonicity) reads --cost"),
        *((["--check", check, *inputs, "--surface", "SURFACE"],
           f"none of the requested checks ({check}) reads --surface")
          for check, inputs in (("binomial-reduction", ["--N", "3", "--cost", "0.05", "--prior", "PRIOR"]),
                                ("concentration", MODEL), ("level-spread", MODEL), ("convex-order", MODEL))),
        *((["--check", check, "--surface", "SURFACE", flag, value],
           f"none of the requested checks ({check}) reads {flag}")
          for check, flag, value in (("concavity", "--prior", "PRIOR"), ("time-monotonicity", "--model", "bernoulli"),
                                     ("concavity", "--scheme", "SCHEME"), ("time-monotonicity", "--nodes", "9"))),
        (["--check", "convex-order", *MODEL, "--n-max", "3"],
         "none of the requested checks (convex-order) reads --n-max"),
        (["--check", "concentration", "--check", "concentration", *MODEL, "--grid-size", "101", "--burn", "2"],
         "none of the requested checks (concentration) reads --burn, --grid-size"),
        (["--check", "concavity", "--check", "binomial-reduction", "--surface", "SURFACE", "--prior", "PRIOR"],
         "binomial-reduction requires --N and --cost"),
        (["--check", "concavity", "--check", "convex-order", "--surface", "SURFACE", "--model", "bernoulli",
          "--prior", "NOSUCH.csv"], "prior file not found: NOSUCH.csv"),
    ])
    def test_refused_before_any_check_runs(self, solved_dir, prior_file, tmp_path, monkeypatch, capsys, argv,
                                           message):
        ran = []
        for name in self.CHECKS:
            monkeypatch.setattr(f"seqtest.checks.check_{name.replace('-', '_')}", lambda *a, **k: ran.append(a))
        paths = {"SURFACE": os.path.join(solved_dir, "surface.json"), "PRIOR": prior_file,
                 "SCHEME": str(tmp_path / "scheme.csv"), "NOSUCH": str(tmp_path / "nosuch")}
        (tmp_path / "scheme.csv").write_text("x,h\n0.0,1.0\n1.0,1.0\n")

        def place(text):
            for key, path in paths.items():
                text = text.replace(key, path)
            return text

        out = tmp_path / "reports.jsonl"
        assert run(["verify", *map(place, argv), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {place(message)}\n")
        assert ran == [] and not out.exists()

    def test_each_input_is_built_once(self, prior_file, monkeypatch, capsys):
        calls = []
        for name in ("load_prior_csv", "family_for_prior"):
            real = getattr(cli_mod, name)
            monkeypatch.setattr(cli_mod, name,
                                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
        # --n-max and --m are each read by one of the three checks, so both are accepted
        assert run(["verify", "--check", "concentration", "--check", "level-spread", "--check", "convex-order",
                    "--model", "bernoulli", "--prior", prior_file, "--n-max", "9", "--m", "1"]) == 0
        assert calls == ["load_prior_csv", "family_for_prior"]
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["check"], r["instance"].get("n_max"), r["instance"].get("m")) for r in reports] == [
            ("concentration", 9, None), ("level-spread", 9, None), ("convex-order", None, 1)]


class TestSchemeExcludesModel:
    """A --scheme file is the whole model: beside a model or a node count it is refused, and nothing is written."""

    @pytest.fixture()
    def scheme_file(self, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n0.0,1.0\n1.0,1.0\n")
        return str(path)

    def _refused(self, tmp_path, capsys, argv,
                 message="a --scheme file defines the whole model, so model and nodes cannot be set beside it"):
        before = sorted(tmp_path.rglob("*"))
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags", [["--model", "bernoulli"], ["--nodes", "5"],
                                       ["--model", "gaussian-mean", "--nodes", "7"]])
    @pytest.mark.parametrize("command", ["solve", "simulate", "oracle", "verify"])
    def test_beside_flags(self, tmp_path, prior_file, scheme_file, capsys, command, flags):
        out = str(tmp_path / "x")
        surface = tmp_path / "surface"
        assert run(["solve", "--scheme", scheme_file, "--prior", prior_file, "--cost", "0.1", "--horizon", "3",
                    "--grid-size", "101", "--out", str(surface)]) == 0
        capsys.readouterr()
        argv = {"solve": ["--cost", "0.1", "--horizon", "3", "--out", out],
                "simulate": ["--surface", str(surface / "surface.json"), "--replicates", "10", "--out", out,
                             "--trace", out + ".csv"],
                "oracle": ["--cost", "0.1", "--horizon", "3"],
                "verify": ["--check", "convex-order", "--out", out]}[command]
        # simulate and oracle parse no --nodes, so argparse refuses it before the scheme is read
        unparsed = command in ("simulate", "oracle") and "--nodes" in flags
        self._refused(tmp_path, capsys, [command, *argv, "--scheme", scheme_file, *flags, "--prior", prior_file],
                      *([f"unrecognized arguments: --nodes {flags[-1]}"] if unparsed else []))

    @pytest.mark.parametrize("config, flags", [
        ({"model": "bernoulli"}, ["--scheme", "SCHEME"]),
        ({"scheme": "SCHEME", "nodes": 5}, []),
        ({"scheme": "SCHEME"}, ["--model", "gaussian-mean"]),
    ])
    def test_solve_beside_config(self, tmp_path, prior_file, scheme_file, capsys, config, flags):
        config = {key: scheme_file if value == "SCHEME" else value for key, value in config.items()}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "prior": prior_file, "cost": 0.1, "horizon": 3,
                                    "out": str(tmp_path / "x")}))
        flags = [scheme_file if flag == "SCHEME" else flag for flag in flags]
        self._refused(tmp_path, capsys, ["solve", "--config", str(path), *flags])


class TestNodesReadWhereSummed:
    """--nodes sizes the quadrature rule, which only solve and verify's convex-order sum over: anywhere else it
    is refused in one line, and nothing is written."""

    @pytest.fixture()
    def gaussian_prior(self, tmp_path):
        path = tmp_path / "gaussian-prior.csv"
        path.write_text("# theta0=0.0\nu,w\n-1.0,1.0\n0.4,2.0\n1.5,1.0\n")
        return str(path)

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "bernoulli", "--prior", "BERNOULLI", "--surface", "SURFACE", "--replicates", "10",
          "--trace", "TRACE", "--out", "OUT", "--nodes", "9"], "unrecognized arguments: --nodes 9"),
        (["oracle", "--model", "bernoulli", "--prior", "BERNOULLI", "--cost", "0.1", "--horizon", "3",
          "--nodes", "5"], "unrecognized arguments: --nodes 5"),
        (["verify", "--check", "concentration", "--model", "gaussian-mean", "--nodes", "7", "--prior", "GAUSSIAN",
          "--out", "OUT"], "none of the requested checks (concentration) reads --nodes"),
        (["verify", "--check", "level-spread", "--model", "gaussian-mean", "--prior", "GAUSSIAN", "--nodes", "7",
          "--out", "OUT"], "none of the requested checks (level-spread) reads --nodes"),
        (["verify", "--check", "concentration", "--check", "level-spread", "--model", "gaussian-mean",
          "--prior", "GAUSSIAN", "--nodes", "7", "--out", "OUT"],
         "none of the requested checks (concentration, level-spread) reads --nodes"),
    ])
    def test_refused_where_no_rule_is_summed(self, solved_dir, prior_file, gaussian_prior, tmp_path, capsys, argv,
                                             message):
        paths = {"SURFACE": os.path.join(solved_dir, "surface.json"), "BERNOULLI": prior_file,
                 "GAUSSIAN": gaussian_prior, "OUT": str(tmp_path / "out"), "TRACE": str(tmp_path / "trace.csv")}
        before = sorted(tmp_path.rglob("*"))
        assert run([paths.get(arg, arg) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_convex_order_reads_nodes(self, gaussian_prior, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        assert run(["verify", "--check", "concentration", "--check", "convex-order", "--model", "gaussian-mean",
                    "--prior", gaussian_prior, "--nodes", "64", "--out", str(out)]) == 0
        concentration, convex = (json.loads(line) for line in out.read_text().splitlines())
        prior = st.load_prior_csv(gaussian_prior)

        def report(check, nodes):
            return json.loads(check(prior, st.family_for_prior("gaussian-mean", prior, nodes=nodes)).to_json())

        # the node count reaches the convex-order report; the concentration report does not depend on it
        assert convex == report(st.check_convex_order, 64) != report(st.check_convex_order, None)
        assert concentration == report(st.check_concentration, 64) == report(st.check_concentration, None)


class TestParserErrors:
    """argparse's own usage errors take the one-line, exit-2 path; --help still exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--model", "bernoulli", "--cost", "abc"], "argument --cost: invalid float value: 'abc'"),
        (["probe", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["simulate", "--model", "bernoulli"], "the following arguments are required: --surface, --replicates"),
        (["solve", "--grid-kind", "round"], "argument --grid-kind: invalid choice: 'round'"),
        (["boundaries", "--surface", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ])
    def test_one_line(self, capsys, argv, message):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: seqtest solve")


class TestSizeRefusals:
    """A size that cannot be built is refused in one stderr line, with no warning, before 1 MB is allocated."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--model", "bernoulli", "--horizon", "1", "--grid-size", "2000000000"],
         "a surface of horizon 1 on 2000000000 grid points exceeds the budget of 100000000 values; "
         "raise the cost or lower the horizon or the grid size"),
        (["verify", "--check", "level-spread", "--model", "bernoulli", "--n-max", "1000000000"],
         "n_max 1000000000 needs a level-curve table over the budget of 100000000 values for 2 level(s) "
         "and 2 atoms; lower n_max"),
        (["solve", "--model", "binomial(1030)", "--horizon", "3"],
         "binomial trial count N must be at most 1029, got 1030: C(N, N/2) overflows a double beyond it"),
        (["verify", "--check", "binomial-reduction", "--N", "1030", "--cost", "0.1"],
         "binomial trial count N must be at most 1029, got 1030: C(N, N/2) overflows a double beyond it"),
        (["verify", "--check", "binomial-reduction", "--N", "1029", "--cost", "0.1", "--grid-size", "100000"],
         "binomial reduction N = 1029 on 100000 grid points needs stacked batch states over the budget of "
         "100000000 values for 2 atoms; lower N or the grid size"),
        (["solve", "--model", "gaussian-mean", "--nodes", "500", "--horizon", "3"],
         "nodes for model 'gaussian-mean' must be at most 370, got 500: the Gauss-Hermite weights underflow "
         "beyond it"),
        (["solve", "--model", "exponential-rate", "--nodes", "20000", "--horizon", "3"],
         "nodes for model 'exponential-rate' must be at most 10000, got 20000: a rule is built from a nodes x "
         "nodes matrix, over the budget of 100000000 values"),
    ])
    def test_refused_with_one_line(self, tmp_path, capsys, argv, message):
        # atoms above 0, which every model admits
        prior = tmp_path / "prior.csv"
        prior.write_text("# theta0=1.0\nu,w\n0.5,1.0\n1.5,1.0\n")
        out = tmp_path / "x"
        if argv[0] == "solve":
            argv = [*argv, "--cost", "0.1", "--out", str(out)]
        codes = []

        def refused():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes.append(run([*argv, "--prior", str(prior)]))

        peak = traced_peak(refused)
        assert codes == [2]
        assert capsys.readouterr().err == f"error: {message}\n"
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"
        assert not out.exists()


class TestSimulate:
    def test_policy_report(self, solved_dir, prior_file, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = run(
            [
                "simulate",
                "--surface",
                os.path.join(solved_dir, "surface.json"),
                "--model",
                "bernoulli",
                "--prior",
                prior_file,
                "--replicates",
                "2000",
                "--seed",
                "9",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["replicates"] == 2000
        assert report["seed"] == 9

    def test_alternative_rule_and_trace(self, solved_dir, prior_file, tmp_path):
        trace = str(tmp_path / "trace.csv")
        code = run(
            [
                "simulate",
                "--surface",
                os.path.join(solved_dir, "surface.json"),
                "--model",
                "bernoulli",
                "--prior",
                prior_file,
                "--replicates",
                "100",
                "--seed",
                "3",
                "--rule",
                "fixed:2",
                "--trace",
                trace,
            ]
        )
        assert code == 0
        lines = open(trace).read().strip().splitlines()
        assert lines[0] == "replicate,theta,tau,decision,loss"
        assert len(lines) == 101
        taus = {int(l.split(",")[2]) for l in lines[1:]}
        assert taus == {2}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("fixed:-1", "fixed sample size must be a non-negative integer, got -1"),
            ("threshold:0.2,0.8,-3", "threshold rule cap must be a non-negative integer, got -3"),
            ("threshold:0.2,0.8,1000000000000", "a rule cap of 1000000000000 steps needs a band table of more "
             "than 100000000 values for 2 atoms; lower the cap"),
            ("threshold:nan,0.5", "0 <= low <= high <= 1"),
            ("threshold:0.8,0.2", "0 <= low <= high <= 1"),
            ("threshold:0.2,inf", "0 <= low <= high <= 1"),
        ],
    )
    def test_invalid_rule_is_usage_error(self, solved_dir, prior_file, tmp_path, capsys, spec, message):
        out = tmp_path / "report.json"
        code = run(["simulate", "--surface", os.path.join(solved_dir, "surface.json"), "--model", "bernoulli",
                    "--prior", prior_file, "--replicates", "10", "--rule", spec, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("fixed:2.5", "fixed sample size must be a non-negative integer, got '2.5'"),
        ("fixed:x", "fixed sample size must be a non-negative integer, got 'x'"),
        ("threshold:0.2,0.8,2.5", "threshold rule cap must be a non-negative integer, got '2.5'"),
        ("threshold:a,0.8", "LO and HI must be numbers, got 'a' and '0.8'"),
    ])
    def test_rule_spec_that_does_not_parse_is_named(self, solved_dir, prior_file, tmp_path, capsys, spec, message):
        out = tmp_path / "report.json"
        code = run(["simulate", "--surface", os.path.join(solved_dir, "surface.json"), "--model", "bernoulli",
                    "--prior", prior_file, "--replicates", "10", "--rule", spec, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: invalid rule spec '{spec}': {message}; "
                                           "use fixed:K or threshold:LO,HI[,CAP]\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_uint64_is_usage_error(self, solved_dir, prior_file, tmp_path, capsys, seed):
        out = tmp_path / "report.json"
        code = run(["simulate", "--surface", os.path.join(solved_dir, "surface.json"), "--model", "bernoulli",
                    "--prior", prior_file, "--replicates", "10", "--seed", seed, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and "[0, 2**64)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_largest_seed_is_legal(self, solved_dir, prior_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(["simulate", "--surface", os.path.join(solved_dir, "surface.json"), "--model", "bernoulli",
                    "--prior", prior_file, "--replicates", "10", "--seed", str(2**64 - 1), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 2**64 - 1

    def test_equal_thresholds_are_legal(self, solved_dir, prior_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(["simulate", "--surface", os.path.join(solved_dir, "surface.json"), "--model", "bernoulli",
                    "--prior", prior_file, "--replicates", "10", "--rule", "threshold:0.5,0.5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["mean_stopping_time"] == 0.0

    def test_bad_rule_spec(self, solved_dir, prior_file, capsys):
        code = run(
            [
                "simulate",
                "--surface",
                os.path.join(solved_dir, "surface.json"),
                "--model",
                "bernoulli",
                "--prior",
                prior_file,
                "--replicates",
                "10",
                "--rule",
                "sometimes",
            ]
        )
        assert code == 2


class TestOracle:
    def test_matches_library(self, prior_file, benchmark_prior, bernoulli_family, capsys):
        code = run(["oracle", "--model", "bernoulli", "--prior", prior_file, "--cost", "0.05", "--horizon", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        want = st.brute_force_value(benchmark_prior, bernoulli_family, 0.05, 4)
        assert payload["value"] == want


class TestProbe:
    def test_probe_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "findings.jsonl")
        code = run(
            ["probe", "--models", "bernoulli", "--trials", "2", "--seed", "4", "--grid-size", "301", "--out", out]
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["asserted"] is False for l in lines)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "probe seed must be a non-negative integer, got -1"),
         ("--trials", "0", "probe trials must be a positive integer, got 0"),
         ("--trials", "-3", "probe trials must be a positive integer, got -3")],
    )
    def test_bad_seed_or_trial_count_is_usage_error(self, capsys, flag, value, message):
        # the last of a repeated flag wins
        code = run(["probe", "--models", "bernoulli", "--grid-size", "101", "--trials", "1", "--seed", "0",
                    flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("models, model", [("nosuch", "nosuch"), ("binomial(5)", "binomial(5)"),
                                               ("bernoulli,nosuch,gaussian-mean", "nosuch")])
    def test_model_without_window_is_usage_error(self, capsys, models, model):
        code = run(["probe", "--models", models, "--trials", "1", "--grid-size", "101"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: probe has no prior window for model '{model}'; models with windows: "
                                f"{', '.join(st.PROBE_WINDOWS)}\n")


class TestPlotData:
    def test_outputs_and_shapes(self, solved_dir, tmp_path):
        out = str(tmp_path / "plot")
        code = run(["plot-data", "--surface", os.path.join(solved_dir, "surface.json"), "--out", out])
        assert code == 0
        surface = st.read_surface_json(os.path.join(solved_dir, "surface.json"))
        rows = open(os.path.join(out, "value_layers.csv")).read().strip().splitlines()
        assert len(rows) == 1 + (surface.horizon + 1) * surface.pi_grid.size
        # boundary columns are monotone outside the terminal burn window
        brows = open(os.path.join(out, "boundaries.csv")).read().strip().splitlines()[1:]
        b1 = [float(r.split(",")[1]) for r in brows]
        b2 = [float(r.split(",")[2]) for r in brows]
        keep = surface.horizon - st.default_burn(surface.horizon) + 1
        assert np.all(np.diff(b1[:keep]) >= 0)
        assert np.all(np.diff(b2[:keep]) <= 0)

    def test_trivial_cost_boundaries(self, tmp_path, prior_file):
        out = str(tmp_path / "triv")
        assert (
            run(
                ["solve", "--model", "bernoulli", "--prior", prior_file, "--cost", "0.6",
                 "--horizon", "3", "--grid-size", "301", "--out", out]
            )
            == 0
        )
        pd = str(tmp_path / "trivplot")
        assert run(["plot-data", "--surface", os.path.join(out, "surface.json"), "--out", pd]) == 0
        rows = open(os.path.join(pd, "boundaries.csv")).read().strip().splitlines()[1:]
        for row in rows:
            _, b1, b2 = row.split(",")
            assert float(b1) == 0.5 and float(b2) == 0.5


class TestBoundariesCommand:
    def test_stdout_matches_surface(self, solved_dir, capsys):
        code = run(["boundaries", "--surface", os.path.join(solved_dir, "surface.json")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        surface = st.read_surface_json(os.path.join(solved_dir, "surface.json"))
        assert lines[0] == "n,b1,b2"
        assert len(lines) == surface.horizon + 2
        n, b1, b2 = lines[1].split(",")
        assert float(b1) == surface.b1[0] and float(b2) == surface.b2[0]

    def test_stdout_out_and_solve_write_the_same_bytes(self, solved_dir, tmp_path, capsysbinary):
        surface = os.path.join(solved_dir, "surface.json")
        assert run(["boundaries", "--surface", surface]) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "b.csv"
        assert run(["boundaries", "--surface", surface, "--out", str(out)]) == 0
        solved = open(os.path.join(solved_dir, "boundaries.csv"), "rb").read()
        assert stdout == out.read_bytes() == solved
        assert stdout.startswith(b"n,b1,b2\n") and b"\r" not in stdout


def _swap_grid_points(payload):
    grid = payload["pi_grid"]
    grid[4], grid[5] = grid[5], grid[4]


class TestMalformedSurface:
    """A damaged surface file is a usage error (exit 2, one line), never a silent run."""

    @pytest.fixture()
    def surface_payload(self, tmp_path, prior_file):
        out = str(tmp_path / "small")
        code = run(
            ["solve", "--model", "bernoulli", "--prior", prior_file, "--cost", "0.1",
             "--horizon", "6", "--grid-size", "101", "--out", out]
        )
        assert code == 0
        with open(os.path.join(out, "surface.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _simulate(self, tmp_path, prior_file, payload):
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(payload))
        return run(
            ["simulate", "--surface", str(path), "--model", "bernoulli", "--prior", prior_file,
             "--replicates", "50", "--seed", "1"]
        )

    def test_intact_surface_runs(self, tmp_path, prior_file, surface_payload):
        assert self._simulate(tmp_path, prior_file, surface_payload) == 0

    @pytest.mark.parametrize(
        "damage, message",
        [
            pytest.param(lambda p: p.pop("b2"), "missing key(s): b2", id="no-b2"),
            pytest.param(lambda p: p.update(b1=p["b1"][:3]), "'b1' and 'b2' must have", id="short-b1"),
            pytest.param(lambda p: p["b2"].append(0.5), "'b1' and 'b2' must have", id="long-b2"),
            pytest.param(lambda p: p["b1"].__setitem__(2, 0.7), "0 <= b1 <= 1/2 <= b2 <= 1", id="b1-above-half"),
            pytest.param(lambda p: p["values"].pop(), "'values' has", id="short-values"),
            pytest.param(lambda p: p.update(horizon=7), "'values' has", id="wrong-horizon"),
            pytest.param(_swap_grid_points, "increase strictly", id="swapped-grid"),
            pytest.param(lambda p: p["pi_grid"].__setitem__(-1, 0.999), "from 0 to 1", id="grid-end"),
            pytest.param(lambda p: p["values"].__setitem__(7, math.nan), "finite", id="nan-value"),
            pytest.param(lambda p: p["b1"].__setitem__(0, math.inf), "finite", id="inf-b1"),
            pytest.param(lambda p: p.update(cost=math.inf), "'cost'", id="inf-cost"),
            pytest.param(lambda p: p.update(cost=True), "'cost'", id="bool-cost"),
            pytest.param(lambda p: p.update(horizon=True), "'horizon'", id="bool-horizon"),
            pytest.param(lambda p: p.update(values="many"), "'values'", id="string-values"),
            pytest.param(lambda p: p.update(provenance=[1]), "'provenance'", id="list-provenance"),
        ],
    )
    def test_damage_is_usage_error(self, tmp_path, prior_file, surface_payload, capsys, damage, message):
        damage(surface_payload)
        code = self._simulate(tmp_path, prior_file, surface_payload)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert err.count("\n") == 1 and err.startswith("error: surface file")

    def test_non_object_surface(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        assert run(["boundaries", "--surface", str(path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err


class TestProvenance:
    """A surface records its model and prior; simulate refuses to replay it against others."""

    @pytest.fixture()
    def other_prior(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("# theta0=0.0\nu,w\n-2.0,1.0\n-1.9,1.0\n2.0,5.0\n")
        return str(path)

    @pytest.fixture()
    def scheme_file(self, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("x,h\n0.0,1.0\n1.0,1.0\n")
        return str(path)

    def _solve(self, tmp_path, model_args, prior):
        out = tmp_path / "small"
        code = run(["solve", *model_args, "--prior", prior, "--cost", "0.1", "--horizon", "6",
                    "--grid-size", "101", "--out", str(out)])
        assert code == 0
        return out / "surface.json"

    def _simulate(self, surface, model_args, prior):
        return run(["simulate", "--surface", str(surface), *model_args, "--prior", prior,
                    "--replicates", "50", "--seed", "1"])

    def test_solve_records_model_and_prior(self, tmp_path, prior_file):
        payload = json.loads(self._solve(tmp_path, ["--model", "bernoulli"], prior_file).read_text())
        assert payload["provenance"] == {
            "model": "bernoulli",
            "prior": {"atoms": [float(logit(0.3)), float(logit(0.7))], "weights": [0.5, 0.5], "theta0": 0.0},
        }

    @pytest.mark.parametrize(
        "model, other, message",
        [
            pytest.param("binomial(3)", True, "solved for model 'bernoulli', not model 'binomial(3)'", id="both"),
            pytest.param("binomial(3)", False, "solved for model 'bernoulli', not model 'binomial(3)'", id="model"),
            pytest.param("bernoulli", True, "solved for another prior", id="prior"),
        ],
    )
    def test_mismatch_is_usage_error(self, tmp_path, prior_file, other_prior, capsys, model, other, message):
        surface = self._solve(tmp_path, ["--model", "bernoulli"], prior_file)
        capsys.readouterr()
        code = self._simulate(surface, ["--model", model], other_prior if other else prior_file)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("weights, code", [("3,3", 0), ("0.1,0.1", 0), ("1,2", 2)])
    def test_scaled_weights_are_the_same_prior(self, tmp_path, capsys, weights, code):
        # weights are normalized when recorded: 3,3 reads 0.5000000000000001 each against 1,1's 0.5
        priors = {}
        for name, (w1, w2) in (("solved", ("1", "1")), ("replayed", weights.split(","))):
            priors[name] = tmp_path / f"{name}.csv"
            priors[name].write_text(f"# theta0=0.0\nu,w\n-0.8,{w1}\n0.8,{w2}\n")
        surface = self._solve(tmp_path, ["--model", "bernoulli"], str(priors["solved"]))
        capsys.readouterr()
        assert self._simulate(surface, ["--model", "bernoulli"], str(priors["replayed"])) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: surface was solved for another prior (its atoms, weights or theta0 differ)\n"
        else:
            assert "error" not in err

    def test_scheme_surface(self, tmp_path, prior_file, scheme_file, capsys):
        surface = self._solve(tmp_path, ["--scheme", scheme_file], prior_file)
        assert self._simulate(surface, ["--scheme", scheme_file], prior_file) == 0
        capsys.readouterr()
        assert self._simulate(surface, ["--model", "bernoulli"], prior_file) == 2
        assert "solved for a --scheme model, not model 'bernoulli'" in capsys.readouterr().err

    def test_file_without_provenance_still_loads(self, tmp_path, prior_file, other_prior):
        surface = self._solve(tmp_path, ["--model", "bernoulli"], prior_file)
        payload = json.loads(surface.read_text())
        del payload["provenance"]
        surface.write_text(json.dumps(payload))
        assert isinstance(st.read_surface_json(str(surface)), st.ValueSurface)
        assert self._simulate(surface, ["--model", "binomial(3)"], other_prior) == 0

    def test_benchmark_script_records_provenance(self, tmp_path, prior_file, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        out = tmp_path / "bench"
        subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "bernoulli_benchmark.py"), "--replicates", "200",
             "--grid-size", "201", "--out", str(out)],
            check=True, env=env, capture_output=True, timeout=120,
        )
        surface = out / "surface.json"
        assert json.loads(surface.read_text())["provenance"]["model"] == "bernoulli"
        assert self._simulate(surface, ["--model", "bernoulli"], prior_file) == 0
        capsys.readouterr()
        assert self._simulate(surface, ["--model", "binomial(3)"], prior_file) == 2
        assert "solved for model 'bernoulli', not model 'binomial(3)'" in capsys.readouterr().err


class TestInputRules:
    """Non-finite costs, weights and outcomes, and malformed configs and horizons: one exit-2 line each."""

    def _usage_error(self, capsys, argv, message):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
        return out

    def _solve(self, tmp_path, prior, *flags):
        return ["solve", "--prior", prior, "--grid-size", "101", *flags, "--out", str(tmp_path / "x")]

    @pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("horizon", ["5", "auto"])
    def test_solve_cost_must_be_finite(self, tmp_path, prior_file, capsys, cost, horizon):
        argv = self._solve(tmp_path, prior_file, "--model", "bernoulli", f"--cost={cost}", "--horizon", horizon)
        self._usage_error(capsys, argv, f"cost must be positive and finite, got {cost}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("slack", ["nan", "inf", "0"])
    @pytest.mark.parametrize("horizon", ["auto", "3"])
    def test_slack_must_be_finite(self, tmp_path, prior_file, capsys, slack, horizon):
        # run_config.json records the slack whatever the horizon
        argv = self._solve(tmp_path, prior_file, "--model", "bernoulli", "--cost", "0.1", "--horizon", horizon,
                           "--slack", slack)
        self._usage_error(capsys, argv, f"slack must be positive and finite, got {slack}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cost", ["nan", "inf", "0"])
    def test_oracle_cost_must_be_finite(self, prior_file, capsys, cost):
        argv = ["oracle", "--model", "bernoulli", "--prior", prior_file, "--cost", cost, "--horizon", "4"]
        out = self._usage_error(capsys, argv, "cost must be positive and finite")
        assert out == ""

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_prior_weight_must_be_finite(self, tmp_path, capsys, weight):
        prior = tmp_path / "prior.csv"
        prior.write_text(f"# theta0=0.0\nu,w\n-0.8,1.0\n0.8,{weight}\n")
        argv = self._solve(tmp_path, str(prior), "--model", "bernoulli", "--cost", "0.1", "--horizon", "5")
        self._usage_error(capsys, argv, "prior weights must be finite")
        assert not (tmp_path / "x").exists()

    def test_scheme_point_must_be_finite(self, tmp_path, prior_file, capsys):
        scheme = tmp_path / "scheme.csv"
        scheme.write_text("x,h\n0,1\ninf,1\n")
        argv = self._solve(tmp_path, prior_file, "--scheme", str(scheme), "--cost", "0.1", "--horizon", "5")
        self._usage_error(capsys, argv, "scheme points must be finite")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("row, column", [("1,inf", "base weights"), ("1,nan", "base weights"),
                                             ("inf,1", "points")])
    def test_scheme_row_must_be_finite(self, tmp_path, prior_file, capsys, row, column):
        scheme = tmp_path / "scheme.csv"
        scheme.write_text(f"x,h\n0,1\n{row}\n")
        argv = self._solve(tmp_path, prior_file, "--scheme", str(scheme), "--cost", "0.1", "--horizon", "5")
        self._usage_error(capsys, argv, f"error: scheme {column} must be finite, got row {row!r}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["prior", "scheme"])
    def test_row_that_is_not_a_number_is_quoted(self, tmp_path, prior_file, capsys, kind):
        bad = tmp_path / f"{kind}.csv"
        if kind == "prior":
            bad.write_text("# theta0=0.0\nu,w\n-0.8,abc\n0.8,1.0\n")
            model, row = ["--model", "bernoulli", "--prior", str(bad)], "-0.8,abc"
        else:
            bad.write_text("x,h\n0,1\n1,abc\n")
            model, row = ["--scheme", str(bad), "--prior", prior_file], "1,abc"
        argv = ["solve", *model, "--cost", "0.1", "--horizon", "5", "--out", str(tmp_path / "x")]
        self._usage_error(capsys, argv, f"error: malformed {kind} row: {row!r}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("horizon", ["2.5", "0", "-3", "five", ""])
    def test_horizon_flag(self, tmp_path, prior_file, capsys, horizon):
        argv = self._solve(tmp_path, prior_file, "--model", "bernoulli", "--cost", "0.1", "--horizon", horizon)
        self._usage_error(capsys, argv, f"horizon must be 'auto' or an integer >= 1, got {horizon!r}")

    def _config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return ["solve", "--config", str(path)]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        argv = self._config(tmp_path, [{"cost": 0.1}])
        self._usage_error(capsys, argv, "config file must hold a JSON object, got list")

    def test_config_keys_are_solve_settings(self, tmp_path, prior_file, capsys):
        settings = {"model": "bernoulli", "prior": prior_file, "cost": 0.1, "horizon": "3",
                    "out": str(tmp_path / "x")}
        argv = self._config(tmp_path, {**settings, "gird_size": 101, "colour": "red"})
        self._usage_error(capsys, argv, "config file has unknown key(s): colour, gird_size")
        assert not (tmp_path / "x").exists()
        # the same settings, spelled right, solve on the grid and horizon they name; null
        # stands for a setting that is unset by default
        assert run(self._config(tmp_path, {**settings, "grid_size": 101, "scheme": None, "nodes": None,
                                           "subcommand": "solve"})) == 0
        surface = st.read_surface_json(tmp_path / "x" / "surface.json")
        assert (surface.horizon, surface.pi_grid.size) == (3, 101)

    @pytest.mark.parametrize("key, value, kind", [
        ("grid_size", 101.7, "an integer"), ("grid_size", 101.0, "an integer"), ("grid_size", True, "an integer"),
        ("grid_size", "101", "an integer"), ("grid_size", None, "an integer"), ("nodes", 8.9, "an integer"),
        ("nodes", 8.0, "an integer"), ("nodes", True, "an integer"), ("nodes", "8", "an integer"),
        ("model", 5, "a string"), ("model", ["bernoulli"], "a string"), ("out", 7, "a string"),
        ("scheme", 9, "a string"), ("grid_kind", None, "a string"), ("cost", "0.1", "a number"),
        ("cost", True, "a number"), ("slack", True, "a number"), ("slack", "x", "a number"),
        ("slack", None, "a number"),
    ])
    def test_config_values_must_have_their_types(self, tmp_path, prior_file, capsys, key, value, kind):
        settings = {"model": "gaussian-mean", "prior": prior_file, "cost": 0.1, "horizon": 3,
                    "grid_size": 101, "out": str(tmp_path / "x")}
        argv = self._config(tmp_path, {**settings, key: value})
        self._usage_error(capsys, argv, f"error: config file: {key} must be {kind}, got {value!r}\n")
        assert not (tmp_path / "x").exists()

    def test_config_prior_is_a_path_not_a_file_descriptor(self, tmp_path, prior_file, capsys):
        fd = os.open(prior_file, os.O_RDONLY)
        try:
            argv = self._config(tmp_path, {"model": "bernoulli", "prior": fd, "cost": 0.1, "horizon": 3,
                                           "grid_size": 101, "out": str(tmp_path / "x")})
            self._usage_error(capsys, argv, f"error: config file: prior must be a string, got {fd}\n")
        finally:
            os.close(fd)
        assert not (tmp_path / "x").exists()

    def test_config_integer_counts_are_recorded_as_given(self, tmp_path, prior_file):
        settings = {"model": "gaussian-mean", "prior": prior_file, "cost": 0.1, "horizon": 3,
                    "grid_size": 101, "nodes": 8, "out": str(tmp_path / "x")}
        assert run(self._config(tmp_path, settings)) == 0
        recorded = json.loads((tmp_path / "x" / "run_config.json").read_text())
        assert (recorded["grid_size"], recorded["nodes"]) == (101, 8)
        assert st.read_surface_json(tmp_path / "x" / "surface.json").pi_grid.size == 101

    @pytest.mark.parametrize("horizon", [3.7, 3.0, 0, True, None, "2.5"])
    def test_config_horizon(self, tmp_path, prior_file, capsys, horizon):
        argv = self._config(tmp_path, {"model": "bernoulli", "prior": prior_file, "cost": 0.1,
                                       "horizon": horizon, "grid_size": 101, "out": str(tmp_path / "x")})
        self._usage_error(capsys, argv, f"horizon must be 'auto' or an integer >= 1, got {horizon!r}")
        assert not (tmp_path / "x").exists()
