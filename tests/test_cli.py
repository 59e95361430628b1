import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlab import cli, errors
from modlab.cli import format_float, main, parse_grid, render_csv, render_json
from modlab.errors import ConfigError
from modlab.models import WaveParams, model_from_dict
from modlab.profiles import averaged_state, bracket_near_limit

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "src" / "modlab" / "configs"
GKDV = str(CONFIGS / "gkdv.json")


def gkdv_numeric(tmp_path, **numeric):
    """Path of a copy of the gkdv config with ``numeric`` entries set."""
    cfg = json.loads(Path(GKDV).read_text())
    cfg["numeric"].update(numeric)
    path = tmp_path / "gkdv_numeric.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, cwd=None):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "modlab.cli"] + args,
                          capture_output=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


class TestFormatting:
    def test_shortest_round_trip(self):
        for x in (0.1, -2.0 / 3.0, 1e-15, 12345.6789):
            assert float(format_float(x, 17)) == x

    def test_lower_precision(self):
        assert format_float(0.123456789, 6) == "0.123457"

    def test_render_json_deterministic(self):
        rep = {"schema": "modlab/1", "a": 0.1, "b": [1.0, 2.0],
               "c": {"x": None, "y": True}}
        assert render_json(rep) == render_json(dict(rep))
        assert "\r" not in render_json(rep)

    def test_csv_round_trips(self):
        import csv
        import io
        table = (["name", "x"], [["row1", 0.25], ["row2", -1.5]])
        text = render_csv(table)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "x"]
        assert float(rows[1][1]) == 0.25

    def test_parse_grid(self):
        g = parse_grid("1e-3:1e-5:5")
        assert len(g) == 5 and g[0] > g[-1] > 0
        with pytest.raises(ConfigError):
            parse_grid("oops")


class TestCommands:
    @pytest.mark.parametrize("wave", [
        ["--mu", "1.271", "--c", "0.5", "--lambda=-1.15625,1.25"],
        ["--mu", "2.59", "--c", "0", "--lambda=-1.625,1.5"],
    ], ids=["v_L0-one", "v_L0-one-ulp-below"])
    def test_conjugation_exponent_is_nan_where_v_L0_is_one(self, wave,
                                                           capsys):
        # ln v_L0 = 0 (exactly, then to 1e-16) leaves no exponent to report
        argv = ["conjugation", "--config", str(CONFIGS / "ek_eulerian.json")]
        assert main(argv + wave) == 0
        rep = json.loads(capsys.readouterr().out)
        assert math.isnan(rep["mi_polynomial_exponent"])
        assert rep["mi_polynomial_residual"] <= 1e-14

    @pytest.mark.parametrize("k0", ["1e61", "1e100"])
    def test_mi_overflowing_index_exits_2(self, k0):
        code, out, err = run_cli(["mi", "--config", GKDV, "--v0", "2",
                                  "--k0", k0])
        assert code == 2 and not out
        assert err.startswith(b"config error: k0 = ")
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("k0", [1e20, 1e60])
    def test_mi_large_finite_index_is_reported(self, k0, capsys):
        assert main(["mi", "--config", GKDV, "--v0", "2",
                     "--k0", repr(k0)]) == 0
        # Delta_MI = k0 f3^2 on gkdv, where the third derivative f3 is -1
        rep = json.loads(capsys.readouterr().out)
        assert rep["delta_mi"] == pytest.approx(k0, rel=1e-15)

    def test_validate(self, tmp_path):
        code, out, _ = run_cli(["validate", "--config", GKDV])
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok" and rep["kind"] == "scalar"

    def test_wave_regression_fields(self):
        code, out, _ = run_cli(["wave", "--config", GKDV,
                                "--mu", "-0.5", "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["k"] == pytest.approx(0.15298301690396326, rel=1e-12)
        assert rep["alpha"] == pytest.approx(0.5726701960672607, rel=1e-9)
        assert rep["Theta"] == pytest.approx(1.0672434261079395, rel=1e-10)

    def test_wave_no_orbit_exit_code(self):
        code, _, err = run_cli(["wave", "--config", GKDV,
                                "--mu", "0.5", "--c", "1"])
        assert code == 3

    def test_degenerate_exit_code(self):
        code, _, _ = run_cli(["wave", "--config", GKDV,
                              "--mu", str(-2.0 / 3.0), "--c", "1"])
        assert code == 4

    def test_near_harmonic_wave_matches_the_near_limit_bracket(self):
        # 2e-7 above the well bottom, above the root-spread cutoff
        mu = -2.0 / 3.0 + 2e-7
        code, out, err = run_cli(["wave", "--config", GKDV, f"--mu={mu!r}",
                                  "--c", "1"])
        assert code == 0, err
        rep = json.loads(out)
        model = model_from_dict(json.loads(Path(GKDV).read_text())["model"])
        p = WaveParams(mu, 1.0, [0.0])
        Xi = averaged_state(model, p,
                            bracket_near_limit(model, p, 2.0, "harmonic")).Xi
        assert rep["bracket"]["regime"] == "near_harmonic"
        assert abs(rep["Xi"] - Xi) <= 1e-10 * Xi

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, _ = run_cli(["validate", "--config", str(bad)])
        assert code == 2

    def test_whitham_command(self):
        code, out, _ = run_cli(["whitham", "--config", GKDV,
                                "--mu", "-0.5", "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["classification"] == "hyperbolic"
        assert rep["spectral_match_residual"] < 1e-8

    def test_mi_command(self):
        code, out, _ = run_cli(["mi", "--config", GKDV, "--v0", "2.0",
                                "--k0", str(1.0 / (2 * np.pi))])
        rep = json.loads(out)
        assert code == 0
        assert rep["stability_verdict"] == "modulationally_stable"

    def test_mi_two_field_verdict(self):
        # Delta_MI = 4.2e-9 here has a certain sign; the band is a
        # rounding bound on its terms, not the scalar index's size
        code, out, _ = run_cli(["mi", "--config",
                                str(CONFIGS / "ek_lagrangian.json"),
                                "--v0", "1.5", "--u0", "0.2", "--k0", "200"])
        assert code == 0
        assert json.loads(out)["stability_verdict"] == "modulationally_stable"

    def test_toy_command(self):
        code, out, _ = run_cli(["toy", "--config", GKDV, "--eps", "0.01",
                                "--delta", "1", "--a-tilde", "1"])
        rep = json.loads(out)
        assert code == 0
        assert rep["eigenvalues_re"] == [0.1, -0.1] or \
            sorted(rep["eigenvalues_re"]) == [-0.1, 0.1]

    def test_limit_commands(self):
        code, out, _ = run_cli(["limit_harmonic", "--config", GKDV,
                                "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["v0"] == pytest.approx(2.0)
        code, out, _ = run_cli(["limit_soliton", "--config", GKDV,
                                "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["dcM"] == pytest.approx(12.0, rel=1e-9)


    def test_reports_open_with_schema_and_command(self, tmp_path, capsys):
        assert main(["validate", "--config", GKDV]) == 0
        assert list(json.loads(capsys.readouterr().out))[:2] == [
            "schema", "command"]
        dst = tmp_path / "s.csv"
        assert main(["sweep", "--config", GKDV, "--regime", "harmonic",
                     "--c", "1", "--grid", "1e-3:1e-6:5",
                     "--out", str(dst)]) == 0
        fit = json.loads((tmp_path / "s.fit.json").read_text())
        assert list(fit)[:3] == ["schema", "command", "regime"]
        assert fit["command"] == "sweep"

    def test_numpy_booleans_render_as_json_booleans(self):
        code, out, err = run_cli([
            "limit_harmonic", "--config", str(CONFIGS / "nls_hydro.json"),
            "--lambda=-1.4,0.5"])
        assert code == 0, err
        assert b'"dispersionless_hyperbolic": true' in out
        assert json.loads(out)["dispersionless_hyperbolic"] is True
        assert render_json({"a": np.bool_(False)}) == '{\n  "a": false\n}\n'


class TestDeterminism:
    def test_report_bytes_stable_across_runs(self):
        _, out1, _ = run_cli(["wave", "--config", GKDV,
                              "--mu", "-0.5", "--c", "1"])
        _, out2, _ = run_cli(["wave", "--config", GKDV,
                              "--mu", "-0.5", "--c", "1"])
        assert out1 == out2

    def test_precision_changes_only_numbers(self, tmp_path):
        reports = []
        for precision in (12, 6):
            cfg = gkdv_numeric(tmp_path, precision=precision)
            _, out, _ = run_cli(["wave", "--config", cfg, "--mu", "-0.5",
                                 "--c", "1"])
            reports.append(out)
        hi, lo = reports
        keys_hi = [ln.split(":")[0] for ln in hi.decode().splitlines()]
        keys_lo = [ln.split(":")[0] for ln in lo.decode().splitlines()]
        assert keys_hi == keys_lo
        assert hi != lo

    def test_sweep_csv_deterministic_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            dst = tmp_path / f"sweep_{run}.csv"
            code, _, err = run_cli([
                "sweep", "--config", GKDV, "--regime", "soliton",
                "--c", "1", "--grid", "1e-4:1e-8:6", "--out", str(dst)])
            assert code == 0, err
            fit = tmp_path / f"sweep_{run}.fit.json"
            outs.append((dst.read_bytes(), fit.read_bytes()))
            assert json.loads(fit.read_text())["fits"]["alpha_limit"] \
                == pytest.approx(12.0, rel=1e-3)
        assert outs[0] == outs[1]

    def test_sweep_requires_out(self):
        code, _, _ = run_cli(["sweep", "--config", GKDV, "--regime",
                              "soliton", "--c", "1", "--grid",
                              "1e-4:1e-8:6"])
        assert code == 2


def readme_cli_commands():
    """argv of every ``modlab`` line in the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [shlex.split(ln)[1:] for ln in block.splitlines()
            if ln.startswith("modlab ")]


def readme_option_table():
    """{command: options} from the README's per-command option table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    intro, table = text.split("| command | options it reads |", 1)
    common = set(re.findall(r"`(--[a-z0-9-]+)`", intro.splitlines()[-2]))
    out = {}
    for ln in table.splitlines()[2:]:
        if not ln.startswith("|"):
            break
        cmds, opts = ln.split("|")[1:3]
        for cmd in re.findall(r"`([a-z_]+)`", cmds):
            out[cmd] = common | set(re.findall(r"`(--[a-z0-9-]+)`", opts))
    return out


def parser_options():
    """{command: options} that build_parser's subparsers accept."""
    ap = cli.build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o not in ("-h", "--help")}
            for name, p in sub.choices.items()}


class TestReadme:
    @pytest.mark.parametrize("argv", readme_cli_commands(),
                             ids=lambda a: a[0])
    def test_cli_example_runs_as_written(self, argv, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(ROOT)
        argv = list(argv)
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, capsys.readouterr().err

    def test_option_table_matches_the_parser(self):
        table = readme_option_table()
        assert table == parser_options()
        assert sum(len(opts) for opts in table.values()) == 46

    def test_python_api_example_runs_as_written(self, capsys):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("## Python API", 1)[1].split("```python", 1)[1]
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("hyperbolic")
        assert float(lines[1]) == pytest.approx(12.0, rel=1e-3)
        assert lines[2] == "modulationally_stable"


# documented exit code of every error class (README exit-code table)
EXIT_CODES = {
    "ConfigError": 2, "DomainViolation": 2, "IOFailure": 2,
    "NoPeriodicOrbit": 3, "MultipleWells": 3,
    "DegenerateOrbit": 4, "StencilLeftBranch": 4,
    "NoWellMinimum": 4, "DegenerateWell": 4, "NoSaddle": 4,
    "GroupVelocityResonance": 4, "SpeedResonance": 4,
    "InadmissibleWavenumber": 4, "UncoveredClass": 4,
    "UnsupportedConjugateFamily": 4,
    "QuadratureNotConverged": 5, "SingularThetaHessian": 5,
    "EigenFailure": 5, "FitRejected": 5, "GridDegenerate": 5,
}


class TestFailurePaths:
    def test_every_error_class_has_a_documented_code(self):
        groups = (errors.InvalidInput, errors.OrbitNotFound,
                  errors.LimitFailure, errors.ToleranceFailure)
        leaves = {name for name, cls in vars(errors).items()
                  if isinstance(cls, type) and issubclass(cls, groups)
                  and cls not in groups}
        assert leaves == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_maps_to_its_exit_code(self, name, monkeypatch, capsys):
        cls = getattr(errors, name)

        def fail(model, cfg, args):
            raise cls("injected")

        monkeypatch.setitem(cli.HANDLERS, "validate", fail)
        assert main(["validate", "--config", GKDV]) == EXIT_CODES[name]
        assert capsys.readouterr().err.endswith(": injected\n")

    @pytest.mark.parametrize("argv, code", [
        (["limit_soliton", "--config", GKDV, "--c", "1", "--lambda=x"], 2),
        (["limit_soliton", "--config", GKDV, "--c", "1", "--lambda=0.1",
          "--endstate=0"], 2),
        (["mi", "--config", str(CONFIGS / "nls_hydro.json"), "--v0", "-2",
          "--k0", "0.2"], 2),
        (["wave", "--config", GKDV, "--mu", "0.5", "--c", "1"], 3),
        (["limit_soliton", "--config", GKDV, "--c", "1", "--endstate=1.5"],
         4),
        (["limit_harmonic", "--config", GKDV, "--c", "1", "--branch",
          "minus"], 2),
        (["wave", "--config", GKDV, "--c", "1"], 2),
        (["wave", "--config", GKDV, "--mu=0", "--c", "1"], 4),
        (["whitham", "--config", GKDV, "--mu=-1e-5", "--c", "1"], 4),
        (["wave", "--config", GKDV, "--mu", "nan"], 2),
        (["wave", "--config", GKDV, "--mu", "-0.5", "--c", "nan"], 2),
        (["wave", "--config", GKDV, "--mu", "-0.5", "--lambda=nan"], 2),
        (["whitham", "--config", GKDV, "--mu", "-0.5", "--c", "inf"], 2),
        (["limit_harmonic", "--config", GKDV, "--c", "nan"], 2),
        (["limit_soliton", "--config", GKDV, "--c", "nan"], 2),
        (["limit_soliton", "--config", GKDV, "--endstate=nan"], 2),
        (["mi", "--config", GKDV, "--k0", "-0.2"], 2),
        (["mi", "--config", GKDV, "--k0", "0"], 2),
        (["mi", "--config", GKDV, "--k0", "nan"], 2),
        (["mi", "--config", GKDV, "--k0", "inf"], 2),
        (["toy", "--config", GKDV, "--eps", "nan"], 2),
        (["sweep", "--config", GKDV, "--regime", "soliton", "--c", "nan",
          "--grid", "1e-6:1e-8:4", "--out", "s.csv"], 2),
        (["sweep", "--config", GKDV, "--regime", "soliton", "--c", "1",
          "--grid", "nan:1e-6:4", "--out", "s.csv"], 2),
    ], ids=["lambda-not-a-number", "lambda-and-endstate",
            "mi-v0-outside-domain", "wave-no-orbit", "endstate-not-a-saddle",
            "branch-on-limit-harmonic", "wave-without-mu",
            "wave-at-soliton-level", "whitham-stencil-past-soliton-level",
            "wave-mu-nan", "wave-c-nan", "wave-lambda-nan", "whitham-c-inf",
            "limit-harmonic-c-nan", "limit-soliton-c-nan",
            "endstate-nan", "mi-k0-negative", "mi-k0-zero", "mi-k0-nan",
            "mi-k0-inf", "toy-eps-nan", "sweep-c-nan", "sweep-grid-nan"])
    def test_failure_exits_without_traceback(self, argv, code, tmp_path):
        got, out, err = run_cli(argv, cwd=tmp_path)
        assert got == code, err
        assert not out and err and b"Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_report_to_a_missing_directory_exits_2(self, tmp_path):
        # the report cannot be written: an io failure, not a traceback
        code, out, err = run_cli(["validate", "--config", GKDV, "--out",
                                  str(tmp_path / "missing" / "x.json")])
        assert code == 2 and not out
        assert err.startswith(b"io failure: ") and err.count(b"\n") == 1
        assert b"Traceback" not in err and list(tmp_path.iterdir()) == []

    def test_family_without_a_saddle_exits_4(self):
        # gkdv at c = 0.5, lambda = -1: W' = v^2 / 2 - v / 2 + 1 has no
        # real root, so W has no saddle to anchor a soliton at
        code, out, err = run_cli(["limit_soliton", "--config", GKDV, "--c",
                                  "0.5", "--lambda=-1"])
        assert code == 4 and not out
        assert err.startswith(b"limit failure: 0 saddles of W in the window")
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("c", ["0", "1e-300"])
    def test_infinite_group_velocity_exits_4(self, c):
        # g' = 0 at c = 0 on ek_lagrangian makes the group velocity
        # infinite; at c = 1e-300 it is finite but overflows the block
        code, out, err = run_cli([
            "limit_harmonic", "--config", str(CONFIGS / "ek_lagrangian.json"),
            "--lambda=0.4,-0.2", f"--c={c}"])
        assert code == 4 and not out
        assert err.startswith(b"limit failure: ") and err.count(b"\n") == 1

    def test_sweep_past_the_opposite_limit_exits_4(self, tmp_path):
        # mu0 + 1e-2 lies above the saddle level: the near-limit bracket
        # holds no roots there and refuses to be built
        code, out, err = run_cli([
            "sweep", "--config", GKDV, "--regime", "harmonic", "--c", "0.5",
            "--lambda=-0.1", "--grid", "1e-2:1e-5:6", "--out", "h.csv"],
            cwd=tmp_path)
        assert code == 4, err
        assert b"not a root" in err and b"Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_whose_stencil_step_rounds_away_exits_4(self, tmp_path):
        # at mu_s - 1e-300 the near-limit Hessian's c step rounds away at
        # c = 1: one limit failure, not a zero Hessian with NaN fits
        code, out, err = run_cli([
            "sweep", "--config", GKDV, "--regime", "soliton", "--c", "1",
            "--grid", "1e-3:1e-300:4", "--out", "s.csv"], cwd=tmp_path)
        assert code == 4 and not out
        assert err.startswith(b"limit failure: stencil step ")
        assert b"rounds away" in err and err.count(b"\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("endstate, grid, depth", [
        ("0", "1:1e-6:5", b"0.666667"), ("0.9", "1e-3:1e-6:5", b"0.000666667")])
    def test_soliton_sweep_below_the_well_names_its_depth(self, tmp_path,
                                                          endstate, grid,
                                                          depth):
        # a first offset past the well depth (2/3 (1 - endstate)^3 at c = 1)
        # puts the level below the well bottom, where no orbit exists
        code, out, err = run_cli([
            "sweep", "--config", GKDV, "--regime", "soliton", "--c", "1",
            f"--endstate={endstate}", "--grid", grid, "--out", "s.csv"],
            cwd=tmp_path)
        assert code == 3 and not out
        assert err.startswith(b"no periodic orbit: level mu = ")
        assert b"below the bottom of the well" in err
        assert b"exceeds the well depth " + depth + b"\n" in err
        assert err.count(b"\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_branch_is_read_by_mi_only(self, tmp_path):
        dst = tmp_path / "h.csv"
        code, _, err = run_cli(["sweep", "--config", GKDV, "--regime",
                                "harmonic", "--c", "1", "--grid",
                                "1e-3:1e-6:10", "--branch", "plus",
                                "--out", str(dst)])
        assert code == 2 and b"--branch" in err
        assert not dst.exists()
        mi = ["mi", "--config", str(CONFIGS / "ek_lagrangian.json"),
              "--v0", "1.5", "--u0", "0.2", "--k0", "0.2"]
        reps = []
        for extra in ([], ["--branch", "plus"], ["--branch", "minus"]):
            code, out, err = run_cli(mi + extra)
            assert code == 0, err
            reps.append(json.loads(out)["delta_mi"])
        assert reps[0] == reps[1] == -reps[2] != 0.0
        # a scalar index has no speed branch: a given one is refused
        for branch in ("plus", "minus"):
            code, out, err = run_cli(["mi", "--config", GKDV, "--v0", "2",
                                      "--k0", "0.159155", "--branch", branch])
            assert code == 2 and not out
            assert err == b"config error: --branch applies to two-field " \
                b"models only\n"

    def test_sweep_checks_out_before_computing(self, monkeypatch, capsys):
        def compute(*args):
            raise AssertionError("sweep computed without --out")

        monkeypatch.setattr(cli, "sweep_runner", compute)
        assert main(["sweep", "--config", GKDV, "--regime", "soliton",
                     "--c", "1", "--grid", "1e-4:1e-8:6"]) == 2
        assert "--out" in capsys.readouterr().err


class TestSolitonAnchorArguments:
    def test_lambda_names_the_family(self):
        code, out, err = run_cli(["limit_soliton", "--config", GKDV,
                                  "--c", "1", "--lambda=0.1"])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["lambda"] == [0.1]
        assert rep["vs"] == pytest.approx(-0.0954451150103322, rel=1e-12)
        assert rep["lambda_residual"] < 1e-15

    def test_endstate_fixes_the_endstate(self):
        code, out, err = run_cli([
            "limit_soliton", "--config", str(CONFIGS / "ek_lagrangian.json"),
            "--c", "0.8", "--endstate=-1.2,0.3"])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["Us"] == pytest.approx([-1.2, 0.3], abs=1e-12)

    def test_near_sonic_endstate(self):
        # c - v_s = 1e-3: every stencil point of the anchor's Jacobian
        # stays a saddle of its own family
        code, out, err = run_cli(["limit_soliton", "--config", GKDV,
                                  "--c", "1e-3"])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["dc2M"] == pytest.approx(18.0 * 1e-3 ** 0.5, rel=1e-4)


class TestOptionContract:
    """Each subcommand accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["mi", "--config", GKDV, "--v", "2"],
        ["mi", "--con", GKDV],
        ["wave", "--config", GKDV, "--mu", "-0.5", "--c", "1", "--k0", "9"],
        ["wave", "--config", GKDV, "--mu", "-0.5", "--c", "1",
         "--quad-order", "8"],
        ["wave", "--config", GKDV, "--mu", "-0.5", "--c", "1",
         "--precision", "12"],
        ["toy", "--config", GKDV, "--lambda=1"],
        ["sweep", "--config", GKDV, "--regime", "harmonic", "--c", "1",
         "--grid", "1e-3:1e-6:10", "--endstate=0"],
        ["mi", "--config", GKDV, "--u0", "5"],
    ], ids=["mi-v", "abbreviated-config", "wave-k0",
            "wave-quad-order", "wave-precision", "toy-lambda",
            "harmonic-sweep-endstate", "mi-u0-one-field"])
    def test_unread_option_exits_2_and_writes_nothing(self, argv, tmp_path):
        out = "s.csv" if argv[0] == "sweep" else "r.json"
        code, stdout, err = run_cli(argv + ["--out", out], cwd=tmp_path)
        assert code == 2, err
        assert not stdout and err and b"Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_usage_errors_return_2_from_main(self, capsys):
        assert main(["mi", "--config", GKDV, "--v", "2"]) == 2
        assert main(["wave", "--config", GKDV, "--c", "1"]) == 2
        assert "--mu" in capsys.readouterr().err

    def test_sweep_out_dash_exits_2_and_writes_nothing(self, tmp_path):
        code, stdout, err = run_cli([
            "sweep", "--config", GKDV, "--regime", "soliton", "--c", "1",
            "--grid", "1e-4:1e-8:4", "--out", "-"], cwd=tmp_path)
        assert code == 2, err
        assert not stdout and b"Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def _rename(block, old, new):
    def edit(cfg):
        part = cfg if block is None else cfg[block]
        part[new] = part.pop(old)
    return edit


class TestConfigKeys:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json"))
                             + [ROOT / "modbench" / "conjugation_ek.json"],
                             ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        cfg = cli.load_config(str(path))
        assert cfg["numeric"] == cli.DEFAULT_NUMERIC
        model_from_dict(cfg["model"])

    @pytest.mark.parametrize("edit", [
        _rename("model", "kappa", "kapa"),
        _rename("numeric", "quad_order", "quad_ordr"),
        _rename(None, "numeric", "numerics"),
    ], ids=["kapa", "quad_ordr", "numerics"])
    def test_misspelt_key_exits_2(self, edit, tmp_path):
        cfg = json.loads((CONFIGS / "nls_hydro.json").read_text())
        edit(cfg)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["limit_harmonic", "--config", str(path),
                                  "--lambda=-1.4,0.5"])
        assert code == 2, err
        assert not out and b"Traceback" not in err

    @pytest.mark.parametrize("numeric", [
        {"quad_order": 0}, {"quad_order": 8.5}, {"precision": 18},
        {"precision": "12"}, {"fd_rel_step": 1e-5},
        {"quad_order": 1025}, {"precision": 5},
    ], ids=["quad-order-0", "quad-order-float", "precision-18",
            "precision-text", "retired-key", "quad-order-above-bound",
            "precision-5"])
    def test_bad_numeric_block_is_a_config_error(self, numeric, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"kind": "scalar", "b": 1.0,
                                              "f": {"poly": [0.0]}},
                                    "numeric": numeric}))
        with pytest.raises(ConfigError):
            cli.load_config(str(path))

    def test_quad_order_at_its_bound_loads(self, tmp_path):
        path = gkdv_numeric(tmp_path, quad_order=cli.MAX_QUAD_ORDER)
        assert cli.load_config(path)["numeric"]["quad_order"] == 1024

    def test_quad_order_above_bound_exits_before_any_node(self, monkeypatch,
                                                          capsys, tmp_path):
        def nodes(n):
            raise AssertionError(f"Gauss rule of order {n} computed")

        monkeypatch.setattr("modlab.profiles.leggauss", nodes)
        monkeypatch.setattr("modlab.profiles._node_cache", {})
        path = gkdv_numeric(tmp_path, quad_order=cli.MAX_QUAD_ORDER + 1)
        argv = ["wave", "--config", path, "--mu", "-0.5", "--c", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("config error: quad_order")

    @pytest.mark.parametrize("edit, equivalent", [
        ({"kappa": {"laurent": {"-1": 0.25}}}, {"kappa": {"inv4v": True}}),
        ({"f": {"laurent": {"-1": 0.25}}}, {"f": {"inv4v": True}}),
        ({"tau": {"affine": [0, 1]}}, {"tau": {"identity": True}}),
        ({"tau": {"affine": [1, 0]}}, {"tau": {"const": 1}}),
    ], ids=["kappa-laurent", "f-laurent", "tau-affine-identity",
            "tau-affine-const"])
    def test_model_value_builds_its_equivalent(self, edit, equivalent):
        def model(change):
            cfg = json.loads((CONFIGS / "nls_hydro.json").read_text())
            cfg["model"].update(change)
            return model_from_dict(cfg["model"])

        assert model(edit) == model(equivalent)

    def test_open_domain_end_reads_as_infinite(self):
        cfg = json.loads((CONFIGS / "nls_hydro.json").read_text())
        cfg["model"]["domain"] = [0.5, None]
        assert model_from_dict(cfg["model"]).domain == (0.5, math.inf)

    @pytest.mark.parametrize("change", [
        {"b": "one"}, {"domain": [0]}, {"tau": {"affine": [1, 0, 3]}},
        {"f": {"poly": "abc"}}, {"b": [1.0]}, {"domain": [2.0, 1.0]},
        {"f": {"laurent": {"x": 1.0}}}, {"kappa": {"poly": []}},
        {"tau": {"const": "1.0"}}, {"b": float("nan")}, {"b": True},
        {"f": {"poly": [0.0, 0.0, float("inf")]}},
        {"f": [0.0, 0.0, 0.5]}, {"kappa": 1.0}, {"f": {"poly": 0.5}},
    ], ids=["b-text", "domain-one-entry", "tau-affine-three",
            "f-poly-text", "b-list", "domain-reversed", "laurent-exponent",
            "kappa-empty", "tau-const-text", "b-nan", "b-bool", "f-inf",
            "f-bare-list", "kappa-bare-number", "f-poly-number"])
    def test_malformed_model_value_exits_2(self, change, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "nls_hydro.json").read_text())
        cfg["model"].update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
