import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlab import cli, errors
from modlab.cli import format_float, main, parse_grid, render_csv, render_json
from modlab.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "src" / "modlab" / "configs"
GKDV = str(CONFIGS / "gkdv.json")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "modlab.cli"] + args,
                          capture_output=True, env=env)
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

    def test_precision_changes_only_numbers(self):
        _, hi, _ = run_cli(["wave", "--config", GKDV, "--mu", "-0.5",
                            "--c", "1", "--precision", "12"])
        _, lo, _ = run_cli(["wave", "--config", GKDV, "--mu", "-0.5",
                            "--c", "1", "--precision", "6"])
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


# documented exit code of every error class (README exit-code table)
EXIT_CODES = {
    "ConfigError": 2, "DomainViolation": 2, "IOFailure": 2,
    "NoPeriodicOrbit": 3, "MultipleWells": 3,
    "DegenerateOrbit": 4, "StencilLeftBranch": 4, "LeftBranch": 4,
    "NoWellMinimum": 4, "DegenerateWell": 4, "NoSaddle": 4,
    "GroupVelocityResonance": 4, "SpeedResonance": 4,
    "InadmissibleWavenumber": 4, "UncoveredClass": 4,
    "UnsupportedConjugateFamily": 4,
    "QuadratureNotConverged": 5, "IntegratorFailure": 5,
    "SingularThetaHessian": 5, "SingularJacobian": 5, "NoConvergence": 5,
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
    ], ids=["lambda-not-a-number", "lambda-and-endstate",
            "mi-v0-outside-domain", "wave-no-orbit"])
    def test_failure_exits_without_traceback(self, argv, code):
        got, out, err = run_cli(argv)
        assert got == code, err
        assert not out and err and b"Traceback" not in err

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
