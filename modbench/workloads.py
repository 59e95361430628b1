"""The three workloads: what one operation runs and how its output is checked.

Each workload is set up once (``__init__``), then hands out rounds of
operations as (key, thunk) pairs; a thunk runs one operation and
returns its raw output.  Program functions are looked up through the
``modlab`` package at call time, so tracing wrappers installed later
see every call.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import checks, inputs, tracing

CLI_IMPORT = "import modlab.cli"
CLI_LAUNCH = "import sys; from modlab.cli import main; sys.exit(main())"


class CliFailed(Exception):
    pass


def child_env() -> dict:
    """Environment of a child interpreter that imports modlab from ./src."""
    path = [str(Path("src").resolve())]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def program_models() -> dict:
    """The shipped configs, loaded the way the CLI loads them."""
    from modlab import model_from_dict
    from modlab.cli import load_config

    return {n: model_from_dict(
        load_config(str(inputs.CONFIG_DIR / f"{n}.json"))["model"])
        for n in inputs.FAMILIES}


class WaveReports:
    """find_turning_points -> averaged_state -> whitham_report on seeded waves."""

    name = "wave-reports"
    keep_all = False

    def __init__(self, seed: int):
        import modlab

        self.ml = modlab
        self.refs = inputs.ref_models()
        self.models = program_models()
        self.rounds = inputs.wave_rounds(self.refs, seed)
        self.specs = {s.key: s for row in self.rounds for s in row}

    def round_ops(self, r: int):
        return [(s.key, partial(self._run, s))
                for s in self.rounds[r % len(self.rounds)]]

    def _run(self, s):
        ml = self.ml
        model = self.models[s.family]
        p = ml.WaveParams(s.mu, s.c, np.array(s.lam))
        br = ml.find_turning_points(model, p)
        st = ml.averaged_state(model, p, br)
        return st, ml.whitham_report(model, p, br)

    def fault(self, key):
        return None

    def check(self, key, outputs) -> list[str]:
        st, rep = outputs[0]
        spec = self.specs[key]
        out = {"eigenvalues": rep.eigenvalues, "whitham": rep.whitham,
               "spectral_match_residual": rep.spectral_match_residual,
               "Xi": st.Xi, "mean": float(st.meanU[0]),
               "theta": st.Xi * (st.meanH + st.meanLH),
               "classification": rep.classification}
        return checks.check_wave(self.refs[spec.family], spec, out)


class LimitSweeps:
    """One sweep call per operation, anchor included, at the default pool size."""

    name = "limit-sweeps"
    keep_all = False

    def __init__(self, seed: int):
        import modlab

        self.ml = modlab
        self.seed = seed
        self.refs = inputs.ref_models()
        self.models = program_models()
        self.ops = inputs.sweep_ops(self.refs)
        self.by_key = {op.key: op for op in self.ops}

    def round_ops(self, r: int):
        return [(op.key, partial(self._run, op))
                for op in inputs.shuffled(self.ops, self.seed, r)]

    def _run(self, op):
        ml = self.ml
        model = self.models[op.family]
        lam = np.array(op.lam)
        if op.kind.startswith("harmonic"):
            anchor = ml.harmonic_point(model, op.c, lam)
        else:
            anchor = ml.soliton_point(model, op.c, lam)
        offsets = np.array(op.offsets)
        if op.kind.endswith("fit"):
            _, fit = ml.asymptotic_sweep(model, anchor, offsets)
            return {"fits": fit.fits, "r2": fit.r2}
        table = ml.sweep_table(model, anchor, offsets)
        split = ml.eigen_splitting_fit(model, anchor, table=table)
        return {"fits": split.fits, "r2": split.r2}

    def fault(self, key):
        return self.by_key[key].fault

    def check(self, key, outputs) -> list[str]:
        op = self.by_key[key]
        dmi = None
        if op.kind == "harmonic_split":
            dmi = checks.delta_mi_reference(self.refs[op.family], op,
                                            self.models[op.family])
        return checks.check_sweep(self.refs[op.family], op, outputs[0], dmi)


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(stderr: str) -> dict:
    """Cumulative import time in ms of top-level packages, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e3
    return out


class CliCold:
    """A fresh modlab process per invocation, one at a time."""

    name = "cli-cold"
    keep_all = True

    def __init__(self, seed: int):
        self.seed = seed
        self.refs = inputs.ref_models()
        self.calls = inputs.cli_calls()
        self.by_key = {c.key: c for c in self.calls}
        (inputs.OUT_DIR / "cli").mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.traced = False
        self.trace_spans = []        # per invocation: (key, spans)
        self.imports = []

    def round_ops(self, r: int):
        return [(c.key, partial(self._run, c))
                for c in inputs.shuffled(self.calls, self.seed, r)]

    def _run(self, call):
        if self.traced:
            trace_path = inputs.OUT_DIR / "cli" / "trace.jsonl"
            cmd = [sys.executable, "-X", "importtime", "-m",
                   "modbench.traced_cli", str(trace_path), *call.argv]
        else:
            cmd = [sys.executable, "-c", CLI_LAUNCH, *call.argv]
        p = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, check=False)
        if p.returncode != 0:
            raise CliFailed(f"exit {p.returncode}: {p.stderr.strip()[-300:]}")
        fit = None
        if call.out:
            with open(call.out, encoding="utf-8") as fh:
                text = fh.read()
            with open(call.out[:-4] + ".fit.json", encoding="utf-8") as fh:
                fit = fh.read()
        else:
            text = p.stdout
        if self.traced:
            self.trace_spans.append((call.key, tracing.load_spans(trace_path)))
            self.imports.append(import_times(p.stderr))
        return text, fit

    def fault(self, key):
        return None

    def check(self, key, outputs) -> list[str]:
        call = self.by_key[key]
        fails = []
        if len(outputs) < 2 or any(o != outputs[0] for o in outputs[1:]):
            fails.append(f"{key}: {len(outputs)} invocations, "
                         "reports not byte-identical")
        return fails + checks.check_cli(call, self.refs, *outputs[0])


WORKLOADS = {w.name: w for w in (WaveReports, LimitSweeps, CliCold)}
