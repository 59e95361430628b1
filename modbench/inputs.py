"""Seeded inputs of the three workloads.

The program receives only what is built here: wave parameters drawn
from the seed, the fixed sweep anchors and grids (in a seed-shuffled
order), and the CLI invocations (in a seed-shuffled order per round).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reference import RefModel

FAMILIES = ("gkdv", "quartic", "ek_lagrangian", "ek_eulerian", "nls_hydro")
WAVES_PER_FAMILY = 24
# wells shallower than this are left out: the default FD step of the action
# Hessian (1e-5 in mu) does not shrink with the well, and on wells about
# 1e-5 deep its stencil crosses a limit (StencilLeftBranch)
MIN_WELL_DEPTH = 1e-2
CONFIG_DIR = Path("src") / "modlab" / "configs"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def load_block(name: str) -> dict:
    """Model block of a shipped config."""
    with open(CONFIG_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["model"]


# ----------------------------------------------------------------------------
# wave-reports


@dataclass(frozen=True)
class WaveSpec:
    key: str
    family: str
    mu: float
    c: float
    lam: tuple
    v0: float


def _draw_family(name: str, rng: np.random.Generator):
    """(c, lambda) of one generic family member."""
    u = rng.uniform
    if name == "gkdv":
        c = u(0.5, 2.0)
        return c, (u(-0.3 * c * c, 0.5),)
    if name == "quartic":
        return u(-0.8, -0.2), (u(-0.05, 0.05),)
    if name == "ek_lagrangian":
        return u(0.5, 1.1), (u(0.2, 0.6), u(-0.4, 0.0))
    if name == "ek_eulerian":
        lam2 = float(rng.choice([-1.0, 1.0])) * u(0.3, 1.0)
        return u(-0.3, 0.3), (-u(1.2, 2.5) * abs(lam2) - 0.5, lam2)
    if name == "nls_hydro":
        return u(-0.3, 0.3), (u(-1.6, -1.2), u(0.3, 0.7))
    raise ValueError(name)


def wave_rounds(refs: dict, seed: int) -> list[list[WaveSpec]]:
    """WAVES_PER_FAMILY rounds of one wave per family.

    Each wave's level sits a fraction in [0.2, 0.8] of the way from the
    well bottom to the lowest adjacent saddle.  Draws without such a
    well, or with one shallower than MIN_WELL_DEPTH, are redrawn from the
    same stream.
    """
    rng = np.random.default_rng([seed % 2**63, 1])
    rounds = []
    for i in range(WAVES_PER_FAMILY):
        row = []
        for name in FAMILIES:
            while True:
                c, lam = _draw_family(name, rng)
                well = refs[name].well(c, lam)
                if well is not None and well[2] - well[1] >= MIN_WELL_DEPTH:
                    break
            v0, mu0, mu_top = well
            frac = rng.uniform(0.2, 0.8)
            row.append(WaveSpec(f"{name}/{i}", name, mu0 + frac * (mu_top - mu0),
                                float(c), tuple(float(x) for x in lam), v0))
        rounds.append(row)
    return rounds


# ----------------------------------------------------------------------------
# limit-sweeps


@dataclass(frozen=True)
class SweepOp:
    key: str
    kind: str            # harmonic_fit | harmonic_split | soliton_fit | soliton_split
    family: str
    c: float
    lam: tuple
    offsets: tuple
    fault: tuple | None = None   # (exception class, message fragment) kept failing


HARMONIC_ANCHORS = (("gkdv", 1.0, (0.0,)), ("gkdv", 2.0, (0.0,)),
                    ("gkdv", 0.5, (0.3,)), ("quartic", -0.5, (0.0,)),
                    ("ek_lagrangian", 0.8, (0.4, -0.2)),
                    ("nls_hydro", 0.0, (-1.4, 0.5)))
SOLITON_SPEEDS = (0.5, 1.0, 2.0)
SPLIT_FAULT = ("LinAlgError", "")
XI_FIT_FAULT = ("FitRejected", "harmonic Xi fit")


def _geom(a: float, b: float, n: int) -> tuple:
    return tuple(float(x) for x in np.geomspace(a, b, n))


def sweep_ops(refs: dict) -> list[SweepOp]:
    """One round of sweep calls, each building its own anchor."""
    ops = []
    for fam, c, lam in HARMONIC_ANCHORS:
        tag = f"{fam}/c={c:g}/lam={','.join(f'{x:g}' for x in lam)}"
        ops.append(SweepOp(f"harmonic_fit/{tag}", "harmonic_fit", fam, c, lam,
                           _geom(1e-3, 1e-6, 10)))
        # mu - mu0 = W''(v0) delta^2 / 2 at half-width delta
        w2 = refs[fam].harmonic(c, lam)["w2"]
        offs = tuple(0.5 * w2 * d * d for d in _geom(0.02, 6e-3, 7))
        fault = SPLIT_FAULT if refs[fam].kind == "euler_korteweg" else None
        ops.append(SweepOp(f"harmonic_split/{tag}", "harmonic_split", fam, c,
                           lam, offs, fault))
    ops.append(SweepOp("harmonic_fit/gkdv/c=1/lam=0/to1e-8", "harmonic_fit",
                       "gkdv", 1.0, (0.0,), _geom(1e-3, 1e-8, 10),
                       XI_FIT_FAULT))
    for c in SOLITON_SPEEDS:
        ops.append(SweepOp(f"soliton_fit/gkdv/c={c:g}", "soliton_fit", "gkdv",
                           c, (0.0,), _geom(1e-6, 1e-14, 9)))
        ops.append(SweepOp(f"soliton_split/gkdv/c={c:g}", "soliton_split",
                           "gkdv", c, (0.0,),
                           tuple(1.125 * r * r for r in _geom(1e-2, 1e-6, 12))))
    return ops


def shuffled(ops: list, seed: int, round_index: int) -> list:
    out = list(ops)
    random.Random(seed * 1_000_003 + round_index).shuffle(out)
    return out


# ----------------------------------------------------------------------------
# cli-cold


@dataclass(frozen=True)
class CliCall:
    key: str
    argv: tuple
    out: str | None = None       # CSV path of a sweep; its fit JSON sits beside


def cli_calls() -> list[CliCall]:
    """One invocation of every subcommand, on the shipped configs."""
    cfg = {n: str(CONFIG_DIR / f"{n}.json") for n in FAMILIES}
    conj = str((BENCH_DIR / "conjugation_ek.json").relative_to(Path.cwd()))
    sweep_out = str((OUT_DIR / "cli" / "sweep.csv").relative_to(Path.cwd()))
    return [
        CliCall("validate", ("validate", "--config", cfg["gkdv"])),
        CliCall("wave", ("wave", "--config", cfg["gkdv"], "--mu", "-0.5",
                         "--c", "1")),
        CliCall("whitham/gkdv", ("whitham", "--config", cfg["gkdv"], "--mu",
                                 "-0.5", "--c", "1")),
        CliCall("whitham/ek_lagrangian",
                ("whitham", "--config", cfg["ek_lagrangian"], "--mu", "0.3",
                 "--c", "0.8", "--lambda=0.4,-0.2")),
        CliCall("limit_harmonic", ("limit_harmonic", "--config", cfg["gkdv"],
                                   "--c", "1")),
        CliCall("limit_soliton", ("limit_soliton", "--config", cfg["gkdv"],
                                  "--c", "1")),
        CliCall("mi", ("mi", "--config", cfg["gkdv"], "--v0", "2.0", "--k0",
                       "0.159155")),
        CliCall("toy", ("toy", "--config", cfg["gkdv"], "--eps", "0.01",
                        "--delta", "1")),
        CliCall("conjugation", ("conjugation", "--config", conj, "--mu", "1.3",
                                "--lambda=-1.8,0.7")),
        CliCall("sweep", ("sweep", "--config", cfg["gkdv"], "--regime",
                          "soliton", "--c", "1", "--grid", "1e-4:1e-10:9",
                          "--out", sweep_out), out=sweep_out),
    ]


def ref_models() -> dict:
    return {name: RefModel(load_block(name)) for name in FAMILIES}
