"""Bit-level digests of the orbit engine and the modulation layer,
compared with stored copies.

Each case brackets one orbit of a shipped family (a generic wave, a
near-harmonic wave down to half-width 1e-4 or a gKdV near-soliton wave
down to root ratio 1e-6), or one of three waves given by their (mu, c,
lambda): two-field waves at c = 0, where G is constant (and zero at
lambda2 = 0), and a gKdV wave with kappa = 1 + v^2 / 2, and runs
``orbit_integrals`` at two quadrature orders.  Its digest is the SHA-256 of the IEEE bytes of the bracket
roots and of every ``OrbitIntegrals`` field, so a change that moves any
bit of the two-field, no-v1 or near-limit paths fails here even where
the README reports do not reach.  The soliton-anchor cases hash every
numeric ``SolitonPoint`` field of gKdV families (lambda path) and
Euler-Korteweg endstates, which covers the homoclinic integrals and
their differences.  The modulation cases hash every ``WhithamReport``
field of the generic waves, the near-limit action Hessian (``hess`` and
``symmetry_residual``) of three near-limit waves and every numeric
``SweepRow`` field of a harmonic and a soliton gKdV sweep.  The sweep
fit cases hash the ``fits`` and ``r2`` values, in sorted key order, of
``asymptotic_sweep`` and ``eigen_splitting_fit`` on gKdV, quartic and
gKdV power-family sweeps toward both limits.  Floats are
hashed as ``<f8`` and complex values as ``<c16`` bytes, so a Python
float and an ``np.float64`` of one value hash alike.
``tests/data/orbit_digests.json`` holds the digests and one
``QuadratureNotConverged`` message.  A change
that moves these bits on purpose (an accuracy improvement shown against
an oracle) refreshes the copy with

    PYTHONPATH=src python tests/test_orbit_digests.py

and says so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from modlab.action import FDConfig, action_hessian
from modlab.errors import QuadratureNotConverged
from modlab.limits import (_soliton_point_at_lambda, harmonic_point,
                           soliton_point)
from modlab.models import WaveParams, gkdv_model, model_from_dict
from modlab.modulation import whitham_report
from modlab.profiles import (bracket_near_limit, find_turning_points,
                             orbit_integrals)
from modlab.sweeps import asymptotic_sweep, eigen_splitting_fit, sweep_table

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "orbit_digests.json"
ORDERS = (24, 96)
# (family, c, lambda, mu - mu0 of the generic wave); mu0 is the well bottom
FAMILIES = (("gkdv", 1.0, (0.0,), 0.3), ("quartic", -0.5, (0.0,), 0.01),
            ("ek_lagrangian", 0.8, (0.4, -0.2), 0.3),
            ("ek_eulerian", 0.2, (-2.0, 0.45), 0.3),
            ("nls_hydro", 0.3, (-1.4, 0.45), 0.1))
HARMONIC = ("gkdv", "quartic", "ek_lagrangian", "nls_hydro")
DELTAS = (1e-2, 1e-3, 1e-4)
RHOS = (1e-2, 1e-4, 1e-6)
# name -> (family, mu, c, lambda); gkdv_kappa is gkdv with kappa = 1 + v^2 / 2
WAVES = {"ek_eulerian_c0": ("ek_eulerian", 1.0, 0.0, (-2.0, 0.45)),
         "ek_lagrangian_c0": ("ek_lagrangian", -0.2, 0.0, (0.5, 0.0)),
         "gkdv_kappa": ("gkdv", -2.0 / 3.0 + 0.3, 1.0, (0.0,))}


def load_model(name: str):
    path = ROOT / "src" / "modlab" / "configs" / f"{name}.json"
    return model_from_dict(json.loads(path.read_text())["model"])


def orbit(case: str):
    """(model, params, bracket) of one case id."""
    kind, name, size = case.split("/")
    if kind == "wave":
        family, mu, c, lam = WAVES[name]
        model = load_model(family)
        if name == "gkdv_kappa":
            model = gkdv_model(kappa=(1.0, 0.0, 0.5), label=name)
        p = WaveParams(mu, c, lam)
        return model, p, find_turning_points(model, p)
    model = load_model(name)
    if kind == "soliton":
        sp = soliton_point(model, 1.0, [0.0])
        # mus - mu = 9 rho^2 / 8 puts the root ratio near rho at c = 1
        p = WaveParams(sp.mus - 1.125 * float(size) ** 2, sp.cs, sp.lambdas)
        return model, p, bracket_near_limit(model, p, sp.vs, "soliton")
    _, c, lam, h = next(f for f in FAMILIES if f[0] == name)
    hp = harmonic_point(model, c, lam)
    if kind == "generic":
        p = WaveParams(hp.mu0 + h, c, lam)
        return model, p, find_turning_points(model, p)
    w2 = model.potential_jet(hp.v0, WaveParams(0.0, c, lam), 2)[2]
    p = WaveParams(hp.mu0 + 0.5 * w2 * float(size) ** 2, c, lam)
    return model, p, bracket_near_limit(model, p, hp.v0, "harmonic")


CASES = ([f"generic/{f[0]}/-" for f in FAMILIES]
         + [f"harmonic/{n}/{d:g}" for n in HARMONIC for d in DELTAS]
         + [f"soliton/gkdv/{r:g}" for r in RHOS]
         + [f"wave/{n}/-" for n in WAVES])


def digest(case: str, quad_order: int) -> str:
    model, params, br = orbit(case)
    o = orbit_integrals(model, params, br, quad_order)
    h = hashlib.sha256()
    for x in (br.v1, br.v2, br.v3):
        h.update(b"-" if x is None else struct.pack("<d", x))
    for x in (o.Xi, o.int_Q, o.theta, o.int_E, o.quad_error):
        h.update(struct.pack("<d", x))
    h.update(np.asarray(o.int_U, dtype="<f8").tobytes())
    return h.hexdigest()


# soliton anchors: family/c/lambda=... or family/c/endstate=...
ANCHORS = ([f"gkdv/{c:g}/lambda=0.1" for c in (0.5, 1, 2)]
           + [f"ek_lagrangian/{c:g}/endstate=-1.2,0.3" for c in (0.8, 0.5)])


def anchor_digest(case: str) -> str:
    name, c, given = case.split("/")
    path, vals = given.split("=")
    x = [float(t) for t in vals.split(",")]
    model = load_model(name)
    if path == "lambda":
        sp = _soliton_point_at_lambda(model, float(c), x)
    else:
        sp = soliton_point(model, float(c), x)
    h = hashlib.sha256()
    for f in dataclasses.fields(sp):
        h.update(np.asarray(getattr(sp, f.name), dtype="<f8").tobytes())
    return h.hexdigest()


def values_digest(values) -> str:
    """SHA-256 of strings and ints as text, complex data as <c16 and the
    rest as <f8 bytes."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, (str, int)):
            h.update(str(v).encode())
        elif np.iscomplexobj(v):
            h.update(np.asarray(v, dtype="<c16").tobytes())
        else:
            h.update(np.asarray(v, dtype="<f8").tobytes())
    return h.hexdigest()


def field_values(record) -> list:
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


WHITHAM = [f"generic/{f[0]}/-" for f in FAMILIES]


def whitham_digest(case: str) -> str:
    model, params, br = orbit(case)
    return values_digest(field_values(whitham_report(model, params, br)))


HESSIANS = ("harmonic/gkdv/0.001", "harmonic/ek_lagrangian/0.001",
            "soliton/gkdv/0.0001")


def hessian_digest(case: str) -> str:
    kind, name, _ = case.split("/")
    model, params, br = orbit(case)
    if kind == "soliton":
        sp = soliton_point(model, 1.0, [0.0])
        limit = ("soliton", sp.vs, sp.mus)
    else:
        hp = harmonic_point(model, params.c, params.lam)
        limit = ("harmonic", hp.v0, hp.mu0)
    jet = action_hessian(model, params, br, FDConfig(limit=limit))
    return values_digest((jet.hess, jet.symmetry_residual))


# gKdV sweeps at c = 1 and lambda = 0: (regime, mu offsets from the anchor)
SWEEPS = {"gkdv/harmonic": (1e-3, 1e-4, 1e-5),
          "gkdv/soliton": (1e-6, 1e-8, 1e-10)}


def sweep_digest(case: str) -> str:
    name, regime = case.split("/")
    model = load_model(name)
    anchor = (harmonic_point if regime == "harmonic"
              else soliton_point)(model, 1.0, [0.0])
    table = sweep_table(model, anchor, SWEEPS[case])
    return values_digest(v for row in table.rows for v in field_values(row))


# fitted sweeps: regime/family/c/kind, where kind "fit" runs
# asymptotic_sweep on a mu-offset grid and "split" runs
# eigen_splitting_fit on a grid in delta (mu - mu0 = W''(v0) delta^2 / 2)
# or rho (mus - mu = 9 c rho^2 / 8); gkdv_p<p> is the power family
# f = -v^(p+2) / ((p+1)(p+2)), its harmonic wells cut to (0.5, 5);
# its soliton side at p = 1 is the gkdv case
SWEEP_FITS = ([f"harmonic/gkdv/{c:g}/{kind}" for c in (1, 2)
               for kind in ("fit", "split")]
              + [f"soliton/gkdv/{c:g}/{kind}" for c in (0.5, 1, 2)
                 for kind in ("fit", "split")]
              + ["harmonic/quartic/-0.5/fit", "harmonic/quartic/-0.5/split"]
              + [f"harmonic/gkdv_p{p}/1/split" for p in (1, 3, 5)]
              + [f"soliton/gkdv_p{p}/1/split" for p in (3, 5)])


def sweep_fit_digest(case: str) -> str:
    regime, name, c, kind = case.split("/")
    c = float(c)
    if name.startswith("gkdv_p"):
        p = int(name[len("gkdv_p"):])
        model = gkdv_model(f_coeffs=(0.0,) * (p + 2)
                           + (-1.0 / ((p + 1) * (p + 2)),), label=name)
        if regime == "harmonic":
            model = dataclasses.replace(model, domain=(0.5, 5.0))
    else:
        model = load_model(name)
    if regime == "harmonic":
        anchor = harmonic_point(model, c, [0.0])
        w2 = model.potential_jet(anchor.v0, WaveParams(0.0, c, [0.0]), 2)[2]
        split_grid = 0.5 * w2 * np.geomspace(0.02, 6e-3, 7) ** 2
        fit_grid = np.geomspace(1e-3, 1e-6, 10)
    else:
        anchor = soliton_point(model, c, [0.0])
        split_grid = 1.125 * c * np.geomspace(1e-2, 1e-6, 12) ** 2
        fit_grid = np.geomspace(1e-6, 1e-14, 9)
    if kind == "fit":
        _, rep = asymptotic_sweep(model, anchor, fit_grid)
    else:
        table = sweep_table(model, anchor, split_grid)
        rep = eigen_splitting_fit(model, anchor, table=table)
    return values_digest([rep.fits[k] for k in sorted(rep.fits)]
                         + [rep.r2[k] for k in sorted(rep.r2)])


def not_converged_message() -> str:
    model, params, br = orbit("generic/gkdv/-")
    with pytest.raises(QuadratureNotConverged) as info:
        orbit_integrals(model, params, br, quad_order=4)
    return str(info.value)


def capture() -> dict:
    return {"digests": {f"{c}@{n}": digest(c, n)
                        for c in CASES for n in ORDERS},
            "soliton_anchors": {c: anchor_digest(c) for c in ANCHORS},
            "whitham_reports": {c: whitham_digest(c) for c in WHITHAM},
            "action_hessians": {c: hessian_digest(c) for c in HESSIANS},
            "sweep_tables": {c: sweep_digest(c) for c in SWEEPS},
            "sweep_fits": {c: sweep_fit_digest(c) for c in SWEEP_FITS},
            "not_converged": not_converged_message()}


STORED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("quad_order", ORDERS)
@pytest.mark.parametrize("case", CASES)
def test_orbit_digest_unchanged(case, quad_order):
    assert digest(case, quad_order) == STORED["digests"][f"{case}@{quad_order}"]


@pytest.mark.parametrize("case", ANCHORS)
def test_soliton_anchor_digest_unchanged(case):
    assert anchor_digest(case) == STORED["soliton_anchors"][case]


@pytest.mark.parametrize("case", WHITHAM)
def test_whitham_report_digest_unchanged(case):
    assert whitham_digest(case) == STORED["whitham_reports"][case]


@pytest.mark.parametrize("case", HESSIANS)
def test_action_hessian_digest_unchanged(case):
    assert hessian_digest(case) == STORED["action_hessians"][case]


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_table_digest_unchanged(case):
    assert sweep_digest(case) == STORED["sweep_tables"][case]


@pytest.mark.parametrize("case", SWEEP_FITS)
def test_sweep_fit_digest_unchanged(case):
    assert sweep_fit_digest(case) == STORED["sweep_fits"][case]


def test_not_converged_message_unchanged():
    assert not_converged_message() == STORED["not_converged"]


if __name__ == "__main__":
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
