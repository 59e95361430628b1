"""Bit-level digests of the orbit engine, compared with stored copies.

Each case brackets one orbit of a shipped family (a generic wave, a
near-harmonic wave down to half-width 1e-4 or a gKdV near-soliton wave
down to root ratio 1e-6) and runs ``orbit_integrals`` at two quadrature
orders.  Its digest is the SHA-256 of the IEEE bytes of the bracket
roots and of every ``OrbitIntegrals`` field, so a change that moves any
bit of the two-field, no-v1 or near-limit paths fails here even where
the README reports do not reach.  The soliton-anchor cases hash every
numeric ``SolitonPoint`` field of gKdV families (lambda path) and
Euler-Korteweg endstates, which covers the homoclinic integrals and
their differences.  ``tests/data/orbit_digests.json`` holds the digests
and one ``QuadratureNotConverged`` message.  A change
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

from modlab.errors import QuadratureNotConverged
from modlab.limits import (_soliton_point_at_lambda, harmonic_point,
                           soliton_point)
from modlab.models import WaveParams, model_from_dict
from modlab.profiles import (bracket_near_limit, find_turning_points,
                             orbit_integrals)

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


def load_model(name: str):
    path = ROOT / "src" / "modlab" / "configs" / f"{name}.json"
    return model_from_dict(json.loads(path.read_text())["model"])


def orbit(case: str):
    """(model, params, bracket) of one case id."""
    kind, name, size = case.split("/")
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
         + [f"soliton/gkdv/{r:g}" for r in RHOS])


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


def not_converged_message() -> str:
    model, params, br = orbit("generic/gkdv/-")
    with pytest.raises(QuadratureNotConverged) as info:
        orbit_integrals(model, params, br, quad_order=4)
    return str(info.value)


def capture() -> dict:
    return {"digests": {f"{c}@{n}": digest(c, n)
                        for c in CASES for n in ORDERS},
            "soliton_anchors": {c: anchor_digest(c) for c in ANCHORS},
            "not_converged": not_converged_message()}


STORED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("quad_order", ORDERS)
@pytest.mark.parametrize("case", CASES)
def test_orbit_digest_unchanged(case, quad_order):
    assert digest(case, quad_order) == STORED["digests"][f"{case}@{quad_order}"]


@pytest.mark.parametrize("case", ANCHORS)
def test_soliton_anchor_digest_unchanged(case):
    assert anchor_digest(case) == STORED["soliton_anchors"][case]


def test_not_converged_message_unchanged():
    assert not_converged_message() == STORED["not_converged"]


if __name__ == "__main__":
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
