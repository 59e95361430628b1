import dataclasses

import numpy as np
import pytest

from modlab.models import ModelSpec, WaveParams, gkdv_model, model_from_dict
from modlab.polys import Laurent
from modlab.profiles import find_turning_points
from modlab.sweeps import _pair_near


def narrowed(model, window):
    """``model`` with its domain, the one search window, cut to ``window``."""
    (lo, hi), (dlo, dhi) = window, model.domain
    return dataclasses.replace(model, domain=(max(lo, dlo), min(hi, dhi)))


def split_ratios(table, target):
    """Each sweep row's squared half-gap of its eigenvalue pair nearest
    ``target`` over its alpha: the per-point split2_over_alpha."""
    pairs = [_pair_near(r.eigenvalues, target)[0] for r in table.rows]
    halfgaps = np.array([0.5 * abs(p[1] - p[0]) for p in pairs])
    return halfgaps ** 2 / table.column("alpha")


@pytest.fixture(scope="session")
def gkdv():
    return gkdv_model()


@pytest.fixture(scope="session")
def quartic():
    return gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0, 1.0 / 48.0),
                      label="quartic")


@pytest.fixture(scope="session")
def ek_lagrangian():
    return ModelSpec(kind="euler_korteweg", b=1.0,
                     f=Laurent.make([0.0, 0.0, 0.0, -1.0 / 6.0]),
                     kappa=Laurent.make([1.0]), tau=(1.0, 0.0),
                     label="ek_lagrangian")


@pytest.fixture(scope="session")
def ek_eulerian():
    return ModelSpec(kind="euler_korteweg", b=-1.0,
                     f=Laurent.make([0.0, 0.0, 0.0, 1.0 / 6.0]),
                     kappa=Laurent.make([1.0]), tau=(0.0, 1.0),
                     domain=(0.0, np.inf), label="ek_eulerian")


@pytest.fixture(scope="session")
def nls_hydro():
    return ModelSpec(kind="euler_korteweg", b=-1.0,
                     f=Laurent.make([0.0, 0.0, 0.5]),
                     kappa=Laurent.from_terms({-1: 0.25}), tau=(0.0, 1.0),
                     domain=(0.0, np.inf), label="nls_hydro")


@pytest.fixture(scope="session")
def cnoidal(gkdv):
    """The regression wave: f = -v^3/6, b = 1, c = 1, lambda = 0, mu = -1/2."""
    params = WaveParams(-0.5, 1.0, [0.0])
    bracket = find_turning_points(narrowed(gkdv, (-5.0, 5.0)), params)
    return gkdv, params, bracket


# ---------------------------------------------------------------------------
# randomized admissible waves for the sign-law and algebra sweeps


def random_scalar_wave(rng):
    b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    model = gkdv_model(b=b, label="random_scalar")
    v0 = rng.uniform(1.0, 3.0)
    w2 = rng.uniform(0.3, 1.5)
    c = b * (v0 - w2)
    lam = v0 * v0 / 2.0 - (v0 - w2) * v0
    params0 = WaveParams(0.0, c, [lam])
    wj = model.potential_jet(v0, params0, 2)
    # saddle of the cubic well sits at the other critical point
    vs = 2.0 * (c / b) - v0
    mus = model.potential_jet(vs, params0, 0)[0]
    mu = wj[0] + rng.uniform(0.2, 0.8) * (mus - wj[0])
    params = WaveParams(mu, c, [lam])
    return model, params


def random_lagrangian_wave(rng):
    b = float(rng.choice([-1.0, 1.0]))
    model = ModelSpec(kind="euler_korteweg", b=b,
                      f=Laurent.make([0.0, 0.0, 0.0, -1.0 / 6.0]),
                      kappa=Laurent.make([1.0]), tau=(1.0, 0.0),
                      label="random_lagrangian")
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2))
    lam2 = rng.uniform(-0.5, 0.5)
    v0 = rng.uniform(1.0, 2.5)
    # W' = v^2/2 + (c/b)(c v + b lam2)... solve lam1 from W'(v0) = 0
    g0 = -((c / b) * v0 + lam2)
    lam1 = v0 * v0 / 2.0 - (c / b) * g0
    params0 = WaveParams(0.0, c, [lam1, lam2])
    wj = model.potential_jet(v0, params0, 2)
    if wj[2] <= 0.0:
        return None
    from modlab.limits import _critical_points
    crit = _critical_points(narrowed(model, (-6.0, 8.0)), params0)
    saddles = [model.potential_jet(x, params0, 0)[0]
               for x, w2 in crit if w2 < 0.0]
    if not saddles:
        return None
    mu_top = min(s for s in saddles if s > wj[0]) if any(
        s > wj[0] for s in saddles) else None
    if mu_top is None:
        return None
    mu = wj[0] + rng.uniform(0.2, 0.8) * (mu_top - wj[0])
    return model, WaveParams(mu, c, [lam1, lam2])


def random_eulerian_wave(rng):
    b = float(rng.choice([-1.0, 1.0]))
    model = ModelSpec(kind="euler_korteweg", b=b,
                      f=Laurent.make([0.0, 0.0, 0.0, 1.0 / 6.0]),
                      kappa=Laurent.make([1.0]), tau=(0.0, 1.0),
                      domain=(0.0, np.inf), label="random_eulerian")
    lam2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
    lam1 = -rng.uniform(1.2, 2.5) * abs(lam2) - 0.5
    params0 = WaveParams(0.0, 0.0, [lam1, lam2])
    from modlab.limits import _critical_points
    crit = _critical_points(narrowed(model, (1e-3, 50.0)), params0)
    wells = [(x, model.potential_jet(x, params0, 0)[0])
             for x, w2 in crit if w2 > 0.0]
    saddles = [(x, model.potential_jet(x, params0, 0)[0])
               for x, w2 in crit if w2 < 0.0]
    if not wells or not saddles:
        return None
    v0, mu0 = wells[0]
    mu_top = min(m for _, m in saddles if m > mu0) if any(
        m > mu0 for _, m in saddles) else None
    if mu_top is None:
        return None
    mu = mu0 + rng.uniform(0.2, 0.8) * (mu_top - mu0)
    return model, WaveParams(mu, 0.0, [lam1, lam2])
