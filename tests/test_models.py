import math

import numpy as np
import pytest

from modlab.errors import ConfigError, DomainViolation
from modlab.limits import _soliton_point_at_lambda, harmonic_point
from modlab.models import (ModelSpec, WaveParams, gkdv_model, model_from_dict,
                           structural_matrices)
from modlab.modulation import whitham_report
from modlab.polys import Laurent
from modlab.profiles import find_turning_points


def test_potential_scalar_example(gkdv):
    # f = -v^3/6, c = 1, lambda = 0, v = 2: W = 8/6 - 2 = -2/3
    p = WaveParams(0.0, 1.0, [0.0])
    wj = gkdv.potential_jet(2.0, p, 4)
    assert wj[0] == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert wj[1] == pytest.approx(0.0, abs=1e-15)
    assert wj[2] == pytest.approx(1.0, abs=1e-15)


def test_potential_trivial_zero():
    m = ModelSpec(kind="scalar", b=1.0, f=Laurent.make([0.0]),
                  kappa=Laurent.make([1.0]))
    p = WaveParams(0.0, 0.0, [0.0])
    for v in (-1.3, 0.4, 2.7):
        assert np.all(m.potential_jet(v, p, 4) == 0.0)


@pytest.mark.parametrize("model_name,v,c,lam", [
    ("gkdv", 1.7, 0.8, [0.25]),
    ("quartic", 2.2, -0.4, [0.1]),
    ("ek_lagrangian", 1.1, 0.7, [0.2, -0.3]),
    ("ek_eulerian", 1.4, 0.5, [-0.2, 0.4]),
    ("nls_hydro", 0.9, 0.3, [0.1, -0.2]),
])
def test_potential_jet_matches_central_differences(model_name, v, c, lam,
                                                   request):
    model = request.getfixturevalue(model_name)
    p = WaveParams(0.0, c, lam)
    wj = model.potential_jet(v, p, 4)
    h = 1e-4
    for order in range(1, 5):
        # central difference of the (order-1) derivative
        up = model.potential_jet(v + h, p, order - 1)[order - 1]
        dn = model.potential_jet(v - h, p, order - 1)[order - 1]
        fd = (up - dn) / (2 * h)
        assert fd == pytest.approx(wj[order], rel=3e-6, abs=5e-6)


@pytest.mark.parametrize("model_name", [
    "gkdv", "ek_lagrangian", "ek_eulerian", "nls_hydro"])
def test_envelope_identities(model_name, request):
    """dW/dc = -q, dW/dlam1 = -v and dW/dlam2 = -g by central differences."""
    model = request.getfixturevalue(model_name)
    v, c = 1.3, 0.7
    lam = [0.2] if model.N == 1 else [0.2, -0.4]
    h = 1e-5

    def W(c_, lam_):
        return model.potential_jet(v, WaveParams(0.0, c_, lam_), 0)[0]

    dc = (W(c + h, lam) - W(c - h, lam)) / (2 * h)
    q = model.impulse_jet(v, c, lam[-1] if model.N == 2 else 0.0)[0]
    assert dc == pytest.approx(-q, rel=1e-8, abs=1e-10)
    lam_p = list(lam)
    lam_m = list(lam)
    lam_p[0] += h
    lam_m[0] -= h
    d1 = (W(c, lam_p) - W(c, lam_m)) / (2 * h)
    assert d1 == pytest.approx(-v, rel=1e-8)
    if model.N == 2:
        lam_p = [lam[0], lam[1] + h]
        lam_m = [lam[0], lam[1] - h]
        d2 = (W(c, lam_p) - W(c, lam_m)) / (2 * h)
        g = model.velocity_jet(v, c, lam[1])[0]
        assert d2 == pytest.approx(-g, rel=1e-8, abs=1e-10)


def test_velocity_jet_constant_tau(ek_lagrangian):
    # tau = 1, b = 1: g = -(c v + lam2), g' = -c, g'' = 0
    g = ek_lagrangian.velocity_jet(1.5, 0.8, 0.3)
    assert g[0] == pytest.approx(-(0.8 * 1.5 + 0.3))
    assert g[1] == pytest.approx(-0.8)
    assert g[2] == 0.0 and g[3] == 0.0


def test_velocity_jet_identity_tau(ek_eulerian):
    # tau = v, c = 0: g = -lam2/v (the weight b enters only through c)
    g = ek_eulerian.velocity_jet(2.0, 0.0, 0.5)
    assert g[0] == pytest.approx(-0.5 / 2.0)
    # derivative oracle
    h = 1e-6
    gp = ek_eulerian.velocity_jet(2.0 + h, 0.0, 0.5)[0]
    gm = ek_eulerian.velocity_jet(2.0 - h, 0.0, 0.5)[0]
    assert (gp - gm) / (2 * h) == pytest.approx(g[1], rel=1e-8)
    gp2 = ek_eulerian.velocity_jet(2.0 + h, 0.0, 0.5)[1]
    gm2 = ek_eulerian.velocity_jet(2.0 - h, 0.0, 0.5)[1]
    assert (gp2 - gm2) / (2 * h) == pytest.approx(g[2], rel=1e-7, abs=1e-9)


def test_velocity_jet_scalar_raises(gkdv):
    with pytest.raises(ConfigError):
        gkdv.velocity_jet(1.0, 1.0, 0.0)


def test_impulse_values(gkdv, ek_lagrangian):
    assert gkdv.impulse_jet(3.0)[0] == pytest.approx(4.5)
    # system with v = 0: q = v g / b = 0
    assert ek_lagrangian.impulse_jet(0.0, 1.0, 0.0)[0] == 0.0
    # tau = 1, b = 1, c = 1, lam2 = 0, v = 2 -> q = 2 * (-2) / 1
    assert ek_lagrangian.impulse_jet(2.0, 1.0, 0.0)[0] == pytest.approx(-4.0)


def test_structural_matrices_scalar(gkdv):
    sm = structural_matrices(gkdv)
    assert np.array_equal(sm.S, np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 1.0]]))
    assert np.array_equal(sm.BB, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]))
    assert np.allclose(sm.BB @ sm.BBinv, np.eye(3))
    assert np.allclose(sm.S @ sm.Sinv, np.eye(3))


@pytest.mark.parametrize("model_name", [
    "gkdv", "quartic", "ek_lagrangian", "ek_eulerian", "nls_hydro"])
def test_structural_matrices_properties(model_name, request):
    m = request.getfixturevalue(model_name)
    sm = structural_matrices(m)
    assert np.array_equal(sm.S, sm.S.T)
    assert np.array_equal(sm.BB, sm.BB.T)
    assert abs(np.linalg.det(sm.BB)) > 1e-12
    assert abs(np.linalg.det(sm.B)) > 1e-12


def test_domain_violation(nls_hydro):
    with pytest.raises(DomainViolation):
        nls_hydro.potential_jet(-1.0, WaveParams(0.0, 0.0, [0.0, 0.0]), 2)


def test_order_cap(gkdv):
    with pytest.raises(ConfigError):
        gkdv.potential_jet(1.0, WaveParams(0.0, 1.0, [0.0]), 5)


def test_positivity_validation():
    with pytest.raises(ConfigError):
        ModelSpec(kind="scalar", b=1.0, f=Laurent.make([0.0]),
                  kappa=Laurent.make([-1.0]))
    with pytest.raises(ConfigError):
        ModelSpec(kind="scalar", b=0.0, f=Laurent.make([0.0]),
                  kappa=Laurent.make([1.0]))


def test_model_from_dict_roundtrip():
    cfg = {"kind": "euler_korteweg", "b": -1.0,
           "f": {"poly": [0.0, 0.0, 0.5]}, "kappa": {"inv4v": True},
           "tau": {"identity": True}, "label": "nls"}
    m = model_from_dict(cfg)
    assert m.N == 2 and m.domain[0] == 0.0
    assert m.kappa_jet(2.0, 2)[0] == pytest.approx(1.0 / 8.0)
    # kappa = 1/(4v): kappa' = -1/(4 v^2), kappa'' = 1/(2 v^3)
    assert m.kappa_jet(2.0, 2)[1] == pytest.approx(-1.0 / 16.0)
    assert m.kappa_jet(2.0, 2)[2] == pytest.approx(1.0 / 16.0)


NLS_BLOCK = {"kind": "euler_korteweg", "b": -1.0,
             "f": {"poly": [0.0, 0.0, 0.5]}, "kappa": {"inv4v": True},
             "tau": {"identity": True}, "label": "nls"}


@pytest.mark.parametrize("change", [
    {"kapa": {"inv4v": True}},
    {"tau": {"identity": True, "const": 1.0}},
    {"tau": {"cosnt": 1.0}},
    {"f": {"poly": [0.0, 0.0, 0.5], "laurent": {"2": 0.5}}},
    {"kappa": {}},
], ids=["unknown-key", "two-tau-keys", "unknown-tau-key", "two-f-keys",
        "empty-kappa-spec"])
def test_model_from_dict_rejects_what_it_does_not_read(change):
    with pytest.raises(ConfigError):
        model_from_dict({**NLS_BLOCK, **change})


def test_model_from_dict_rejects_tau_on_scalar():
    cfg = {"kind": "scalar", "b": 1.0, "f": {"poly": [0.0, 0.0, 0.0, -1.0]},
           "tau": {"const": 1.0}}
    with pytest.raises(ConfigError):
        model_from_dict(cfg)
    del cfg["tau"]
    assert model_from_dict(cfg).tau is None


def test_potential_rational_consistency(request):
    for name in ("gkdv", "quartic", "ek_lagrangian", "ek_eulerian",
                 "nls_hydro"):
        m = request.getfixturevalue(name)
        lam = [0.15] if m.N == 1 else [0.15, -0.35]
        p = WaveParams(0.0, 0.6, lam)
        num, den = m.potential_rational(p)
        for v in (0.7, 1.3, 2.1):
            direct = m.potential_jet(v, p, 0)[0]
            ratio = np.polynomial.polynomial.polyval(v, num) / \
                np.polynomial.polynomial.polyval(v, den)
            assert ratio == pytest.approx(direct, rel=1e-13, abs=1e-13)


# (mu, c) of a wave and a lambda of the wrong length, per model
WRONG_LAMBDA = {"gkdv": (-0.5, 1.0, [0.0, 3.0]),
                "nls_hydro": (0.3, 0.3, [-1.4])}
LAMBDA_ENTRY_POINTS = {
    "find_turning_points":
        lambda m, mu, c, lam: find_turning_points(m, WaveParams(mu, c, lam)),
    "harmonic_point": lambda m, mu, c, lam: harmonic_point(m, c, lam),
    "soliton_point_lambda":
        lambda m, mu, c, lam: _soliton_point_at_lambda(m, c, lam),
    "whitham_report":
        lambda m, mu, c, lam: whitham_report(m, WaveParams(mu, c, lam)),
}


@pytest.mark.parametrize("entry", LAMBDA_ENTRY_POINTS)
@pytest.mark.parametrize("name", WRONG_LAMBDA)
def test_wrong_lambda_length_is_a_config_error(request, name, entry):
    # every bracket and anchor forms W through potential_rational
    mu, c, lam = WRONG_LAMBDA[name]
    with pytest.raises(ConfigError, match="lambda must have"):
        LAMBDA_ENTRY_POINTS[entry](request.getfixturevalue(name), mu, c, lam)


def test_jets_equal_fresh_derivatives(request):
    # f_jet / kappa_jet read the derivative chain built once per model;
    # each entry must equal the derivative built at the call
    for name in ("gkdv", "quartic", "ek_lagrangian", "ek_eulerian",
                 "nls_hydro"):
        m = request.getfixturevalue(name)
        for v in (0.3, 1.7, 2.9):
            for fn, jet in ((m.f, m.f_jet), (m.kappa, m.kappa_jet)):
                want = [fn(v)]
                for _ in range(4):
                    fn = fn.derivative()
                    want.append(fn(v))
                for order in range(5):
                    assert np.array_equal(jet(v, order), want[:order + 1])
