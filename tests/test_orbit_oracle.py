"""Near-limit orbit integrals against a 50-digit mpmath oracle.

The oracle takes the level polynomial T = mu D - N of the wave (its
float coefficients are exact binary numbers, so both sides solve the
same problem), finds its roots with ``mpmath.polyroots`` at 50 digits,
divides the two turning points out of T and integrates the period Xi,
the mean of v and the action Theta by tanh-sinh quadrature after the
substitution v = v2 + (v3 - v2) sin^2(t), which removes both endpoint
square roots.  The engine runs its near-limit path:
``bracket_near_limit`` and ``orbit_integrals``, as ``sweep`` does.

Soliton side: gKdV at c = 1 with root ratio rho = 1e-2 ... 1e-10.
Harmonic side: gKdV at c = 1 and the quartic family at c = -0.5 with
half-width delta = 1e-1 ... 1e-6.  The gate is 1e-13 relative: Xi and
Theta against their own size, the mean against the largest |v| on the
orbit, the scale its rounding has.  On the harmonic side the error
grows like eps/delta, which ROADMAP direction 2 traces to the
unshifted deflation of v2 and v3 in ``orbit_integrals``.  Each case
it takes above the gate is a strict xfail that states its measured
error, so that the fix turns it green.
"""

import pytest

from modlab.limits import harmonic_point, soliton_point
from modlab.models import WaveParams
from modlab.profiles import bracket_near_limit, level_polynomial, \
    orbit_integrals

from test_orbit_digests import load_model

mp = pytest.importorskip("mpmath")

GATE = 1e-13
RHOS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
FAMILIES = {"gkdv": 1.0, "quartic": -0.5}
# harmonic cases above the gate, with the largest error of the three
# as measured (2 shared cores, CPython 3.11, numpy 2.4)
HARMONIC_LOSS = {("gkdv", 1e-3): "Theta 4.8e-13 (Xi 2.0e-13)",
                 ("gkdv", 1e-4): "Theta 5.9e-12 (Xi 2.5e-12)",
                 ("gkdv", 1e-5): "Theta 4.6e-11 (Xi 2.6e-11)",
                 ("gkdv", 1e-6): "Xi 6.6e-11 (Theta 2.9e-11)",
                 ("quartic", 1e-3): "Theta 1.2e-13 (Xi 4.5e-14)",
                 ("quartic", 1e-4): "Theta 7.5e-13 (Xi 1.0e-13)",
                 ("quartic", 1e-5): "Theta 1.2e-11 (Xi 7.1e-12)",
                 ("quartic", 1e-6): "Theta 8.6e-11 (Xi 7.0e-11)"}


def oracle(model, params, v2, v3):
    """(Xi, mean of v, Theta) at 50 digits for the well (v2, v3).

    v2 and v3 pick the two mpmath roots nearest them.  Scalar models
    with kappa = 1 and D = 1, as the families here have.
    """
    with mp.workdps(50):
        T, _ = level_polynomial(model, params)
        coeffs = [mp.mpf(float(t)) for t in T[::-1]]
        roots = [r.real for r in mp.polyroots(coeffs, maxsteps=400,
                                              extraprec=400)
                 if abs(r.imag) < mp.mpf(10) ** -40]
        r2 = min(roots, key=lambda r: abs(r - v2))
        r3 = min(roots, key=lambda r: abs(r - v3))
        # T = (v - r2)(r3 - v) R(v), R > 0 inside the well
        R = [-c for c in _deflate(_deflate(coeffs, r2), r3)]
        width = r3 - r2
        # a root just below r2 (the soliton side) peaks the integrands at
        # t ~ sqrt of its relative distance: break the interval there
        below = [r for r in roots if r < r2]
        s = mp.sqrt((r2 - max(below)) / width) if below else mp.pi / 4
        pts = [0] + [s * 10 ** j for j in range(-2, 8)
                     if s * 10 ** j < mp.pi / 4] + [mp.pi / 4, mp.pi / 2]

        def v_at(t):
            return r2 + width * mp.sin(t) ** 2

        def rsqrt(t):
            return mp.sqrt(2 / mp.polyval(R, v_at(t)))

        # dv / sqrt((v - r2)(r3 - v)) = 2 dt; Xi = 2 int dv / sqrt(2 T)
        Xi = 2 * mp.quad(rsqrt, pts)
        int_v = 2 * mp.quad(lambda t: v_at(t) * rsqrt(t), pts)
        # Theta = 2 int sqrt(2 T) dv, with sqrt((v - r2)(r3 - v)) dv =
        # 2 width^2 sin^2 cos^2 dt
        theta = 2 * mp.quad(
            lambda t: (2 * width ** 2 * (mp.sin(t) * mp.cos(t)) ** 2
                       * mp.sqrt(2 * mp.polyval(R, v_at(t)))), pts)
        return Xi, int_v / Xi, theta


def _deflate(coeffs, root):
    """Descending coefficients divided by (v - root), remainder dropped."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def relative_errors(model, params, bracket):
    """Relative errors of orbit_integrals' Xi, mean and Theta."""
    Xi, mean, theta = oracle(model, params, bracket.v2, bracket.v3)
    o = orbit_integrals(model, params, bracket)
    scale = max(abs(x) for x in (bracket.v1, bracket.v2, bracket.v3)
                if x is not None)
    return {"Xi": float(abs(o.Xi - Xi) / Xi),
            "mean": float(abs(o.int_U[0] / o.Xi - mean) / scale),
            "Theta": float(abs(o.theta - theta) / theta)}


def soliton_wave(rho):
    """gKdV at c = 1 with mu_s - mu = 9 rho^2 / 8, root ratio ~ rho."""
    model = load_model("gkdv")
    sp = soliton_point(model, 1.0, [0.0])
    p = WaveParams(sp.mus - 1.125 * rho ** 2, 1.0, [0.0])
    return model, p, bracket_near_limit(model, p, sp.vs, "soliton")


def harmonic_wave(name, delta):
    """mu - mu0 = W''(v0) delta^2 / 2, half-width ~ delta."""
    model, c = load_model(name), FAMILIES[name]
    hp = harmonic_point(model, c, [0.0])
    w2 = model.potential_jet(hp.v0, WaveParams(0.0, c, [0.0]), 2)[2]
    p = WaveParams(hp.mu0 + 0.5 * w2 * delta ** 2, c, [0.0])
    return model, p, bracket_near_limit(model, p, hp.v0, "harmonic")


@pytest.mark.parametrize("rho", RHOS, ids=lambda r: f"rho={r:g}")
def test_soliton_side_holds_the_gate(rho):
    errors = relative_errors(*soliton_wave(rho))
    assert max(errors.values()) <= GATE, errors


@pytest.mark.parametrize("name, delta", [
    pytest.param(name, d, id=f"{name}/delta={d:g}",
                 marks=[pytest.mark.xfail(
                     strict=True, reason=f"harmonic-side loss like "
                     f"eps/delta: {HARMONIC_LOSS[name, d]}")]
                 if (name, d) in HARMONIC_LOSS else [])
    for name in FAMILIES for d in DELTAS])
def test_harmonic_side_holds_the_gate(name, delta):
    errors = relative_errors(*harmonic_wave(name, delta))
    assert max(errors.values()) <= GATE, errors
