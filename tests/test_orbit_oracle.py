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

Soliton anchor: the moment derivatives of the gKdV power family at an
endstate, d_c M and grad_U M by tanh-sinh quadrature of their exact
integrands and d2_c M by mpmath's derivative of d_c M, at 40 digits,
against ``soliton_point``'s Richardson differences of its homoclinic
integrals.
"""

import pytest

from modlab.limits import harmonic_point, soliton_point
from modlab.models import WaveParams, gkdv_model
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


def power_soliton_derivatives(p, c, vs):
    """(d_c M, d2_c M, d_vs M) at 40 digits for f = -v^(p+2)/((p+1)(p+2)).

    With kappa = b = 1 and the saddle at the endstate vs, mu_s - W =
    w^2 P(w) in w = v - vs, P(w) = sum_k a_k w^(k-2) with a_2 = (c -
    vs^p)/2 and a_k = -C(p+2, k) vs^(p+2-k) / ((p+1)(p+2)) for k > 2.
    M = 2 int_0^wS w sqrt(2 P) dw up to the first root wS of P, where the
    integrand vanishes, so d_x M = 2 int_0^wS w d_x P / sqrt(2 P) dw.
    """
    def coeffs(c, vs):
        top = (p + 1) * (p + 2)
        return [(c - vs ** p) / 2] + [-mp.binomial(p + 2, k) * vs ** (p + 2 - k)
                                      / top for k in range(3, p + 3)]

    def moment_slope(c, vs, dP):
        a = coeffs(c, vs)[::-1]
        wS = min(r.real for r in mp.polyroots(a, maxsteps=200, extraprec=200)
                 if abs(r.imag) < mp.mpf(10) ** -30 and r.real > 0)
        # P = (wS - w) R(w) with R > 0 on [0, wS]
        R = [-x for x in _deflate(a, wS)]
        return 2 * mp.quad(lambda w: w * dP(w) / mp.sqrt(
            2 * (wS - w) * mp.polyval(R, w)), [0, wS])

    with mp.workdps(40):
        c, vs = mp.mpf(c), mp.mpf(vs)
        dcM = lambda c: moment_slope(c, vs, lambda w: mp.mpf(1) / 2)
        # d_vs of each a_k; a_(p+2) is constant
        dvs = [-p * vs ** (p - 1) / 2] + [
            -mp.binomial(p + 2, k) * (p + 2 - k) * vs ** (p + 1 - k)
            / ((p + 1) * (p + 2)) for k in range(3, p + 2)] + [0]
        return (dcM(c), mp.diff(dcM, c),
                moment_slope(c, vs, lambda w: mp.polyval(dvs[::-1], w)))


@pytest.mark.parametrize("p, vs", [(1, -0.3), (2, 0.0), (3, 0.0),
                                   (3, -0.3), (5, 0.0), (5, 0.2)])
def test_soliton_anchor_meets_the_power_family_oracle(p, vs):
    model = gkdv_model(f_coeffs=(0.0,) * (p + 2)
                       + (-1.0 / ((p + 1) * (p + 2)),), label=f"gkdv_p{p}")
    sp = soliton_point(model, 1.0, [vs])
    dcM, dc2M, dvsM = map(float, power_soliton_derivatives(p, 1.0, vs))
    assert abs(sp.dcM - dcM) <= 1e-12 * abs(dcM)
    assert abs(sp.dc2M - dc2M) <= 1e-11 * abs(dc2M)
    assert abs(sp.gradUM[0] - dvsM) <= 1e-12 * abs(dvsM)
