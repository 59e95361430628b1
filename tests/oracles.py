"""Independent oracles used by the test suite only.

The closed forms, the raw adaptive quadratures and the shooting
integrator go through scipy special functions or scipy's ODE solver,
never through the package's own integration engine, so agreement
between the two is a genuine cross-check.  The averaged-identity checker
uses the engine's averages but tests them against exact relations that
the engine does not impose.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import ellipe, ellipk

from modlab.action import FDConfig, action_hessian, rebracket
from modlab.errors import DegenerateOrbit, UncoveredClass
from modlab.models import WaveParams, structural_matrices
from modlab.modulation import ModVars, coupling_matrix_A, params_to_modvars
from modlab.profiles import (DEFAULT_QUAD_ORDER, OrbitIntegrals,
                             _state_from_integrals, find_turning_points,
                             orbit_integrals)


def cubic_well_elliptic(v1, v2, v3):
    """Closed forms for the cubic-potential orbit on (v2, v3).

    The level set is mu - W = (v - v1)(v - v2)(v3 - v)/6 with kappa = 1.
    Returns dict with Xi, mean_v, mean_v2 (second moment) and theta.
    """
    m = (v3 - v2) / (v3 - v1)
    K = ellipk(m)
    E = ellipe(m)
    scale = np.sqrt(v3 - v1)
    Xi = 4.0 * np.sqrt(3.0) * K / scale
    # sn^2 moments over a quarter period
    I0 = K
    I1 = (K - E) / m
    I2 = ((2.0 + m) * K - 2.0 * (1.0 + m) * E) / (3.0 * m * m)
    I3 = (4.0 * (1.0 + m) * I2 - 3.0 * I1) / (5.0 * m)
    s2 = I1 / I0
    s4 = I2 / I0
    mean_v = v3 - (v3 - v2) * s2
    mean_v2 = (v3 * v3 - 2.0 * v3 * (v3 - v2) * s2 + (v3 - v2) ** 2 * s4)
    # theta = (2/sqrt(3)) * integral sqrt((v-v1)(v-v2)(v3-v)) dv
    #       = (4/sqrt(3)) (v3-v2)^2 sqrt(v3-v1) * <sn^2 cn^2 dn^2>_K
    J = I1 - (1.0 + m) * I2 + m * I3
    theta = (4.0 / np.sqrt(3.0)) * (v3 - v2) ** 2 * scale * J
    return {"Xi": Xi, "mean_v": mean_v, "mean_v2": mean_v2, "theta": theta}


def raw_action_quadrature(model, params, v2, v3):
    """Adaptive quadrature of the raw action integrand (endpoint sqrt)."""

    def f(v):
        w = model.potential_jet(v, params, 0)[0]
        kap = model.kappa_jet(v, 0)[0]
        return np.sqrt(max(2.0 * kap * (params.mu - w), 0.0))

    val, _ = quad(f, v2, v3, limit=400, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * val


def raw_period_quadrature(model, params, v2, v3):
    """Adaptive quadrature of the raw period integrand (singular ends)."""

    def f(v):
        w = model.potential_jet(v, params, 0)[0]
        kap = model.kappa_jet(v, 0)[0]
        return np.sqrt(kap / max(2.0 * (params.mu - w), 1e-300))

    val, _ = quad(f, v2, v3, limit=400, epsabs=1e-13, epsrel=1e-12,
                  points=None)
    return 2.0 * val


def kdv_soliton_facts(c):
    """sech^2 solitary wave of f = -v^3/6 on endstate 0 at speed c."""
    return {"moment": 24.0 / 5.0 * c ** 2.5,
            "dcM": 12.0 * c ** 1.5,
            "dc2M": 18.0 * np.sqrt(c),
            "amplitude": 3.0 * c}


def fd_gradient(fn, x, h):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j] if np.ndim(h) else h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * e[j])
    return g


def fd_hessian(fn, x, h):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    f0 = fn(x)
    hv = h if np.ndim(h) else np.full(n, h)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hv[i]
        H[i, i] = (fn(x + 2 * ei) - 2 * f0 + fn(x - 2 * ei)) / (4 * hv[i] ** 2)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hv[j]
            H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                       - fn(x - ei + ej) + fn(x - ei - ej)) / (4 * hv[i] * hv[j])
            H[j, i] = H[i, j]
    return H


def shooting_oracle(model, params, bracket, rtol=1e-12, atol=1e-13):
    """Integrate the profile ODE with an event at the upper turning point.

    Returns (WaveState, theta).  Only the assembly of the averages from
    the period integrals is shared with the quadrature engine.
    """
    mu, c = params.mu, params.c

    def w_jet(v):
        return model.potential_jet(v, params, order=1)

    def rhs(_, y):
        v, vp = y[0], y[1]
        kj = model.kappa_jet(v, 1)
        w1 = w_jet(v)[1]
        vpp = -(0.5 * kj[1] * vp * vp + w1) / kj[0]
        if model.kind == "scalar":
            q = v * v / (2.0 * model.b)
            e = float(model.f(v))
        else:
            g = model.velocity_jet(v, c, params.lam2)[0]
            q = v * g / model.b
            e = float(model.f(v)) + 0.5 * model.tau_jet(v, 0)[0] * g * g
        w0 = w_jet(v)[0]
        integr = [1.0, v, q, e, mu - w0]
        if model.kind == "euler_korteweg":
            integr.append(g)
        return [vp, vpp] + integr

    def turn(_, y):
        return y[1]

    turn.terminal = True
    turn.direction = -1

    kj0 = model.kappa_jet(bracket.v2, 0)[0]
    w1 = w_jet(bracket.v2)[1]
    naug = 5 + (1 if model.kind == "euler_korteweg" else 0)
    y0 = [bracket.v2, 0.0] + [0.0] * naug
    # rough period scale to bound the integration
    guess = 2.0 * math.pi * math.sqrt(abs(kj0 / max(abs(w1), 1e-12))) + 10.0
    sol = solve_ivp(rhs, (0.0, 40.0 * guess), y0, method="DOP853",
                    rtol=rtol, atol=atol, events=turn, dense_output=False)
    if not sol.t_events[0].size:
        raise RuntimeError("turning-point event never fired")
    yf = sol.y_events[0][0]
    half = sol.t_events[0][0]
    Xi = 2.0 * half
    I0, Iv, Iq, Ie, Iw = (2.0 * yf[2], 2.0 * yf[3], 2.0 * yf[4],
                          2.0 * yf[5], 2.0 * yf[6])
    intU = np.array([Iv]) if model.kind == "scalar" else np.array(
        [Iv, 2.0 * yf[7]])
    o = OrbitIntegrals(Xi=Xi, int_U=intU, int_Q=Iq, theta=2.0 * Iw, int_E=Ie)
    return _state_from_integrals(model, params, o), o.theta


def modvars_to_params(model, target, initial_guess, bracket=None,
                      fd_config=None, max_iter=40):
    """Newton solve for the wave parameters realizing given (k, alpha, M).

    Returns (WaveParams, bracket, condition_number).  The Newton step
    uses the chart Jacobian d(mu,c,lambda)/d(k,alpha,M) =
    (hess Theta)^-1 A / k and stops at relative residual 1e-12.
    """
    p = initial_guess
    br = bracket if bracket is not None else find_turning_points(model, p)
    cfg = fd_config or FDConfig()
    tvec = target.as_vector()
    scale = np.maximum(np.abs(tvec), 1.0)
    for _ in range(max_iter):
        jet = action_hessian(model, p, br, cfg)
        mv = params_to_modvars(model, jet.grad)
        res = tvec - mv.as_vector()
        A = coupling_matrix_A(model, mv.k, mv.M)
        J = np.linalg.solve(jet.hess, A) / mv.k
        if not np.all(np.isfinite(J)):
            raise RuntimeError("chart Jacobian not finite")
        cond = float(np.linalg.cond(J))
        if np.max(np.abs(res) / scale) < 1e-12:
            return p, br, cond
        step = J @ res
        # damped update, keeping the orbit trackable
        lam = 1.0
        for _ in range(8):
            try:
                pn = WaveParams.from_vector(p.as_vector() + lam * step)
                brn = rebracket(model, pn, br)
                break
            except DegenerateOrbit:
                lam *= 0.5
        else:
            raise RuntimeError("could not track the wave branch during Newton")
        p, br = pn, brn
    raise RuntimeError(f"modvars_to_params: no convergence in {max_iter} steps")


def predicted_alpha_sign(model, params):
    """Sign law for the excess impulse of interior waves.

    Covered classes: scalar (sign of b), two-field with constant tau
    (sign of -c), two-field with tau = Id (sign of lambda_2 / b).
    Returns 0 on the degenerate boundary of a law.
    """
    if model.kind == "scalar":
        return int(np.sign(model.b))
    t0, t1 = model.tau
    if t1 == 0.0:
        return int(np.sign(-params.c))
    if t0 == 0.0 and t1 == 1.0:
        return int(np.sign(params.lam2 / model.b))
    raise UncoveredClass("no sign law for tau outside {constant, identity}")


def chart_hamiltonian(model, mv, guess, bracket=None,
                      quad_order=DEFAULT_QUAD_ORDER):
    """Averaged Hamiltonian as a function of (k, alpha, M)."""
    p, br, _ = modvars_to_params(model, mv, guess, bracket)
    o = orbit_integrals(model, p, br, quad_order)
    return (o.int_E + 0.5 * o.theta) / o.Xi


def averaged_identities(model, params, bracket=None,
                        quad_order=DEFAULT_QUAD_ORDER, fd_rel=1e-6):
    """Residuals of the exact averaged relations at one wave.

    Keys: dkH (dH/dk - (Theta - alpha c)), daH (dH/dalpha + k c),
    dMH (closed-form mean-gradient relation), impulse_virial
    (U . deltaH average), legendre (averaged remainder vs k Theta - H).
    All residuals are relative to natural scales.
    """
    if bracket is None:
        bracket = find_turning_points(model, params)
    o = orbit_integrals(model, params, bracket, quad_order)
    mv = params_to_modvars(model, o.grad_theta)
    c, lam = params.c, params.lam
    Xi = o.Xi
    meanH = (o.int_E + 0.5 * o.theta) / Xi
    meanLH = (0.5 * o.theta - o.int_E) / Xi
    meanQ = o.int_Q / Xi
    sm = structural_matrices(model)
    # (iii) mean gradient: <deltaH> = -c B^-1 M - lambda, and the closed form
    mean_dH = -c * (sm.Binv @ mv.M) - lam
    closed = -c * model.impulse_gradient(mv.M) - lam
    res_dMH = float(np.max(np.abs(mean_dH - closed))) / max(1.0, float(np.max(np.abs(closed))))
    # (iv) impulse virial: <U . deltaH> = M . <deltaH> - 2 c k alpha
    lhs = -2.0 * c * meanQ - float(lam @ mv.M)
    rhs = float(mv.M @ mean_dH) - 2.0 * c * mv.k * mv.alpha
    res_virial = abs(lhs - rhs) / max(1.0, abs(lhs))
    # (v) averaged remainder
    res_legendre = abs(meanLH - (mv.k * o.theta - meanH)) / max(1.0, abs(meanH))
    # (i), (ii) by finite differences of the chart Hamiltonian
    def H_of(mvx):
        return chart_hamiltonian(model, mvx, params, bracket, quad_order)

    hk = fd_rel * max(1.0, mv.k)
    ha = fd_rel * max(1.0, abs(mv.alpha))
    dkH = (H_of(ModVars(mv.k + hk, mv.alpha, mv.M))
           - H_of(ModVars(mv.k - hk, mv.alpha, mv.M))) / (2.0 * hk)
    daH = (H_of(ModVars(mv.k, mv.alpha + ha, mv.M))
           - H_of(ModVars(mv.k, mv.alpha - ha, mv.M))) / (2.0 * ha)
    res_dkH = abs(dkH - (o.theta - mv.alpha * c)) / max(1.0, abs(o.theta))
    res_daH = abs(daH + mv.k * c) / max(1.0, abs(mv.k * c))
    return {"dkH": res_dkH, "daH": res_daH, "dMH": res_dMH,
            "impulse_virial": res_virial, "legendre": res_legendre}
