"""Independent oracles used by the test suite only.

The closed forms (from ``modbench/reference.py``), the raw adaptive
quadratures and the shooting integrator go through scipy special
functions or scipy's ODE solver, never through the package's own
integration engine, so agreement between the two is a genuine
cross-check.  The averaged-identity checker uses the engine's averages
but tests them against exact relations that the engine does not impose.
The limit frames and the harmonic third derivative are the paper's
closed forms, which the package does not carry.  The full-stack orbit
integrals are the engine as it was before constant integrand rows
entered as scalars: every row through the array Horner recurrence,
every array built apart and stacked, the error estimate on arrays.
"""

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigvals
from scipy.special import beta

from modlab.action import FDConfig, action_hessian, rebracket
from modlab.errors import (DegenerateOrbit, QuadratureNotConverged,
                           UncoveredClass)
from modlab.models import WaveParams, structural_matrices
from modlab.modulation import coupling_matrix_A
from modlab.polys import monomial_coeffs, pdeflate
from modlab.profiles import (DEFAULT_QUAD_ORDER, QUAD_RTOL, OrbitIntegrals,
                             _node_set, _state_from_integrals,
                             find_turning_points, orbit_integrals)


def _full_stack(model, params, q):
    """Every integrand row of a periodic orbit, ascending, in the order of
    profiles._integrand_stack: -q, D, the kappa and f numerators and
    denominators, then tau and G on two-field models."""
    rows = [[-x for x in q], model._rational[1], model.kappa.coeffs,
            monomial_coeffs(model.kappa.shift), model.f.coeffs,
            monomial_coeffs(model.f.shift)]
    if model.kind == "euler_korteweg":
        rows += [np.array(model.tau, dtype=float),
                 np.array([-params.lam2, -(params.c / model.b)])]
    d = max(len(r) for r in rows)
    packed = np.zeros((len(rows), d))
    for i, r in enumerate(rows):
        packed[i, d - len(r):] = r[::-1]
    return packed


def _array_horner(packed, v):
    """The Horner recurrence on every row at once, columns broadcast."""
    if packed.shape[1] == 1:
        return np.repeat(packed, v.shape[0], axis=1)
    acc = packed[:, :1] * v
    acc += packed[:, 1:2]
    for j in range(2, packed.shape[1]):
        acc *= v
        acc += packed[:, j:j + 1]
    return acc


def full_stack_orbit_integrals(model, params, bracket,
                               quad_order=DEFAULT_QUAD_ORDER):
    """orbit_integrals with the full integrand stack through Horner; it
    returns the same OrbitIntegrals, or raises the same error, bit for
    bit."""
    xp1, wgt, s, c, s2, wq4 = _node_set(quad_order)
    n = quad_order
    v2, v3, v1 = bracket.v2, bracket.v3, bracket.v1
    q, _ = pdeflate(bracket.T, v2)
    q, _ = pdeflate(q, v3)
    if v1 is not None:
        q, _ = pdeflate(q, v1)
    packed = _full_stack(model, params, q)
    if v1 is None:
        v = v2 + (v3 - v2) * s2
        pair = (v3 - v2) ** 2 * s2 * (1.0 - s2)
        dxi_core = math.sqrt(0.5)
        wq = wq4
        blocks = ((0, n), (n, 3 * n))
    else:
        vm = 0.5 * (v2 + v3)
        psim = math.acosh(math.sqrt((vm - v1) / (v2 - v1)))
        ps = xp1 * (psim / 2.0)
        ch, sh = np.cosh(ps), np.sinh(ps)
        vlo = v1 + (v2 - v1) * ch * ch
        vup = v3 - (v3 - vm) * s * s
        v = np.concatenate((vlo, vup))
        pair = np.concatenate(((v2 - v1) ** 2 * (ch * sh) ** 2 * (v3 - vlo),
                               (v3 - vm) * s * s * (vup - v1) * (vup - v2)))
        dxi_core = np.concatenate((
            np.sqrt(0.5 / (v3 - vlo)),
            c * np.sqrt(0.5 * (v3 - vm) / ((vup - v1) * (vup - v2)))))
        wq = np.concatenate((4.0 * (wgt * (psim / 2.0)), wq4))
        blocks = ((0, n), (n, 3 * n), (3 * n, 4 * n), (4 * n, 6 * n))
    vals = np.concatenate([_array_horner(packed, v[a:b]) for a, b in blocks],
                          axis=1)
    Pv, denv, knv, kdv, fnv, fdv, *ek = vals
    mu_minus_w = pair * Pv / denv
    w = wq * (dxi_core * np.sqrt(knv * denv / (kdv * Pv)))
    fval = fnv / fdv
    if model.kind == "scalar":
        rows = (v, v * v / (2.0 * model.b), fval, mu_minus_w)
    else:
        tauv, Gv = ek
        g = Gv / tauv
        rows = (v, g, v * g / model.b, fval + 0.5 * tauv * g * g, mu_minus_w)
    rows = np.stack(rows)
    sums = [[float(w[a:b].sum()), *np.vecdot(rows[:, a:b], w[a:b]).tolist()]
            for a, b in blocks]
    if v1 is not None:
        sums = [[lo + up for lo, up in zip(sums[i], sums[i + 2])]
                for i in (0, 1)]
    (cXi, *cU, cQ, cE, cW), (Xi, *U, Q, E, Iw) = sums
    int_U, theta = np.array(U), 2.0 * Iw
    num = [abs(Xi - cXi), abs(Q - cQ), abs(theta - 2.0 * cW), abs(E - cE)]
    num += list(np.abs(int_U - np.array(cU)))
    scale = max(abs(Xi), abs(theta), 1e-300)
    err = float(np.max(num)) / scale
    if not err <= QUAD_RTOL:
        raise QuadratureNotConverged(
            f"quadrature error {err:.3e} above rtol {QUAD_RTOL:.1e} "
            f"(order {quad_order})")
    return OrbitIntegrals(Xi=Xi, int_U=int_U, int_Q=Q, theta=theta, int_E=E,
                          quad_error=err)


def _load_reference():
    """modbench/reference.py, which imports no modlab, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "modbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("modbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the closed forms of the KdV well and soliton, shared with the benchmark
REFERENCE = _load_reference()


def cubic_well_elliptic(v1, v2, v3):
    """Closed forms for the cubic-potential orbit on (v2, v3).

    The level set is mu - W = (v - v1)(v - v2)(v3 - v)/6 with kappa = 1.
    Returns dict with Xi, mean_v, mean_v2 (second moment) and theta; all
    but mean_v2 are ``reference.kdv_elliptic``'s.
    """
    ell = REFERENCE.kdv_elliptic(v1, v2, v3)
    # sn^2 and sn^4 means over a quarter period
    _, _, (I0, I1, I2, _) = REFERENCE._sn_moments((v3 - v2) / (v3 - v1))
    mean_v2 = (v3 * v3 - 2.0 * v3 * (v3 - v2) * I1 / I0
               + (v3 - v2) ** 2 * I2 / I0)
    return {"Xi": ell["Xi"], "mean_v": ell["mean"], "mean_v2": mean_v2,
            "theta": ell["theta"]}


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
    """sech^2 solitary wave of f = -v^3/6 on endstate 0 at speed c.

    The moment M = (24/5) c^(5/2) beside ``reference.kdv_soliton``'s
    d_c M and d2_c M.
    """
    facts = REFERENCE.kdv_soliton(c)
    return {"moment": 24.0 / 5.0 * c ** 2.5, "dcM": facts["dcM"],
            "dc2M": facts["dc2M"]}


def ek_lagrangian_soliton_facts(c, vs):
    """Closed-form soliton moment of ``ek_lagrangian.json`` at fixed endstate.

    With f = -v^3/6 and kappa = tau = b = 1, mu_s - W = w^2 (3a - w) / 6
    in w = v - v_s, where a = -v_s - c^2 > 0; the endstate's u_s drops
    out.  So M = (24/5) a^(5/2), and d2_c M = 24 a^(1/2) (4 c^2 + v_s)
    changes sign at c^2 = -v_s / 4.  Returns M, dcM, dc2M and
    gradUM = (d_vs M, d_us M) = (-12 a^(3/2), 0).
    """
    a = -vs - c * c
    return {"moment": 4.8 * a ** 2.5, "dcM": -24.0 * c * a ** 1.5,
            "dc2M": 24.0 * a ** 0.5 * (4.0 * c * c + vs),
            "gradUM": np.array([-12.0 * a ** 1.5, 0.0])}


def power_soliton_moment(p, c):
    """Closed-form soliton moment of the gKdV power family on endstate 0.

    f = -v^(p+2) / ((p+1)(p+2)) with kappa = b = 1.  Returns (M, d_c M,
    d2_c M) for M(c) = (2/p) B(2/p, 3/2) ((p+1)(p+2)/2)^(2/p) c^(1/2+2/p),
    so d2_c M carries the factor (2/p + 1/2)(2/p - 1/2): positive for
    p < 4, zero at p = 4 and negative for p > 4.
    """
    a = 2.0 / p
    M = a * beta(a, 1.5) * ((p + 1) * (p + 2) / 2.0) ** a * c ** (0.5 + a)
    dcM = (0.5 + a) * M / c
    return M, dcM, (a - 0.5) * dcM / c


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


def _profile_acceleration(model, params, v, vp):
    """v'' from the profile ODE kappa v'' + kappa' v'^2 / 2 + W'(v) = 0."""
    kj = model.kappa_jet(v, 1)
    w1 = model.potential_jet(v, params, order=1)[1]
    return -(0.5 * kj[1] * vp * vp + w1) / kj[0]


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
        vpp = _profile_acceleration(model, params, v, vp)
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
    return _state_from_integrals(model, o), o.theta


def profile_samples(model, params, bracket, n):
    """(Xi, v): the period and the profile at x_j = j Xi / n, j < n.

    The shooting oracle's ODE runs from v(0) = v2 to the upper turning
    point, half a period; its dense output gives the first half of the
    samples and the second half mirrors it, v(Xi - x) = v(x).
    """
    def rhs(_, y):
        return [y[1], _profile_acceleration(model, params, y[0], y[1])]

    def turn(_, y):
        return y[1]

    turn.terminal = True
    turn.direction = -1
    sol = solve_ivp(rhs, (0.0, 1e4), [bracket.v2, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-14, events=turn, dense_output=True)
    if not sol.t_events[0].size:
        raise RuntimeError("turning-point event never fired")
    half = sol.t_events[0][0]
    x = np.arange(n) * (2.0 * half / n)
    return 2.0 * half, sol.sol(np.minimum(x, 2.0 * half - x))[0]


def hill_small_spectrum(model, params, bracket, nus):
    """The three Floquet eigenvalues nearest 0 of the linearised PDE.

    Scalar models with constant kappa.  In the frame of the wave,
    v_t = b (delta H / delta v)_x linearises to L = b d_x (-kappa d_x^2
    + q), q = f''(v) + c / b, with the profile sampled by
    ``profile_samples``.  The Floquet-Fourier-Hill method (Deconinck &
    Kutz, J. Comput. Phys. 219, 2006) writes L on e^{i nu x} times the
    Fourier modes n of the period, |n| <= m, as lambda w = i K H w, with
    K = diag(nu + 2 pi n / Xi) and H = b (kappa K^2 + Toeplitz(q_hat)).
    QZ solves H w = (lambda / i) K^-1 w, which keeps the k^3 scale of
    i K H, and its rounding, out of the small eigenvalues.  m is the last
    mode where |q_hat| exceeds 1e-13 of its largest entry, above the
    1e-14 noise that the sampled profile leaves.

    Returns an array of shape (len(nus), 3): for each nu, the lambda
    nearest 0, in the (Re, Im) order of lambda / (i nu).
    """
    if model.kind != "scalar" or len(model.kappa.coeffs) > 1 \
            or not model.kappa.is_poly:
        raise UncoveredClass("the Hill oracle needs a scalar model with "
                             "constant kappa")
    b, kappa = model.b, float(model.kappa.coeffs[0])
    samples = 512
    Xi, v = profile_samples(model, params, bracket, samples)
    q_hat = np.fft.fft([b * model.f_jet(x, 2)[2] + params.c for x in v])
    q_hat /= samples
    mag = np.abs(q_hat[:samples // 2])
    m = int(np.nonzero(mag > 1e-13 * mag.max())[0][-1])
    n = np.arange(-m, m + 1)
    toeplitz = q_hat[(n[:, None] - n[None, :]) % samples]
    out = []
    for nu in nus:
        k = nu + 2.0 * math.pi * n / Xi
        w = eigvals(np.diag(b * kappa * k * k) + toeplitz, np.diag(1.0 / k))
        w = w[np.argsort(np.abs(w))[:3]] / nu
        out.append(1j * nu * w[np.lexsort((w.imag, w.real))])
    return np.array(out)


@dataclass(frozen=True)
class ModVars:
    """A point of the modulation chart: wavenumber, excess impulse, mean."""

    k: float
    alpha: float
    M: np.ndarray


def modvars_of(state):
    """The chart point of a ``WaveState``."""
    return ModVars(state.k, state.alpha, state.meanU)


def modvars_vector(mv):
    """The modulation variables (k, alpha, M) as one vector."""
    return np.concatenate(([mv.k, mv.alpha], mv.M))


def modvars_from_vector(x):
    x = np.asarray(x, dtype=float)
    return ModVars(float(x[0]), float(x[1]), x[2:].copy())


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
    tvec = modvars_vector(target)
    scale = np.maximum(np.abs(tvec), 1.0)
    for _ in range(max_iter):
        jet = action_hessian(model, p, br, cfg)
        mv = modvars_of(jet.state)
        res = tvec - modvars_vector(mv)
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
    st = _state_from_integrals(model, o)
    mv = modvars_of(st)
    c, lam = params.c, params.lam
    sm = structural_matrices(model)
    # (iii) mean gradient: <deltaH> = -c B^-1 M - lambda, and the closed form
    mean_dH = -c * (sm.Binv @ mv.M) - lam
    closed = -c * model.impulse_gradient(mv.M) - lam
    res_dMH = float(np.max(np.abs(mean_dH - closed))) / max(1.0, float(np.max(np.abs(closed))))
    # (iv) impulse virial: <U . deltaH> = M . <deltaH> - 2 c k alpha
    lhs = -2.0 * c * st.meanQ - float(lam @ mv.M)
    rhs = float(mv.M @ mean_dH) - 2.0 * c * mv.k * mv.alpha
    res_virial = abs(lhs - rhs) / max(1.0, abs(lhs))
    # (v) averaged remainder
    res_legendre = (abs(st.meanLH - (mv.k * o.theta - st.meanH))
                    / max(1.0, abs(st.meanH)))
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


@dataclass(frozen=True)
class LimitFrame:
    """Frame vectors at a reference state and their derived matrices."""

    V: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    T: np.ndarray
    E: np.ndarray
    F: np.ndarray
    P: np.ndarray
    D: np.ndarray
    sigma: float
    w: float
    zeta: float


def frame_vectors(model, v, c=0.0, lam2=0.0):
    """Frame at an arbitrary admissible state v (limit points included)."""
    sm = structural_matrices(model)
    b = model.b
    if model.kind == "scalar":
        q, qv, qvv = model.impulse_jet(v)
        V = np.array([1.0, q, v])
        W = np.array([0.0, qv, 1.0])
        Z = np.array([0.0, qvv, 0.0])
        T = np.zeros(3)
        E = np.array([1.0, 0.0, 0.0])
        F = np.array([0.0, -1.0, 0.0])
        P = np.column_stack([sm.Sinv @ F, sm.Sinv @ V, sm.Sinv @ W])
        sigma, w, zeta = 0.0, 1.0 / b, 0.0
    else:
        g, gv, gvv, _ = model.velocity_jet(v, c, lam2)
        q, qv, qvv = model.impulse_jet(v, c, lam2)
        tau0 = model.tau_jet(v, 0)[0]
        rt = math.sqrt(tau0)
        V = np.array([1.0, q, v, g])
        W = np.array([0.0, qv, 1.0, gv])
        Z = np.array([0.0, qvv, 0.0, gvv])
        T = np.array([0.0, v / b, 0.0, 1.0]) / rt
        E = np.array([1.0, 0.0, 0.0, 0.0])
        F = np.array([0.0, -1.0, 0.0, 0.0])
        P = np.column_stack([sm.Sinv @ F, sm.Sinv @ V, sm.Sinv @ T, sm.Sinv @ W])
        sigma = 1.0 / (b * rt)
        w = 2.0 * gv / b
        zeta = gvv / b
    D = P.T @ sm.S @ P
    return LimitFrame(V=V, W=W, Z=Z, T=T, E=E, F=F, P=P, D=D,
                      sigma=sigma, w=w, zeta=zeta)


def d3_kka_H(model, hp):
    """Closed form of d^3 H / dk^2 dalpha at the harmonic anchor ``hp``."""
    b, k0, v0 = model.b, hp.k0, hp.v0
    w2 = model.potential_jet(v0, WaveParams(0.0, hp.c, hp.lam), 2)[2]
    if model.kind == "scalar":
        return 6.0 * b * w2 / k0
    gv = model.velocity_jet(v0, hp.c, float(hp.lam[1]))[1]
    tau0 = model.tau_jet(v0, 0)[0]
    return b * w2 * (-w2 + 3.0 * tau0 * gv * gv) / (k0 * tau0 * gv ** 3)
