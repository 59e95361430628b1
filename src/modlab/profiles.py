"""Periodic traveling-wave profiles: turning points, period averages, samples.

The profile ODE has the first integral ``kappa(v) v_x^2 / 2 + W(v) = mu``,
so every period-averaged quantity is a line integral between consecutive
turning points v2 < v3 of mu - W.  The engine below:

* locates and refines turning points on the exact polynomial form
  ``T = mu*D - N`` of ``(mu - W)*D``,
* deflates the known roots out of T so integrands are evaluated without
  endpoint cancellation,
* integrates with Gauss-Legendre after singularity-removing
  substitutions (a trigonometric one generically; a hyperbolic/trig
  split when an inner root v1 sits close on the soliton side),
* estimates quadrature error by order doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import kernels
from .errors import (ConfigError, DegenerateOrbit, MultipleWells,
                     NoPeriodicOrbit, QuadratureNotConverged)
from .models import ModelSpec, WaveParams
from .polys import pdeflate, peval, pder, pshift, trim

DEGENERACY_FRACTION = 1e-6
DEFAULT_QUAD_ORDER = 96
# relative order-doubling error above which orbit_integrals raises
QUAD_RTOL = 1e-9

# order n -> (x, w, s, c, s2, wq4): the Gauss-Legendre rule and, at its
# nodes, sin, cos and sin^2 of theta = (x + 1) pi / 4 and the weights
# 4 w pi / 4 of that substitution; every array read-only
_leggauss_cache: dict = {}
# order n -> (x + 1, w, s, c, s2, wq4) of orders n and 2n side by side
_node_cache: dict = {}
# the fine pass runs 2 * quad_order Gauss nodes, whose rule numpy builds from
# an n x n companion matrix: 1024 caps it at 2048 nodes (32 MiB)
MAX_QUAD_ORDER = 1024


def _gauss_entry(n: int) -> tuple:
    if n not in _leggauss_cache:
        x, w = leggauss(n)
        th = (x + 1.0) * (math.pi / 4.0)
        s = np.sin(th)
        entry = (x, w, s, np.cos(th), s ** 2, 4.0 * (w * (math.pi / 4.0)))
        for a in entry:
            a.flags.writeable = False
        _leggauss_cache[n] = entry
    return _leggauss_cache[n]


def _node_set(n: int) -> tuple:
    """The order-n and order-2n rules of one segment, 3n nodes, read-only.

    Raises ConfigError unless n is an integer in [1, MAX_QUAD_ORDER].
    """
    entry = _node_cache.get(n) if type(n) is int else None
    if entry is None:
        if type(n) is not int or not 1 <= n <= MAX_QUAD_ORDER:
            raise ConfigError(f"quad_order must be an integer in "
                              f"[1, {MAX_QUAD_ORDER}], got {n!r}")
        lo, hi = _gauss_entry(n), _gauss_entry(2 * n)
        x, *rest = (np.concatenate((a, b)) for a, b in zip(lo, hi))
        entry = (x + 1.0, *rest)
        for a in entry:
            a.flags.writeable = False
        _node_cache[n] = entry
    return entry


def gauss_nodes(n: int):
    """The n-point Gauss-Legendre rule (x, w) on [-1, 1], cached."""
    return _gauss_entry(n)[:2]


@dataclass(frozen=True)
class OrbitBracket:
    """Turning-point structure of one well at level mu."""

    v2: float
    v3: float
    v1: float | None = None
    regime_hint: str = "generic"
    root_residuals: tuple = ()
    # the level polynomial T = mu D - N and D the roots were found on
    T: np.ndarray = field(kw_only=True, compare=False, repr=False)
    den: np.ndarray = field(kw_only=True, compare=False, repr=False)

    @property
    def delta(self) -> float:
        """Half the well width (small-amplitude parameter)."""
        return 0.5 * (self.v3 - self.v2)

    @property
    def rho(self) -> float | None:
        """Root-spacing ratio (small-wavenumber parameter)."""
        if self.v1 is None:
            return None
        return (self.v2 - self.v1) / (self.v3 - self.v2)


@dataclass(frozen=True)
class WaveState:
    """Period-averaged description of one periodic wave."""

    Xi: float
    k: float
    meanU: np.ndarray
    meanQ: float
    alpha: float
    meanH: float
    meanLH: float
    quad_error: float


@dataclass(frozen=True)
class OrbitIntegrals:
    """Raw period integrals shared by the profile and action modules."""

    Xi: float
    int_U: np.ndarray        # integral of U dxi over one period
    int_Q: float             # integral of Q(U) dxi
    theta: float             # abbreviated action = 2 * integral of (mu - W)
    int_E: float             # integral of f + tau g^2 / 2
    quad_error: float = 0.0

    @property
    def grad_theta(self) -> np.ndarray:
        return np.concatenate(([self.Xi, self.int_Q], self.int_U))


# ----------------------------------------------------------------------------
# turning points


def level_polynomial(model: ModelSpec,
                     params: WaveParams) -> tuple[np.ndarray, np.ndarray]:
    """(T, D): the level polynomial T = mu D - N of (mu - W) D, and D."""
    num, den = model.potential_rational(params)
    mu = params.mu
    T = [mu * d for d in den.tolist()]
    T += [0.0] * (len(num) - len(T))
    for k, nk in enumerate(num.tolist()):
        T[k] -= nk
    return np.array(trim(T)), den


def _newton_refine(T: np.ndarray, Td: np.ndarray, x: float, lo: float,
                   hi: float, tol: float) -> float:
    # descending coefficients as floats; Horner runs inline on them
    t0, *t = T[::-1].tolist()
    d0, *d = Td[::-1].tolist()
    for _ in range(80):
        fx, dx = t0, d0
        for ck in t:
            fx = fx * x + ck
        for ck in d:
            dx = dx * x + ck
        if dx != 0.0:
            step = fx / dx
            xn = x - step
            if not (lo <= xn <= hi):
                flo = t0
                for ck in t:
                    flo = flo * lo + ck
                xn = 0.5 * (x + (lo if fx * flo < 0 else hi))
        else:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= tol * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def _real_roots_in(T: np.ndarray, lo: float, hi: float, span: float) -> list:
    """Refined real roots in the window as (root, cluster_count) pairs."""
    Tt = trim(T)
    if len(Tt) < 2:
        return []
    raw = np.roots(Tt[::-1])
    Td = pder(Tt)
    out = []
    for z in raw:
        if abs(z.imag) > 1e-5 * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        if not (lo - 1e-12 * span <= x <= hi + 1e-12 * span):
            continue
        x = _newton_refine(Tt, Td, x, lo - 0.01 * span, hi + 0.01 * span, 1e-15)
        out.append(x)
    out.sort()
    merged: list[tuple] = []
    for x in out:
        if merged and abs(x - merged[-1][0]) <= 1e-9 * span:
            prev, cnt = merged[-1]
            merged[-1] = (0.5 * (prev + x), cnt + 1)
        else:
            merged.append((x, 1))
    return merged


def find_turning_points(model: ModelSpec, params: WaveParams,
                        search_window: tuple | None = None) -> OrbitBracket:
    """Locate the turning points v2 < v3 (and v1 when present) at level mu.

    Raises
    ------
    NoPeriodicOrbit
        when mu - W has no sign change in the window.
    DegenerateOrbit
        when two relevant roots collapse (harmonic or soliton edge).
    MultipleWells
        when the window contains more than one candidate well.
    """
    lo, hi = search_window if search_window is not None else model.domain
    dlo, dhi = model.domain
    lo, hi = max(lo, dlo), min(hi, dhi)
    if not math.isfinite(lo):
        lo = -1e6
    if not math.isfinite(hi):
        hi = 1e6
    T, den = level_polynomial(model, params)
    span = hi - lo
    clustered = _real_roots_in(T, lo, hi, span)
    roots = [r for r, _ in clustered]
    counts = {r: c for r, c in clustered}
    if len(roots) < 2:
        if any(c >= 2 for c in counts.values()):
            raise DegenerateOrbit(
                f"double root at level mu = {params.mu}; at a distinguished limit")
        raise NoPeriodicOrbit(
            f"level mu = {params.mu} cuts no well in ({lo}, {hi})")
    wells = []
    for a, b in zip(roots[:-1], roots[1:]):
        mid = 0.5 * (a + b)
        if peval(T, mid) > 0.0 and peval(den, mid) > 0.0:
            wells.append((a, b))
    if not wells:
        if any(c >= 2 for c in counts.values()):
            raise DegenerateOrbit(
                f"double root at level mu = {params.mu}; at a distinguished limit")
        raise NoPeriodicOrbit(
            f"no well below level mu = {params.mu} in ({lo}, {hi})")
    if len(wells) > 1:
        raise MultipleWells(
            f"{len(wells)} wells in ({lo}, {hi}); narrow the window")
    v2, v3 = wells[0]
    if counts[v2] >= 2 or counts[v3] >= 2:
        raise DegenerateOrbit(
            f"multiple turning point on the well edge at mu = {params.mu}")
    # degeneracy is judged against the root spread, not the search window
    wspan = max(roots[-1] - roots[0], abs(v2) + abs(v3), 1e-30)
    if v3 - v2 < DEGENERACY_FRACTION * wspan:
        raise DegenerateOrbit(
            f"turning points collapsed: v2 = {v2}, v3 = {v3}")
    v1 = None
    below = [r for r in roots if r < v2 - 1e-9 * wspan]
    if below:
        cand = max(below)
        mid = 0.5 * (cand + v2)
        if peval(T, mid) < 0.0:
            v1 = cand
            if v2 - v1 < DEGENERACY_FRACTION * wspan:
                raise DegenerateOrbit(
                    f"soliton-side roots collapsed: v1 = {v1}, v2 = {v2}")
    dval = peval(den, np.array([v2, v3]))
    resid = [abs(peval(T, v2) / dval[0]), abs(peval(T, v3) / dval[1])]
    if v1 is not None:
        resid.append(abs(peval(T, v1) / peval(den, v1)))
    hint = "generic"
    if (v3 - v2) < 0.02 * wspan:
        hint = "near_harmonic"
    elif v1 is not None and (v2 - v1) / (v3 - v2) < 0.02:
        hint = "near_soliton"
    return OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=hint,
                        root_residuals=tuple(resid), T=T, den=den)


def _quotient_real_roots(q: np.ndarray) -> list:
    """Real roots of the ascending polynomial q, as np.roots finds them.

    A linear q has the root np.roots reads off its 1x1 companion matrix,
    -q0 / q1, which is computed directly, bit for bit the same.
    """
    qt = trim(q)
    if len(qt) == 2:
        return [-qt[0] / qt[1]]
    if len(qt) < 2:
        return []
    return [z.real for z in np.roots(qt[::-1])
            if abs(z.imag) < 1e-7 * max(1.0, abs(z.real))]


def bracket_near_limit(model: ModelSpec, params: WaveParams, center: float,
                       side: str) -> OrbitBracket:
    """Turning points for a wave close to a distinguished limit.

    The two roots straddling ``center`` (the well minimum on the harmonic
    side, the saddle on the soliton side) are solved in shifted
    coordinates w = v - center, which keeps their *gap* accurate to
    relative rounding even when it is 1e-10 of the window.  No degeneracy
    cutoff applies here; callers sweep knowingly close to the limit.
    """
    T, den = level_polynomial(model, params)
    Tc = trim(pshift(T, center))
    Td = pder(Tc)
    wj = model.potential_jet(center, params, order=2)
    h = params.mu - wj[0]
    if h / wj[2] <= 0.0:
        raise DegenerateOrbit(
            f"level mu = {params.mu} on the wrong side of the {side} limit")
    w0 = math.sqrt(2.0 * h / wj[2])
    wm = _newton_refine(Tc, Td, -w0, -4.0 * w0, 0.0, 1e-16)
    wp = _newton_refine(Tc, Td, +w0, 0.0, 4.0 * w0, 1e-16)
    # far roots from the deflated quotient, polished on the unshifted form
    q, _ = pdeflate(Tc, wm)
    q, _ = pdeflate(q, wp)
    far = []
    Td_far = pder(T)
    for z in _quotient_real_roots(q):
        x = center + float(z)
        far.append(_newton_refine(T, Td_far, x, x - 1.0, x + 1.0, 1e-15))
    if side == "harmonic":
        v2, v3 = center + wm, center + wp
        v1 = max([r for r in far if r < v2], default=None)
        hint = "near_harmonic"
    elif side == "soliton":
        v1, v2 = center + wm, center + wp
        above = [r for r in far if r > v2]
        if not above:
            raise NoPeriodicOrbit("no outer turning point beyond the saddle")
        v3 = min(above)
        hint = "near_soliton"
    else:
        raise ConfigError(f"unknown side {side!r}")
    dvals = [abs(peval(T, x) / peval(den, x)) for x in (v2, v3)]
    return OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=hint,
                        root_residuals=tuple(dvals), T=T, den=den)


# ----------------------------------------------------------------------------
# orbit integrals


def _integrand_stack(model: ModelSpec, params: WaveParams,
                     bracket: OrbitBracket) -> np.ndarray:
    """Packed polynomial stack the hot kernel evaluates at the nodes.

    Rows: the bracket's level polynomial (mu - W) D with its roots
    divided out, then the model's rows (D, the kappa numerator and
    denominator, the f numerator and denominator and, on two-field
    models, tau) and, on two-field models, G = -(lam2 + c v / b).
    """
    q, _ = pdeflate(bracket.T, bracket.v2)
    q, _ = pdeflate(q, bracket.v3)
    if bracket.v1 is not None:
        q, _ = pdeflate(q, bracket.v1)
    rows = model._integrand_rows
    k, dm = rows.shape
    d = max(len(q), dm)
    out = np.zeros((k + (2 if model.kind == "euler_korteweg" else 1), d))
    out[0, d - len(q):] = -q[::-1]
    out[1:k + 1, d - dm:] = rows
    if model.kind == "euler_korteweg":
        out[k + 1, d - 2:] = (-(params.c / model.b), -params.lam2)
    return out


def orbit_integrals(model: ModelSpec, params: WaveParams,
                    bracket: OrbitBracket,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> OrbitIntegrals:
    """Full-period integrals with an order-doubling error estimate.

    The coarse (order n) and fine (order 2n) Gauss passes run on one node
    set: each segment of the orbit lays its n and 2n nodes side by side,
    the substitution and the integrand are formed once over all of them,
    and each (pass, segment) block is evaluated and summed on its own
    contiguous slice.  Raises QuadratureNotConverged when the
    doubled-order estimate exceeds ``QUAD_RTOL`` relative to the period.
    """
    xp1, wgt, s, c, s2, wq4 = _node_set(quad_order)
    n = quad_order
    packed = _integrand_stack(model, params, bracket)
    v2, v3, v1 = bracket.v2, bracket.v3, bracket.v1
    if v1 is None:
        # single trigonometric substitution over the whole well
        v = v2 + (v3 - v2) * s2
        pair = (v3 - v2) ** 2 * s2 * (1.0 - s2)
        dxi_core = math.sqrt(0.5)
        wq = wq4
        blocks = ((0, n), (n, 3 * n))
    else:
        vm = 0.5 * (v2 + v3)
        # lower segment: hyperbolic substitution absorbing the (v1, v2) pair
        psim = math.acosh(math.sqrt((vm - v1) / (v2 - v1)))
        ps = xp1 * (psim / 2.0)
        ch, sh = np.cosh(ps), np.sinh(ps)
        vlo = v1 + (v2 - v1) * ch * ch
        # upper segment: trigonometric substitution at the outer root v3
        vup = v3 - (v3 - vm) * s * s
        v = np.concatenate((vlo, vup))
        pair = np.concatenate(((v2 - v1) ** 2 * (ch * sh) ** 2 * (v3 - vlo),
                               (v3 - vm) * s * s * (vup - v1) * (vup - v2)))
        dxi_core = np.concatenate((
            np.sqrt(0.5 / (v3 - vlo)),
            c * np.sqrt(0.5 * (v3 - vm) / ((vup - v1) * (vup - v2)))))
        # wq carries the full-period weight (2 x the half-period sweep)
        wq = np.concatenate((4.0 * (wgt * (psim / 2.0)), wq4))
        blocks = ((0, n), (n, 3 * n), (3 * n, 4 * n), (4 * n, 6 * n))
    vals = np.concatenate([kernels.horner_batch(packed, v[a:b])
                           for a, b in blocks], axis=1)
    Pv, denv, knv, kdv, fnv, fdv = vals[:6]
    mu_minus_w = pair * Pv / denv
    w = wq * (dxi_core * np.sqrt(knv * denv / (kdv * Pv)))
    fval = fnv / fdv
    if model.kind == "scalar":
        rows = (v, v * v / (2.0 * model.b), fval, mu_minus_w)
    else:
        tauv, Gv = vals[6], vals[7]
        g = Gv / tauv
        rows = (v, g, v * g / model.b, fval + 0.5 * tauv * g * g, mu_minus_w)
    # per block: the period, int_U, int_Q, int_E and the integral of mu - W
    sums = [[float(w[a:b].sum())] + [float(w[a:b] @ r[a:b]) for r in rows]
            for a, b in blocks]
    if v1 is not None:
        # pass totals, lower segment first
        sums = [[lo + up for lo, up in zip(sums[i], sums[i + 2])]
                for i in (0, 1)]
    (cXi, *cU, cQ, cE, cW), (Xi, *U, Q, E, Iw) = sums
    int_U, theta = np.array(U), 2.0 * Iw
    num = [abs(Xi - cXi), abs(Q - cQ), abs(theta - 2.0 * cW), abs(E - cE)]
    num += list(np.abs(int_U - np.array(cU)))
    scale = max(abs(Xi), abs(theta), 1e-300)
    err = max(num) / scale
    if err > QUAD_RTOL:
        raise QuadratureNotConverged(
            f"quadrature error {err:.3e} above rtol {QUAD_RTOL:.1e} "
            f"(order {quad_order})")
    return OrbitIntegrals(Xi=Xi, int_U=int_U, int_Q=Q, theta=theta, int_E=E,
                          quad_error=err)


def averaged_state(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket,
                   quad_order: int = DEFAULT_QUAD_ORDER) -> WaveState:
    """Period, means, excess impulse and averaged energies of one wave."""
    o = orbit_integrals(model, params, bracket, quad_order)
    return _state_from_integrals(model, params, o)


def _state_from_integrals(model: ModelSpec, params: WaveParams,
                          o: OrbitIntegrals) -> WaveState:
    Xi = o.Xi
    meanU = o.int_U / Xi
    meanQ = o.int_Q / Xi
    alpha = o.int_Q - Xi * model.impulse_value(meanU)
    meanH = (o.int_E + 0.5 * o.theta) / Xi
    meanLH = (0.5 * o.theta - o.int_E) / Xi
    return WaveState(Xi=Xi, k=1.0 / Xi, meanU=meanU, meanQ=meanQ, alpha=alpha,
                     meanH=meanH, meanLH=meanLH, quad_error=o.quad_error)


# ----------------------------------------------------------------------------
# profile reconstruction


def profile_sample(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket, n: int) -> list:
    """n samples (xi, U(xi)) over one full period.

    The grid is monotone with v(0) = v2 and v(Xi/2) = v3; the second half
    mirrors the first, so v(Xi - xi) = v(xi) exactly.
    """
    if n < 2:
        raise ConfigError("need n >= 2 samples")
    packed = _integrand_stack(model, params, bracket)
    v2, v3 = bracket.v2, bracket.v3
    m = n // 2 + 1
    theta_grid = np.linspace(0.0, math.pi / 2.0, m)
    x, w = gauss_nodes(24)

    def jac(th):
        s2 = np.sin(th) ** 2
        v = v2 + (v3 - v2) * s2
        vals = kernels.horner_batch(packed, np.atleast_1d(v))
        Pv, denv, knv, kdv = vals[0], vals[1], vals[2], vals[3]
        if bracket.v1 is not None:
            Pv = Pv * (v - bracket.v1)
        return 2.0 * np.sqrt(knv * denv / (2.0 * kdv * Pv))

    xi = np.zeros(m)
    for i in range(1, m):
        a, b = theta_grid[i - 1], theta_grid[i]
        tq = 0.5 * (b - a) * x + 0.5 * (a + b)
        xi[i] = xi[i - 1] + 0.5 * (b - a) * float(w @ jac(tq))
    half = xi[-1]
    vhalf = v2 + (v3 - v2) * np.sin(theta_grid) ** 2
    xs = list(xi) + [2.0 * half - t for t in xi[-2::-1]]
    vs = list(vhalf) + list(vhalf[-2::-1])
    out = []
    for xi_i, v_i in zip(xs[:n], vs[:n]):
        if model.kind == "scalar":
            out.append((float(xi_i), np.array([v_i])))
        else:
            g = model.velocity_jet(v_i, params.c, params.lam2)[0]
            out.append((float(xi_i), np.array([v_i, g])))
    return out
