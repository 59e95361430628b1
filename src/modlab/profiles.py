"""Periodic traveling-wave profiles: turning points and period averages.

The profile ODE has the first integral ``kappa(v) v_x^2 / 2 + W(v) = mu``,
so every period-averaged quantity is a line integral between consecutive
turning points v2 < v3 of mu - W.  The engine below:

* locates and refines turning points on the exact polynomial form
  ``T = mu*D - N`` of ``(mu - W)*D``, in the model domain: the one
  search window, narrowed with ``dataclasses.replace(model, domain=...)``,
* deflates the known roots out of T so integrands are evaluated without
  endpoint cancellation,
* integrates with Gauss-Legendre after singularity-removing
  substitutions (a trigonometric one generically and on the homoclinic
  orbit of a soliton anchor; a hyperbolic/trig split when an inner root
  v1 sits close on the soliton side),
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
# relative residual |T(x)| / sum |t_k| |x|^k above which x is no root of T
ROOT_RESIDUAL = 1e-10
DEFAULT_QUAD_ORDER = 96
# relative order-doubling error above which orbit_integrals and
# homoclinic_integrals raise
QUAD_RTOL = 1e-9

# order n -> (x + 1, w, s, c, s2, wq4) of the Gauss-Legendre rules of orders
# n and 2n side by side, with sin, cos and sin^2 of theta = (x + 1) pi / 4
# at their nodes and the weights 4 w pi / 4 of that substitution
_node_cache: dict = {}
# the fine pass runs 2 * quad_order Gauss nodes, whose rule numpy builds from
# an n x n companion matrix: 1024 caps it at 2048 nodes (32 MiB)
MAX_QUAD_ORDER = 1024
# Gauss order of the coarse homoclinic pass (the fine pass doubles it)
HOMOCLINIC_ORDER = 160


def _node_set(n: int) -> tuple:
    """The order-n and order-2n rules of one segment, 3n nodes, read-only.

    Raises ConfigError unless n is an integer in [1, MAX_QUAD_ORDER].
    """
    entry = _node_cache.get(n) if type(n) is int else None
    if entry is None:
        if type(n) is not int or not 1 <= n <= MAX_QUAD_ORDER:
            raise ConfigError(f"quad_order must be an integer in "
                              f"[1, {MAX_QUAD_ORDER}], got {n!r}")
        x, w = (np.concatenate(a) for a in zip(leggauss(n), leggauss(2 * n)))
        th = (x + 1.0) * (math.pi / 4.0)
        s = np.sin(th)
        entry = (x + 1.0, w, s, np.cos(th), s ** 2,
                 4.0 * (w * (math.pi / 4.0)))
        for a in entry:
            a.flags.writeable = False
        _node_cache[n] = entry
    return entry


@dataclass(frozen=True)
class OrbitBracket:
    """Turning-point structure of one well at level mu."""

    v2: float
    v3: float
    v1: float | None = None
    regime_hint: str = "generic"
    # the level polynomial T = mu D - N the roots were found on
    T: np.ndarray = field(kw_only=True, compare=False, repr=False)

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

    def __post_init__(self):
        for x, r in zip((self.v2, self.v3, self.v1), self.root_residuals):
            if not r <= ROOT_RESIDUAL:
                raise DegenerateOrbit(f"turning point {x!r} is not a root: "
                                      f"residual {r:.2e} > {ROOT_RESIDUAL:g}")

    @property
    def root_residuals(self) -> tuple:
        """|T(x)| / sum |t_k| |x|^k, Horner's error scale, at v2, v3, v1."""
        t = self.T.tolist()[::-1]
        out = []
        for x in (self.v2, self.v3, self.v1):
            if x is not None:
                p = s = 0.0
                for tk in t:
                    p, s = p * x + tk, s * abs(x) + abs(tk)
                out.append(abs(p) / s if s else 0.0)
        return tuple(out)


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


def _window_in_domain(model: ModelSpec) -> tuple[float, float]:
    """The search window: the model domain, open ends cut at +-1e6."""
    lo, hi = model.domain
    return (lo if math.isfinite(lo) else -1e6,
            hi if math.isfinite(hi) else 1e6)


def _real_roots_in(T: np.ndarray, lo: float, hi: float, q=None,
                   at: float = 0.0) -> list:
    """Real roots of T in the window [lo, hi], sorted.

    Seeds are the roots z of ``q`` (default T; or T with known roots
    divided out) in the coordinate v - ``at``; a linear q is solved as
    np.roots would, bit for bit.  A seed with |Im z| <= 1e-5 max(1, |Re z|)
    is polished by Newton on T in the window widened by 1 %, and kept if
    it stays that close: off a complex pair Newton walks away.
    """
    Tt = trim(T)
    qt = Tt if q is None else trim(q)
    if len(qt) < 2:
        return []
    seeds = [-qt[0] / qt[1]] if len(qt) == 2 else np.roots(qt[::-1])
    Td = pder(Tt)
    span = hi - lo
    out = []
    for z in seeds:
        tol = 1e-5 * max(1.0, abs(z.real))
        x = at + float(z.real)
        if abs(z.imag) <= tol and lo - 1e-12 * span <= x <= hi + 1e-12 * span:
            r = _newton_refine(Tt, Td, x, lo - 0.01 * span, hi + 0.01 * span,
                               1e-15)
            if abs(r - x) <= tol:
                out.append(r)
    return sorted(out)


def find_turning_points(model: ModelSpec, params: WaveParams) -> OrbitBracket:
    """Locate the turning points v2 < v3 (and v1 when present) at level mu.

    The model domain is the search window: it only selects the roots of
    mu - W that are looked at, and picks one well of several when
    narrowed.  Two adjacent roots closer than ``DEGENERACY_FRACTION``
    times the spread of those roots (or the largest root's magnitude,
    when that is larger) are one double root, which is never a well.

    Raises
    ------
    NoPeriodicOrbit
        when mu - W has no sign change in the window.
    DegenerateOrbit
        when a double root leaves no well or touches the well (harmonic
        or soliton edge).
    MultipleWells
        when the window contains more than one candidate well.
    """
    lo, hi = _window_in_domain(model)
    T, den = level_polynomial(model, params)
    roots = _real_roots_in(T, lo, hi)
    # the spread of the roots and 0: at least the roots' size, as a window
    # holding only the well's two roots has no other scale
    tol = DEGENERACY_FRACTION * (max(roots + [0.0]) - min(roots + [0.0]))
    wells, doubles = [], []
    for i, (a, b) in enumerate(zip(roots[:-1], roots[1:])):
        mid = 0.5 * (a + b)
        if b - a <= tol:
            doubles.append(i)
        elif peval(T, mid) > 0.0 and peval(den, mid) > 0.0:
            wells.append(i)
    if len(wells) > 1:
        raise MultipleWells(
            f"{len(wells)} wells in ({lo}, {hi}); narrow the window")
    if wells:
        # the pairs below and above the well share a root with it
        doubles = [j for j in doubles if abs(j - wells[0]) == 1]
    if doubles:
        a, b = roots[doubles[0]], roots[doubles[0] + 1]
        raise DegenerateOrbit(
            f"double root at level mu = {params.mu}: roots {a} and {b} are "
            f"closer than {tol:.3g}")
    if not wells:
        raise NoPeriodicOrbit(
            f"no well below level mu = {params.mu} in ({lo}, {hi})")
    i = wells[0]
    v2, v3 = roots[i], roots[i + 1]
    v1 = None
    if i > 0 and peval(T, 0.5 * (roots[i - 1] + v2)) < 0.0:
        v1 = roots[i - 1]
    hint = "generic"
    if (v3 - v2) < 0.02 * max(roots[-1] - roots[0], abs(v2) + abs(v3)):
        hint = "near_harmonic"
    elif v1 is not None and (v2 - v1) / (v3 - v2) < 0.02:
        hint = "near_soliton"
    return OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=hint, T=T)


def bracket_near_limit(model: ModelSpec, params: WaveParams, center: float,
                       side: str) -> OrbitBracket:
    """Turning points for a wave close to a distinguished limit.

    The two roots straddling ``center`` (the well minimum on the harmonic
    side, the saddle on the soliton side) are solved in shifted
    coordinates w = v - center, which keeps their *gap* accurate to
    relative rounding even when it is 1e-10 of the window.  No degeneracy
    cutoff applies here; callers sweep knowingly close to the limit.
    The bracket keeps the slope rule (T' > 0 at v2, T' < 0 at v3):
    a harmonic turning point that breaks it is re-picked below the
    saddle hump (``DegenerateOrbit`` if there is none), and a soliton
    bracket that breaks it raises ``NoPeriodicOrbit``.
    """
    T, _ = level_polynomial(model, params)
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
    # far roots in the domain from the quotient deflated in w, polished on T
    q, _ = pdeflate(Tc, wm)
    q, _ = pdeflate(q, wp)
    far = _real_roots_in(T, *_window_in_domain(model), q=q, at=center)
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
    bracket = OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=hint, T=T)
    if side == "harmonic":
        # just above the saddle level Newton ends beside a complex pair,
        # where T is small enough to pass the root check; the quotient
        # then keeps the pair's reflection, a root next to wm or wp.  The
        # Newton step |q / q'| to it reads <= 5e-6 of the well width there,
        # and >= 7.5e-4 on wells up to 0.999999 of the way to the saddle
        qd = pder(q)
        for w in (wm, wp):
            dq = peval(qd, w)
            if dq != 0.0 and abs(peval(q, w) / dq) < 1e-4 * (wp - wm):
                raise DegenerateOrbit(
                    f"turning point {center + w!r} is a double root: another "
                    f"root lies within 1e-4 x the gap {wp - wm:.3g}; "
                    f"bracket it about the saddle")
    # the slope rule: a bracket bounds a well only if T rises through v2
    # and falls through v3
    if side == "soliton":
        if not peval(Td, wp) > 0.0 > peval(Td, v3 - center):
            raise NoPeriodicOrbit(
                f"level mu = {params.mu} cuts no well beyond the saddle")
        return bracket
    rises, falls = peval(Td, wm) > 0.0, peval(Td, wp) < 0.0
    if rises and falls:
        return bracket
    # Newton that ends on the wrong slope ran over the saddle hump: the
    # turning point is the far root nearest the well bottom, if any
    if not rises:
        v2 = max((r for r in far if v2 < r < center), default=None)
    if not falls:
        v3 = min((r for r in far if center < r < v3), default=None)
    if v2 is None or v3 is None:
        raise DegenerateOrbit(
            f"level mu = {params.mu} cuts no well about {center}: no root "
            f"between the well bottom and the saddle hump")
    # a Newton end point left of a re-picked v2 is a root, so it may be v1
    v1 = max([r for r in far + [center + wm] if r < v2], default=None)
    return OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=hint, T=T)


# ----------------------------------------------------------------------------
# orbit integrals


def _integrand_stack(model: ModelSpec, params: WaveParams,
                     q: np.ndarray) -> np.ndarray:
    """Packed polynomial stack the hot kernel evaluates at the nodes.

    Rows: -q, the level polynomial (mu - W) D with the orbit's turning
    points divided out, then the model's rows (D, the kappa numerator
    and denominator, the f numerator and denominator and, on two-field
    models, tau) and, on two-field models, G = -(lam2 + c v / b).
    """
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
    doubled-order estimate exceeds ``QUAD_RTOL`` relative to the period,
    or when an integral is not finite.
    """
    xp1, wgt, s, c, s2, wq4 = _node_set(quad_order)
    n = quad_order
    v2, v3, v1 = bracket.v2, bracket.v3, bracket.v1
    q, _ = pdeflate(bracket.T, v2)
    q, _ = pdeflate(q, v3)
    if v1 is not None:
        q, _ = pdeflate(q, v1)
    packed = _integrand_stack(model, params, q)
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
    # np.max keeps a NaN, which the negated test below refuses
    err = float(np.max(num)) / scale
    if not err <= QUAD_RTOL:
        raise QuadratureNotConverged(
            f"quadrature error {err:.3e} above rtol {QUAD_RTOL:.1e} "
            f"(order {quad_order})")
    return OrbitIntegrals(Xi=Xi, int_U=int_U, int_Q=Q, theta=theta, int_E=E,
                          quad_error=err)


def homoclinic_integrals(model: ModelSpec, params: WaveParams, q: np.ndarray,
                         vs: float, vS: float) -> tuple[float, float, float]:
    """(M, dcM, error) of the solitary orbit from the saddle vs to vS.

    ``q`` is the saddle-level polynomial T / (v - vs)^2, where mu_s - W =
    (v - vs)^2 (vS - v) P(v) / D(v).  As in orbit_integrals, both Gauss
    orders run on one node set and one kernel call; the error is their
    relative gap, and QuadratureNotConverged is raised above ``QUAD_RTOL``
    or when either integral is not finite.
    """
    _, _, s, cth, _, wq4 = _node_set(HOMOCLINIC_ORDER)
    n = HOMOCLINIC_ORDER
    q, _ = pdeflate(q, vS)
    v = vS - (vS - vs) * s * s
    vals = kernels.horner_batch(_integrand_stack(model, params, q), v)
    Pv, Dv, Knv, Kdv = vals[:4]
    kap = Knv / Kdv
    dv = 2.0 * (vS - vs) * s * cth
    # action integrand sqrt(2 kappa (mu_s - W))
    act = (v - vs) * np.sqrt(2.0 * kap * (vS - vs) * Pv / Dv) * s
    # impulse-bracket integrand over the diverging arclength measure;
    # the bracket's quadratic vanishing at vs cancels the divergence
    meas = np.sqrt(kap * Dv / (2.0 * (vS - vs) * Pv)) / s
    if model.kind == "scalar":
        qb = (v - vs) / (2.0 * model.b)
    else:
        t0, t1 = model.tau
        gs = -(params.c / model.b * vs + params.lam2) / (t0 + t1 * vs)
        qb = (vals[7] / vals[6] - gs) / model.b
    # M and dcM of the order-n pass on [0, n), then of order 2n on [n, 3n)
    fM, fq = wq4 * act * dv, wq4 * qb * meas * dv
    (cM, cq), (M, dcM) = [(0.5 * float(fM[a:b].sum()),
                           0.5 * float(fq[a:b].sum()))
                          for a, b in ((0, n), (n, 3 * n))]
    err = float(np.max([abs(M - cM) / max(abs(M), 1e-300),
                        abs(dcM - cq) / max(abs(dcM), 1e-300)]))
    if not err <= QUAD_RTOL:
        raise QuadratureNotConverged(
            f"homoclinic integral error {err:.2e} above rtol {QUAD_RTOL:.1e}")
    return M, dcM, err


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
