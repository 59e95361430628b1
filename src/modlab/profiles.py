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

One stencil point of a near-limit Hessian is one ``bracket_near_limit``
and one ``orbit_integrals``.  Their polynomial work (level polynomial,
shift, derivative, deflation, Newton, root residuals) runs on Python
floats: T and D are float tuples, as every coefficient set of the
model is, and arrays start at the node vectors.  The kernel evaluates
only the integrand rows that vary with v; constant rows enter as
scalars and each model's own rows are packed once.  What remains of a
pass is numpy's per-call overhead on the substitution, the weights and
the reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import kernels
from .errors import (ConfigError, DegenerateOrbit, MultipleWells,
                     NoPeriodicOrbit, QuadratureNotConverged)
from .models import ModelSpec, WaveParams
from .polys import (monomial_coeffs, padd, pdeflate, peval, pder, pmul,
                    pscale, pshift, trim)

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
# numpy's leggauss rules of the default periodic and homoclinic orders,
# stored: nodes then weights of each order in turn, little-endian float64.
# Computing them runs LAPACK on OpenBLAS's threads, which on a shared
# 2-core machine stalled a process's first orbit pass by up to a second
# (leggauss(320): 10-15 ms, stalls of 690-950 ms in about 1 of 10 runs)
_RULE_FILE = Path(__file__).with_name("legendre_rules.f8")
_STORED_ORDERS = (DEFAULT_QUAD_ORDER, 2 * DEFAULT_QUAD_ORDER,
                  HOMOCLINIC_ORDER, 2 * HOMOCLINIC_ORDER)


def _gauss_rule(m: int) -> tuple:
    """leggauss(m): read from the stored rules for their orders."""
    if m not in _STORED_ORDERS:
        return leggauss(m)
    start = 2 * sum(_STORED_ORDERS[:_STORED_ORDERS.index(m)])
    xw = np.fromfile(_RULE_FILE, dtype="<f8", count=2 * m, offset=8 * start)
    return xw[:m], xw[m:]


def _node_set(n: int) -> tuple:
    """The order-n and order-2n rules of one segment, 3n nodes, read-only.

    Raises ConfigError unless n is an integer in [1, MAX_QUAD_ORDER].
    """
    entry = _node_cache.get(n) if type(n) is int else None
    if entry is None:
        if type(n) is not int or not 1 <= n <= MAX_QUAD_ORDER:
            raise ConfigError(f"quad_order must be an integer in "
                              f"[1, {MAX_QUAD_ORDER}], got {n!r}")
        x, w = (np.concatenate(a)
                for a in zip(_gauss_rule(n), _gauss_rule(2 * n)))
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
    T: tuple = field(kw_only=True, compare=False, repr=False)

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
        t = self.T[::-1]
        at = [abs(tk) for tk in t]
        out = []
        for x in (self.v2, self.v3, self.v1):
            if x is not None:
                ax, p, s = abs(x), 0.0, 0.0
                for tk, ak in zip(t, at):
                    p, s = p * x + tk, s * ax + ak
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
                     params: WaveParams) -> tuple[tuple, tuple]:
    """(T, D): the level polynomial T = mu D - N of (mu - W) D, and D."""
    num, den = model.potential_rational(params)
    mu = float(params.mu)
    T = [mu * d for d in den]
    T += [0.0] * (len(num) - len(T))
    for k, nk in enumerate(num):
        T[k] -= nk
    return tuple(trim(T)), den


def _newton_refine(T, Td, x: float, lo: float, hi: float,
                   tol: float) -> float:
    # descending coefficients; Horner runs inline on the floats
    t0, *t = T[::-1]
    d0, *d = Td[::-1]
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


def _real_roots_in(T, lo: float, hi: float, q=None, at: float = 0.0) -> list:
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
            raise NoPeriodicOrbit(_below_the_well(model, params, T, den,
                                                  center, wj[0]))
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


def _below_the_well(model: ModelSpec, params: WaveParams, T: tuple,
                    den: tuple, vs: float, mus: float) -> str:
    """Why a level has no turning point beyond the saddle vs at level mus:
    it lies below the bottom of the well there, by more than its depth."""
    # W' vanishes where (T / D)' = (mu - W)' does: at the roots of T' D - T D'
    crit = padd(pmul(pder(T), den), pscale(pmul(T, pder(den)), -1.0))
    hi = _window_in_domain(model)[1]
    for v in _real_roots_in(crit, vs, hi):
        if not vs < v < hi:
            continue
        wj = model.potential_jet(v, params, 2)
        if wj[2] > 0.0:
            return (f"level mu = {params.mu} lies below the bottom of the "
                    f"well beyond the saddle, W = {wj[0]} at v = {v}: its "
                    f"offset {mus - params.mu:.6g} from the saddle level "
                    f"exceeds the well depth {mus - wj[0]:.6g}")
    return "no outer turning point beyond the saddle"


# ----------------------------------------------------------------------------
# orbit integrals


# model -> (consts, varying, packed) of its own integrand rows on a
# periodic orbit (D, the kappa and f numerators and denominators, and tau
# on two-field models): each row as a float where it is a nonzero constant
# and None where it goes through the kernel; the ascending coefficients of
# the latter; and their read-only pack, at the width of the longest row
_row_cache: dict = {}


def _constant(row) -> float | None:
    """The value of a row of degree 0 that is not zero, else None.

    Horner gives such a row's value bit for bit at any node, so it enters
    the integrand as a scalar; a zero row keeps the signs of zero that
    Horner at the stack's width gives it, so it goes through the kernel.
    """
    c = trim(row)
    return float(c[0]) if len(c) == 1 and c[0] != 0.0 else None


def _integrand_stack(model: ModelSpec, params: WaveParams, q,
                     at: float | None = None) -> tuple:
    """(packed, rows): the polynomial stack the hot kernel evaluates at the
    nodes, and the integrand rows with a float for each constant one and
    None for each one the kernel gives, in the stack's order.

    Rows, in the order orbit_integrals and homoclinic_integrals unpack
    them: -q, the level polynomial (mu - W) D with the orbit's turning
    points divided out; D; the kappa numerator and denominator; on a
    periodic orbit (``at`` None) the f numerator and denominator; then,
    on two-field models, tau and G = -(lam2 + c v / b), the numerator of
    the reduced velocity g = G / tau.  On a periodic orbit only -q and G
    are formed per call; the model's own rows are packed once, in
    ``_row_cache``.  Every row is padded to the width of the longest, so
    the kernel gives each the bits it gives it in the full stack.  A
    homoclinic orbit passes its saddle as ``at``: its q is in w = v - at,
    its rows shift there, and the kernel evaluates all of them.
    """
    kappa, f = model.kappa, model.f
    nq = [-x for x in q]
    G = [-params.lam2, -(params.c / model.b)] if model.N == 2 else None
    if at is not None:
        rows = [model._rational[1], kappa.coeffs, monomial_coeffs(kappa.shift)]
        if G is not None:
            rows += [model.tau, G]
        packed = kernels.pack_rows([nq, *(pshift(r, at) for r in rows)])
        return packed, [None] * len(packed)
    entry = _row_cache.get(model)
    if entry is None:
        fixed = [model._rational[1], kappa.coeffs,
                 monomial_coeffs(kappa.shift), f.coeffs,
                 monomial_coeffs(f.shift)]
        if G is not None:
            fixed.append(model.tau)
        consts = [_constant(r) for r in fixed]
        varying = [r for r, x in zip(fixed, consts) if x is None]
        packed = kernels.pack_rows(varying, max(map(len, fixed)))
        packed.flags.writeable = False
        entry = _row_cache[model] = (consts, varying, packed)
    consts, varying, packed = entry
    rows, stack = [_constant(nq), *consts], varying
    if rows[0] is None:
        stack = [nq, *stack]
    if G is not None:
        rows.append(_constant(G))
        if rows[-1] is None:
            stack = [*stack, G]
    if stack is not varying:
        packed = kernels.pack_rows(stack, max(len(nq), packed.shape[1]))
    return packed, rows


def orbit_integrals(model: ModelSpec, params: WaveParams,
                    bracket: OrbitBracket,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> OrbitIntegrals:
    """Full-period integrals with an order-doubling error estimate.

    The coarse (order n) and fine (order 2n) Gauss passes run on one node
    set: each segment of the orbit lays its n and 2n nodes side by side,
    the substitution and the integrand are formed in place over all of
    them, and each (pass, segment) block is evaluated on its own
    contiguous slice.  One ``np.vecdot`` per pass reduces all integrand
    rows of each of its blocks on that slice.  Only the rows that vary
    with v go through the kernel; constant ones enter as scalars, which
    gives the same bits.  Raises
    QuadratureNotConverged when the doubled-order estimate exceeds
    ``QUAD_RTOL`` relative to the period, or when an integral is not
    finite.
    """
    xp1, wgt, s, c, s2, wq4 = _node_set(quad_order)
    n = quad_order
    v2, v3, v1 = bracket.v2, bracket.v3, bracket.v1
    q, _ = pdeflate(bracket.T, v2)
    q, _ = pdeflate(q, v3)
    if v1 is not None:
        q, _ = pdeflate(q, v1)
    packed, rows = _integrand_stack(model, params, q)
    # the rows each block reduces, on one node layout: v first, the
    # (mu - W) pair factor last
    R = np.empty((3 + model.N, (3 if v1 is None else 6) * n))
    v, pair = R[0], R[-1]
    if v1 is None:
        # single trigonometric substitution over the whole well
        np.multiply(s2, v3 - v2, out=v)
        v += v2
        np.multiply(s2, (v3 - v2) ** 2, out=pair)
        pair *= 1.0 - s2
        dxi_core = math.sqrt(0.5)
        wq = wq4
        blocks = ((0, n), (n, 3 * n))
    else:
        vm = 0.5 * (v2 + v3)
        # the lower segment on [0, 3n), the upper one on [3n, 6n)
        vlo, vup = v[:3 * n], v[3 * n:]
        plo, pup = pair[:3 * n], pair[3 * n:]
        dxi_core, wq = np.empty_like(v), np.empty_like(v)
        dlo, dup = dxi_core[:3 * n], dxi_core[3 * n:]
        # lower segment: hyperbolic substitution absorbing the (v1, v2) pair
        psim = math.acosh(math.sqrt((vm - v1) / (v2 - v1)))
        ps = xp1 * (psim / 2.0)
        ch, sh = np.cosh(ps), np.sinh(ps)
        np.multiply(ch, v2 - v1, out=vlo)
        vlo *= ch
        vlo += v1
        # upper segment: trigonometric substitution at the outer root v3
        top = s * (v3 - vm)
        top *= s
        np.subtract(v3, top, out=vup)
        gap, a1, a2 = v3 - vlo, vup - v1, vup - v2
        ch *= sh
        ch *= ch
        ch *= (v2 - v1) ** 2
        np.multiply(ch, gap, out=plo)
        np.multiply(top, a1, out=pup)
        pup *= a2
        np.divide(0.5, gap, out=dlo)
        np.multiply(a1, a2, out=dup)
        np.divide(0.5 * (v3 - vm), dup, out=dup)
        np.sqrt(dxi_core, out=dxi_core)
        dup *= c
        # wq carries the full-period weight (2 x the half-period sweep)
        np.multiply(wgt, psim / 2.0, out=wq[:3 * n])
        wq[:3 * n] *= 4.0
        wq[3 * n:] = wq4
        blocks = ((0, n), (n, 3 * n), (3 * n, 4 * n), (4 * n, 6 * n))
    vals = iter(np.concatenate([kernels.horner_batch(packed, v[a:b])
                                for a, b in blocks], axis=1))
    Pv, denv, knv, kdv, fnv, fdv, *ek = [next(vals) if x is None else x
                                         for x in rows]
    # mu - W
    pair *= Pv
    pair /= denv
    w = wq * (dxi_core * np.sqrt(knv * denv / (kdv * Pv)))
    if model.N == 1:
        np.multiply(v, v, out=R[1])
        R[1] /= 2.0 * model.b
        np.divide(fnv, fdv, out=R[2])
    else:
        tauv, Gv = ek
        g = np.divide(Gv, tauv, out=R[1])
        np.multiply(v, g, out=R[2])
        R[2] /= model.b
        np.multiply(0.5 * tauv, g, out=R[3])
        R[3] *= g
        R[3] += fnv / fdv
    # per pass: the period, int_U, int_Q, int_E and the integral of mu - W;
    # each (pass, segment) block is reduced on its own slice, and the
    # segments add up lower first
    R3, w3 = R.reshape(len(R), -1, 3 * n), w.reshape(-1, 3 * n)
    sums = []
    for a, b in ((0, n), (n, 3 * n)):
        per = np.vecdot(R3[:, :, a:b], w3[:, a:b]).tolist()
        per.insert(0, np.add.reduce(w3[:, a:b], axis=1).tolist())
        sums.append([x[0] if v1 is None else x[0] + x[1] for x in per])
    (cXi, *cU, cQ, cE, cW), (Xi, *U, Q, E, Iw) = sums
    theta = 2.0 * Iw
    gaps = [abs(Xi - cXi), abs(Q - cQ), abs(theta - 2.0 * cW), abs(E - cE),
            *(abs(u - cu) for u, cu in zip(U, cU))]
    scale = max(abs(Xi), abs(theta), 1e-300)
    # a NaN gap is the largest, which the negated test below refuses
    err = (max(gaps) if all(x == x for x in gaps) else math.nan) / scale
    if not err <= QUAD_RTOL:
        raise QuadratureNotConverged(
            f"quadrature error {err:.3e} above rtol {QUAD_RTOL:.1e} "
            f"(order {quad_order})")
    return OrbitIntegrals(Xi=Xi, int_U=np.array(U), int_Q=Q, theta=theta,
                          int_E=E, quad_error=err)


def homoclinic_integrals(model: ModelSpec, params: WaveParams, q: list,
                         vs: float, wS: float) -> tuple:
    """(M, dcM, m, error) of the solitary orbit from the saddle vs to vs + wS,
    with m the mass integrals int (U - U_s) dx over the same half orbit.

    Nodes and rows are in w = v - vs: ``q`` is T(vs + w) / w^2, where
    mu_s - W = w^2 (wS - w) P(w) / D.  As in orbit_integrals, both Gauss
    orders run on one node set and one kernel call; the error is their
    largest relative gap, and QuadratureNotConverged is raised above
    ``QUAD_RTOL`` or when an integral is not finite.
    """
    _, _, s, cth, _, wq4 = _node_set(HOMOCLINIC_ORDER)
    n = HOMOCLINIC_ORDER
    q, _ = pdeflate(q, wS)
    w = wS - wS * s * s
    packed, _ = _integrand_stack(model, params, q, vs)
    Pv, Dv, Knv, Kdv, *ek = kernels.horner_batch(packed, w)
    kap = Knv / Kdv
    dw = 2.0 * wS * s * cth
    # action integrand sqrt(2 kappa (mu_s - W))
    act = w * np.sqrt(2.0 * kap * wS * Pv / Dv) * s
    # impulse-bracket integrand over the diverging arclength measure;
    # the bracket's quadratic vanishing at vs cancels the divergence
    meas = np.sqrt(kap * Dv / (2.0 * wS * Pv)) / s
    # w dx = meas dw gives the masses; on two-field models (g - g_s) / w =
    # (G' - tau' g_s) / tau(v) exactly, tau and G being affine
    if model.kind == "scalar":
        qb, mass, weight = w / (2.0 * model.b), [meas], [1.0]
    else:
        gs = model.velocity_jet(vs, params.c, params.lam2)[0]
        tauv, Gv = ek
        qb, mass = (Gv / tauv - gs) / model.b, [meas, meas / tauv]
        weight = [1.0, -(params.c / model.b) - model.tau[1] * gs]
    # each integral of the order-n pass on [0, n), then of order 2n on [n, 3n)
    rows = [wq4 * act * dw, wq4 * qb * meas * dw,
            *(wq4 * r * dw for r in mass)]
    coarse, fine = [[0.5 * float(r[a:b].sum()) for r in rows]
                    for a, b in ((0, n), (n, 3 * n))]
    err = float(np.max([abs(x - cx) / max(abs(x), 1e-300)
                        for x, cx in zip(fine, coarse)]))
    if not err <= QUAD_RTOL:
        raise QuadratureNotConverged(
            f"homoclinic integral error {err:.2e} above rtol {QUAD_RTOL:.1e}")
    return fine[0], fine[1], np.array(weight) * fine[2:], err


def averaged_state(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket,
                   quad_order: int = DEFAULT_QUAD_ORDER) -> WaveState:
    """Period, means, excess impulse and averaged energies of one wave."""
    o = orbit_integrals(model, params, bracket, quad_order)
    return _state_from_integrals(model, o)


def _state_from_integrals(model: ModelSpec, o: OrbitIntegrals) -> WaveState:
    Xi = o.Xi
    meanU = o.int_U / Xi
    meanQ = o.int_Q / Xi
    alpha = o.int_Q - Xi * model.impulse_value(meanU)
    meanH = (o.int_E + 0.5 * o.theta) / Xi
    meanLH = (0.5 * o.theta - o.int_E) / Xi
    return WaveState(Xi=Xi, k=1.0 / Xi, meanU=meanU, meanQ=meanQ, alpha=alpha,
                     meanH=meanH, meanLH=meanLH, quad_error=o.quad_error)
