"""Distinguished limits of the wave family: harmonic and soliton anchors.

Both ends of a periodic-wave branch degenerate: amplitude -> 0 at a well
minimum of the potential (harmonic wavetrains), wavelength -> infinity at
a saddle level (solitary waves).  This module computes the limit points
with their closed-form data, the explicit limiting modulation matrices
on both boundaries, and the two-by-two toy model that isolates the
double-characteristic splitting mechanism.  The well minimum and the
saddle are looked for in the model domain, the one search window;
narrow it with ``dataclasses.replace(model, domain=...)``.  The
frame-vector identities that organize the action asymptotics are
checked in the test oracles; the sweeps read only the projection
direction S^-1 V, V = (1, q, U).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .action import REL_STEP, _central_differences
from .errors import (ConfigError, DegenerateWell, GroupVelocityResonance,
                     NoSaddle, NoWellMinimum, SpeedResonance)
from .models import ModelSpec, WaveParams, structural_matrices
from .modulation import whitham_matrix
from .polys import padd, pder, pdeflate, pmul, pscale
from .profiles import (_real_roots_in, _window_in_domain, homoclinic_integrals,
                       level_polynomial)

RESONANCE_TOL = 1e-10


# ----------------------------------------------------------------------------
# limit points


@dataclass(frozen=True)
class HarmonicPoint:
    """Zero-amplitude anchor of a wave family."""

    v0: float
    mu0: float
    c: float
    lam: np.ndarray
    U0: np.ndarray
    k0: float
    Xi0: float
    c0: float
    vg: float
    a0: float
    b0: float
    w0: float
    grad_c0: np.ndarray
    dispersionless_hyperbolic: bool
    branch: str = "plus"


@dataclass(frozen=True)
class SolitonPoint:
    """Infinite-wavelength anchor of a wave family."""

    vs: float
    vS: float
    mus: float
    cs: float
    Us: np.ndarray
    lambdas: np.ndarray
    XiS: float
    boussinesq: float
    dcM: float
    dc2M: float
    gradUM: np.ndarray
    lambda_residual: float = 0.0
    quad_error: float = 0.0


def _critical_points(model: ModelSpec, params: WaveParams):
    """Roots of W' in the search window with their curvature sign."""
    num, den = model.potential_rational(params)
    # W' = (num' den - num den') / den^2; roots from the numerator
    wp = padd(pmul(pder(num), den), pscale(pmul(num, pder(den)), -1.0))
    lo, hi = _window_in_domain(model)
    out = []
    for x in _real_roots_in(wp, lo, hi):
        if not lo < x < hi or (
                out and abs(x - out[-1][0]) < 1e-10 * max(1.0, abs(x))):
            continue
        w2 = model.potential_jet(x, params, 2)[2]
        out.append((x, w2))
    return out


def _response_coefficients(K1: float, K2: float, w2: float, w3: float,
                           w4: float):
    """Quadratic-response constants (a0, b0) of the harmonic edge.

    (Xi / Xi0 - 1) / (mu - mu0) -> a0 and (M - v0) / (mu - mu0) -> b0,
    from kappa'/kappa = K1, kappa''/kappa = K2 and the potential
    derivatives W'' = w2, W''' = w3, W'''' = w4 at the well bottom.
    """
    r3 = w3 / w2
    a0 = (0.25 * (K2 - 0.5 * K1 * K1) - 0.25 * K1 * r3
          - 0.125 * w4 / w2 + (5.0 / 24.0) * r3 * r3) / w2
    b0 = 0.5 * (K1 - r3) / w2
    return a0, b0


def harmonic_point(model: ModelSpec, c: float, lam) -> HarmonicPoint:
    """Locate the well minimum of the family (c, lambda) and its limit data.

    Raises NoWellMinimum / DegenerateWell; for two-field models the
    resonance-free harmonic speed branch is identified from the sign of
    the reduced-velocity slope.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    params = WaveParams(0.0, c, lam)
    lo, hi = _window_in_domain(model)
    minima = [(x, w2) for x, w2 in _critical_points(model, params)
              if w2 > 0.0]
    if not minima:
        raise NoWellMinimum(f"no well minimum of W in ({lo}, {hi})")
    if len(minima) > 1:
        raise NoWellMinimum(
            f"{len(minima)} well minima in ({lo}, {hi}); narrow the window")
    v0, w2 = minima[0]
    if w2 <= 1e-12:
        raise DegenerateWell(f"W''({v0}) = {w2:.2e}")
    wj = model.potential_jet(v0, params, 4)
    kj = model.kappa_jet(v0, 2)
    mu0 = wj[0]
    k0 = math.sqrt(w2 / kj[0]) / (2.0 * math.pi)
    Xi0 = 1.0 / k0
    b = model.b
    K1 = kj[1] / kj[0]
    a0, b0 = _response_coefficients(K1, kj[2] / kj[0], w2, wj[3], wj[4])
    if model.kind == "scalar":
        U0 = np.array([v0])
        c0 = -b * (model.f_jet(v0, 2)[2] + w2)
        vg = c0 - 2.0 * b * w2
        grad_c0 = np.array([b * wj[3] - b * K1 * w2])
        w0 = 1.0 / b
        disp_hyp = True
        branch = "plus" if b > 0 else "minus"
    else:
        g, gv, gvv, _ = model.velocity_jet(v0, c, float(lam[1]))
        U0 = np.array([v0, g])
        c0 = c
        vg = c - b * w2 / gv
        tj = model.tau_jet(v0, 3)
        fj = model.f_jet(v0, 3)
        # implicit differentiation of the defining quadratic for c0
        bt = b * tj[1] * g + c
        dPhi_c = 2.0 * bt
        dPhi_v = (2.0 * bt * b * tj[2] * g
                  - b * b * tj[1] * (fj[2] + 0.5 * tj[2] * g * g)
                  - b * b * tj[0] * (fj[3] + 0.5 * tj[3] * g * g)
                  - b * b * (tj[1] * kj[0] + tj[0] * kj[1])
                  * (2.0 * math.pi * k0) ** 2)
        dPhi_u = 2.0 * bt * b * tj[1] - b * b * tj[0] * tj[2] * g
        grad_c0 = -np.array([dPhi_v, dPhi_u]) / dPhi_c
        w0 = 2.0 * gv / b
        disp_hyp = (fj[2] + 0.5 * tj[2] * g * g) > 0.0
        branch = "plus" if gv > 0 else "minus"
    return HarmonicPoint(v0=v0, mu0=mu0, c=c, lam=lam, U0=U0, k0=k0, Xi0=Xi0,
                         c0=c0, vg=vg, a0=a0, b0=b0, w0=w0, grad_c0=grad_c0,
                         dispersionless_hyperbolic=disp_hyp, branch=branch)


def _lambda_at_endstate(model: ModelSpec, c: float, Us: np.ndarray) -> np.ndarray:
    grad = model.hamiltonian_gradient(Us) + c * model.impulse_gradient(Us)
    return -grad


def _homoclinic_orbit(model: ModelSpec, c: float, lam: np.ndarray,
                      near: float | None = None):
    """Saddle vs of W, outer root vS of mu_s - W and the homoclinic integrals.

    Returns (params at mu_s, vs, W''(vs), vS, (M, dcM, quad_error)) for the
    family (c, lambda).  The saddle must be unique in the search window
    unless ``near`` is given, in which case the saddle closest to it is
    taken.
    """
    lo, hi = _window_in_domain(model)
    params = WaveParams(0.0, c, lam)
    saddles = [(x, w2) for x, w2 in _critical_points(model, params)
               if w2 < 0.0]
    if not saddles:
        raise NoSaddle(f"no saddle of W in ({lo}, {hi})")
    if near is not None:
        vs, w2 = min(saddles, key=lambda t: abs(t[0] - near))
    elif len(saddles) > 1:
        raise NoSaddle(f"{len(saddles)} saddles in ({lo}, {hi}); narrow the window")
    else:
        vs, w2 = saddles[0]
    params = WaveParams(model.potential_jet(vs, params, 0)[0], c, lam)
    # outer root of mu_s - W beyond the right well
    T, _ = level_polynomial(model, params)
    q, _ = pdeflate(T, vs)
    q, _ = pdeflate(q, vs)
    cands = [x for x in _real_roots_in(T, vs, hi, q=q)
             if x > vs + 1e-12 * max(1.0, abs(vs))]
    if not cands:
        raise NoSaddle("no outer turning level right of the saddle")
    vS = min(cands)
    return params, vs, w2, vS, homoclinic_integrals(model, params, q, vs, vS)


def soliton_point(model: ModelSpec, c: float, endstate) -> SolitonPoint:
    """Saddle point of W with its homoclinic orbit data at a fixed endstate.

    ``endstate`` is the solitary wave's endstate U_s (length N); the
    family's lambda is reconstructed from it.  The adjacent well is
    expected on the right of the saddle.  Raises NoSaddle when the saddle
    of that family is not the endstate (e.g. the endstate is a well
    bottom).
    """
    Us = np.atleast_1d(np.asarray(endstate, dtype=float))
    if Us.shape[0] != model.N:
        raise ConfigError(f"endstate must have {model.N} component(s)")
    sp = _soliton_point_at_lambda(model, c, _lambda_at_endstate(model, c, Us))
    if np.any(np.abs(sp.Us - Us) > 1e-9 * np.maximum(1.0, np.abs(Us))):
        raise NoSaddle(f"endstate {Us.tolist()} is not the saddle of its "
                       f"family (saddle at Us = {sp.Us.tolist()})")
    return sp


def _soliton_point_at_lambda(model: ModelSpec, c: float, lam) -> SolitonPoint:
    """Soliton anchor of the family (c, lambda).

    The c- and endstate-derivatives of the moment are taken at the fixed
    endstate U_s of this anchor.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    params, vs, w2, vS, (Mval, dcM, qerr) = _homoclinic_orbit(model, c, lam)
    if model.kind == "scalar":
        Us = np.array([vs])
    else:
        Us = np.array([vs, model.velocity_jet(vs, c, float(lam[1]))[0]])
    lam_res = float(np.max(np.abs(_lambda_at_endstate(model, c, Us) - lam)))
    XiS = 2.0 * math.pi * math.sqrt(model.kappa_jet(vs, 0)[0] / (-w2))

    # d2_c M and grad_U M from the Jacobian of (M, d_c M) over x = (c, U_s)
    def moments(x):
        lam_ = _lambda_at_endstate(model, x[0], x[1:])
        return np.array(
            _homoclinic_orbit(model, x[0], lam_, near=vs)[-1][:2])

    x = np.concatenate(([c], Us))
    J = _central_differences(moments, x, REL_STEP * np.maximum(1.0, np.abs(x)))
    dc2M, gradUM = float(J[1, 0]), J[0, 1:]
    return SolitonPoint(vs=vs, vS=vS, mus=params.mu, cs=c, Us=Us, lambdas=lam,
                        XiS=XiS, boussinesq=Mval, dcM=dcM, dc2M=dc2M,
                        gradUM=gradUM, lambda_residual=lam_res,
                        quad_error=qerr)


# ----------------------------------------------------------------------------
# limiting modulation matrices


def limiting_whitham_harmonic(model: ModelSpec, hp: HarmonicPoint) -> dict:
    """Zero-amplitude limit of the modulation matrices and its reduction."""
    sm = structural_matrices(model)
    N = model.N
    H2 = model.hamiltonian_hessian(hp.U0)
    det_vg = np.linalg.det(sm.B @ H2 + hp.vg * np.eye(N))
    scale = max(1.0, float(np.max(np.abs(H2))))
    if abs(det_vg) < RESONANCE_TOL * scale:
        raise GroupVelocityResonance(
            f"group velocity {hp.vg} resonates with the dispersionless matrix")
    k0 = hp.k0
    dkc0 = (hp.vg - hp.c0) / k0
    Mc = H2 + hp.c0 * sm.Binv
    Mg = H2 + hp.vg * sm.Binv
    gc = hp.grad_c0
    d2aH = (k0 ** 4 * dkc0 ** 2 * hp.a0
            + k0 ** 2 * float(gc @ np.linalg.solve(Mc, gc)))
    a_tilde0 = -d2aH + k0 ** 2 * float(gc @ np.linalg.solve(Mg, gc))
    n = N + 2
    hessH = np.zeros((n, n))
    hessH[0, 1] = hessH[1, 0] = -hp.vg
    hessH[1, 1] = d2aH
    hessH[1, 2:] = -k0 * gc
    hessH[2:, 1] = -k0 * gc
    hessH[2:, 2:] = H2
    Wlim = whitham_matrix(model, hessH)
    Pt = np.eye(n)
    sol = np.linalg.solve(Mg, gc)
    Pt[0, 2:] = -k0 * (sm.Binv @ sol)
    Pt[2:, 1] = k0 * sol
    block = np.zeros((n, n))
    block[0, 0] = block[1, 1] = hp.vg
    block[0, 1] = a_tilde0
    block[2:, 2:] = -sm.B @ H2
    resid = float(np.max(np.abs(np.linalg.solve(Pt, Wlim @ Pt) - block)))
    return {"W_limit": Wlim, "a_tilde0": a_tilde0, "block_residual": resid,
            "dispersionless": -sm.B @ H2}


def limiting_whitham_soliton(model: ModelSpec, sp: SolitonPoint) -> dict:
    """Infinite-wavelength limit of the modulation matrices (diagonalizable)."""
    sm = structural_matrices(model)
    N = model.N
    H2 = model.hamiltonian_hessian(sp.Us)
    det_cs = np.linalg.det(sm.B @ H2 + sp.cs * np.eye(N))
    if abs(det_cs) < RESONANCE_TOL * max(1.0, float(np.max(np.abs(H2)))):
        raise SpeedResonance(
            f"soliton speed {sp.cs} resonates with the dispersionless matrix")
    Mc = H2 + sp.cs * sm.Binv
    gM = sp.gradUM
    dk2H = float(gM @ np.linalg.solve(Mc, gM))
    n = N + 2
    hessH = np.zeros((n, n))
    hessH[0, 0] = dk2H
    hessH[0, 1] = hessH[1, 0] = -sp.cs
    hessH[0, 2:] = gM
    hessH[2:, 0] = gM
    hessH[2:, 2:] = H2
    Wlim = whitham_matrix(model, hessH)
    Pt = np.eye(n)
    Pt[1, 2:] = np.linalg.solve(Mc, gM) @ sm.Binv
    Pt[2:, 0] = -np.linalg.solve(Mc, gM)
    block = np.zeros((n, n))
    block[0, 0] = block[1, 1] = sp.cs
    block[2:, 2:] = -sm.B @ H2
    resid = float(np.max(np.abs(np.linalg.solve(Pt, Wlim @ Pt) - block)))
    return {"W_limit": Wlim, "dk2H_limit": dk2H, "block_residual": resid,
            "dispersionless": -sm.B @ H2}


# ----------------------------------------------------------------------------
# toy model for double-root splitting


def toy_double_root(eps: float, v: float, a_tilde: float, delta: float,
                    delta_prime: float) -> dict:
    """Two-by-two family [[v, a+eps d'], [eps d, v]]: exact spectrum and class.

    The off-diagonal pair controls whether the double characteristic v
    splits along the real axis (hyperbolic), leaves it (elliptic), or
    stays defective (weakly hyperbolic).
    """
    sq = cmath.sqrt((a_tilde + eps * delta_prime) * (eps * delta))
    z1, z2 = v + sq, v - sq
    if a_tilde == 0.0:
        if delta == 0.0 and delta_prime == 0.0:
            cls = "hyperbolic"
        elif eps > 0.0 and delta * delta_prime > 0.0:
            cls = "hyperbolic"
        elif eps > 0.0 and delta * delta_prime < 0.0:
            cls = "elliptic"
        else:
            cls = "weakly_hyperbolic"
    else:
        if eps > 0.0 and delta * a_tilde > 0.0:
            cls = "hyperbolic"
        elif eps > 0.0 and delta * a_tilde < 0.0:
            cls = "elliptic"
        else:
            cls = "weakly_hyperbolic"
    expansion = None
    if a_tilde != 0.0 and delta * a_tilde > 0.0 and eps > 0.0:
        lead = math.sqrt(eps * delta * a_tilde)
        expansion = max(abs(z1 - (v + lead)), abs(z2 - (v - lead)))
    return {"eigenvalues": np.array([z1, z2]), "classification": cls,
            "expansion_residual": expansion}
