"""Distinguished limits of the wave family: harmonic and soliton anchors.

Both ends of a periodic-wave branch degenerate: amplitude -> 0 at a well
minimum of the potential (harmonic wavetrains), wavelength -> infinity at
a saddle level (solitary waves).  This module computes the limit points
with their closed-form data, the frame vectors whose cancellations
organize the action asymptotics, the explicit limiting modulation
matrices on both boundaries, and the two-by-two toy model that isolates
the double-characteristic splitting mechanism.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateWell, GroupVelocityResonance,
                     NoSaddle, NoWellMinimum, SpeedResonance)
from .models import ModelSpec, WaveParams, structural_matrices
from .polys import padd, pder, pdeflate, pmul, pscale
from .profiles import (_real_roots_in, _window_in_domain, homoclinic_integrals,
                       level_polynomial)

RESONANCE_TOL = 1e-10


# ----------------------------------------------------------------------------
# frame vectors


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


def frame_vectors(model: ModelSpec, v: float, c: float = 0.0,
                  lam2: float = 0.0) -> LimitFrame:
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
    d3_kka_H: float
    frame: LimitFrame
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
    frame: LimitFrame
    lambda_residual: float = 0.0
    quad_error: float = 0.0


def _critical_points(model: ModelSpec, params: WaveParams, window):
    """Roots of W' in the window with their curvature sign."""
    num, den = model.potential_rational(params)
    # W' = (num' den - num den') / den^2; roots from the numerator
    wp = padd(pmul(pder(num), den), pscale(pmul(num, pder(den)), -1.0))
    lo, hi = window
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


def harmonic_point(model: ModelSpec, c: float, lam,
                   window=None) -> HarmonicPoint:
    """Locate the well minimum of the family (c, lambda) and its limit data.

    Raises NoWellMinimum / DegenerateWell; for two-field models the
    resonance-free harmonic speed branch is identified from the sign of
    the reduced-velocity slope.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    params = WaveParams(0.0, c, lam)
    lo, hi = _window_in_domain(model, window)
    minima = [(x, w2) for x, w2 in _critical_points(model, params, (lo, hi))
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
        d3 = 6.0 * b * w2 / k0
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
        d3 = b * w2 * (-w2 + 3.0 * tj[0] * gv * gv) / (k0 * tj[0] * gv ** 3)
        disp_hyp = (fj[2] + 0.5 * tj[2] * g * g) > 0.0
        branch = "plus" if gv > 0 else "minus"
    frame = frame_vectors(model, v0, c, float(lam[-1]))
    return HarmonicPoint(v0=v0, mu0=mu0, c=c, lam=lam, U0=U0, k0=k0, Xi0=Xi0,
                         c0=c0, vg=vg, a0=a0, b0=b0, w0=w0, grad_c0=grad_c0,
                         d3_kka_H=d3, frame=frame,
                         dispersionless_hyperbolic=disp_hyp, branch=branch)


def _lambda_at_endstate(model: ModelSpec, c: float, Us: np.ndarray) -> np.ndarray:
    grad = model.hamiltonian_gradient(Us) + c * model.impulse_gradient(Us)
    return -grad


def _homoclinic_orbit(model: ModelSpec, c: float, lam: np.ndarray, window,
                      near: float | None = None):
    """Saddle vs of W, outer root vS of mu_s - W and the homoclinic integrals.

    Returns (params at mu_s, vs, W''(vs), vS, (M, dcM, quad_error)) for the
    family (c, lambda).  The saddle must be unique in the window unless
    ``near`` is given, in which case the saddle closest to it is taken.
    """
    lo, hi = window
    params = WaveParams(0.0, c, lam)
    saddles = [(x, w2) for x, w2 in _critical_points(model, params, (lo, hi))
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


def soliton_point(model: ModelSpec, c: float, endstate,
                  window=None) -> SolitonPoint:
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
    sp = _soliton_point_at_lambda(model, c, _lambda_at_endstate(model, c, Us),
                                  window)
    if np.any(np.abs(sp.Us - Us) > 1e-9 * np.maximum(1.0, np.abs(Us))):
        raise NoSaddle(f"endstate {Us.tolist()} is not the saddle of its "
                       f"family (saddle at Us = {sp.Us.tolist()})")
    return sp


def _soliton_point_at_lambda(model: ModelSpec, c: float, lam,
                             window=None) -> SolitonPoint:
    """Soliton anchor of the family (c, lambda).

    The c- and endstate-derivatives of the moment are taken at the fixed
    endstate U_s of this anchor.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    win = _window_in_domain(model, window)
    params, vs, w2, vS, (Mval, dcM, qerr) = _homoclinic_orbit(model, c, lam, win)
    if model.kind == "scalar":
        Us = np.array([vs])
    else:
        Us = np.array([vs, model.velocity_jet(vs, c, float(lam[1]))[0]])
    lam_res = float(np.max(np.abs(_lambda_at_endstate(model, c, Us) - lam)))
    XiS = 2.0 * math.pi * math.sqrt(model.kappa_jet(vs, 0)[0] / (-w2))

    def M_of(c_, Us_):
        lam_ = _lambda_at_endstate(model, c_, Us_)
        return _homoclinic_orbit(model, c_, lam_, win, near=vs)[-1]

    hc = 1e-5 * max(1.0, abs(c))
    dc2M = (M_of(c + hc, Us)[1] - M_of(c - hc, Us)[1]) / (2.0 * hc)
    gradUM = np.zeros(model.N)
    for j in range(model.N):
        hU = 1e-5 * max(1.0, abs(Us[j]))
        e = np.zeros(model.N)
        e[j] = hU
        gradUM[j] = (M_of(c, Us + e)[0] - M_of(c, Us - e)[0]) / (2.0 * hU)
    frame = frame_vectors(model, vs, c, float(lam[-1]))
    return SolitonPoint(vs=vs, vS=vS, mus=params.mu, cs=c, Us=Us, lambdas=lam,
                        XiS=XiS, boussinesq=Mval, dcM=dcM, dc2M=dc2M,
                        gradUM=gradUM, frame=frame, lambda_residual=lam_res,
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
    Wlim = -sm.BB @ hessH
    Pt = np.eye(n)
    sol = np.linalg.solve(Mg, gc)
    Pt[0, 2:] = -k0 * (sm.Binv @ sol)
    Pt[2:, 1] = k0 * sol
    block = np.zeros((n, n))
    block[0, 0] = block[1, 1] = hp.vg
    block[0, 1] = a_tilde0
    block[2:, 2:] = -sm.B @ H2
    resid = float(np.max(np.abs(np.linalg.solve(Pt, Wlim @ Pt) - block)))
    return {"hessH_limit": hessH, "W_limit": Wlim, "a_tilde0": a_tilde0,
            "d2aH": d2aH, "P_tilde0": Pt, "block": block,
            "block_residual": resid, "dispersionless": -sm.B @ H2}


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
    Wlim = -sm.BB @ hessH
    Pt = np.eye(n)
    Pt[1, 2:] = np.linalg.solve(Mc, gM) @ sm.Binv
    Pt[2:, 0] = -np.linalg.solve(Mc, gM)
    block = np.zeros((n, n))
    block[0, 0] = block[1, 1] = sp.cs
    block[2:, 2:] = -sm.B @ H2
    resid = float(np.max(np.abs(np.linalg.solve(Pt, Wlim @ Pt) - block)))
    return {"hessH_limit": hessH, "W_limit": Wlim, "dk2H_limit": dk2H,
            "P_tildeS": Pt, "block": block, "block_residual": resid,
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
    Bc = a_tilde + eps * delta_prime
    Cc = eps * delta
    disc = Bc * Cc
    sq = cmath.sqrt(disc)
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
    if Bc != 0.0:
        vecs = np.array([[1.0, 1.0],
                         [sq / Bc, -sq / Bc]], dtype=complex)
    elif Cc != 0.0:
        vecs = np.array([[sq / Cc, -sq / Cc],
                         [1.0, 1.0]], dtype=complex)
    else:
        vecs = np.eye(2, dtype=complex)
    expansion = None
    if a_tilde != 0.0 and delta * a_tilde > 0.0 and eps > 0.0:
        lead = math.sqrt(eps * delta * a_tilde)
        expansion = max(abs(z1 - (v + lead)), abs(z2 - (v - lead)))
    return {"eigenvalues": np.array([z1, z2]), "eigenvectors": vecs,
            "classification": cls, "expansion_residual": expansion}
