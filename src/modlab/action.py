"""Abbreviated action of the wave family: value, gradient, Hessian.

The action Theta(mu, c, lambda) is the period integral of the profile
Lagrangian plus mu; along an orbit it reduces to twice the period
integral of (mu - W), which the quadrature engine returns directly.
Its gradient collects the period and the period-integrated impulse and
means; the Hessian is obtained by central differences of that gradient
(the twice-differentiated integrand diverges at the turning points, so
differentiation under the integral is not an option here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateOrbit, MultipleWells, NoPeriodicOrbit,
                     StencilLeftBranch)
from .models import ModelSpec, WaveParams
from .polys import pder, peval
from .profiles import (DEFAULT_QUAD_ORDER, OrbitBracket, _newton_refine,
                       _shift_scale_combine, bracket_near_limit,
                       find_turning_points, orbit_integrals)


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference policy for the action Hessian.

    Near a distinguished limit, ``limit_mu`` is its level (mu0 or mu_s),
    ``limit_center`` its state (v0 or vs) and ``limit_side`` which limit
    it is ("harmonic" or "soliton").
    """

    rel_step: float = 1e-5
    richardson: bool = False
    limit_mu: float | None = None
    limit_center: float | None = None
    limit_side: str | None = None
    quad_order: int = DEFAULT_QUAD_ORDER


@dataclass(frozen=True)
class ActionJet:
    """Action value with first and second derivatives and diagnostics."""

    theta: float
    grad: np.ndarray
    hess: np.ndarray
    params: WaveParams
    fd_step: np.ndarray
    symmetry_residual: float
    quad_error: float
    warnings: tuple = ()
    negative_signature: int = field(init=False, default=0)
    determinant: float = field(init=False, default=0.0)

    def __post_init__(self):
        evals = np.linalg.eigvalsh(self.hess)
        object.__setattr__(self, "negative_signature", int((evals < 0).sum()))
        object.__setattr__(self, "determinant", float(np.prod(evals)))


def rebracket(model: ModelSpec, params: WaveParams,
              reference: OrbitBracket) -> OrbitBracket:
    """Track the turning points to nearby parameters (warm-start Newton)."""
    num, den = model.potential_rational(params)
    T = _shift_scale_combine(params.mu, den, num)
    Td = pder(T)

    def polish(x0):
        width = max(1e-3 * (reference.v3 - reference.v2), 1e-12 * abs(x0) + 1e-300)
        return _newton_refine(T, Td, x0, x0 - 1e6 * width, x0 + 1e6 * width, 1e-15)

    v2 = polish(reference.v2)
    v3 = polish(reference.v3)
    v1 = polish(reference.v1) if reference.v1 is not None else None
    if not v2 < v3:
        raise DegenerateOrbit("turning points crossed while tracking")
    if v1 is not None and not v1 < v2:
        raise DegenerateOrbit("inner root crossed while tracking")
    return OrbitBracket(v2=v2, v3=v3, v1=v1, regime_hint=reference.regime_hint,
                        root_residuals=(abs(peval(T, v2) / peval(den, v2)),
                                        abs(peval(T, v3) / peval(den, v3))))


def action_value(model: ModelSpec, params: WaveParams, bracket: OrbitBracket,
                 quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Theta at one parameter point (positive for a genuine orbit)."""
    return orbit_integrals(model, params, bracket, quad_order).theta


def action_gradient(model: ModelSpec, params: WaveParams,
                    bracket: OrbitBracket,
                    quad_order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """(d Theta/d mu, d/dc, d/d lambda) = (period, impulse, mean integrals)."""
    return orbit_integrals(model, params, bracket, quad_order).grad_theta


def _bracket_at(model: ModelSpec, params: WaveParams, base: OrbitBracket,
                cfg: FDConfig) -> OrbitBracket:
    if cfg.limit_center is not None and cfg.limit_side is not None:
        return bracket_near_limit(model, params, cfg.limit_center,
                                  cfg.limit_side)
    return rebracket(model, params, base)


def default_scales(params: WaveParams) -> np.ndarray:
    return np.maximum(1.0, np.abs(params.as_vector()))


def action_hessian(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket,
                   fd_config: FDConfig | None = None) -> ActionJet:
    """Central-difference Hessian of the action gradient.

    Steps follow ``max(rel_step, cbrt(quad_error)) * scale`` per
    direction, shrink in mu near a known soliton level, and every stencil
    point is re-bracketed; a stencil point that crosses a distinguished
    limit raises StencilLeftBranch.
    """
    cfg = fd_config or FDConfig()
    base = orbit_integrals(model, params, bracket, cfg.quad_order)
    n = 2 + len(params.lam)
    rel = max(cfg.rel_step, base.quad_error ** (1.0 / 3.0))
    steps = rel * default_scales(params)
    warnings = []
    if cfg.limit_mu is not None:
        # the limit level mu*(c, lambda) moves under (c, lambda) steps;
        # the envelope identities give its exact parameter gradient at
        # the distinguished state, which caps every stencil direction
        frac = 0.2 if cfg.richardson else 0.05
        gap = abs(cfg.limit_mu - params.mu)
        sens = np.ones(n)
        if cfg.limit_center is not None:
            vstar = cfg.limit_center
            sens[1] = abs(model.impulse_q(vstar, params.c,
                                          params.lam[-1])) + 1e-3
            sens[2] = abs(vstar) + 1e-3
            if n == 4:
                sens[3] = abs(model.velocity_jet(vstar, params.c,
                                                 params.lam2)[0]) + 1e-3
        steps = np.minimum(steps, frac * gap / sens)
        rho = bracket.rho
        if cfg.limit_side == "soliton" and rho is not None and rho < 1e-3:
            warnings.append(
                f"soliton-side conditioning: rho = {rho:.2e}, "
                f"Hessian entries grow like rho**-2")

    def grad_at(x: np.ndarray) -> np.ndarray:
        p = WaveParams.from_vector(x)
        try:
            b = _bracket_at(model, p, bracket, cfg)
        except (NoPeriodicOrbit, DegenerateOrbit, MultipleWells) as exc:
            raise StencilLeftBranch(
                f"stencil point {x} crossed a limit: {exc}") from exc
        return orbit_integrals(model, p, b, cfg.quad_order).grad_theta

    x0 = params.as_vector()

    def hess_with(hvec: np.ndarray) -> np.ndarray:
        H = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = hvec[j]
            H[:, j] = (grad_at(x0 + e) - grad_at(x0 - e)) / (2.0 * hvec[j])
        return H

    H = hess_with(steps)
    if cfg.richardson:
        H2 = hess_with(0.5 * steps)
        H = (4.0 * H2 - H) / 3.0
    scale = np.max(np.abs(H))
    sym = np.max(np.abs(H - H.T)) / scale if scale > 0 else 0.0
    H = 0.5 * (H + H.T)
    return ActionJet(theta=base.theta, grad=base.grad_theta, hess=H,
                     params=params, fd_step=steps, symmetry_residual=sym,
                     quad_error=base.quad_error, warnings=tuple(warnings))
