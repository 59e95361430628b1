"""Abbreviated action of the wave family: its finite-difference Hessian.

The action Theta(mu, c, lambda) is the period integral of the profile
Lagrangian plus mu; along an orbit it reduces to twice the period
integral of (mu - W).  ``profiles.orbit_integrals`` returns its value
(``theta``) and gradient (``grad_theta``: the period and the
period-integrated impulse and means) directly.  The Hessian is obtained
by central differences of that gradient (the twice-differentiated
integrand diverges at the turning points, so differentiation under the
integral is not an option here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateOrbit, MultipleWells, NoPeriodicOrbit,
                     StencilLeftBranch)
from .models import ModelSpec, WaveParams
from .polys import pder
from .profiles import (DEFAULT_QUAD_ORDER, OrbitBracket, _newton_refine,
                       bracket_near_limit, level_polynomial, orbit_integrals)

REL_STEP = 1e-5


@dataclass(frozen=True)
class FDConfig:
    """Generic or near-limit finite-difference policy for the action Hessian.

    ``limit`` is None for a generic wave: central differences with every
    stencil point tracked from the base bracket.  Near a distinguished
    limit it is ``(side, center, level)``: which limit ("harmonic" or
    "soliton"), its state (v0 or vs) and its level (mu0 or mu_s).  Then
    the steps are capped by the gap to that level, every stencil point is
    bracketed about ``center`` and the Hessian is Richardson-extrapolated.
    """

    quad_order: int = DEFAULT_QUAD_ORDER
    limit: tuple | None = None

    @property
    def richardson(self) -> bool:
        return self.limit is not None


@dataclass(frozen=True)
class ActionJet:
    """Action value with first and second derivatives and diagnostics."""

    theta: float
    grad: np.ndarray
    hess: np.ndarray
    symmetry_residual: float
    quad_error: float
    warnings: tuple = ()


def rebracket(model: ModelSpec, params: WaveParams,
              reference: OrbitBracket) -> OrbitBracket:
    """Track the turning points to nearby parameters (warm-start Newton)."""
    T, _ = level_polynomial(model, params)
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
    # past a limit the tracked roots leave the real line: Newton ends its
    # step budget on a point that is no root, which the bracket refuses
    return OrbitBracket(v2=v2, v3=v3, v1=v1,
                        regime_hint=reference.regime_hint, T=T)


def _central_differences(f, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Jacobian of f at x by central differences, column j at step h_j."""
    return np.column_stack([(f(x + e) - f(x - e)) / (2.0 * h)
                            for h, e in zip(steps, np.diag(steps))])


def action_hessian(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket,
                   fd_config: FDConfig | None = None) -> ActionJet:
    """Central-difference Hessian of the action gradient.

    Steps follow ``max(REL_STEP, cbrt(quad_error)) * max(1, |x|)`` per
    direction and every stencil point is re-bracketed; a stencil point
    that crosses a distinguished limit raises StencilLeftBranch.  With a
    near-limit ``fd_config`` the steps are also capped by the gap to the
    limit level.
    """
    cfg = fd_config or FDConfig()
    base = orbit_integrals(model, params, bracket, cfg.quad_order)
    n = 2 + len(params.lam)
    x0 = params.as_vector()
    rel = max(REL_STEP, base.quad_error ** (1.0 / 3.0))
    steps = rel * np.maximum(1.0, np.abs(x0))
    warnings = []
    if cfg.limit is not None:
        side, vstar, level = cfg.limit
        # the limit level mu*(c, lambda) moves under (c, lambda) steps;
        # the envelope identities give its exact parameter gradient at
        # the distinguished state, which caps every stencil direction
        gap = abs(level - params.mu)
        sens = np.ones(n)
        sens[1] = abs(model.impulse_jet(vstar, params.c,
                                        params.lam[-1])[0]) + 1e-3
        sens[2] = abs(vstar) + 1e-3
        if n == 4:
            sens[3] = abs(model.velocity_jet(vstar, params.c,
                                             params.lam2)[0]) + 1e-3
        steps = np.minimum(steps, 0.2 * gap / sens)
        rho = bracket.rho
        if side == "soliton" and rho is not None and rho < 1e-3:
            warnings.append(
                f"soliton-side conditioning: rho = {rho:.2e}, "
                f"Hessian entries grow like rho**-2")

    def grad_at(x: np.ndarray) -> np.ndarray:
        p = WaveParams.from_vector(x)
        try:
            if cfg.limit is None:
                b = rebracket(model, p, bracket)
            else:
                b = bracket_near_limit(model, p, vstar, side)
        except (NoPeriodicOrbit, DegenerateOrbit, MultipleWells) as exc:
            raise StencilLeftBranch(
                f"stencil point {x} crossed a limit: {exc}") from exc
        return orbit_integrals(model, p, b, cfg.quad_order).grad_theta

    H = _central_differences(grad_at, x0, steps)
    if cfg.richardson:
        H2 = _central_differences(grad_at, x0, 0.5 * steps)
        H = (4.0 * H2 - H) / 3.0
    scale = np.max(np.abs(H))
    sym = np.max(np.abs(H - H.T)) / scale if scale > 0 else 0.0
    H = 0.5 * (H + H.T)
    return ActionJet(theta=base.theta, grad=base.grad_theta, hess=H,
                     symmetry_residual=sym, quad_error=base.quad_error,
                     warnings=tuple(warnings))
