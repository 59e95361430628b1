"""Abbreviated action of the wave family: its finite-difference Hessian.

The action Theta(mu, c, lambda) is the period integral of the profile
Lagrangian plus mu; along an orbit it reduces to twice the period
integral of (mu - W).  ``profiles.orbit_integrals`` returns its value
(``theta``) and gradient (``grad_theta``: the period and the
period-integrated impulse and means) directly.  The Hessian is obtained
by central differences of that gradient (the twice-differentiated
integrand diverges at the turning points, so differentiation under the
integral is not an option here); it carries the ``WaveState`` of the
orbit at its stencil centre, with its (k, alpha, M) and quad_error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateOrbit, NoSaddle, OrbitNotFound,
                     StencilLeftBranch)
from .models import ModelSpec, WaveParams
from .polys import pder
from .profiles import (DEFAULT_QUAD_ORDER, OrbitBracket, WaveState,
                       _newton_refine, _state_from_integrals,
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
    """Action Hessian of one wave, its state and diagnostics."""

    state: WaveState
    hess: np.ndarray
    symmetry_residual: float
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


def _central_differences(f, x: np.ndarray, steps: np.ndarray,
                         richardson: bool) -> np.ndarray:
    """Jacobian J(h) of f at x by central differences, column j at step
    h_j, for an f that maps x to a vector of its length; with
    ``richardson``, (4 J(h/2) - J(h)) / 3, formed after J(h).
    A stencil point where f finds no orbit, or a step (h_j / 2 with
    ``richardson``) that rounds away at x_j, is a StencilLeftBranch."""
    smallest = 0.5 * steps if richardson else steps
    for j in np.flatnonzero((x + smallest == x) | (x - smallest == x)):
        raise StencilLeftBranch(f"stencil step {smallest[j]:.3e} rounds away "
                                f"at coordinate {j} = {float(x[j])!r}")

    def at(p):
        try:
            return f(p)
        except (OrbitNotFound, DegenerateOrbit, NoSaddle) as exc:
            raise StencilLeftBranch(
                f"stencil point {p.tolist()} left the family: {exc}") from exc

    # column j at x +- h_j e_j, into a C-ordered J as np.column_stack lays it
    J = np.empty((len(x), len(x)))
    e = np.zeros_like(x)
    for j, h in enumerate(steps.tolist()):
        e[j] = h
        J[:, j] = (at(x + e) - at(x - e)) / (2.0 * h)
        e[j] = 0.0
    if richardson:
        J = (4.0 * _central_differences(f, x, 0.5 * steps, False) - J) / 3.0
    return J


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
        b = (rebracket(model, p, bracket) if cfg.limit is None
             else bracket_near_limit(model, p, vstar, side))
        return orbit_integrals(model, p, b, cfg.quad_order).grad_theta

    H = _central_differences(grad_at, x0, steps, cfg.richardson)
    scale = np.max(np.abs(H))
    sym = np.max(np.abs(H - H.T)) / scale if scale > 0 else 0.0
    H = 0.5 * (H + H.T)
    return ActionJet(state=_state_from_integrals(model, base), hess=H,
                     symmetry_residual=sym, warnings=tuple(warnings))
