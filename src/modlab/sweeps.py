"""Asymptotic sweeps toward the distinguished limits, with rate fits.

A sweep walks a mu-grid toward a harmonic or soliton anchor, computes
the full modulation data at every point, and fits the predicted
asymptotic laws: quadratic-in-amplitude approach of (k, alpha, M) on the
harmonic side, logarithmic period growth and the Hessian blow-up on the
soliton side, and the splitting of the double characteristic on both
sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import FDConfig
from .eigen import eig_small
from .errors import FitRejected, GridDegenerate
from .limits import (HarmonicPoint, SolitonPoint, limiting_whitham_harmonic,
                     limiting_whitham_soliton)
from .models import ModelSpec, WaveParams, structural_matrices
from .modulation import _whitham_assembly
from .profiles import DEFAULT_QUAD_ORDER, bracket_near_limit

R2_GATE = 0.999


@dataclass(frozen=True)
class SweepRow:
    """All per-wave data one sweep point contributes."""

    regime: str
    grid_param: float          # delta (harmonic) or rho (soliton)
    mu: float
    k: float
    alpha: float
    M: np.ndarray
    Xi: float
    eigenvalues: np.ndarray
    eig_residuals: np.ndarray
    eigenvectors: np.ndarray
    whitham: np.ndarray
    d2mu_theta: float
    limit_proj: float          # (S^-1 V)-projection of the action Hessian


@dataclass(frozen=True)
class SweepTable:
    regime: str
    rows: tuple
    anchor: object

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class FitReport:
    regime: str
    fits: dict = field(default_factory=dict)
    r2: dict = field(default_factory=dict)


def linear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line with coefficient of determination."""
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ sol
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(sol[0]), float(sol[1]), r2


def poly_extrapolate(x: np.ndarray, y: np.ndarray, deg: int,
                     rel_floor: float = 1e-5):
    """Polynomial Richardson extrapolation to x = 0.

    The returned quality figure is an effective R^2: when the residual
    scatter around the fit is below ``rel_floor`` relative to the signal
    (the law is resolved to noise), the fit counts as perfect rather
    than penalizing a flat signal.
    """
    deg = min(deg, len(x) - 1)
    c = np.polyfit(x, y, deg)
    pred = np.polyval(c, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    scale = max(abs(float(np.mean(y))), 1e-300)
    rel_rms = math.sqrt(ss_res / len(x)) / scale
    if rel_rms < rel_floor:
        r2 = 1.0
    return float(c[-1]), r2


def _tail(table: SweepTable):
    """The half of the rows closest to the limit (smallest grid parameter)."""
    g = table.column("grid_param")
    order = np.argsort(g)
    keep = order[: max(3, int(math.ceil(len(g) * 0.5)))]
    return sorted(keep)


def _sweep_point(model: ModelSpec, anchor, eps: float,
                 quad_order: int) -> SweepRow:
    if isinstance(anchor, HarmonicPoint):
        regime, center, mu_limit = "harmonic", anchor.v0, anchor.mu0
        mu = anchor.mu0 + eps
        c, lam, U = anchor.c, anchor.lam, anchor.U0
    else:
        regime, center, mu_limit = "soliton", anchor.vs, anchor.mus
        mu = anchor.mus - eps
        c, lam, U = anchor.cs, anchor.lambdas, anchor.Us
    # steps shrink with the gap, so the leading h^2 truncation of the
    # blowing-up soliton-side entries is a constant relative bias;
    # Richardson removes it
    cfg = FDConfig(quad_order=quad_order, limit=(regime, center, mu_limit))
    params = WaveParams(mu, c, lam)
    bracket = bracket_near_limit(model, params, center, regime)
    jet, mv, _, W = _whitham_assembly(model, params, bracket, cfg)
    zs, vecs, resid = eig_small(W)
    # the frame vector V = (1, q, U) at the anchor's state
    q = model.impulse_jet(center, c, float(lam[-1]))[0]
    sv = structural_matrices(model).Sinv @ np.concatenate(([1.0, q], U))
    proj = float(sv @ jet.hess @ sv)
    grid_param = bracket.delta if regime == "harmonic" else bracket.rho
    return SweepRow(regime=regime, grid_param=float(grid_param), mu=mu,
                    k=mv.k, alpha=mv.alpha, M=mv.M, Xi=float(jet.grad[0]),
                    eigenvalues=zs, eig_residuals=resid, eigenvectors=vecs,
                    whitham=W, d2mu_theta=float(jet.hess[0, 0]),
                    limit_proj=proj)


def sweep_table(model: ModelSpec, anchor, offsets,
                quad_order: int = DEFAULT_QUAD_ORDER) -> SweepTable:
    """Evaluate the sweep grid in grid order."""
    offsets = np.asarray(list(offsets), dtype=float)
    if offsets.size < 3 or np.any(offsets <= 0.0) \
            or np.any(np.diff(offsets) >= 0.0):
        raise GridDegenerate(
            "offsets must be a strictly decreasing positive grid (>= 3 points)")
    rows = [_sweep_point(model, anchor, e, quad_order) for e in offsets]
    regime = "harmonic" if isinstance(anchor, HarmonicPoint) else "soliton"
    return SweepTable(regime=regime, rows=tuple(rows), anchor=anchor)


def _fit_harmonic(model: ModelSpec, table: SweepTable) -> FitReport:
    hp: HarmonicPoint = table.anchor
    idx = _tail(table)
    d = table.column("grid_param")[idx]
    dmu = table.column("mu")[idx] - hp.mu0
    k = table.column("k")[idx]
    al = table.column("alpha")[idx]
    Xi = table.column("Xi")[idx]
    M0 = np.array([r.M[0] for r in table.rows])[idx]
    rate, _, r2_rate = linear_fit(np.log(d), np.log(np.abs(k - hp.k0)))
    A, r2_A = poly_extrapolate(d ** 2, al / d ** 2, 1)
    Amu, _ = poly_extrapolate(d ** 2, al / dmu, 1)
    Bc, r2_B = poly_extrapolate(d ** 2, (Xi / hp.Xi0 - 1.0) / d ** 2, 1)
    Mc, r2_M = poly_extrapolate(d ** 2, (M0 - hp.v0) / d ** 2, 1)
    lw = limiting_whitham_harmonic(model, hp)
    wdist = np.array([np.max(np.abs(r.whitham - lw["W_limit"]))
                      for r in table.rows])[idx]
    wrate, _, r2_w = linear_fit(np.log(d), np.log(wdist))
    for name, r2v in (("k_rate", r2_rate), ("alpha", r2_A), ("Xi", r2_B)):
        if r2v < R2_GATE:
            raise FitRejected(f"harmonic {name} fit R^2 = {r2v:.6f} < {R2_GATE}")
    fits = {
        "k_rate_exponent": rate,
        "alpha_over_delta2": A,
        "xi_coeff": Bc,
        "mean_coeff": Mc,
        # amplitude-to-level constant c0 = delta^2 / (4 (mu - mu0))
        # -> 1 / (2 kappa(v0) (2 pi k0)^2) = 1 / (2 W''(v0)); not the
        # harmonic phase speed HarmonicPoint.c0.  Each law is read in its
        # level-offset form: alpha / (mu - mu0) -> w0 c0 / k0,
        # (Xi / Xi0 - 1) / (mu - mu0) -> a0, (M - v0) / (mu - mu0) -> b0
        "c0_from_alpha_law": hp.k0 * Amu / hp.w0,
        "c0_from_xi_law": hp.a0 / (4.0 * Bc),
        "c0_from_mean_law": hp.b0 / (4.0 * Mc),
        # closed form of alpha / delta^2 (c0 cancels in the amplitude form)
        "alpha_coeff_closed": hp.w0 / (4.0 * hp.k0),
        "whitham_limit_rate": wrate,
    }
    r2 = {"k_rate": r2_rate, "alpha": r2_A, "Xi": r2_B, "mean": r2_M,
          "whitham_limit": r2_w}
    return FitReport(regime="harmonic", fits=fits, r2=r2)


def _fit_soliton(model: ModelSpec, table: SweepTable) -> FitReport:
    sp: SolitonPoint = table.anchor
    idx = _tail(table)
    rho = table.column("grid_param")[idx]
    Xi = table.column("Xi")[idx]
    k = table.column("k")[idx]
    al = table.column("alpha")[idx]
    d2t = table.column("d2mu_theta")[idx]
    proj = table.column("limit_proj")[idx]
    L = -np.log(rho)
    slope, intercept, r2_slope = linear_fit(L, Xi)
    E_dot_Xs = -intercept / (sp.XiS / math.pi)
    alpha_lim, r2_alpha = poly_extrapolate(k, al, 3)
    hs_vals = (math.pi / sp.XiS) * d2t * rho ** 2 / (1.0 + rho)
    hs, r2_hs = poly_extrapolate(rho * L, hs_vals, 1)
    d2cM_vals = (math.pi / sp.XiS) * proj * (sp.XiS / math.pi)
    d2cM, r2_proj = poly_extrapolate(rho * L, d2cM_vals, 1)
    for name, r2v in (("Xi_slope", r2_slope), ("alpha", r2_alpha),
                      ("hs", r2_hs)):
        if r2v < R2_GATE:
            raise FitRejected(f"soliton {name} fit R^2 = {r2v:.6f} < {R2_GATE}")
    fits = {
        "xi_slope": slope,                 # -> Xi_s / pi
        "xi_intercept": intercept,
        "E_dot_Xs": E_dot_Xs,
        "alpha_limit": alpha_lim,          # -> d_c M
        "hs": hs,
        "d2cM_projection": d2cM,           # -> d2_c M via the V-projection
    }
    r2 = {"Xi_slope": r2_slope, "alpha": r2_alpha, "hs": r2_hs,
          "d2cM_projection": r2_proj}
    return FitReport(regime="soliton", fits=fits, r2=r2)


def asymptotic_sweep(model: ModelSpec, anchor, offsets,
                     quad_order: int = DEFAULT_QUAD_ORDER):
    """Sweep toward a limit and fit its asymptotic laws.

    Returns (SweepTable, FitReport).  Harmonic fits recover the quadratic
    response constants; soliton fits recover the period slope, the
    impulse limit, the Hessian blow-up constant and both Boussinesq
    projections.
    """
    table = sweep_table(model, anchor, offsets, quad_order)
    if table.regime == "harmonic":
        return table, _fit_harmonic(model, table)
    return table, _fit_soliton(model, table)


# ----------------------------------------------------------------------------
# splitting of the double characteristic


@dataclass(frozen=True)
class SplitReport:
    regime: str
    fits: dict
    r2: dict
    per_point: dict


def _pair_near(zs: np.ndarray, target: float):
    order = np.argsort(np.abs(zs - target))
    pair = np.sort_complex(zs[order[:2]])
    rest = zs[order[2:]]
    return pair, rest


def eigen_splitting_fit(model: ModelSpec, anchor,
                        table: SweepTable) -> SplitReport:
    """Track the eigenvalue pair emerging from the double characteristic.

    Harmonic side: fits splitting^2 / alpha (the instability index) and
    the square-root growth of the second eigenvector component.  Soliton
    side: fits the splitting coefficient against rho/k, the log-log
    convergence rate in rho, and the 1/|log rho| eigenvector drift.
    ``table`` is the evaluated sweep of ``anchor``; it is not modified.
    """
    idx = _tail(table)
    if table.regime == "harmonic":
        hp: HarmonicPoint = table.anchor
        al = table.column("alpha")
        d = table.column("grid_param")
        splits, comp2, noise = [], [], []
        for r in table.rows:
            pair, _ = _pair_near(r.eigenvalues, hp.vg)
            splits.append(0.5 * abs(pair[1] - pair[0]))
            iplus = int(np.argmax(pair.real))
            zplus = pair[iplus]
            jcol = int(np.argmin(np.abs(r.eigenvalues - zplus)))
            w = r.eigenvectors[:, jcol]
            w = w / w[0]
            comp2.append(float(np.real(w[1])))
            noise.append(float(np.max(r.eig_residuals)))
        splits = np.array(splits)
        comp2 = np.array(comp2)
        ratio = splits ** 2 / al
        # fit only where the splitting stands clear of the eigen noise
        ok = np.flatnonzero(splits > 1e4 * np.array(noise))
        if ok.size < 3:
            raise FitRejected("splitting unresolved on the whole grid")
        dmi_fit, r2_dmi = poly_extrapolate(d[ok] ** 2, ratio[ok], 1,
                                           rel_floor=3e-4)
        coef = np.abs(comp2) / np.sqrt(al)
        vec_fit, r2_vec = poly_extrapolate(np.sqrt(al[ok]), coef[ok], 1,
                                           rel_floor=3e-4)
        drift = []
        lw = limiting_whitham_harmonic(model, hp)
        disp = np.sort(eig_small(lw["dispersionless"])[0].real)
        for r in table.rows:
            _, rest = _pair_near(r.eigenvalues, hp.vg)
            drift.append(np.max(np.abs(np.sort(rest.real) - disp)))
        drate, _, r2_dr = linear_fit(np.log(al[idx]),
                                     np.log(np.array(drift)[idx]))
        fits = {"split2_over_alpha": dmi_fit,
                "eigvec_coefficient": vec_fit,
                "dispersionless_drift_rate": drate}
        r2 = {"split2_over_alpha": r2_dmi, "eigvec": r2_vec,
              "drift": r2_dr}
        per_point = {"delta": d, "alpha": al, "splitting": splits,
                     "ratio": ratio, "comp2": comp2}
        return SplitReport(regime="harmonic", fits=fits, r2=r2,
                           per_point=per_point)

    sp: SolitonPoint = table.anchor
    rho = table.column("grid_param")
    k = table.column("k")
    lw = limiting_whitham_soliton(model, sp)
    zl, Vl, _ = eig_small(lw["W_limit"])
    # the eigenvectors with a definite limit are the dispersionless ones;
    # the splitting pair's vectors merge exponentially fast instead
    disp = np.sort(eig_small(lw["dispersionless"])[0].real)
    vlims = []
    for z in disp:
        jz = int(np.argmin(np.abs(zl - z)))
        v = np.real(Vl[:, jz])
        vlims.append(v / np.linalg.norm(v))
    splits, angles = [], []
    for r in table.rows:
        pair, _ = _pair_near(r.eigenvalues, sp.cs)
        splits.append(0.5 * abs(pair[1] - pair[0]))
        worst = 0.0
        for z, vlim in zip(disp, vlims):
            jz = int(np.argmin(np.abs(r.eigenvalues - z)))
            w = np.real(r.eigenvectors[:, jz])
            w = w / np.linalg.norm(w)
            worst = max(worst, math.acos(min(1.0, abs(float(w @ vlim)))))
        angles.append(worst)
    splits = np.array(splits)
    angles = np.array(angles)
    coeff = splits * k / rho
    coef_fit, r2_coef = poly_extrapolate((rho * -np.log(rho))[idx],
                                         coeff[idx], 1, rel_floor=3e-4)
    rate, _, r2_rate = linear_fit(np.log(rho[idx]), np.log(splits[idx]))
    slope_a, icpt_a, r2_ang = linear_fit(1.0 / np.abs(np.log(rho)), angles)
    fits = {"split_coefficient": coef_fit,   # -> sqrt(pi/(hs Xi_s d2cM))
            "split_rate_exponent": rate,
            "eigvec_angle_slope": slope_a,
            "eigvec_angle_intercept": icpt_a}
    r2 = {"split_coefficient": r2_coef, "split_rate": r2_rate,
          "eigvec_angle": r2_ang}
    per_point = {"rho": rho, "k": k, "splitting": splits, "angle": angles,
                 "coefficient": coeff}
    return SplitReport(regime="soliton", fits=fits, r2=r2,
                       per_point=per_point)
