"""Modulation system in the (k, alpha, M) chart and its spectrum.

The slow-modulation dynamics of a wavetrain is first order in the wave
parameters; its characteristic matrix (the Whitham matrix) is assembled
from the Hessian of the averaged Hamiltonian, which in turn comes from
the action Hessian through an explicit congruence.  Two independent
charts give the same spectrum, which the report cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import ActionJet, FDConfig, action_hessian, rebracket
from .eigen import eig_small
from .errors import (DegenerateOrbit, LeftBranch, NoConvergence,
                     SingularJacobian, SingularThetaHessian)
from .models import ModelSpec, WaveParams, structural_matrices
from .profiles import (DEFAULT_QUAD_ORDER, OrbitBracket, find_turning_points,
                       orbit_integrals)

TOL_IM = 1e-8
EIGVEC_COND_CAP = 1e8
MARGIN_DECADE = math.sqrt(10.0)


@dataclass(frozen=True)
class ModVars:
    """Wavenumber, excess impulse, mean state."""

    k: float
    alpha: float
    M: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.k, self.alpha], self.M))

    @staticmethod
    def from_vector(x) -> "ModVars":
        x = np.asarray(x, dtype=float)
        return ModVars(float(x[0]), float(x[1]), x[2:].copy())


@dataclass(frozen=True)
class WhithamReport:
    """Spectral description of the modulation system at one wave."""

    hessH: np.ndarray
    whitham: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    classification: str
    char_in_params: np.ndarray
    spectral_match_residual: float
    hessH_negative_signature: int
    theta_negative_signature: int
    eigvec_condition: float


def params_to_modvars(model: ModelSpec, grad_theta: np.ndarray) -> ModVars:
    """Chart change from the action gradient: k, alpha, M."""
    dmu = grad_theta[0]
    if dmu <= 0.0:
        raise ValueError("period must be positive")
    k = 1.0 / dmu
    M = grad_theta[2:] / dmu
    alpha = grad_theta[1] - dmu * model.impulse_value(M)
    return ModVars(k=k, alpha=alpha, M=M)


def coupling_matrix_A(model: ModelSpec, k: float, M: np.ndarray) -> np.ndarray:
    """Jacobian coupling the two charts; satisfies S = A BB A^T."""
    if k <= 0.0:
        raise ValueError("k must be positive")
    N = model.N
    A = np.zeros((N + 2, N + 2))
    A[0, 0] = -1.0 / k
    A[1, 0] = -model.impulse_value(M) / k
    A[1, 1] = k
    A[1, 2:] = model.impulse_gradient(M)
    A[2:, 0] = -np.asarray(M) / k
    A[2:, 2:] = np.eye(N)
    return A


def hessianH(model: ModelSpec, jet: ActionJet, mv: ModVars,
             c: float) -> np.ndarray:
    """Averaged-Hamiltonian Hessian in (k, alpha, M) from the action Hessian."""
    sm = structural_matrices(model)
    A = coupling_matrix_A(model, mv.k, mv.M)
    try:
        X = np.linalg.solve(jet.hess, A)
    except np.linalg.LinAlgError as exc:
        raise SingularThetaHessian(str(exc)) from None
    if not np.all(np.isfinite(X)):
        raise SingularThetaHessian("action Hessian numerically singular")
    H = -(A.T @ X) / mv.k - c * sm.BBinv
    return 0.5 * (H + H.T)


def whitham_matrix(model: ModelSpec, hessH_mat: np.ndarray, jet: ActionJet,
                   k: float, c: float):
    """Characteristic matrices of both charts: (W, char_in_params)."""
    sm = structural_matrices(model)
    W = -sm.BB @ hessH_mat
    char = np.linalg.solve(jet.hess, sm.S) / k + c * np.eye(model.N + 2)
    return W, char


def spectrum_and_classification(W: np.ndarray, tol_im: float = TOL_IM,
                                cond_cap: float = EIGVEC_COND_CAP):
    """Eigenpairs plus a hyperbolicity verdict with declared margins.

    elliptic: a complex pair clearly above the imaginary tolerance;
    hyperbolic: all real with a well-conditioned eigenbasis;
    weakly_hyperbolic: real but defective or ill-conditioned;
    marginal: within one decade of either threshold.
    """
    zs, vecs, resid = eig_small(W)
    scale = max(float(np.max(np.abs(W))), 1e-300)
    im = float(np.max(np.abs(zs.imag))) / scale
    try:
        cond = float(np.linalg.cond(vecs))
    except np.linalg.LinAlgError:
        cond = math.inf
    if im > tol_im * MARGIN_DECADE:
        cls = "elliptic"
    elif im > tol_im / MARGIN_DECADE:
        cls = "marginal"
    elif cond <= cond_cap / MARGIN_DECADE:
        cls = "hyperbolic"
    elif cond <= cond_cap * MARGIN_DECADE:
        cls = "marginal"
    else:
        cls = "weakly_hyperbolic"
    return zs, vecs, resid, cls, cond


def _match_spectra(z1: np.ndarray, z2: np.ndarray) -> float:
    a = z1[np.lexsort((z1.imag, z1.real))]
    b = z2[np.lexsort((z2.imag, z2.real))]
    return float(np.max(np.abs(a - b)))


def whitham_report(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket | None = None,
                   fd_config: FDConfig | None = None) -> WhithamReport:
    """Assemble the full modulation report at one wave."""
    if bracket is None:
        bracket = find_turning_points(model, params)
    jet = action_hessian(model, params, bracket, fd_config)
    mv = params_to_modvars(model, jet.grad)
    H = hessianH(model, jet, mv, params.c)
    W, char = whitham_matrix(model, H, jet, mv.k, params.c)
    zs, vecs, resid, cls, cond = spectrum_and_classification(W)
    z2 = eig_small(char)[0]
    match = _match_spectra(zs, z2)
    sigH = int((np.linalg.eigvalsh(H) < 0).sum())
    return WhithamReport(hessH=H, whitham=W, eigenvalues=zs,
                         eigenvectors=vecs, residuals=resid,
                         classification=cls, char_in_params=char,
                         spectral_match_residual=match,
                         hessH_negative_signature=sigH,
                         theta_negative_signature=jet.negative_signature,
                         eigvec_condition=cond)


# ----------------------------------------------------------------------------
# inverse chart


def modvars_to_params(model: ModelSpec, target: ModVars,
                      initial_guess: WaveParams,
                      bracket: OrbitBracket | None = None,
                      fd_config: FDConfig | None = None,
                      tol: float = 1e-12, max_iter: int = 40):
    """Newton solve for the wave parameters realizing given (k, alpha, M).

    Returns (WaveParams, bracket, condition_number).  The Newton step
    uses the chart Jacobian d(mu,c,lambda)/d(k,alpha,M) =
    (hess Theta)^-1 A / k.
    """
    p = initial_guess
    br = bracket if bracket is not None else find_turning_points(model, p)
    cfg = fd_config or FDConfig()
    tvec = target.as_vector()
    scale = np.maximum(np.abs(tvec), 1.0)
    cond = math.inf
    for _ in range(max_iter):
        jet = action_hessian(model, p, br, cfg)
        mv = params_to_modvars(model, jet.grad)
        res = tvec - mv.as_vector()
        A = coupling_matrix_A(model, mv.k, mv.M)
        try:
            J = np.linalg.solve(jet.hess, A) / mv.k
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from None
        if not np.all(np.isfinite(J)):
            raise SingularJacobian("chart Jacobian not finite")
        cond = float(np.linalg.cond(J))
        if np.max(np.abs(res) / scale) < tol:
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
            raise LeftBranch("could not track the wave branch during Newton")
        p, br = pn, brn
    raise NoConvergence(f"modvars_to_params: no convergence in {max_iter} steps")


# ----------------------------------------------------------------------------
# averaged identities


def chart_hamiltonian(model: ModelSpec, mv: ModVars, guess: WaveParams,
                      bracket: OrbitBracket | None = None,
                      quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Averaged Hamiltonian as a function of (k, alpha, M)."""
    p, br, _ = modvars_to_params(model, mv, guess, bracket)
    o = orbit_integrals(model, p, br, quad_order)
    return (o.int_E + 0.5 * o.theta) / o.Xi


def averaged_identities(model: ModelSpec, params: WaveParams,
                        bracket: OrbitBracket | None = None,
                        quad_order: int = DEFAULT_QUAD_ORDER,
                        fd_rel: float = 1e-6) -> dict:
    """Residuals of the exact averaged relations at one wave.

    Keys: dkH (dH/dk - (Theta - alpha c)), daH (dH/dalpha + k c),
    dMH (closed-form mean-gradient relation), impulse_virial
    (U . deltaH average), legendre (averaged remainder vs k Theta - H).
    All residuals are relative to natural scales.
    """
    if bracket is None:
        bracket = find_turning_points(model, params)
    o = orbit_integrals(model, params, bracket, quad_order)
    mv = params_to_modvars(model, o.grad_theta)
    c, lam = params.c, params.lam
    Xi = o.Xi
    meanH = (o.int_E + 0.5 * o.theta) / Xi
    meanLH = (0.5 * o.theta - o.int_E) / Xi
    meanQ = o.int_Q / Xi
    sm = structural_matrices(model)
    # (iii) mean gradient: <deltaH> = -c B^-1 M - lambda, and the closed form
    mean_dH = -c * (sm.Binv @ mv.M) - lam
    closed = -c * model.impulse_gradient(mv.M) - lam
    res_dMH = float(np.max(np.abs(mean_dH - closed))) / max(1.0, float(np.max(np.abs(closed))))
    # (iv) impulse virial: <U . deltaH> = M . <deltaH> - 2 c k alpha
    lhs = -2.0 * c * meanQ - float(lam @ mv.M)
    rhs = float(mv.M @ mean_dH) - 2.0 * c * mv.k * mv.alpha
    res_virial = abs(lhs - rhs) / max(1.0, abs(lhs))
    # (v) averaged remainder
    res_legendre = abs(meanLH - (mv.k * o.theta - meanH)) / max(1.0, abs(meanH))
    # (i), (ii) by finite differences of the chart Hamiltonian
    def H_of(mvx: ModVars) -> float:
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
