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

from .action import ActionJet, FDConfig, action_hessian
from .eigen import eig_small
from .errors import DegenerateOrbit, SingularThetaHessian
from .models import ModelSpec, WaveParams, structural_matrices
from .profiles import DEFAULT_QUAD_ORDER, OrbitBracket, find_turning_points

TOL_IM = 1e-8
EIGVEC_COND_CAP = 1e8
MARGIN_DECADE = math.sqrt(10.0)


@dataclass(frozen=True)
class WhithamReport:
    """Spectral description of the modulation system at one wave."""

    hessH: np.ndarray
    whitham: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    classification: str
    spectral_match_residual: float
    hessH_negative_signature: int
    theta_negative_signature: int
    eigvec_condition: float


def coupling_matrix_A(model: ModelSpec, k: float, M: np.ndarray) -> np.ndarray:
    """Jacobian coupling the two charts; satisfies S = A BB A^T."""
    if k <= 0.0:
        raise DegenerateOrbit(f"wavenumber k = {k} is not positive")
    N = model.N
    A = np.zeros((N + 2, N + 2))
    A[0, 0] = -1.0 / k
    A[1, 0] = -model.impulse_value(M) / k
    A[1, 1] = k
    A[1, 2:] = model.impulse_gradient(M)
    A[2:, 0] = -np.asarray(M) / k
    A[2:, 2:] = np.eye(N)
    return A


def hessianH(model: ModelSpec, jet: ActionJet, c: float) -> np.ndarray:
    """Averaged-Hamiltonian Hessian in (k, alpha, M) from the action Hessian."""
    st = jet.state
    A = coupling_matrix_A(model, st.k, st.meanU)
    try:
        X = np.linalg.solve(jet.hess, A)
    except np.linalg.LinAlgError as exc:
        raise SingularThetaHessian(str(exc)) from None
    if not np.all(np.isfinite(X)):
        raise SingularThetaHessian("action Hessian numerically singular")
    H = -(A.T @ X) / st.k - c * structural_matrices(model).BBinv
    return 0.5 * (H + H.T)


def whitham_matrix(model: ModelSpec, hessH_mat: np.ndarray) -> np.ndarray:
    """Characteristic matrix W of the modulation system in (k, alpha, M)."""
    return -structural_matrices(model).BB @ hessH_mat


def spectrum_and_classification(W: np.ndarray):
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
    if im > TOL_IM * MARGIN_DECADE:
        cls = "elliptic"
    elif im > TOL_IM / MARGIN_DECADE:
        cls = "marginal"
    elif cond <= EIGVEC_COND_CAP / MARGIN_DECADE:
        cls = "hyperbolic"
    elif cond <= EIGVEC_COND_CAP * MARGIN_DECADE:
        cls = "marginal"
    else:
        cls = "weakly_hyperbolic"
    return zs, vecs, resid, cls, cond


def _whitham_assembly(model: ModelSpec, params: WaveParams,
                      bracket: OrbitBracket, fd_config: FDConfig | None):
    """(action jet, hessH, W) of the wave on ``bracket``."""
    jet = action_hessian(model, params, bracket, fd_config)
    H = hessianH(model, jet, params.c)
    return jet, H, whitham_matrix(model, H)


def whitham_report(model: ModelSpec, params: WaveParams,
                   bracket: OrbitBracket | None = None,
                   quad_order: int = DEFAULT_QUAD_ORDER) -> WhithamReport:
    """Assemble the full modulation report at one wave."""
    if bracket is None:
        bracket = find_turning_points(model, params)
    jet, H, W = _whitham_assembly(model, params, bracket,
                                  FDConfig(quad_order=quad_order))
    zs, vecs, resid, cls, cond = spectrum_and_classification(W)
    # the similar matrix in (mu, c, lambda), built apart from hessH
    char = (np.linalg.solve(jet.hess, structural_matrices(model).S)
            / jet.state.k
            + params.c * np.eye(model.N + 2))
    # eig_small returns both spectra sorted by (Re, Im)
    match = float(np.max(np.abs(zs - eig_small(char)[0])))
    sigH = int((np.linalg.eigvalsh(H) < 0).sum())
    sigT = int((np.linalg.eigvalsh(jet.hess) < 0).sum())
    return WhithamReport(hessH=H, whitham=W, eigenvalues=zs,
                         eigenvectors=vecs, residuals=resid,
                         classification=cls,
                         spectral_match_residual=match,
                         hessH_negative_signature=sigH,
                         theta_negative_signature=sigT,
                         eigvec_condition=cond)
