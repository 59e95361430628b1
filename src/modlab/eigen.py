"""Dense eigensolver for every small (size <= 4) general eigenproblem.

LAPACK (``numpy.linalg.eig``, the Hessenberg QR route of ``dgeev``)
computes the eigenpairs; this module fixes their presentation so that
reports are deterministic: values sorted by (Re, Im), imaginary
residues on real eigenvalues flattened to exactly zero, vectors of unit
norm whose first significant component is positive real, and a residual
per pair checked against the matrix norm.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure

TOL = 1e-9


def _normalize(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    idx = int(np.argmax(np.abs(v) > 1e-12))
    phase = v[idx] / abs(v[idx])
    return v / phase


def eig_small(A: np.ndarray):
    """Eigen decomposition for matrices of size <= 4.

    Returns (values, vectors, residuals) with values sorted by (Re, Im),
    vectors as columns, residuals = ||A v - z v|| per pair.

    Raises EigenFailure when any residual exceeds 50 TOL ||A||.
    """
    n = A.shape[0]
    if n > 4:
        raise EigenFailure("eig_small supports sizes up to 4")
    norm = max(float(np.max(np.abs(A))), 1e-300)
    try:
        zs, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolver failed: {exc}") from None
    zs = zs.astype(complex)
    real = np.abs(zs.imag) <= 1e-11 * (1.0 + np.abs(zs))
    zs[real] = zs[real].real
    order = np.lexsort((zs.imag, zs.real))
    zs = zs[order]
    vecs = np.empty((n, n), dtype=complex)
    for i, j in enumerate(order):
        vecs[:, i] = _normalize(V[:, j])
    resid = np.linalg.norm(A @ vecs - vecs * zs, axis=0)
    if np.any(resid > TOL * norm * 50):
        raise EigenFailure(
            f"eigen residual {resid.max():.2e} above tolerance for ||A|| = {norm:.2e}")
    return zs, vecs, resid
