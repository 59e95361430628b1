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


def eig_small(A: np.ndarray):
    """Eigen decomposition for matrices of size <= 4.

    Returns (values, vectors, residuals) with values sorted by (Re, Im),
    vectors as columns, residuals = ||A v - z v|| per pair.

    Raises EigenFailure when any residual exceeds 50 TOL ||A||.
    """
    n = A.shape[0]
    if n > 4:
        raise EigenFailure("eig_small supports sizes up to 4")
    norm = max(float(np.abs(A).max()), 1e-300)
    try:
        zs, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolver failed: {exc}") from None
    zs = zs.astype(complex)
    zs.imag[np.abs(zs.imag) <= 1e-11 * (1.0 + np.abs(zs))] = 0.0
    order = np.lexsort((zs.imag, zs.real))
    zs = zs[order]
    # one vector per row, real while LAPACK's are, normed as np.linalg.norm
    # does; np.hypot is the scalar abs bit for bit (np.abs is not)
    rows = V.T[order]
    re, im = rows.real, rows.imag
    rows = rows / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
    lead = rows[np.arange(n), np.argmax(np.abs(rows) > 1e-12, axis=1)]
    rows = rows / (lead / np.hypot(lead.real, lead.imag))[:, None]
    vecs = rows.T.astype(complex, order="C")
    # the column norms of A V - V Z, formed as np.linalg.norm forms them
    d = A @ vecs - vecs * zs
    resid = np.sqrt(np.add.reduce((d.conj() * d).real, axis=0))
    if np.any(resid > TOL * norm * 50):
        raise EigenFailure(
            f"eigen residual {resid.max():.2e} above tolerance for ||A|| = {norm:.2e}")
    return zs, vecs, resid
