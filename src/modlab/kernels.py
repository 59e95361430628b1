"""The hot numeric kernel: batched Horner evaluation.

The orbit quadrature spends essentially all of its time evaluating a
small stack of polynomials at the quadrature nodes.  ``horner_batch``
is that kernel; it runs the Horner recurrence on all rows at once, so
each node of each row sees the same IEEE operation sequence as a scalar
Horner loop.  Transcendentals are kept out of the kernel.
"""

from __future__ import annotations

import numpy as np


def horner_batch(coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluate a batch of polynomials at the nodes ``v``.

    Parameters
    ----------
    coeffs : (k, d) float64
        Descending-power coefficient rows, zero padded on the left.
    v : (n,) float64
        Evaluation nodes.

    Returns
    -------
    (k, n) float64
    """
    if coeffs.shape[1] == 1:
        return np.repeat(coeffs, v.shape[0], axis=1)
    acc = coeffs[:, :1] * v
    acc += coeffs[:, 1:2]
    for j in range(2, coeffs.shape[1]):
        acc *= v
        acc += coeffs[:, j:j + 1]
    return acc


def pack_rows(rows) -> np.ndarray:
    """Stack ascending-coefficient arrays into a descending padded batch."""
    d = max(len(r) for r in rows)
    out = np.zeros((len(rows), d))
    for i, r in enumerate(rows):
        out[i, d - len(r):] = r[::-1]
    return out
