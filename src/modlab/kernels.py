"""The hot numeric kernel: batched Horner evaluation.

The orbit quadrature evaluates a small stack of polynomials at the
quadrature nodes, one call per (pass, segment) block.  ``horner_batch``
is that kernel; it runs the Horner recurrence on all rows at once, so
each node of each row sees the same IEEE operation sequence as a scalar
Horner loop.  Transcendentals are kept out of the kernel.

On a periodic orbit the stack holds only the integrand rows that vary
with v (``profiles._integrand_stack``): on gKdV with an inner root, the
f numerator alone.  A single row runs on float coefficients.  The kernel
is then about a quarter of an orbit pass (some 20 of 80 µs per pass on
the limit-sweeps orbits, 2 cores, CPython 3.11); the rest is the
substitution, the weights and the reductions, a few dozen numpy calls
on a few hundred nodes each, whose cost is their per-call overhead.
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
    if coeffs.shape[0] == 1:
        # one row: the same recurrence on float coefficients, which numpy
        # applies without broadcasting a column
        c0, c1, *cs = coeffs[0].tolist()
        acc = c0 * v
        acc += c1
        for cj in cs:
            acc *= v
            acc += cj
        return acc[None]
    acc = coeffs[:, :1] * v
    acc += coeffs[:, 1:2]
    for j in range(2, coeffs.shape[1]):
        acc *= v
        acc += coeffs[:, j:j + 1]
    return acc


def pack_rows(rows, width: int | None = None) -> np.ndarray:
    """Stack ascending float coefficient sequences (tuples or lists) into
    a descending float64 batch, zero padded on the left to ``width``
    (default: the longest row)."""
    d = max(len(r) for r in rows) if width is None else width
    out = np.zeros((len(rows), d))
    for i, r in enumerate(rows):
        out[i, d - len(r):] = r[::-1]
    return out
