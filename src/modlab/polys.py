"""Exact coefficient arithmetic for (Laurent) polynomials.

All model functions are closed-form polynomial or Laurent-polynomial
expressions, so every derivative the asymptotics need is evaluated from
coefficient arrays, never by numerical differentiation.  Plain
polynomials are ascending float64 coefficient arrays ``c[0] + c[1] v +
...``; a Laurent polynomial is a plain polynomial divided by ``v**shift``.

The deflation helpers factor known roots out of a polynomial exactly
(synthetic division), which is what keeps the orbit quadrature free of
endpoint cancellation.  The shift, deflation and derivative loops run on
Python floats: the IEEE operations of the float64 array form, in the
same order, without its per-element array overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_coeffs(c) -> np.ndarray:
    a = np.atleast_1d(np.asarray(c, dtype=float))
    return trim(a)


def trim(c):
    """Drop trailing (high-order) zero coefficients, keeping degree >= 0.

    Works on an array or a list and returns the same kind.
    """
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] += a
    out[: len(b)] += b
    return trim(out)


def pscale(a: np.ndarray, s: float) -> np.ndarray:
    return trim(a * s)


def pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return trim(np.convolve(a, b))


def pder(a: np.ndarray) -> np.ndarray:
    c = a.tolist()
    if len(c) == 1:
        return np.zeros(1)
    return np.array(trim([c[k] * k for k in range(1, len(c))]))


def peval(a: np.ndarray, v):
    """Horner evaluation (scalar or array argument).

    A float argument (np.float64 included) runs the same recurrence on
    Python floats, which gives the same IEEE results as the 0-d array path
    without its per-step array overhead.
    """
    if isinstance(v, float):
        c = a.tolist()
        acc = c[-1]
        for k in range(len(c) - 2, -1, -1):
            acc = acc * v + c[k]
        return float(acc)
    acc = np.full_like(np.asarray(v, dtype=float), a[-1], dtype=float)
    for k in range(len(a) - 2, -1, -1):
        acc = acc * v + a[k]
    return acc if acc.ndim else float(acc)


def pshift(a: np.ndarray, x0: float) -> np.ndarray:
    """Coefficients of p(x0 + w) as a polynomial in w (Taylor shift)."""
    out = np.asarray(a, dtype=float).tolist()
    n = len(out)
    # repeated synthetic division by (v - x0); classic exact shift
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            out[k] += x0 * out[k + 1]
    return np.array(out)


def pdeflate(a: np.ndarray, root: float) -> tuple[np.ndarray, float]:
    """Divide by (v - root); returns (quotient, remainder)."""
    c = a.tolist()
    acc = c.pop()
    q = []
    for ck in reversed(c):
        q.append(acc)
        acc = ck + root * acc
    return np.array(trim(q[::-1] or [0.0])), float(acc)


@dataclass(frozen=True)
class Laurent:
    """p(v) / v**shift with p a plain polynomial and shift >= 0."""

    coeffs: np.ndarray
    shift: int = 0

    @staticmethod
    def make(coeffs, shift: int = 0) -> "Laurent":
        c = as_coeffs(coeffs)
        s = int(shift)
        # normalize: cancel common v factors
        while s > 0 and len(c) > 1 and c[0] == 0.0:
            c = c[1:]
            s -= 1
        if s > 0 and len(c) == 1 and c[0] == 0.0:
            s = 0
        return Laurent(c, s)

    @staticmethod
    def from_terms(terms: dict) -> "Laurent":
        """Build from {exponent: coefficient} with integer exponents."""
        exps = [int(e) for e in terms]
        lo = min(min(exps), 0)
        hi = max(max(exps), 0)
        c = np.zeros(hi - lo + 1)
        for e, val in terms.items():
            c[int(e) - lo] = float(val)
        return Laurent.make(c, -lo)

    @property
    def is_poly(self) -> bool:
        return self.shift == 0

    def derivative(self) -> "Laurent":
        if self.shift == 0:
            return Laurent(pder(self.coeffs), 0)
        # d/dv [p/v^s] = (p' v - s p) / v^(s+1)
        num = padd(pmul(pder(self.coeffs), np.array([0.0, 1.0])),
                   pscale(self.coeffs, -self.shift))
        return Laurent.make(num, self.shift + 1)

    def __call__(self, v):
        val = peval(self.coeffs, v)
        if self.shift == 0:
            return val
        return val / np.asarray(v, dtype=float) ** self.shift if np.ndim(v) else val / v ** self.shift

    def reflect(self, power: int) -> "Laurent":
        """v**power * p(1/v) as a Laurent polynomial (conjugation transform)."""
        # p = sum c_j v^(j-s)  ->  v^power * p(1/v) = sum c_j v^(power-j+s)
        terms = {}
        for j, cj in enumerate(self.coeffs):
            if cj != 0.0:
                terms[power - (j - self.shift)] = cj
        if not terms:
            terms = {0: 0.0}
        return Laurent.from_terms(terms)


def monomial_coeffs(power: int) -> np.ndarray:
    c = np.zeros(power + 1)
    c[power] = 1.0
    return c
