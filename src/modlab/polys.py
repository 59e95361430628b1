"""Exact coefficient arithmetic for (Laurent) polynomials.

All model functions are closed-form polynomial or Laurent-polynomial
expressions, so every derivative the asymptotics need is evaluated from
coefficient arrays, never by numerical differentiation.  Plain
polynomials are ascending float64 coefficient arrays ``c[0] + c[1] v +
...``; a Laurent polynomial is a plain polynomial divided by ``v**shift``.

The deflation helpers factor known roots out of a polynomial exactly
(synthetic division), which is what keeps the orbit quadrature free of
endpoint cancellation.  The sum, shift, deflation, derivative and
evaluation loops run on Python floats: the IEEE operations of the
float64 array form, in the same order, without its per-element array
overhead.  Each takes its coefficients as an array or a list and returns
the same kind, so a caller that runs several of them converts once.
Evaluation takes floats only; the array Horner is kernels.horner_batch.
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


def _floats(a) -> list:
    """The coefficients of an array or a list, as a list."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def _like(a, c: list):
    """``c`` as the kind of ``a``: an array for an array, else a list."""
    return np.array(c) if isinstance(a, np.ndarray) else c


def padd(a, b):
    """a + b, each coefficient formed as (0.0 + a_k) + b_k, as on a zeroed
    array."""
    out = [0.0] * max(len(a), len(b))
    for k, x in enumerate(_floats(a)):
        out[k] += x
    for k, x in enumerate(_floats(b)):
        out[k] += x
    return _like(a, trim(out))


def pscale(a: np.ndarray, s: float) -> np.ndarray:
    return trim(a * s)


def pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return trim(np.convolve(a, b))


def pder(a):
    c = _floats(a)
    if len(c) == 1:
        return _like(a, [0.0])
    return _like(a, trim([c[k] * k for k in range(1, len(c))]))


def peval(a, v: float) -> float:
    """Horner evaluation on floats only: ``v`` is one float (np.float64
    included), and the recurrence runs on Python floats."""
    c = _floats(a)
    acc = c[-1]
    for k in range(len(c) - 2, -1, -1):
        acc = acc * v + c[k]
    return float(acc)


def pshift(a, x0: float):
    """Coefficients of p(x0 + w) as a polynomial in w (Taylor shift)."""
    out = list(_floats(a))
    n = len(out)
    # repeated synthetic division by (v - x0); classic exact shift
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            out[k] += x0 * out[k + 1]
    return _like(a, out)


def pdeflate(a, root: float) -> tuple:
    """Divide by (v - root); returns (quotient, remainder)."""
    c = _floats(a)
    acc = c[-1]
    q = []
    for k in range(len(c) - 2, -1, -1):
        q.append(acc)
        acc = c[k] + root * acc
    return _like(a, trim(q[::-1] or [0.0])), float(acc)


@dataclass(frozen=True, eq=False)
class Laurent:
    """p(v) / v**shift with p a plain polynomial and shift >= 0.

    Compares and hashes by value: 0.0 and -0.0 coefficients are equal.
    """

    coeffs: np.ndarray
    shift: int = 0

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (self.shift, self.coeffs.tolist()) == (other.shift,
                                                      other.coeffs.tolist())

    def __hash__(self):
        return hash((self.shift, *self.coeffs.tolist()))

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
        return val / v ** self.shift

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
