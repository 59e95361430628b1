"""Exact coefficient arithmetic for (Laurent) polynomials.

All model functions are closed-form polynomial or Laurent-polynomial
expressions, so every derivative the asymptotics need is evaluated from
coefficients, never by numerical differentiation.  Plain polynomials are
ascending Python-float coefficients ``c[0] + c[1] v + ...``, stored as
tuples (``Laurent.coeffs``, the model's rational parts, the level
polynomial); a Laurent polynomial is a plain polynomial divided by
``v**shift``.

The deflation helpers factor known roots out of a polynomial exactly
(synthetic division), which is what keeps the orbit quadrature free of
endpoint cancellation.  Every helper takes a float sequence and returns
a list; its loop runs the IEEE operations of the float64 array form, in
the same order, without the per-element array overhead.  Evaluation at
one point is ``peval``; at a node vector it is kernels.horner_batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def trim(c) -> list:
    """Drop trailing (high-order) zero coefficients, keeping degree >= 0."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return list(c[:n])


def padd(a, b) -> list:
    """a + b, each coefficient formed as (0.0 + a_k) + b_k, as on a zeroed
    array."""
    out = [0.0] * max(len(a), len(b))
    for k, x in enumerate(a):
        out[k] += x
    for k, x in enumerate(b):
        out[k] += x
    return trim(out)


def pscale(a, s: float) -> list:
    return trim([x * s for x in a])


def pmul(a, b) -> list:
    return trim(np.convolve(a, b).tolist())


def pder(a) -> list:
    if len(a) == 1:
        return [0.0]
    return trim([a[k] * k for k in range(1, len(a))])


def peval(a, v: float) -> float:
    """Horner evaluation at one float ``v`` (np.float64 included)."""
    acc = a[-1]
    for k in range(len(a) - 2, -1, -1):
        acc = acc * v + a[k]
    return float(acc)


def pshift(a, x0: float) -> list:
    """Coefficients of p(x0 + w) as a polynomial in w (Taylor shift)."""
    out = list(a)
    n = len(out)
    # repeated synthetic division by (v - x0); classic exact shift
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            out[k] += x0 * out[k + 1]
    return out


def pdeflate(a, root: float) -> tuple[list, float]:
    """Divide by (v - root); returns (quotient, remainder)."""
    acc = a[-1]
    q = []
    for k in range(len(a) - 2, -1, -1):
        q.append(acc)
        acc = a[k] + root * acc
    return trim(q[::-1] or [0.0]), float(acc)


@dataclass(frozen=True)
class Laurent:
    """p(v) / v**shift with p a plain polynomial and shift >= 0.

    ``coeffs`` is a tuple of floats, so a Laurent compares and hashes by
    value: 0.0 and -0.0 coefficients are equal.
    """

    coeffs: tuple
    shift: int = 0

    @staticmethod
    def make(coeffs, shift: int = 0) -> "Laurent":
        c = trim([float(x) for x in coeffs])
        s = int(shift)
        # normalize: cancel common v factors
        while s > 0 and len(c) > 1 and c[0] == 0.0:
            c = c[1:]
            s -= 1
        if s > 0 and len(c) == 1 and c[0] == 0.0:
            s = 0
        return Laurent(tuple(c), s)

    @staticmethod
    def from_terms(terms: dict) -> "Laurent":
        """Build from {exponent: coefficient} with integer exponents."""
        exps = [int(e) for e in terms]
        lo = min(min(exps), 0)
        hi = max(max(exps), 0)
        c = [0.0] * (hi - lo + 1)
        for e, val in terms.items():
            c[int(e) - lo] = float(val)
        return Laurent.make(c, -lo)

    @property
    def is_poly(self) -> bool:
        return self.shift == 0

    def derivative(self) -> "Laurent":
        if self.shift == 0:
            return Laurent(tuple(pder(self.coeffs)), 0)
        # d/dv [p/v^s] = (p' v - s p) / v^(s+1)
        num = padd(pmul(pder(self.coeffs), [0.0, 1.0]),
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


def monomial_coeffs(power: int) -> list:
    return [0.0] * power + [1.0]
