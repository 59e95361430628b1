"""The float-list coefficient helpers against their numpy-array forms.

``pshift``, ``pdeflate``, ``pder``, ``potential_rational`` and
``level_polynomial`` run their loops on Python floats.  The array forms
they replaced are kept below as references; every result must match
them bit for bit, the sign of every zero included.
"""

import math

import numpy as np

from modlab.models import ModelSpec, WaveParams
from modlab.polys import (Laurent, monomial_coeffs, padd, pder, pdeflate,
                          pmul, pscale, pshift, trim)
from modlab.profiles import level_polynomial

CASES = 2000


def ref_pshift(a, x0):
    out = np.array(a, dtype=float, copy=True)
    n = len(out)
    for j in range(n - 1):
        for k in range(n - 2, j - 1, -1):
            out[k] += x0 * out[k + 1]
    return out


def ref_pdeflate(a, root):
    n = len(a)
    q = np.zeros(max(n - 1, 1))
    acc = a[n - 1]
    for k in range(n - 2, -1, -1):
        q[k] = acc
        acc = a[k] + root * acc
    return trim(q), float(acc)


def ref_pder(a):
    if len(a) == 1:
        return np.zeros(1)
    return trim(a[1:] * np.arange(1, len(a)))


def ref_potential_rational(model, params):
    c, lam = params.c, params.lam
    vmf = monomial_coeffs(model.f.shift)
    if model.kind == "scalar":
        rest = np.array([0.0, float(lam[0]), c / (2.0 * model.b)])
        num = padd(pscale(model.f.coeffs, -1.0),
                   pmul(pscale(rest, -1.0), vmf))
        return num, vmf
    lam1, lam2 = float(lam[0]), float(lam[1])
    t = np.array([model.tau[0], model.tau[1]])
    G = np.array([-lam2, -(c / model.b)])
    num = padd(pmul(pscale(model.f.coeffs, -1.0), t),
               pmul(padd(pscale(pmul(G, G), 0.5),
                         pmul(np.array([0.0, -lam1]), t)), vmf))
    return num, pmul(t, vmf)


def ref_level_polynomial(model, params):
    num, den = ref_potential_rational(model, params)
    T = np.zeros(max(len(den), len(num)))
    T[: len(den)] = params.mu * den
    T[: len(num)] -= num
    return trim(T), den


def same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def value(rng) -> float:
    """A float of magnitude 1e-8 to 1e8, either sign, or a signed zero."""
    u = rng.uniform()
    if u < 0.1:
        return 0.0
    if u < 0.2:
        return -0.0
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))


def coeffs(rng, lo: int = 0, hi: int = 9) -> np.ndarray:
    return np.array([value(rng) for _ in range(rng.integers(lo, hi + 1) + 1)])


def test_pshift_pdeflate_pder_bit_identical_to_array_loops():
    rng = np.random.default_rng(29)
    for _ in range(CASES):
        a, x = coeffs(rng), value(rng)
        assert same(pshift(a, x), ref_pshift(a, x))
        q, r = pdeflate(a, x)
        q_ref, r_ref = ref_pdeflate(a, x)
        assert same(q, q_ref) and same(r, r_ref)
        # the first and the second derivative, one step at a time
        d, d_ref = a, a
        for _ in range(2):
            d, d_ref = pder(d), ref_pder(d_ref)
            assert same(d, d_ref)


def random_model(rng) -> ModelSpec:
    """A scalar or two-field model; some f are Laurent (shift > 0)."""
    shift = int(rng.integers(0, 3))
    f = Laurent.make(coeffs(rng, 0, 8 - shift), shift)
    b = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0))
    positive = (0.0, math.inf)
    if rng.uniform() < 0.5:
        return ModelSpec(kind="scalar", b=b, f=f, kappa=Laurent.make([1.0]),
                         domain=positive if f.shift else (-math.inf, math.inf))
    tau = (float(rng.choice([1.0, 10.0 ** rng.uniform(-3.0, 3.0)])),
           float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 3.0)])))
    return ModelSpec(kind="euler_korteweg", b=b, f=f,
                     kappa=Laurent.make([1.0]), tau=tau, domain=positive)


def test_level_polynomial_bit_identical_to_array_form():
    rng = np.random.default_rng(31)
    for _ in range(CASES):
        model = random_model(rng)
        mu, c, lam = value(rng), value(rng), [value(rng), value(rng)]
        params = WaveParams(mu, c, lam[:model.N])
        num, den = model.potential_rational(params)
        num_ref, den_ref = ref_potential_rational(model, params)
        assert same(num, num_ref) and same(den, den_ref)
        T, D = level_polynomial(model, params)
        T_ref, D_ref = ref_level_polynomial(model, params)
        assert same(T, T_ref) and same(D, D_ref)
