"""Constant integrand rows enter the orbit quadrature as scalars, bit for bit.

``orbit_integrals`` sends only the integrand rows that vary with v
through the Horner kernel; rows of degree 0 enter as scalars, and each
model's own rows are packed once, in ``profiles._row_cache``.
``oracles.full_stack_orbit_integrals`` is the engine with every row
through the kernel.  On seeded random waves (scalar f of degree 3 to 6
with kappa = 1 + a v^2 and b = +-1; two-field models with affine or
constant tau, at c = 0 among others, where G is constant, and zero at
lambda2 = 0) both give every ``OrbitIntegrals`` field, or the error
they raise, bit for bit.
"""

import struct

import numpy as np
import pytest

from modlab import profiles
from modlab.errors import ModlabError
from modlab.models import ModelSpec, WaveParams, gkdv_model
from modlab.polys import Laurent
from modlab.profiles import find_turning_points, orbit_integrals

from oracles import full_stack_orbit_integrals

WAVES = 200


def outcome(fn, model, params, bracket, quad_order):
    """The IEEE bytes of every OrbitIntegrals field, or the error raised."""
    try:
        o = fn(model, params, bracket, quad_order)
    except ModlabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return ([struct.pack("<d", x) for x in
             (o.Xi, o.int_Q, o.theta, o.int_E, o.quad_error)]
            + [np.asarray(o.int_U, dtype="<f8").tobytes()])


def random_wave(rng):
    """(model, params, bracket) of a wave in a well about a random v0, or
    None when its window holds no single well."""
    two_field = rng.uniform() < 0.5
    b = float(rng.choice([-1.0, 1.0]))
    deg = int(rng.integers(3, 7))
    # f = sum of f_k v^k with |f_k| <= 1 / k!
    fc = rng.uniform(-1.0, 1.0, deg + 1) / np.cumprod([1, *range(1, deg + 1)])
    a = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 1.0))
    v0, r = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.6, 3.0))
    c = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(-1.0, 1.0))
    lam2, tau = [], None
    if two_field:
        lam2 = [0.0 if rng.uniform() < 0.3 else float(rng.uniform(-1.0, 1.0))]
        tau = (1.0, 0.0 if rng.uniform() < 0.25
               else float(rng.uniform(-0.2, 0.2)))

    def model_of(coeffs):
        return ModelSpec(kind="euler_korteweg" if two_field else "scalar",
                         b=b, f=Laurent.make(coeffs),
                         kappa=Laurent.make([1.0, 0.0, a]), tau=tau,
                         domain=(v0 - r, v0 + r), label="random")

    # W = -f + ...: move f's v^2 coefficient so that W''(v0) = w2 > 0, then
    # take lambda1 = W'(v0) at lambda1 = 0, which makes v0 the well bottom
    w2 = float(rng.uniform(0.3, 1.5))
    W2 = model_of(fc).potential_jet(v0, WaveParams(0.0, c, [0.0] + lam2), 2)
    fc[2] += 0.5 * (W2[2] - w2)
    model = model_of(fc)
    lam1 = model.potential_jet(v0, WaveParams(0.0, c, [0.0] + lam2), 1)[1]
    lam = [float(lam1)] + lam2
    mu0 = model.potential_jet(v0, WaveParams(0.0, c, lam), 0)[0]
    delta = float(rng.uniform(0.02, 0.3)) * r
    params = WaveParams(float(mu0) + 0.5 * w2 * delta ** 2, c, lam)
    try:
        return model, params, find_turning_points(model, params)
    except ModlabError:
        return None


def test_constant_rows_as_scalars_match_the_full_stack():
    rng = np.random.default_rng(2024)
    seen = {"waves": 0, "v1": 0, "no v1": 0, "two-field c = 0": 0,
            "G = 0": 0, "kappa(v)": 0, "raised": 0}
    for _ in range(20 * WAVES):
        if seen["waves"] == WAVES:
            break
        wave = random_wave(rng)
        if wave is None:
            continue
        model, params, br = wave
        n = int(rng.choice([8, 24, 48, 96]))
        got = outcome(orbit_integrals, model, params, br, n)
        assert got == outcome(full_stack_orbit_integrals, model, params, br,
                              n), (model, params, br, n)
        seen["waves"] += 1
        seen["v1" if br.v1 is not None else "no v1"] += 1
        seen["raised"] += isinstance(got, str)
        seen["kappa(v)"] += len(model.kappa.coeffs) > 1
        if model.N == 2 and params.c == 0.0:
            seen["two-field c = 0"] += 1
            seen["G = 0"] += params.lam2 == 0.0
    assert seen["waves"] == WAVES
    assert min(seen.values()) >= 5, seen


@pytest.fixture
def cubic_orbit(gkdv):
    # three roots deflated off the cubic leave a constant q
    p = WaveParams(-0.5, 1.0, [0.0])
    br = find_turning_points(gkdv, p)
    q, _ = profiles.pdeflate(br.T, br.v2)
    q, _ = profiles.pdeflate(q, br.v3)
    q, _ = profiles.pdeflate(q, br.v1)
    return p, q


def test_only_the_varying_rows_go_through_the_kernel(gkdv, cubic_orbit):
    p, q = cubic_orbit
    packed, rows = profiles._integrand_stack(gkdv, p, q)
    # -q, D, kappa and its denominator and f's denominator are constants;
    # the f numerator -v^3/6 alone is evaluated
    assert rows == [-q[0], 1.0, 1.0, 1.0, None, 1.0]
    assert packed.tolist() == [[-1.0 / 6.0, 0.0, 0.0, 0.0]]


def test_row_cache_is_read_only_and_shared_between_equal_models(
        gkdv, quartic, cubic_orbit):
    p, q = cubic_orbit
    twin = gkdv_model(label="twin")
    assert twin == gkdv and twin is not gkdv
    packed, _ = profiles._integrand_stack(gkdv, p, q)
    assert profiles._integrand_stack(twin, p, q)[0] is packed
    assert profiles._row_cache[twin] is profiles._row_cache[gkdv]
    assert not packed.flags.writeable
    with pytest.raises(ValueError):
        packed[0, 0] = 1.0
    for other in (quartic, gkdv_model(kappa=(1.0, 0.0, 0.5))):
        assert other != gkdv
        assert profiles._integrand_stack(other, p, q)[0] is not packed
        assert profiles._row_cache[other] is not profiles._row_cache[gkdv]
        assert not profiles._row_cache[other][2].flags.writeable
