"""The numpy facts that the stacked reductions rely on to keep every
sum's bits, pinned here so that a numpy release that breaks one fails
in this file and not in a digest:

* ``np.vecdot(R, w)`` runs, per row, the same dot product as
  ``w @ r``, and on the strided ``.real`` / ``.imag`` views of a complex
  array the same one as ``np.linalg.norm`` (profiles.orbit_integrals
  and eigen.eig_small);
* on the rows viewed as (rows, segments, 3n), one ``np.vecdot`` and one
  ``np.add.reduce`` over a pass's column slice give each (pass,
  segment) block the dot product and the sum of its own contiguous
  slice (profiles.orbit_integrals);
* ``np.hypot(z.real, z.imag)`` is the scalar ``abs(z)`` of a numpy
  complex scalar (eigen.eig_small).
"""

import numpy as np
import pytest


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def scaled(rng, shape):
    """Normal samples, each row scaled by its own power of ten."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9,
                                                             (shape[0], 1))


# (rows, nodes): the orbit passes of orders 96 and 1024 on one and two
# segments, odd and tiny lengths, and the eigenvector sizes 1 to 4
SHAPES = [(4, 288), (5, 576), (4, 3072), (5, 6144), (5, 7), (3, 1),
          (1, 1), (2, 2), (3, 3), (4, 4)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_vecdot_is_the_per_row_dot(shape):
    rng = np.random.default_rng(shape[0] * 10_000 + shape[1])
    for _ in range(20):
        R = scaled(rng, shape)
        w = rng.standard_normal(shape[1])
        assert bits(np.vecdot(R, w)) == bits([w @ r for r in R])
        # the (pass, segment) blocks: column slices of the stacked rows
        a, b = shape[1] // 3, shape[1]
        assert bits(np.vecdot(R[:, a:b], w[a:b])) == \
            bits([w[a:b] @ r[a:b] for r in R])


@pytest.mark.parametrize("segments", [1, 2])
@pytest.mark.parametrize("rows, n", [(4, 96), (5, 96), (4, 1024), (5, 1024),
                                     (4, 1), (5, 7)])
def test_one_reduction_per_pass_is_the_per_block_one(rows, n, segments):
    rng = np.random.default_rng(rows * 10_000 + n * 10 + segments)
    for _ in range(10):
        R = scaled(rng, (rows, 3 * n * segments))
        w = rng.standard_normal(3 * n * segments)
        R3, w3 = R.reshape(rows, segments, 3 * n), w.reshape(segments, 3 * n)
        for a, b in ((0, n), (n, 3 * n)):
            blocks = [slice(k * 3 * n + a, k * 3 * n + b)
                      for k in range(segments)]
            assert bits(np.vecdot(R3[:, :, a:b], w3[:, a:b])) == \
                bits([[w[j] @ r[j] for j in blocks] for r in R])
            assert bits(np.add.reduce(w3[:, a:b], axis=1)) == \
                bits([w[j].sum() for j in blocks])


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_vecdot_on_complex_views_is_the_norm(shape):
    rng = np.random.default_rng(shape[0] * 10_000 + shape[1] + 1)
    for _ in range(20):
        Z = scaled(rng, shape) + 1j * scaled(rng, shape)
        re, im = Z.real, Z.imag
        assert bits(np.vecdot(re, re)) == bits([r @ r for r in re])
        assert bits(np.vecdot(im, im)) == bits([r @ r for r in im])
        assert bits(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))) == \
            bits([np.linalg.norm(z) for z in Z])


def test_hypot_is_the_scalar_complex_abs():
    rng = np.random.default_rng(7)
    Z = scaled(rng, (200, 100)) + 1j * scaled(rng, (200, 100))
    Z = np.concatenate((Z.ravel(), Z.real.ravel() + 0j, 1j * Z.imag.ravel()))
    assert bits(np.hypot(Z.real, Z.imag)) == bits([abs(z) for z in Z])
