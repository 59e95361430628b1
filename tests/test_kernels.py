import numpy as np

from modlab import kernels
from modlab.polys import peval


def test_pack_rows_and_horner_match_reference():
    rng = np.random.default_rng(3)
    rows = [rng.standard_normal(d) for d in (1, 4, 7, 11)]
    v = rng.uniform(-2.0, 2.0, size=64)
    packed = kernels.pack_rows(rows)
    out = kernels.horner_batch(packed, v)
    for i, r in enumerate(rows):
        assert np.allclose(out[i], peval(r, v), rtol=1e-14, atol=1e-14)


def test_horner_batch_bit_identical_to_row_loop():
    # the scalar Horner recurrence, one row at a time
    def row_loop(coeffs, v):
        out = np.empty((coeffs.shape[0], v.shape[0]))
        for i in range(coeffs.shape[0]):
            acc = np.full_like(v, coeffs[i, 0])
            for j in range(1, coeffs.shape[1]):
                acc = acc * v + coeffs[i, j]
            out[i] = acc
        return out

    rng = np.random.default_rng(11)
    for degs in ((11, 9, 5, 3, 2), (1,), (1, 2)):
        packed = kernels.pack_rows([rng.standard_normal(d) for d in degs])
        for n in (1, 96, 257):
            v = rng.uniform(-3.0, 3.0, size=n)
            assert np.array_equal(kernels.horner_batch(packed, v),
                                  row_loop(packed, v))
