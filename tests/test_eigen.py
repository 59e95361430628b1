import numpy as np
import pytest

from modlab.eigen import eig_small
from modlab.limits import harmonic_point, soliton_point
from modlab.models import WaveParams
from modlab.sweeps import sweep_table

from conftest import narrowed


def test_known_spectra():
    zs, _, _ = eig_small(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(zs, [1.0, 2.0, 3.0])
    zs, _, _ = eig_small(np.array([[0.0, 1.0], [0.01, 0.0]]))
    assert np.allclose(np.sort(zs.real), [-0.1, 0.1], atol=1e-12)
    assert np.allclose(zs.imag, 0.0)


def test_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(40):
            A = rng.standard_normal((n, n))
            zs, vecs, resid = eig_small(A)
            ref = np.sort_complex(np.linalg.eigvals(A))
            assert np.allclose(np.sort_complex(zs), ref, rtol=1e-8, atol=1e-8)
            assert np.max(resid) <= 1e-9 * max(1.0, np.max(np.abs(A))) * 50


def test_eigenvector_residuals_defective():
    # Jordan block: one eigenvector, residual still small for it
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    zs, vecs, resid = eig_small(A)
    assert np.allclose(zs.real, 2.0, atol=1e-7)
    assert np.max(resid) <= 1e-6


def test_normalization_deterministic():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, -1.0]])
    z1, v1, _ = eig_small(A)
    z2, v2, _ = eig_small(A.copy())
    assert np.array_equal(v1, v2)
    for j in range(3):
        nz = v1[np.abs(v1[:, j]) > 1e-12, j][0]
        assert nz.real > 0 and abs(nz.imag) < 1e-14


def _oracle_error(mp, W: np.ndarray) -> float:
    """Distance between eig_small's spectrum and the 50-digit spectrum of
    the same float matrix, both ways round."""
    with mp.workdps(50):
        ref = np.array([complex(z) for z in
                        mp.eig(mp.matrix(W.tolist()), left=False,
                               right=False)])
    zs = eig_small(W)[0]
    return max(max(np.min(np.abs(z - ref)) for z in zs),
               max(np.min(np.abs(z - zs)) for z in ref))


def test_sweep_spectra_against_mpmath_oracle(gkdv):
    """The gkdv c = 1 Whitham matrices near both distinguished limits,
    where two characteristics nearly coincide: soliton rho 1e-2 -> 1e-6
    and harmonic delta 2e-2 -> 1e-4.  LAPACK stays below 7.4e-15 max|W|
    on them; roots of the Faddeev-LeVerrier characteristic polynomial
    lose up to 6e-14 max|W|."""
    mp = pytest.importorskip("mpmath")
    sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
    hp = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])
    w2 = gkdv.potential_jet(hp.v0, WaveParams(hp.mu0, 1.0, [0.0]), 2)[2]
    # mu_s - mu = (9/8) rho^2 and mu - mu0 = W''(v0) delta^2 / 2 to
    # leading order
    grids = ((sp, 1.125 * np.geomspace(1e-2, 1e-6, 9) ** 2, 1e-2, 1e-6),
             (hp, 0.5 * w2 * np.geomspace(2e-2, 1e-4, 7) ** 2, 2e-2, 1e-4))
    for anchor, offsets, first, last in grids:
        rows = sweep_table(gkdv, anchor, offsets).rows
        assert rows[0].grid_param == pytest.approx(first, rel=0.02)
        assert rows[-1].grid_param == pytest.approx(last, rel=0.02)
        for r in rows:
            W = r.whitham
            assert _oracle_error(mp, W) <= 2e-14 * np.max(np.abs(W)), \
                (r.regime, r.grid_param)
