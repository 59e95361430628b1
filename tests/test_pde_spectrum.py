"""The linearised PDE's own small spectrum against the Whitham speeds.

For a scalar periodic wave of speed c, the Floquet eigenvalues of the
linearised PDE near the origin satisfy lambda_j(nu) = i nu (c - a_j)
+ O(nu^2), where a_j are the characteristic speeds of the Whitham
system (Bronski & Johnson, ARMA 197, 2010; Johnson & Zumbrun, Stud.
Appl. Math. 125, 2010).  ``oracles.hill_small_spectrum`` computes those
eigenvalues by the Floquet-Fourier-Hill method on a profile that the
shooting ODE samples, so neither the orbit quadrature nor the action
Hessian enters it.  With nu scaled to the wave (nu Xi = 1e-2 and 5e-3),
one Richardson step in nu removes the O(nu^2) term.
"""

import numpy as np
import pytest

from modlab.limits import soliton_point
from modlab.models import WaveParams, gkdv_model
from modlab.modulation import whitham_report
from modlab.profiles import find_turning_points, orbit_integrals

from oracles import hill_small_spectrum
from test_orbit_digests import orbit

GATE = 1e-7
# lambda_j / (i nu) against c - a_j, after one Richardson step in nu
NU_XI = 1e-2


@pytest.fixture(scope="module", params=["cnoidal", "generic/gkdv/-",
                                        "generic/quartic/-"])
def wave(request):
    """(model, params, Whitham report, extrapolated speeds, Hill values)."""
    if request.param == "cnoidal":
        model, params, br = request.getfixturevalue("cnoidal")
    else:
        model, params, br = orbit(request.param)
    nu = NU_XI / orbit_integrals(model, params, br).Xi
    lam = hill_small_spectrum(model, params, br, [nu, 0.5 * nu])
    r = lam / (1j * np.array([[nu], [0.5 * nu]]))
    return (model, params, whitham_report(model, params, br),
            (4.0 * r[1] - r[0]) / 3.0, lam)


def gap(speeds, c, eigenvalues):
    """Largest distance from lambda_j / (i nu) to c - a_j, in (Re, Im)
    order on both sides."""
    ref = c - np.asarray(eigenvalues)
    ref = ref[np.lexsort((ref.imag, ref.real))]
    return float(np.max(np.abs(speeds - ref)))


def test_hill_speeds_are_the_whitham_speeds(wave):
    model, params, rep, speeds, _ = wave
    assert rep.classification == "hyperbolic"
    assert gap(speeds, params.c, rep.eigenvalues) <= GATE


def test_hyperbolic_hill_spectrum_stays_on_the_axis(wave):
    _, _, rep, _, lam = wave
    assert rep.classification == "hyperbolic"
    assert np.all(np.abs(lam.real) <= 1e-6 * np.abs(lam))


def test_scaled_whitham_matrix_fails_the_gate(wave):
    # the negative control: W (1 + 1e-6) moves every a_j by 1e-6 |a_j|
    _, params, rep, speeds, _ = wave
    scaled = np.linalg.eigvals(rep.whitham * (1.0 + 1e-6))
    assert gap(speeds, params.c, scaled) > GATE


def test_elliptic_pair_of_the_quintic_soliton_side():
    # gKdV p = 5, 1e-3 below the soliton level: Whitham reads elliptic,
    # c - a = 0.0155941 -+ 0.6332577 i, and the PDE has that pair off
    # the imaginary axis
    model = gkdv_model(f_coeffs=(0.0,) * 7 + (-1.0 / 42.0,), label="p5")
    p = WaveParams(soliton_point(model, 1.0, [0.0]).mus - 1e-3, 1.0, [0.0])
    br = find_turning_points(model, p)
    rep = whitham_report(model, p, br)
    assert rep.classification == "elliptic"
    pair = 1.0 - rep.eigenvalues[rep.eigenvalues.imag != 0.0]
    assert np.allclose(np.sort(pair.imag), [-0.6332577, 0.6332577],
                       atol=1e-7)
    nu = NU_XI / orbit_integrals(model, p, br).Xi
    lam = hill_small_spectrum(model, p, br, [nu])[0]
    hill = lam / (1j * nu)
    assert max(np.min(np.abs(hill - z)) for z in pair) <= 6e-5
    off_axis = lam[np.abs(lam.real) > 0.1 * np.abs(lam)]
    assert len(off_axis) == 2
