import math

import numpy as np
import pytest

from modlab.errors import (ConfigError, InadmissibleWavenumber,
                           UncoveredClass, UnsupportedConjugateFamily)
from modlab.limits import harmonic_point, limiting_whitham_harmonic
from modlab.miindex import (conjugate_model, conjugate_wave_params,
                            conjugation_check, critical_wavenumber, delta_mi,
                            naive_index, system_mi_polynomial)
from modlab.models import ModelSpec, WaveParams, gkdv_model
from modlab.sweeps import sweep_table
from modlab.polys import Laurent

from conftest import narrowed
from oracles import d3_kka_H, predicted_alpha_sign

TWO_PI = 2.0 * math.pi


class TestScalarIndex:
    def test_classical_kdv_stable(self, gkdv):
        rep = delta_mi(gkdv, [2.0], 1.0 / TWO_PI)
        assert rep.delta_mi == pytest.approx(1.0 / TWO_PI, rel=1e-12)
        assert rep.delta_mi > 0.0 and -rep.a_tilde0 > 0.0
        assert rep.stability_verdict == "modulationally_stable"

    def test_cubic_term_only_stable_all_k(self, gkdv):
        for k0 in (0.02, 0.2, 2.0):
            rep = delta_mi(gkdv, [2.0], k0)
            assert rep.stability_verdict == "modulationally_stable"

    def test_pure_negative_quartic_unstable_all_k(self):
        # f''' = 0 and f'''' < 0: the quartic term destabilizes every k0
        m = gkdv_model(f_coeffs=(0.0, 0.0, -0.5, 0.0, -1.0 / 24.0),
                       label="pure_neg_quartic")
        for k0 in (0.03, 0.3, 3.0):
            rep = delta_mi(m, [0.0], k0)
            assert rep.stability_verdict == "modulationally_unstable"

    def test_positive_quartic_stable_all_k(self, quartic):
        # f'''' > 0 reinforces the cubic response at every wavenumber
        for k0 in (0.03, 0.3, 3.0):
            assert delta_mi(quartic, [1.0], k0).stability_verdict \
                == "modulationally_stable"

    def test_sign_change_at_critical_wavenumber(self):
        # f''' != 0 and f'''' < 0: instability above k_c
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0, -1.0 / 48.0),
                       label="neg_quartic")
        v0 = 1.0
        kc = critical_wavenumber(m, v0)
        fj = m.f_jet(v0, 4)
        want = abs(fj[3]) / (TWO_PI * math.sqrt(-3.0 * fj[4]))
        assert kc == pytest.approx(want, rel=1e-13)
        lo = delta_mi(m, [v0], 0.99 * kc).delta_mi
        hi = delta_mi(m, [v0], 1.01 * kc).delta_mi
        assert np.sign(lo) == -np.sign(hi)
        assert lo > 0.0 > hi

    def test_critical_wavenumber_defined_only_for_negative_quartic(
            self, gkdv, quartic):
        assert critical_wavenumber(gkdv, 2.0) is None
        assert critical_wavenumber(quartic, 1.0) is None

    def test_closed_form_example(self):
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, 1.0 / 6.0, -1.0 / 24.0))
        # f'''(v0) = 1, f''''(v0) = -1 at v0 = 0, kappa = 1
        kc = critical_wavenumber(m, 0.0)
        assert kc == pytest.approx(1.0 / (TWO_PI * math.sqrt(3.0)),
                                   rel=1e-13)

    def test_bracket_equals_shortcut_on_gkdv_family(self, gkdv, quartic):
        # constant kappa, b = 1: k0 (f'''^2 + 3 (2 pi)^2 kappa f'''' k0^2)
        kappa2 = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0, -1.0 / 24.0),
                            kappa=(2.0,), label="kappa2")
        for m, v0 in ((gkdv, 2.0), (quartic, 1.3), (kappa2, 2.0)):
            kappa = m.kappa_jet(v0, 0)[0]
            fj = m.f_jet(v0, 4)
            for k0 in (0.05, 0.22, 0.4, 1.7):
                want = k0 * (fj[3] ** 2
                             + 3.0 * TWO_PI ** 2 * kappa * fj[4] * k0 * k0)
                assert delta_mi(m, [v0], k0).delta_mi == pytest.approx(
                    want, rel=1e-13)

    @pytest.mark.parametrize("k0", [0.22, 0.25])
    def test_kappa_two_unstable_with_measured_complex_pair(self, k0):
        """Constant kappa = 2, f = -v^3/6 - v^4/24 at v0 = 2.

        The index keeps kappa: Delta_MI < 0 (unstable).  Whitham spectra
        measured on a sweep toward the harmonic anchor with this (v0, k0)
        have a complex edge pair, and its squared half-gap over alpha
        tends to Delta_MI.
        """
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0, -1.0 / 24.0),
                       kappa=(2.0,), label="kappa2")
        v0 = 2.0
        rep = delta_mi(m, [v0], k0)
        assert rep.delta_mi < 0.0
        assert rep.stability_verdict == "modulationally_unstable"
        # the scalar family whose well bottom sits at v0 with wavenumber k0
        w2 = (TWO_PI * k0) ** 2 * 2.0
        fj = m.f_jet(v0, 2)
        c = -(fj[2] + w2)
        r = 0.5 * math.sqrt(w2)
        hp = harmonic_point(narrowed(m, (v0 - r, v0 + r)), c,
                            [-fj[1] - c * v0])
        assert hp.k0 == pytest.approx(k0, rel=1e-9)
        table = sweep_table(m, hp, w2 * np.array([1e-4, 3e-5, 1e-5]))
        for row in table.rows:
            zs = row.eigenvalues
            pair = zs[np.argsort(np.abs(zs - hp.vg))[:2]]
            assert np.all(np.abs(pair.imag) > 1e-3)
        half_gap2 = float(np.real(((pair[1] - pair[0]) / 2.0) ** 2))
        assert half_gap2 / row.alpha == pytest.approx(rep.delta_mi, rel=1e-3)

    def test_consistency_with_limit_assembly(self, gkdv):
        # closed form against the limiting-matrix Schur-complement path
        hp = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])
        lw = limiting_whitham_harmonic(gkdv, hp)
        rep = delta_mi(gkdv, [hp.v0], hp.k0)
        assembled = -lw["a_tilde0"] * d3_kka_H(gkdv, hp)
        assert rep.delta_mi == pytest.approx(assembled, rel=1e-10)
        assert rep.a_tilde0 == pytest.approx(lw["a_tilde0"], rel=1e-10)


class TestNaiveIndex:
    def test_disagrees_on_classical_kdv(self, gkdv):
        rep = delta_mi(gkdv, [2.0], 1.0 / TWO_PI)
        # the uncoupled criterion predicts instability, the index does not
        assert rep.naive_index < 0.0 < rep.delta_mi

    def test_flip_threshold_for_positive_quartic(self):
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, 1.0 / 6.0, 1.0 / 24.0))
        v0 = 0.0
        fj = m.f_jet(v0, 4)
        thresh = abs(fj[3]) / (TWO_PI * math.sqrt(3.0 * abs(fj[4])))
        assert np.sign(naive_index(m, v0, 0.99 * thresh)) \
            == -np.sign(naive_index(m, v0, 1.01 * thresh))

    def test_scalar_only(self, ek_lagrangian):
        with pytest.raises(UncoveredClass):
            naive_index(ek_lagrangian, 1.0, 0.3)


@pytest.mark.parametrize("family, U0", [
    ("gkdv", []), ("gkdv", [2.0, 0.3]), ("nls_hydro", [1.0]),
    ("nls_hydro", [1.0, 0.3, 0.0])])
def test_state_must_have_one_entry_per_field(request, family, U0):
    with pytest.raises(ConfigError, match="component"):
        delta_mi(request.getfixturevalue(family), U0, 0.3)


class TestSystemIndex:
    def test_admissibility(self, ek_eulerian):
        with pytest.raises(InadmissibleWavenumber):
            # f'' < 0 region with k0 below the threshold
            m = ModelSpec(kind="euler_korteweg", b=-1.0,
                          f=Laurent.make([0.0, 0.0, -2.0]),
                          kappa=Laurent.make([1.0]), tau=(0.0, 1.0),
                          domain=(0.0, np.inf))
            delta_mi(m, [1.0, 0.0], 0.01)

    def test_nls_cubic_verdict_follows_convexity(self):
        # hydrodynamic kappa, affine pressure law: sign decided by f''
        for sgn, verdict in ((1.0, "modulationally_stable"),
                             (-1.0, "modulationally_unstable")):
            m = ModelSpec(kind="euler_korteweg", b=-1.0,
                          f=Laurent.make([0.0, 0.0, 0.5 * sgn]),
                          kappa=Laurent.from_terms({-1: 0.25}),
                          tau=(0.0, 1.0), domain=(0.0, np.inf))
            for v0 in np.linspace(0.5, 2.5, 5):
                for k0 in np.linspace(0.05, 1.0, 5):
                    if sgn < 0:
                        d2H = m.f_jet(v0, 2)[2]
                        w2 = TWO_PI ** 2 * k0 ** 2 * m.kappa_jet(v0, 0)[0]
                        if d2H + w2 <= 0:
                            continue
                    rep = delta_mi(m, [v0, 0.3], k0)
                    assert rep.stability_verdict == verdict

    def test_affine_polynomial_matches_general_bracket(self, ek_lagrangian):
        # the cubic-in-w2 reduction equals the unreduced bracket route
        v0, k0 = 1.2, 0.3
        rep = delta_mi(ek_lagrangian, [v0, -0.4], k0)
        w2 = TWO_PI ** 2 * k0 ** 2
        P = system_mi_polynomial(ek_lagrangian, v0, w2)
        fj = ek_lagrangian.f_jet(v0, 2)
        tg2 = fj[2] + w2
        gv = math.sqrt(tg2)
        pref = ek_lagrangian.b ** 3 * k0 * (2 * w2 + 3 * fj[2]) / (
            4.0 * gv ** 5 * (4 * w2 + 3 * fj[2]))
        assert rep.delta_mi == pytest.approx(P * pref, rel=1e-10)


class TestSignPrediction:
    def test_scalar(self, gkdv):
        assert predicted_alpha_sign(gkdv, WaveParams(0.0, 1.0, [0.0])) == 1
        m = gkdv_model(b=-2.0)
        assert predicted_alpha_sign(m, WaveParams(0.0, 1.0, [0.0])) == -1

    def test_constant_tau(self, ek_lagrangian):
        p = WaveParams(0.0, -0.5, [0.0, 0.0])
        assert predicted_alpha_sign(ek_lagrangian, p) == 1

    def test_identity_tau_zero_case(self, ek_eulerian):
        p = WaveParams(0.0, 0.0, [0.0, 0.0])
        assert predicted_alpha_sign(ek_eulerian, p) == 0

    def test_uncovered_class(self):
        m = ModelSpec(kind="euler_korteweg", b=1.0,
                      f=Laurent.make([0.0, 0.0, 0.5]),
                      kappa=Laurent.make([1.0]), tau=(0.5, 0.25),
                      domain=(0.0, np.inf))
        with pytest.raises(UncoveredClass):
            predicted_alpha_sign(m, WaveParams(0.0, 1.0, [0.0, 0.0]))


@pytest.fixture(scope="module")
def model_E():
    # Eulerian capillary fluid with affine bulk law (Laurent-closed)
    return ModelSpec(kind="euler_korteweg", b=-1.0,
                     f=Laurent.make([0.0, 0.5, 0.25]),
                     kappa=Laurent.make([1.0]), tau=(0.0, 1.0),
                     domain=(0.0, np.inf), label="ek_e")


class TestConjugation:

    def test_conjugate_model_shape(self, model_E):
        mL = conjugate_model(model_E)
        assert mL.b == 1.0 and mL.tau == (1.0, 0.0)
        # f_L(v) = v f_E(1/v), kappa_L(v) = v^-5 kappa_E(1/v)
        for v in (0.5, 1.0, 2.0):
            assert mL.f(v) == pytest.approx(v * model_E.f(1.0 / v), rel=1e-13)
            assert mL.kappa(v) == pytest.approx(
                model_E.kappa(1.0 / v) / v ** 5, rel=1e-13)

    def test_requires_eulerian_form(self, ek_lagrangian):
        with pytest.raises(UnsupportedConjugateFamily):
            conjugate_model(ek_lagrangian)

    def test_matched_wave_ratio(self, model_E):
        params_E = WaveParams(1.3, 0.0, [-1.8, 0.7])
        res = conjugation_check(model_E, params_E)
        assert res["alpha_over_k"] <= 1e-8
        assert res["v0_product"] <= 1e-10
        assert res["k0_dictionary"] <= 1e-10

    def test_mi_polynomial_rescaling(self, model_E):
        # the index polynomials of matched harmonic points differ by an
        # exact uniform power of the reference state (measured: 13)
        params_E = WaveParams(1.3, 0.0, [-1.8, 0.7])
        res = conjugation_check(model_E, params_E)
        assert res["mi_polynomial"] <= 1e-8
        assert res["mi_polynomial_exponent"] == pytest.approx(13.0, abs=1e-6)

    def test_parameter_dictionary(self):
        p = conjugate_wave_params(WaveParams(-0.6, 0.3, [-1.8, 0.7]))
        assert p.mu == -1.8 and p.c == 0.7
        assert p.lam1 == -0.6 and p.lam2 == -0.3
