import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.action import FDConfig, action_hessian
from modlab.errors import DegenerateOrbit
from modlab.models import WaveParams, gkdv_model, structural_matrices
from modlab import modulation
from modlab.modulation import (coupling_matrix_A, hessianH,
                               spectrum_and_classification,
                               whitham_matrix, whitham_report)
from modlab.profiles import (OrbitIntegrals, _state_from_integrals,
                             averaged_state, find_turning_points)

from conftest import narrowed
from oracles import (REFERENCE, ModVars, averaged_identities,
                     chart_hamiltonian, fd_hessian, modvars_from_vector,
                     modvars_of, modvars_to_params, modvars_vector)


class TestChartChange:
    def test_zero_mean_forces_alpha_equals_dctheta(self, gkdv):
        # synthetic integrals with a vanishing lambda-component
        o = OrbitIntegrals(Xi=2.0, int_U=np.array([0.0]), int_Q=0.7,
                           theta=0.0, int_E=0.0)
        st = _state_from_integrals(gkdv, o)
        assert st.alpha == pytest.approx(0.7)
        assert st.meanU[0] == 0.0

    def test_round_trip(self, cnoidal):
        model, params, br = cnoidal
        mv = modvars_of(averaged_state(model, params, br))
        p2, _, _ = modvars_to_params(model, mv,
                                     WaveParams(-0.42, 0.9, [0.05]))
        assert np.allclose(p2.as_vector(), params.as_vector(), atol=1e-8)

    def test_fixed_point_fast_convergence(self, cnoidal):
        model, params, br = cnoidal
        mv = modvars_of(averaged_state(model, params, br))
        p2, _, _ = modvars_to_params(model, mv, params, bracket=br,
                                     max_iter=2)
        assert np.allclose(p2.as_vector(), params.as_vector(), atol=1e-10)

    def test_perturbed_target_recovered(self, cnoidal):
        model, params, br = cnoidal
        mv = modvars_of(averaged_state(model, params, br))
        target = ModVars(mv.k + 1e-3, mv.alpha, mv.M)
        p2, br2, _ = modvars_to_params(model, target, params, bracket=br)
        mv2 = modvars_of(averaged_state(model, p2, br2))
        assert np.max(np.abs(modvars_vector(mv2)
                             - modvars_vector(target))) < 1e-10

    def test_condition_number_grows_toward_soliton(self, gkdv):
        from modlab.profiles import bracket_near_limit
        conds = []
        for off in (1e-3, 1e-5, 1e-7):
            p = WaveParams(-off, 1.0, [0.0])
            br = bracket_near_limit(gkdv, p, 0.0, "soliton")
            mv = modvars_of(averaged_state(gkdv, p, br))
            cfg = FDConfig(limit=("soliton", 0.0, 0.0))
            _, _, cond = modvars_to_params(gkdv, mv, p, bracket=br,
                                           fd_config=cfg)
            conds.append(cond)
        assert conds[0] < conds[1] < conds[2]


class TestCouplingMatrix:
    def test_scalar_display(self, gkdv):
        A = coupling_matrix_A(gkdv, 1.0, np.array([0.0]))
        assert np.array_equal(A, np.diag([-1.0, 1.0, 1.0]))

    def test_nonpositive_wavenumber_is_degenerate(self, gkdv):
        with pytest.raises(DegenerateOrbit):
            coupling_matrix_A(gkdv, 0.0, np.array([0.0]))

    @given(k=st.floats(0.05, 5.0), m1=st.floats(-3.0, 3.0),
           m2=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_congruence_identity_system(self, k, m1, m2):
        model = _EK
        sm = structural_matrices(model)
        A = coupling_matrix_A(model, k, np.array([m1, m2]))
        assert np.max(np.abs(sm.S - A @ sm.BB @ A.T)) < 1e-13
        assert abs(np.linalg.det(A)) > 1e-12

    @given(k=st.floats(0.05, 5.0), m=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_congruence_identity_scalar(self, k, m):
        model = _GKDV
        sm = structural_matrices(model)
        A = coupling_matrix_A(model, k, np.array([m]))
        assert np.max(np.abs(sm.S - A @ sm.BB @ A.T)) < 1e-13


_GKDV = gkdv_model()
_EK = None


def setup_module(module):
    global _EK
    from modlab.models import ModelSpec
    from modlab.polys import Laurent
    module._EK = ModelSpec(kind="euler_korteweg", b=1.0,
                           f=Laurent.make([0.0, 0.0, 0.0, -1.0 / 6.0]),
                           kappa=Laurent.make([1.0]), tau=(1.0, 0.0))


class TestHessianH:
    def test_against_fd_chart(self, cnoidal):
        model, params, br = cnoidal
        jet = action_hessian(model, params, br)
        H = hessianH(model, jet, params.c)

        def H_of(x):
            return chart_hamiltonian(model, modvars_from_vector(x), params,
                                     br)

        fd = fd_hessian(H_of, modvars_vector(modvars_of(jet.state)), 2e-4)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(H - fd)) / scale < 1e-3

    def test_alpha_gradient_identity(self, cnoidal):
        # dH/dalpha = -k c via the chart
        model, params, br = cnoidal
        mv = modvars_of(averaged_state(model, params, br))
        h = 1e-6
        up = chart_hamiltonian(model, ModVars(mv.k, mv.alpha + h, mv.M),
                               params, br)
        dn = chart_hamiltonian(model, ModVars(mv.k, mv.alpha - h, mv.M),
                               params, br)
        assert (up - dn) / (2 * h) == pytest.approx(-mv.k * params.c,
                                                    rel=1e-5)

    def test_upper_block_indefinite_near_limits(self, gkdv):
        from modlab.profiles import bracket_near_limit
        # each case names its own limit: level mu0 = -2/3 at v0 = 2,
        # level mu_s = 0 at vs = 0
        for mu, limit_mu, center, side in (
                (-2.0 / 3.0 + 5e-4, -2.0 / 3.0, 2.0, "harmonic"),
                (-1e-5, 0.0, 0.0, "soliton")):
            p = WaveParams(mu, 1.0, [0.0])
            br = bracket_near_limit(gkdv, p, center, side)
            cfg = FDConfig(limit=(side, center, limit_mu))
            jet = action_hessian(gkdv, p, br, cfg)
            H = hessianH(gkdv, jet, p.c)
            assert np.linalg.det(H[:2, :2]) < 0.0


class TestWhithamSpectrum:
    def test_chart_spectra_agree(self, cnoidal):
        model, params, br = cnoidal
        rep = whitham_report(model, params, br)
        assert rep.spectral_match_residual < 1e-8

    def test_entropy_sandwich_symmetric(self, cnoidal):
        model, params, br = cnoidal
        rep = whitham_report(model, params, br)
        sm = structural_matrices(model)
        Smat = rep.hessH @ sm.BB @ rep.hessH
        assert np.max(np.abs(Smat - Smat.T)) < 1e-12 * np.max(np.abs(Smat))

    def test_real_spectrum_when_definite(self, cnoidal):
        model, params, br = cnoidal
        rep = whitham_report(model, params, br)
        if np.all(np.linalg.eigvalsh(rep.hessH) > 0):
            assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-10

    @pytest.mark.parametrize("mu, c, lam", [
        (-0.5, 1.0, 0.0), (-0.2, 1.0, 0.0), (-0.6, 1.0, 0.0),
        (-2.6667, 2.0, 0.0), (-6.0553, 2.0, 0.3), (0.4587, -1.0, 0.3)])
    def test_gkdv_spectrum_is_whithams_kdv_speeds(self, gkdv, mu, c, lam):
        # the three speeds of the cnoidal wave on the roots e1 < e2 < e3,
        # relative to the largest (one speed can sit near zero)
        params = WaveParams(mu, c, [lam])
        br = find_turning_points(gkdv, params)
        zs = whitham_report(gkdv, params, br).eigenvalues
        speeds = REFERENCE.kdv_speeds(br.v1, br.v2, br.v3)
        err = (np.max(np.abs(np.sort(zs.real) - speeds))
               + np.max(np.abs(zs.imag))) / np.max(np.abs(speeds))
        assert err <= 1e-8

    def test_classification_examples(self):
        zs, _, _, cls, _ = spectrum_and_classification(np.diag([1.0, 2.0, 3.0]))
        assert cls == "hyperbolic"
        assert np.allclose(zs.real, [1, 2, 3])
        zs, _, _, cls, _ = spectrum_and_classification(
            np.array([[0.0, 1.0], [0.01, 0.0]]))
        assert cls == "hyperbolic"
        assert np.allclose(np.sort(zs.real), [-0.1, 0.1])
        # elliptic two-by-two
        _, _, _, cls, _ = spectrum_and_classification(
            np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert cls == "elliptic"
        # defective block
        _, _, _, cls, _ = spectrum_and_classification(
            np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert cls == "weakly_hyperbolic"

    def test_classification_stable_under_tolerance_halving(self, cnoidal,
                                                          monkeypatch):
        model, params, br = cnoidal
        rep = whitham_report(model, params, br)
        monkeypatch.setattr(modulation, "TOL_IM", 0.5e-8)
        zs, _, _, cls, _ = spectrum_and_classification(rep.whitham)
        assert cls == rep.classification

    def test_signatures_reported(self, cnoidal):
        model, params, br = cnoidal
        rep = whitham_report(model, params, br)
        assert rep.theta_negative_signature in (1, 2)
        assert 0 <= rep.hessH_negative_signature <= 3


class TestAveragedIdentities:
    def test_residual_levels(self, cnoidal):
        model, params, br = cnoidal
        res = averaged_identities(model, params, br)
        assert res["dMH"] <= 1e-12
        assert res["impulse_virial"] <= 1e-12
        assert res["legendre"] <= 1e-9
        assert res["dkH"] <= 1e-5
        assert res["daH"] <= 1e-5

    def test_residual_levels_system(self, ek_lagrangian):
        p = WaveParams(0.2, 0.8, [0.4, -0.2])
        br = find_turning_points(narrowed(ek_lagrangian, (-6.0, 6.0)), p)
        res = averaged_identities(ek_lagrangian, p, br)
        assert res["dMH"] <= 1e-12
        assert res["impulse_virial"] <= 1e-12
        assert res["legendre"] <= 1e-9


class TestLimitClassification:
    def test_harmonic_limit_matrix_is_weakly_hyperbolic(self, gkdv):
        from modlab.limits import harmonic_point, limiting_whitham_harmonic
        hp = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])
        lw = limiting_whitham_harmonic(gkdv, hp)
        _, _, _, cls, _ = spectrum_and_classification(lw["W_limit"])
        assert cls == "weakly_hyperbolic"

    def test_soliton_limit_matrix_is_hyperbolic(self, gkdv):
        from modlab.limits import limiting_whitham_soliton, soliton_point
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        lw = limiting_whitham_soliton(gkdv, sp)
        _, _, _, cls, _ = spectrum_and_classification(lw["W_limit"])
        assert cls == "hyperbolic"
