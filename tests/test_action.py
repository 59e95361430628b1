import numpy as np
import pytest

from modlab import action, profiles
from modlab.action import FDConfig, action_hessian
from modlab.errors import StencilLeftBranch
from modlab.models import WaveParams
from modlab.profiles import (averaged_state, bracket_near_limit,
                             find_turning_points, orbit_integrals)

from conftest import narrowed
from oracles import fd_gradient


def rebracketed_value(model, x, reference):
    from modlab.action import rebracket
    p = WaveParams.from_vector(x)
    return orbit_integrals(model, p, rebracket(model, p, reference)).theta


class TestGradient:
    def test_first_component_is_period(self, cnoidal):
        model, params, br = cnoidal
        g = orbit_integrals(model, params, br).grad_theta
        st = averaged_state(model, params, br)
        assert g[0] == pytest.approx(st.Xi, rel=1e-12)

    def test_matches_finite_differences(self, cnoidal):
        model, params, br = cnoidal
        g = orbit_integrals(model, params, br).grad_theta
        fd = fd_gradient(lambda x: rebracketed_value(model, x, br),
                         params.as_vector(), 1e-6)
        assert np.allclose(fd, g, rtol=1e-7, atol=1e-9)

    def test_impulse_component_identity(self, cnoidal):
        # dTheta/dc = alpha + Q(M)/k
        model, params, br = cnoidal
        g = orbit_integrals(model, params, br).grad_theta
        st = averaged_state(model, params, br)
        rhs = st.alpha + model.impulse_value(st.meanU) / st.k
        assert g[1] == pytest.approx(rhs, rel=1e-12)

    def test_theta_positive_and_legendre_identity(self, cnoidal):
        # Theta = Xi H + c dTheta_c + lam . dTheta_lam + mu dTheta_mu
        model, params, br = cnoidal
        o = orbit_integrals(model, params, br)
        st = averaged_state(model, params, br)
        assert o.theta > 0.0
        rhs = (st.Xi * st.meanH + params.c * o.int_Q
               + float(params.lam @ o.int_U) + params.mu * st.Xi)
        assert abs(o.theta - rhs) <= 1e-9 * abs(o.theta)

    def test_mean_remainder_identity(self, cnoidal):
        # <remainder> = k Theta - H
        model, params, br = cnoidal
        o = orbit_integrals(model, params, br)
        st = averaged_state(model, params, br)
        assert st.meanLH == pytest.approx(st.k * o.theta - st.meanH,
                                          rel=1e-12)


class TestHessian:
    def test_symmetry_residual(self, cnoidal):
        model, params, br = cnoidal
        jet = action_hessian(model, params, br)
        assert jet.symmetry_residual <= 1e-5
        assert np.array_equal(jet.hess, jet.hess.T)

    def test_negative_signature_small_amplitude(self, gkdv):
        p = WaveParams(-2.0 / 3.0 + 1e-4, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 2.0, "harmonic")
        jet = action_hessian(model=gkdv, params=p, bracket=br,
                             fd_config=FDConfig(
                                 limit=("harmonic", 2.0, -2.0 / 3.0)))
        assert int((np.linalg.eigvalsh(jet.hess) < 0).sum()) == 1

    @pytest.mark.parametrize("near_limit", [False, True],
                             ids=["generic", "near-limit"])
    def test_orbit_integrals_per_hessian(self, gkdv, monkeypatch, near_limit):
        # 2n + 1 orbits for the generic policy, 4n + 1 with Richardson
        p = WaveParams(-2.0 / 3.0 + 1e-3, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 2.0, "harmonic")
        cfg = FDConfig(limit=("harmonic", 2.0, -2.0 / 3.0) if near_limit
                       else None)
        calls = []
        integrals = action.orbit_integrals

        def counted(*args):
            calls.append(args)
            return integrals(*args)

        monkeypatch.setattr(action, "orbit_integrals", counted)
        action_hessian(gkdv, p, br, cfg)
        assert cfg.richardson is near_limit
        assert len(calls) == (4 * 3 + 1 if near_limit else 2 * 3 + 1)

    def test_stencil_left_branch(self, gkdv):
        p = WaveParams(-2.0 / 3.0 + 1e-7, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 2.0, "harmonic")
        # the generic policy does not cap its steps by the gap to the
        # limit, so the mu stencil crosses the well bottom
        with pytest.raises(StencilLeftBranch):
            action_hessian(gkdv, p, br, FDConfig())

    @pytest.mark.parametrize("mu", [-1e-5, -2.0 / 3.0 + 2e-7])
    def test_stencil_point_that_is_no_root_leaves_the_branch(self, gkdv, mu):
        # past a limit the tracked roots leave the real line: Newton ends on
        # a point that is no root, which the residual gate rejects
        p = WaveParams(mu, 1.0, [0.0])
        br = find_turning_points(gkdv, p)
        with pytest.raises(StencilLeftBranch, match="not a root"):
            action_hessian(gkdv, p, br, FDConfig())

    def test_rebracket_records_every_root_residual(self, cnoidal):
        model, params, br = cnoidal
        p = WaveParams(params.mu + 1e-5, params.c, params.lam)
        tracked = action.rebracket(model, p, br)
        assert tracked.v1 is not None and len(tracked.root_residuals) == 3
        assert max(tracked.root_residuals) <= profiles.ROOT_RESIDUAL

    def test_soliton_conditioning_warning(self, gkdv):
        p = WaveParams(-1e-9, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 0.0, "soliton")
        jet = action_hessian(gkdv, p, br,
                             FDConfig(limit=("soliton", 0.0, 0.0)))
        assert jet.warnings and "rho" in jet.warnings[0]

    def test_system_hessian_symmetry(self, ek_lagrangian):
        p = WaveParams(0.2, 0.8, [0.4, -0.2])
        br = find_turning_points(narrowed(ek_lagrangian, (-6.0, 6.0)), p)
        jet = action_hessian(ek_lagrangian, p, br)
        assert jet.symmetry_residual <= 1e-5
        assert jet.hess.shape == (4, 4)


class TestActionLimits:
    def test_action_vanishes_at_harmonic_edge(self, gkdv):
        from modlab.profiles import bracket_near_limit
        prev = None
        for eps in (1e-3, 1e-5, 1e-7):
            p = WaveParams(-2.0 / 3.0 + eps, 1.0, [0.0])
            br = bracket_near_limit(gkdv, p, 2.0, "harmonic")
            th = orbit_integrals(gkdv, p, br).theta
            assert th > 0.0
            if prev is not None:
                assert th < prev
            prev = th
        assert prev < 1e-6

    def test_action_approaches_solitary_moment(self, gkdv):
        from modlab.limits import soliton_point
        from modlab.profiles import bracket_near_limit
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        p = WaveParams(-1e-12, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 0.0, "soliton")
        th = orbit_integrals(gkdv, p, br).theta
        assert abs(th - sp.boussinesq) / sp.boussinesq < 1e-4
