import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from modlab import profiles
from modlab.errors import (ConfigError, DegenerateOrbit, MultipleWells,
                           NoPeriodicOrbit, QuadratureNotConverged)
from modlab.models import WaveParams, gkdv_model
from modlab.profiles import (averaged_state, bracket_near_limit,
                             find_turning_points, gauss_nodes,
                             orbit_integrals, profile_sample)

from oracles import cubic_well_elliptic, raw_action_quadrature, \
    shooting_oracle

CNOIDAL_ROOTS = (-0.8793852415718167, 1.3472963553338607, 2.5320888862379560)


class TestTurningPoints:
    def test_cnoidal_roots(self, cnoidal):
        model, params, br = cnoidal
        assert br.v1 == pytest.approx(CNOIDAL_ROOTS[0], abs=1e-12)
        assert br.v2 == pytest.approx(CNOIDAL_ROOTS[1], abs=1e-12)
        assert br.v3 == pytest.approx(CNOIDAL_ROOTS[2], abs=1e-12)
        # exact consistency: the cubic's root sum is 3
        assert br.v1 + br.v2 + br.v3 == pytest.approx(3.0, abs=1e-12)
        assert max(br.root_residuals) < 1e-12

    def test_degenerate_at_well_bottom(self, gkdv):
        with pytest.raises(DegenerateOrbit):
            find_turning_points(gkdv, WaveParams(-2.0 / 3.0, 1.0, [0.0]),
                                (-5, 5))

    def test_degenerate_at_soliton_level(self, gkdv):
        with pytest.raises(DegenerateOrbit):
            find_turning_points(gkdv, WaveParams(0.0, 1.0, [0.0]), (-5, 5))

    def test_no_orbit_above_soliton_level(self, gkdv):
        with pytest.raises(NoPeriodicOrbit):
            find_turning_points(gkdv, WaveParams(0.5, 1.0, [0.0]), (-5, 5))

    def test_multiple_wells_detected(self, quartic):
        # double-well region of the quartic family
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.25, 0.0, -1.0 / 24.0),
                       label="dw")
        p = WaveParams(-0.1, -1.0, [0.0])
        with pytest.raises((MultipleWells, NoPeriodicOrbit)):
            find_turning_points(m, p, (-4.0, 4.0))

    def test_near_limit_bracket_precision(self, gkdv):
        p = WaveParams(-1e-18, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 0.0, "soliton")
        # v1, v2 = -+ sqrt(2 h / |W''(0)|) at leading order
        w = math.sqrt(2e-18)
        assert br.v1 == pytest.approx(-w, rel=1e-6)
        assert br.v2 == pytest.approx(+w, rel=1e-6)
        assert br.rho == pytest.approx((br.v2 - br.v1) / (br.v3 - br.v2))


    def test_near_limit_side_is_checked(self, gkdv):
        p = WaveParams(-2.0 / 3.0 + 1e-4, 1.0, [0.0])
        with pytest.raises(ConfigError):
            bracket_near_limit(gkdv, p, 2.0, "sideways")

    def test_linear_far_root_equals_np_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            q = rng.standard_normal(2) * 10.0 ** rng.uniform(-8.0, 8.0, 2)
            (got,) = profiles._quotient_real_roots(q)
            (want,) = np.roots(q[::-1])
            assert np.isreal(want) and got == want.real
            assert np.signbit(got) == np.signbit(want.real)


class TestQuadratureSetup:
    @pytest.mark.parametrize("n", [24, 96, 192])
    def test_cached_trig_substitution_is_fresh_and_read_only(self, n):
        entry = profiles._gauss_entry(n)
        x, w, s, c, s2, wq4 = entry
        fx, fw = leggauss(n)
        th = (fx + 1.0) * (math.pi / 4.0)
        assert np.array_equal(x, fx) and np.array_equal(w, fw)
        assert np.array_equal(s, np.sin(th))
        assert np.array_equal(c, np.cos(th))
        assert np.array_equal(s2, np.sin(th) ** 2)
        assert np.array_equal(wq4, 4.0 * (fw * (math.pi / 4.0)))
        assert all(not a.flags.writeable for a in entry)
        gx, gw = gauss_nodes(n)
        assert gx is x and gw is w

    @pytest.mark.parametrize("n", [24, 96])
    @pytest.mark.parametrize("inner_root", [False, True])
    def test_one_kernel_call_per_pass_and_segment(self, cnoidal, monkeypatch,
                                                  n, inner_root):
        # the structure the benchmark's trace checks: one Horner call per
        # (pass, segment) block, order n then 2n on each segment
        model, params, br = cnoidal
        if not inner_root:
            br = find_turning_points(model, params, (0.0, 5.0))
        assert (br.v1 is not None) == inner_root
        nodes = []
        horner = profiles.kernels.horner_batch

        def counted(coeffs, v):
            nodes.append(len(v))
            return horner(coeffs, v)

        monkeypatch.setattr(profiles.kernels, "horner_batch", counted)
        orbit_integrals(model, params, br, quad_order=n)
        assert nodes == ([n, 2 * n, n, 2 * n] if inner_root else [n, 2 * n])

    @pytest.mark.parametrize("n", [0, 2.5, profiles.MAX_QUAD_ORDER + 1])
    def test_quad_order_out_of_range_is_a_config_error(self, cnoidal,
                                                       monkeypatch, n):
        def nodes(m):
            raise AssertionError(f"Gauss rule of order {m} computed")

        monkeypatch.setattr(profiles, "leggauss", nodes)
        model, params, br = cnoidal
        with pytest.raises(ConfigError, match="quad_order"):
            orbit_integrals(model, params, br, quad_order=n)

    def test_one_integrand_stack_per_orbit_integrals(self, cnoidal,
                                                     monkeypatch):
        model, params, br = cnoidal
        calls = []
        build = profiles._integrand_stack

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(profiles, "_integrand_stack", counted)
        orbit_integrals(model, params, br)
        assert len(calls) == 1

    def test_one_level_polynomial_per_near_limit_orbit(self, gkdv,
                                                       monkeypatch):
        # the integrand deflates the T its bracket's roots were found on
        calls = []
        rational = type(gkdv).potential_rational

        def counted(self, params):
            calls.append(params)
            return rational(self, params)

        monkeypatch.setattr(type(gkdv), "potential_rational", counted)
        p = WaveParams(-2.0 / 3.0 + 1e-6, 1.0, [0.0])
        orbit_integrals(gkdv, p, bracket_near_limit(gkdv, p, 2.0, "harmonic"))
        assert len(calls) == 1


class TestAveragedState:
    def test_period_matches_elliptic_oracle(self, cnoidal):
        model, params, br = cnoidal
        st = averaged_state(model, params, br)
        ell = cubic_well_elliptic(br.v1, br.v2, br.v3)
        assert abs(st.Xi - ell["Xi"]) / ell["Xi"] < 1e-10
        assert abs(st.meanU[0] - ell["mean_v"]) / abs(ell["mean_v"]) < 1e-10
        alpha_ell = (ell["mean_v2"] - ell["mean_v"] ** 2) / 2.0 * ell["Xi"]
        assert abs(st.alpha - alpha_ell) / alpha_ell < 1e-9

    def test_theta_matches_oracles(self, cnoidal):
        model, params, br = cnoidal
        o = orbit_integrals(model, params, br)
        ell = cubic_well_elliptic(br.v1, br.v2, br.v3)
        assert abs(o.theta - ell["theta"]) / ell["theta"] < 1e-10
        raw = raw_action_quadrature(model, params, br.v2, br.v3)
        assert abs(o.theta - raw) / raw < 1e-9

    def test_harmonic_limit_wavenumber(self, gkdv):
        # k -> k0 = sqrt(W''(v0)/kappa)/(2 pi) as the well collapses
        k0 = 1.0 / (2.0 * math.pi)
        for eps in (1e-5, 1e-7):
            p = WaveParams(-2.0 / 3.0 + eps, 1.0, [0.0])
            br = bracket_near_limit(gkdv, p, 2.0, "harmonic")
            st = averaged_state(gkdv, p, br)
            assert st.k == pytest.approx(k0, rel=5e-5)

    def test_alpha_positive_for_positive_weight(self, gkdv):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = rng.uniform(-0.64, -0.05)
            st = averaged_state(
                gkdv, WaveParams(mu, 1.0, [0.0]),
                find_turning_points(gkdv, WaveParams(mu, 1.0, [0.0]), (-5, 5)))
            assert st.alpha > 0.0

    def test_quadrature_error_reporting(self, cnoidal):
        model, params, br = cnoidal
        with pytest.raises(QuadratureNotConverged):
            orbit_integrals(model, params, br, quad_order=4)

    def test_order_refinement_within_estimate(self, cnoidal):
        model, params, br = cnoidal
        lo = orbit_integrals(model, params, br, quad_order=24)
        hi = orbit_integrals(model, params, br, quad_order=48)
        assert abs(hi.Xi - lo.Xi) / hi.Xi <= max(lo.quad_error, 1e-15)


class TestProfileSample:
    def test_endpoints_and_symmetry(self, cnoidal):
        model, params, br = cnoidal
        samples = profile_sample(model, params, br, 65)
        xi = np.array([s[0] for s in samples])
        v = np.array([s[1][0] for s in samples])
        assert v[0] == br.v2
        assert np.max(v) == pytest.approx(br.v3, abs=1e-14)
        assert np.all(np.diff(xi) > 0.0)
        st = averaged_state(model, params, br)
        half = np.argmax(v)
        assert xi[half] == pytest.approx(st.Xi / 2.0, rel=1e-9)
        # mirror symmetry v(Xi - xi) = v(xi)
        assert np.allclose(v, v[::-1], atol=1e-12)

    def test_first_integral_on_samples(self, cnoidal):
        model, params, br = cnoidal
        for _, u in profile_sample(model, params, br, 33):
            v = float(u[0])
            w = model.potential_jet(v, params, 0)[0]
            vxi2 = max(2.0 * (params.mu - w), 0.0)
            resid = abs(0.5 * vxi2 + w - params.mu)
            assert resid <= 1e-9

    def test_sampled_mean_matches_average(self, cnoidal):
        model, params, br = cnoidal
        samples = profile_sample(model, params, br, 4097)
        xi = np.array([s[0] for s in samples])
        v = np.array([s[1][0] for s in samples])
        mean_trap = np.trapezoid(v, xi) / (xi[-1] - xi[0])
        st = averaged_state(model, params, br)
        assert mean_trap == pytest.approx(st.meanU[0], rel=1e-6)


    def test_sample_count_is_checked(self, cnoidal):
        model, params, br = cnoidal
        with pytest.raises(ConfigError):
            profile_sample(model, params, br, 1)


class TestShootingOracle:
    def test_agreement_with_quadrature(self, cnoidal):
        model, params, br = cnoidal
        st = averaged_state(model, params, br)
        o = orbit_integrals(model, params, br)
        sh, theta_sh = shooting_oracle(model, params, br)
        assert abs(sh.Xi - st.Xi) / st.Xi < 1e-8
        assert abs(sh.meanU[0] - st.meanU[0]) / abs(st.meanU[0]) < 1e-7
        assert abs(sh.alpha - st.alpha) / st.alpha < 1e-7
        assert abs(theta_sh - o.theta) / o.theta < 1e-7

    def test_agreement_system_case(self, ek_lagrangian):
        p = WaveParams(0.2, 0.8, [0.4, -0.2])
        br = find_turning_points(ek_lagrangian, p, (-6.0, 6.0))
        st = averaged_state(ek_lagrangian, p, br)
        sh, _ = shooting_oracle(ek_lagrangian, p, br)
        assert abs(sh.Xi - st.Xi) / st.Xi < 1e-8
        assert np.allclose(sh.meanU, st.meanU, rtol=1e-7)

    def test_energy_conservation_along_shot(self, cnoidal):
        from scipy.integrate import solve_ivp
        model, params, br = cnoidal

        def rhs(_, y):
            v, vp = y
            w1 = model.potential_jet(v, params, 1)[1]
            return [vp, -w1]

        st = averaged_state(model, params, br)
        sol = solve_ivp(rhs, (0.0, st.Xi), [br.v2, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)
        ts = np.linspace(0.0, st.Xi, 200)
        drift = []
        for t in ts:
            v, vp = sol.sol(t)
            w = model.potential_jet(float(v), params, 0)[0]
            drift.append(abs(0.5 * vp * vp + w - params.mu))
        assert max(drift) <= 1e-10


class TestSignLaws:
    """Excess-impulse sign predictions on randomized admissible waves."""

    def test_scalar_sign_of_b(self):
        from conftest import random_scalar_wave
        from modlab.miindex import predicted_alpha_sign
        rng = np.random.default_rng(42)
        for _ in range(12):
            model, params = random_scalar_wave(rng)
            br = find_turning_points(model, params, (-8.0, 8.0))
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)

    def test_lagrangian_sign_of_minus_c(self):
        from conftest import random_lagrangian_wave
        from modlab.miindex import predicted_alpha_sign
        rng = np.random.default_rng(43)
        done = 0
        while done < 12:
            out = random_lagrangian_wave(rng)
            if out is None:
                continue
            model, params = out
            try:
                br = find_turning_points(model, params, (-8.0, 10.0))
            except (NoPeriodicOrbit, MultipleWells, DegenerateOrbit):
                continue
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)
            done += 1

    def test_eulerian_sign_of_lam2_over_b(self):
        from conftest import random_eulerian_wave
        from modlab.miindex import predicted_alpha_sign
        rng = np.random.default_rng(44)
        done = 0
        while done < 12:
            out = random_eulerian_wave(rng)
            if out is None:
                continue
            model, params = out
            try:
                br = find_turning_points(model, params, (1e-3, 60.0))
            except (NoPeriodicOrbit, MultipleWells, DegenerateOrbit):
                continue
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)
            done += 1
