import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from modlab import profiles
from modlab.errors import (ConfigError, DegenerateOrbit, MultipleWells,
                           NoPeriodicOrbit, QuadratureNotConverged)
from modlab.limits import (_critical_points, _homoclinic_orbit,
                           _soliton_point_at_lambda, harmonic_point,
                           soliton_point)
from modlab.models import WaveParams, gkdv_model
from modlab.polys import pdeflate
from modlab.profiles import (averaged_state, bracket_near_limit,
                             find_turning_points, orbit_integrals)

from conftest import narrowed
from oracles import cubic_well_elliptic, predicted_alpha_sign, \
    raw_action_quadrature, shooting_oracle

CNOIDAL_ROOTS = (-0.8793852415718167, 1.3472963553338607, 2.5320888862379560)


def saddle_level(model, c, lam):
    """Level of the one saddle of W, on either side of the well (the
    soliton anchor needs the well right of the saddle)."""
    p = WaveParams(0.0, c, lam)
    (vs, _), = [t for t in _critical_points(model, p) if t[1] < 0.0]
    return model.potential_jet(vs, p, 0)[0]


@pytest.fixture(scope="module")
def quintic():
    # its saddle lies left of the well
    return gkdv_model(f_coeffs=(0.0, 0.0, 0.0, 0.0, -1.0 / 24.0,
                                -1.0 / 240.0), label="quintic")


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
        # (0.5, 5) holds only the double root: its size, not its spread,
        # scales the cutoff
        for m in (gkdv, narrowed(gkdv, (-5, 5)), narrowed(gkdv, (0.5, 5.0))):
            with pytest.raises(DegenerateOrbit):
                find_turning_points(m, WaveParams(-2.0 / 3.0, 1.0, [0.0]))

    @pytest.mark.parametrize("below", [1e-12, 1e-11, 1e-10])
    def test_no_orbit_just_below_well_bottom(self, gkdv, below):
        # the near-real pair of mu - W walks away under Newton and is
        # dropped; it must not land on the far root and read as a double
        with pytest.raises(NoPeriodicOrbit):
            find_turning_points(gkdv,
                                WaveParams(-2.0 / 3.0 - below, 1.0, [0.0]))

    def test_degenerate_at_soliton_level(self, gkdv):
        for m in (gkdv, narrowed(gkdv, (-5, 5))):
            with pytest.raises(DegenerateOrbit):
                find_turning_points(m, WaveParams(0.0, 1.0, [0.0]))

    @pytest.mark.parametrize("family, c, lam, window, offset", [
        pytest.param(f, c, lam, w, h, id=f"{f}/mu0+{h:g}")
        for f, c, lam, w in (("gkdv", 1.0, [0.0], (-5.0, 5.0)),
                             ("quartic", -0.5, [0.0], (-5.0, 12.0)),
                             ("ek_lagrangian", 0.8, [0.4, -0.2], (-6.0, 6.0)),
                             ("nls_hydro", 0.3, [-1.4, 0.45], (0.01, 5.0)))
        for h in (1e-7, 1e-9)] + [pytest.param(
            "gkdv", 1.0, [0.0], (-5.0, 5.0), None, id="gkdv/mu=-1e-8")])
    def test_default_window_brackets_as_a_finite_one(self, request, family,
                                                     c, lam, window, offset):
        # the domain only selects roots: narrowed to a window holding every
        # root it gives the bits of the default (open ends at +-1e6).
        # offset is mu - mu0; None is the gKdV soliton side at mu = -1e-8
        model = request.getfixturevalue(family)
        mu = (-1e-8 if offset is None
              else harmonic_point(model, c, lam).mu0 + offset)
        p = WaveParams(mu, c, lam)
        br = find_turning_points(model, p)
        assert br == find_turning_points(narrowed(model, window), p)
        assert br.regime_hint == ("near_harmonic" if offset else
                                  "near_soliton")

    def test_no_orbit_above_soliton_level(self, gkdv):
        with pytest.raises(NoPeriodicOrbit):
            find_turning_points(narrowed(gkdv, (-5, 5)),
                                WaveParams(0.5, 1.0, [0.0]))

    def test_multiple_wells_detected(self, quartic):
        # double-well region of the quartic family
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.25, 0.0, -1.0 / 24.0),
                       label="dw")
        p = WaveParams(-0.1, -1.0, [0.0])
        with pytest.raises((MultipleWells, NoPeriodicOrbit)):
            find_turning_points(narrowed(m, (-4.0, 4.0)), p)

    def test_near_limit_bracket_precision(self, gkdv):
        p = WaveParams(-1e-18, 1.0, [0.0])
        br = bracket_near_limit(gkdv, p, 0.0, "soliton")
        # v1, v2 = -+ sqrt(2 h / |W''(0)|) at leading order
        w = math.sqrt(2e-18)
        assert br.v1 == pytest.approx(-w, rel=1e-6)
        assert br.v2 == pytest.approx(+w, rel=1e-6)
        assert br.rho == pytest.approx((br.v2 - br.v1) / (br.v3 - br.v2))


    @pytest.mark.parametrize("family, c, lam", [
        ("gkdv", 0.5, [-0.1]), ("quartic", -0.2, [0.0]),
        ("nls_hydro", 0.0, [-1.2, 0.7])])
    def test_near_limit_bracket_past_the_opposite_limit(self, request,
                                                         family, c, lam):
        # mu0 + 1e-2 cuts no well: Newton ends on points that are no
        # roots, and the bracket refuses them
        model = request.getfixturevalue(family)
        hp = harmonic_point(model, c, lam)
        with pytest.raises(DegenerateOrbit, match="not a root"):
            bracket_near_limit(model, WaveParams(hp.mu0 + 1e-2, c, lam),
                               hp.v0, "harmonic")

    @pytest.mark.parametrize("family, c, lam, above", [
        ("gkdv", 1.3, [0.2], 1e-12),
        ("ek_lagrangian", 0.6, [0.3, -0.1], 1e-10),
        ("ek_lagrangian", 0.8, [0.4, -0.2], 1e-11)])
    def test_harmonic_bracket_above_the_soliton_level(self, request, family,
                                                      c, lam, above):
        # the level cuts no well: Newton ends beside the saddle's complex
        # pair, where T passes the root check, and the quotient keeps a
        # root beside that point
        model = request.getfixturevalue(family)
        mus = _soliton_point_at_lambda(model, c, lam).mus
        with pytest.raises(DegenerateOrbit, match="double root"):
            bracket_near_limit(model, WaveParams(mus + above, c, lam),
                               harmonic_point(model, c, lam).v0, "harmonic")

    @pytest.mark.parametrize("family, c, lam, frac", [
        pytest.param(f, c, lam, x, id=f"{f}/c={c}/{x}")
        for f, c, lam, fracs in (
            ("nls_hydro", 0.0, [-1.4, 0.5], (0.95, 0.99, 1 - 1e-4, 1 - 1e-8)),
            ("nls_hydro", 0.3, [-1.4, 0.5], (0.95, 0.99, 1 - 1e-4, 1 - 1e-8)),
            ("quintic", -0.5, [-0.75], (0.9, 0.99, 1 - 1e-4)))
        for x in fracs])
    def test_harmonic_bracket_stays_below_the_saddle_hump(self, request,
                                                          family, c, lam,
                                                          frac):
        # Newton from +-w0 runs over the saddle hump (right of the well on
        # nls_hydro, left on quintic) and ends on a root where T has the
        # wrong slope; the slope rule re-picks that turning point as the
        # far root nearest the well bottom
        model = request.getfixturevalue(family)
        hp = harmonic_point(model, c, lam)
        mus = saddle_level(model, c, lam)
        p = WaveParams(hp.mu0 + frac * (mus - hp.mu0), c, lam)
        near = bracket_near_limit(model, p, hp.v0, "harmonic")
        generic = find_turning_points(model, p)
        width = generic.v3 - generic.v2
        assert (near.v1 is None) == (generic.v1 is None)
        for a, b in zip((near.v1, near.v2, near.v3),
                        (generic.v1, generic.v2, generic.v3)):
            assert a == b or abs(a - b) <= 1e-12 * width
        assert orbit_integrals(model, p, near).Xi == pytest.approx(
            orbit_integrals(model, p, generic).Xi, rel=1e-8, abs=0.0)

    def test_harmonic_bracket_above_the_saddle_with_no_well_root(self,
                                                                 nls_hydro):
        # T rises through the Newton end point beside the saddle, and no
        # far root lies between it and the well bottom
        c, lam = 0.0, [-1.2, 0.7]
        p = WaveParams(saddle_level(nls_hydro, c, lam) + 1e-11, c, lam)
        with pytest.raises(DegenerateOrbit, match="cuts no well"):
            bracket_near_limit(nls_hydro, p,
                               harmonic_point(nls_hydro, c, lam).v0,
                               "harmonic")

    @pytest.mark.parametrize("family, c, lam, window, below", [
        pytest.param(f, c, lam, w, h, id=f"{f}/mu0-{h:g}")
        for f, c, lam, w, h in (("quartic", -0.5, [0.05], (-5.0, 5.0), 1e-15),
                                ("quartic", -0.5, [0.05], (-5.0, 5.0), 1e-14),
                                ("gkdv", 1.0, [0.0], (-1e6, 1e6), 1e-12))])
    def test_soliton_bracket_below_the_well_bottom(self, request, family, c,
                                                   lam, window, below):
        # the level cuts no well: Newton ends by the well bottom, where T
        # does not rise, though the residual passes the root check
        model = request.getfixturevalue(family)
        vs = _soliton_point_at_lambda(narrowed(model, window), c, lam).vs
        p = WaveParams(harmonic_point(model, c, lam).mu0 - below, c, lam)
        with pytest.raises(NoPeriodicOrbit, match="cuts no well"):
            bracket_near_limit(model, p, vs, "soliton")

    @pytest.mark.parametrize("below", [1e-8, 1e-12])
    def test_harmonic_bracket_near_the_soliton_level(self, gkdv, below):
        # solved about the well bottom, the pair at the saddle is only
        # good to the window's rounding, not to its own gap
        p = WaveParams(-below, 1.0, [0.0])
        with pytest.raises(DegenerateOrbit, match="not a root"):
            bracket_near_limit(gkdv, p, 2.0, "harmonic")
        br = bracket_near_limit(gkdv, p, 0.0, "soliton")
        assert max(br.root_residuals) <= profiles.ROOT_RESIDUAL

    @pytest.mark.parametrize("offset", [1e-2, 1e-4])
    def test_far_roots_stay_in_the_domain(self, ek_eulerian, offset):
        # on the domain (0, inf) the quotient's root near -3.69 is no
        # turning point, as the generic bracket of the same wave agrees
        c, lam = 0.2, [-2.0, 0.45]
        hp = harmonic_point(ek_eulerian, c, lam)
        p = WaveParams(hp.mu0 + offset, c, lam)
        near = bracket_near_limit(ek_eulerian, p, hp.v0, "harmonic")
        generic = find_turning_points(ek_eulerian, p)
        assert near.v1 is None and generic.v1 is None
        assert orbit_integrals(ek_eulerian, p, near).Xi == pytest.approx(
            orbit_integrals(ek_eulerian, p, generic).Xi, rel=1e-14, abs=0.0)

    def test_near_limit_side_is_checked(self, gkdv):
        p = WaveParams(-2.0 / 3.0 + 1e-4, 1.0, [0.0])
        with pytest.raises(ConfigError):
            bracket_near_limit(gkdv, p, 2.0, "sideways")

    def test_linear_far_root_equals_np_roots(self, monkeypatch):
        # the seed a linear quotient hands to Newton is np.roots' root
        seeds = []

        def record(T, Td, x, lo, hi, tol):
            seeds.append(x)
            return x

        monkeypatch.setattr(profiles, "_newton_refine", record)
        rng = np.random.default_rng(23)
        for _ in range(2000):
            q = rng.standard_normal(2) * 10.0 ** rng.uniform(-8.0, 8.0, 2)
            seeds.clear()
            assert profiles._real_roots_in(q, -1e300, 1e300, q=q) == seeds
            (got,), (want,) = seeds, np.roots(q[::-1])
            assert np.isreal(want) and got == want.real
            assert np.signbit(got) == np.signbit(want.real)


class TestQuadratureSetup:
    @pytest.mark.parametrize("n", [24, 96, 192])
    def test_cached_trig_substitution_is_fresh_and_read_only(self, n):
        entry = profiles._node_set(n)
        assert profiles._node_cache[n] is entry
        xp1, w, s, c, s2, wq4 = entry
        # the order-n rule on [0, n), the order-2n rule on [n, 3n)
        for m, part in ((n, slice(0, n)), (2 * n, slice(n, 3 * n))):
            fx, fw = leggauss(m)
            th = (fx + 1.0) * (math.pi / 4.0)
            assert np.array_equal(xp1[part], fx + 1.0)
            assert np.array_equal(w[part], fw)
            assert np.array_equal(s[part], np.sin(th))
            assert np.array_equal(c[part], np.cos(th))
            assert np.array_equal(s2[part], np.sin(th) ** 2)
            assert np.array_equal(wq4[part], 4.0 * (fw * (math.pi / 4.0)))
        assert all(not a.flags.writeable for a in entry)

    @pytest.mark.parametrize("n", [24, 96])
    @pytest.mark.parametrize("inner_root", [False, True])
    def test_one_kernel_call_per_pass_and_segment(self, cnoidal, monkeypatch,
                                                  n, inner_root):
        # the structure the benchmark's trace checks: one Horner call per
        # (pass, segment) block, order n then 2n on each segment
        model, params, br = cnoidal
        if not inner_root:
            br = find_turning_points(narrowed(model, (0.0, 5.0)), params)
        assert (br.v1 is not None) == inner_root
        nodes = []
        horner = profiles.kernels.horner_batch

        def counted(coeffs, v):
            nodes.append(len(v))
            return horner(coeffs, v)

        monkeypatch.setattr(profiles.kernels, "horner_batch", counted)
        orbit_integrals(model, params, br, quad_order=n)
        assert nodes == ([n, 2 * n, n, 2 * n] if inner_root else [n, 2 * n])

    @pytest.mark.parametrize("family, c, endstate", [
        ("gkdv", 1.0, [0.0]), ("ek_lagrangian", 0.8, [-1.2, 0.3])])
    def test_one_kernel_call_per_homoclinic_orbit(self, request, monkeypatch,
                                                  family, c, endstate):
        # both Gauss orders of a homoclinic orbit run on one node set: the
        # anchor's orbit, two for dc2M and two per endstate entry for gradUM
        model = request.getfixturevalue(family)
        nodes = []
        horner = profiles.kernels.horner_batch

        def counted(coeffs, v):
            nodes.append(len(v))
            return horner(coeffs, v)

        monkeypatch.setattr(profiles.kernels, "horner_batch", counted)
        soliton_point(model, c, endstate)
        assert nodes == [3 * profiles.HOMOCLINIC_ORDER] * (3 + 2 * model.N)

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
                find_turning_points(narrowed(gkdv, (-5, 5)),
                                    WaveParams(mu, 1.0, [0.0])))
            assert st.alpha > 0.0

    def test_quadrature_error_reporting(self, cnoidal):
        model, params, br = cnoidal
        with pytest.raises(QuadratureNotConverged):
            orbit_integrals(model, params, br, quad_order=4)

    def test_nan_orbit_is_not_converged(self, gkdv):
        # v2 sits on the saddle of a level 1e-12 above it: the residual
        # passes the root check and every integrand is NaN
        lam = [0.2]
        p = WaveParams(_soliton_point_at_lambda(gkdv, 1.3, lam).mus + 1e-12,
                       1.3, lam)
        br = profiles.OrbitBracket(v2=-0.1456841652150085,
                                   v3=4.191366458960511,
                                   T=profiles.level_polynomial(gkdv, p)[0])
        with np.errstate(invalid="ignore"), \
                pytest.raises(QuadratureNotConverged, match="nan"):
            orbit_integrals(gkdv, p, br)

    def test_nan_homoclinic_orbit_is_not_converged(self, gkdv):
        # vS = vs leaves an orbit of zero length: M = 0, d_c M = NaN
        params, vs, _, _, _ = _homoclinic_orbit(narrowed(gkdv, (-3.0, 5.0)),
                                                1.0, np.array([0.0]))
        T, _ = profiles.level_polynomial(gkdv, params)
        q = pdeflate(pdeflate(T, vs)[0], vs)[0]
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(QuadratureNotConverged, match="nan"):
            profiles.homoclinic_integrals(gkdv, params, q, vs, vs)

    def test_order_refinement_within_estimate(self, cnoidal):
        model, params, br = cnoidal
        lo = orbit_integrals(model, params, br, quad_order=24)
        hi = orbit_integrals(model, params, br, quad_order=48)
        assert abs(hi.Xi - lo.Xi) / hi.Xi <= max(lo.quad_error, 1e-15)


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
        br = find_turning_points(narrowed(ek_lagrangian, (-6.0, 6.0)), p)
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
        rng = np.random.default_rng(42)
        for _ in range(12):
            model, params = random_scalar_wave(rng)
            br = find_turning_points(narrowed(model, (-8.0, 8.0)), params)
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)

    def test_lagrangian_sign_of_minus_c(self):
        from conftest import random_lagrangian_wave
        rng = np.random.default_rng(43)
        done = 0
        while done < 12:
            out = random_lagrangian_wave(rng)
            if out is None:
                continue
            model, params = out
            try:
                br = find_turning_points(narrowed(model, (-8.0, 10.0)), params)
            except (NoPeriodicOrbit, MultipleWells, DegenerateOrbit):
                continue
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)
            done += 1

    def test_eulerian_sign_of_lam2_over_b(self):
        from conftest import random_eulerian_wave
        rng = np.random.default_rng(44)
        done = 0
        while done < 12:
            out = random_eulerian_wave(rng)
            if out is None:
                continue
            model, params = out
            try:
                br = find_turning_points(narrowed(model, (1e-3, 60.0)), params)
            except (NoPeriodicOrbit, MultipleWells, DegenerateOrbit):
                continue
            st = averaged_state(model, params, br)
            assert np.sign(st.alpha) == predicted_alpha_sign(model, params)
            done += 1
