import dataclasses
import math

import numpy as np
import pytest

from modlab import limits
from modlab.action import _central_differences
from modlab.errors import (ConfigError, NoSaddle, NoWellMinimum,
                           StencilLeftBranch)
from modlab.limits import (HarmonicPoint, _soliton_point_at_lambda,
                           harmonic_point, limiting_whitham_harmonic,
                           limiting_whitham_soliton, soliton_point,
                           toy_double_root)
from modlab.models import ModelSpec, WaveParams, structural_matrices
from modlab.polys import Laurent

from conftest import narrowed
from oracles import (ek_lagrangian_soliton_facts, frame_vectors,
                     kdv_soliton_facts)

TWO_PI = 2.0 * math.pi


def frame_cancellations(model, fr):
    sm = structural_matrices(model)
    Si = sm.Sinv
    return [
        fr.V @ Si @ fr.V,
        fr.V @ Si @ fr.W,
        fr.V @ Si @ fr.T,
        fr.V @ Si @ fr.Z + fr.W @ Si @ fr.W,
        fr.T @ Si @ fr.T,
        fr.T @ Si @ fr.Z,
        fr.E @ fr.V - 1.0,
        fr.E @ fr.W,
        fr.E @ fr.Z,
        fr.E @ fr.T,
    ]


class TestHarmonicPoint:
    def test_gkdv_closed_forms(self, gkdv):
        hp = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])
        assert hp.v0 == pytest.approx(2.0, abs=1e-13)
        assert hp.mu0 == pytest.approx(-2.0 / 3.0, abs=1e-13)
        assert hp.k0 == pytest.approx(1.0 / TWO_PI, rel=1e-13)
        assert hp.c0 == pytest.approx(1.0, abs=1e-12)       # = family speed
        assert hp.vg == pytest.approx(-1.0, abs=1e-12)
        assert hp.a0 == pytest.approx(5.0 / 24.0, rel=1e-12)
        assert hp.b0 == pytest.approx(-0.5, rel=1e-12)
        assert hp.w0 == pytest.approx(1.0)
        assert hp.dispersionless_hyperbolic

    def test_no_well_error(self, gkdv):
        with pytest.raises(NoWellMinimum):
            harmonic_point(narrowed(gkdv, (3.0, 5.0)), 1.0, [0.0])

    def test_system_point_consistency(self, ek_lagrangian):
        hp = harmonic_point(narrowed(ek_lagrangian, (-4.0, 6.0)), 0.8,
                            [0.4, -0.2])
        # the defining quadratic must hold at (c0 = c, k0)
        sm = structural_matrices(ek_lagrangian)
        H2 = ek_lagrangian.hamiltonian_hessian(hp.U0)
        kap = ek_lagrangian.kappa_jet(hp.v0, 0)[0]
        tau = ek_lagrangian.tau_jet(hp.v0, 0)[0]
        lhs = np.linalg.det(sm.B @ H2 + hp.c0 * np.eye(2))
        rhs = ek_lagrangian.b ** 2 * tau * TWO_PI ** 2 * hp.k0 ** 2 * kap
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grad_c0_matches_fd(self, ek_lagrangian):
        hp = harmonic_point(narrowed(ek_lagrangian, (-4.0, 6.0)), 0.8,
                            [0.4, -0.2])
        sm = structural_matrices(ek_lagrangian)
        k0 = hp.k0

        def c0_of(U):
            H2 = ek_lagrangian.hamiltonian_hessian(U)
            kap = ek_lagrangian.kappa_jet(float(U[0]), 0)[0]
            tau = ek_lagrangian.tau_jet(float(U[0]), 0)[0]
            tr = np.trace(sm.B @ H2)
            det = np.linalg.det(sm.B @ H2)
            rhs = ek_lagrangian.b ** 2 * tau * TWO_PI ** 2 * k0 ** 2 * kap
            disc = tr * tr / 4.0 - det + rhs
            sign = 1.0 if hp.branch == "minus" else -1.0
            # root matching the family speed
            r1 = -tr / 2.0 + math.sqrt(disc)
            r2 = -tr / 2.0 - math.sqrt(disc)
            return r1 if abs(r1 - hp.c0) < abs(r2 - hp.c0) else r2

        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (c0_of(hp.U0 + e) - c0_of(hp.U0 - e)) / (2 * h)
            assert fd == pytest.approx(hp.grad_c0[j], rel=1e-5, abs=1e-7)


class TestFrames:
    def test_gkdv_frame_displays(self, gkdv):
        fr = frame_vectors(gkdv, 1.7)
        vi = 1.7
        assert np.allclose(fr.V, [1.0, vi * vi / 2.0, vi])
        assert np.allclose(fr.W, [0.0, vi, 1.0])
        assert np.allclose(fr.Z, [0.0, 1.0, 0.0])
        assert np.allclose(fr.E, [1.0, 0.0, 0.0])
        assert np.allclose(fr.F, [0.0, -1.0, 0.0])
        assert np.allclose(fr.P, [[1.0, -vi * vi / 2.0, -vi],
                                  [0.0, -1.0, 0.0],
                                  [0.0, vi, 1.0]])
        assert np.allclose(fr.D, [[0, 1, 0], [1, 0, 0], [0, 0, 1.0]])

    def test_cancellations_randomized_scalar(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            b = float(rng.choice([-1, 1]) * rng.uniform(0.4, 2.5))
            model = ModelSpec(kind="scalar", b=b,
                              f=Laurent.make(rng.standard_normal(5) * 0.2),
                              kappa=Laurent.make([rng.uniform(0.3, 2.0)]))
            fr = frame_vectors(model, float(rng.uniform(-2.0, 3.0)))
            assert max(abs(x) for x in frame_cancellations(model, fr)) < 1e-12
            sm = structural_matrices(model)
            assert np.max(np.abs(fr.D - fr.P.T @ sm.S @ fr.P)) < 1e-12

    def test_cancellations_randomized_system(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            b = float(rng.choice([-1, 1]) * rng.uniform(0.4, 2.0))
            t0, t1 = rng.uniform(0.2, 1.5), rng.uniform(0.0, 0.8)
            model = ModelSpec(kind="euler_korteweg", b=b,
                              f=Laurent.make(rng.standard_normal(4) * 0.2),
                              kappa=Laurent.make([rng.uniform(0.3, 2.0)]),
                              tau=(t0, t1), domain=(0.0, np.inf))
            v = float(rng.uniform(0.5, 3.0))
            fr = frame_vectors(model, v, float(rng.uniform(-1, 1)),
                               float(rng.uniform(-1, 1)))
            assert max(abs(x) for x in frame_cancellations(model, fr)) < 1e-12
            sm = structural_matrices(model)
            assert np.max(np.abs(fr.D - fr.P.T @ sm.S @ fr.P)) < 1e-12

    def test_tensor_product_identity(self):
        """The frame diagonalizes the rank-structured Hessian blocks."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            b = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
            model = ModelSpec(kind="scalar", b=b,
                              f=Laurent.make(rng.standard_normal(5) * 0.3),
                              kappa=Laurent.make([1.0]))
            fr = frame_vectors(model, float(rng.uniform(-2.0, 3.0)))
            a, bb, cc, m = rng.standard_normal(4)
            V, W, Z = fr.V, fr.W, fr.Z
            mat = (a * np.outer(V, V)
                   + bb * (np.outer(V, W) + np.outer(W, V))
                   + m * np.outer(W, W)
                   + cc * (np.outer(V, Z) + np.outer(Z, V)))
            got = fr.P.T @ mat @ fr.P
            want = np.array([[a, -cc / b, bb / b],
                             [-cc / b, 0.0, 0.0],
                             [bb / b, 0.0, m / b ** 2]])
            assert np.max(np.abs(got - want)) < 1e-12 * max(
                1.0, np.max(np.abs(got)))

    def test_tensor_product_identity_system(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            b = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
            model = ModelSpec(kind="euler_korteweg", b=b,
                              f=Laurent.make(rng.standard_normal(4) * 0.2),
                              kappa=Laurent.make([1.0]),
                              tau=(rng.uniform(0.3, 1.5),
                                   rng.uniform(0.0, 0.6)),
                              domain=(0.0, np.inf))
            v = float(rng.uniform(0.5, 2.5))
            fr = frame_vectors(model, v, float(rng.uniform(-1, 1)),
                               float(rng.uniform(-1, 1)))
            a, bb, cc, m, nn = rng.standard_normal(5)
            V, W, Z, T = fr.V, fr.W, fr.Z, fr.T
            mat = (a * np.outer(V, V)
                   + bb * (np.outer(V, W) + np.outer(W, V))
                   + m * np.outer(W, W)
                   + cc * (np.outer(V, Z) + np.outer(Z, V))
                   + nn * np.outer(T, T))
            got = fr.P.T @ mat @ fr.P
            s, w, z = fr.sigma, fr.w, fr.zeta
            want = np.array([
                [a, -cc * w, bb * s, bb * w + cc * z],
                [-cc * w, 0.0, 0.0, 0.0],
                [bb * s, 0.0, m * s * s, m * s * w],
                [bb * w + cc * z, 0.0, m * s * w, m * w * w + nn * s * s]])
            assert np.max(np.abs(got - want)) < 1e-11 * max(
                1.0, np.max(np.abs(got)))


class TestSolitonPoint:
    def test_kdv_sech2_facts(self, gkdv):
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        facts = kdv_soliton_facts(1.0)
        assert sp.vs == pytest.approx(0.0, abs=1e-12)
        assert sp.vS == pytest.approx(3.0, abs=1e-10)
        assert sp.mus == pytest.approx(0.0, abs=1e-14)
        assert sp.XiS == pytest.approx(TWO_PI, rel=1e-12)
        assert sp.boussinesq == pytest.approx(facts["moment"], rel=1e-10)
        assert sp.dcM == pytest.approx(facts["dcM"], rel=1e-10)
        assert sp.dc2M == pytest.approx(facts["dc2M"], rel=1e-12)
        assert sp.gradUM[0] == pytest.approx(-12.0, rel=1e-13)
        assert sp.dcM > 0.0

    def test_lambda_reconstruction(self, gkdv):
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        assert sp.lambda_residual == 0.0

    @pytest.mark.parametrize("family, c, endstate", [
        ("gkdv", 0.5, [-0.4]), ("ek_lagrangian", 0.8, [-1.2, 0.3])])
    def test_endstate_is_the_saddle(self, request, family, c, endstate):
        # the anchor is built at the endstate as given, in its own family
        sp = soliton_point(request.getfixturevalue(family), c, endstate)
        assert sp.Us.tolist() == endstate and sp.vs == endstate[0]
        assert sp.lambda_residual == 0.0

    def test_one_saddle_search_per_lambda_anchor(self, gkdv, monkeypatch):
        # the endstate is the saddle: no search for it, and none per
        # stencil point; a family lambda is searched once
        calls = []
        search = limits._critical_points

        def counted(model, params):
            calls.append(params.c)
            return search(model, params)

        monkeypatch.setattr(limits, "_critical_points", counted)
        soliton_point(gkdv, 1.0, [0.3])
        assert calls == []
        _soliton_point_at_lambda(gkdv, 1.0, [0.1])
        assert calls == [1.0]

    def test_gkdv_closed_forms_at_fixed_endstate(self, gkdv):
        # f = -v^3/6 is Galilean: M = (24/5) (c - v_s)^(5/2), so
        # d2_c M = 18 (c - v_s)^(1/2) and grad_U M = -12 (c - v_s)^(3/2),
        # on 15 anchors given by endstate or by lambda; grad_U M is the mass
        # identity, d2_c M a Richardson difference
        errs, grad_errs = [], []
        for c in (0.5, 1.0, 2.0):
            anchors = [soliton_point(gkdv, c, [e]) for e in (0.0, 0.3, -0.4)]
            anchors += [_soliton_point_at_lambda(gkdv, c, [lam])
                        for lam in (0.1, -0.05)]
            for sp in anchors:
                d = c - sp.vs
                errs.append(abs(sp.dc2M / (18.0 * d ** 0.5) - 1.0))
                grad_errs.append(abs(sp.gradUM[0] / (-12.0 * d ** 1.5) - 1.0))
        assert max(errs) <= 1e-11
        assert max(grad_errs) <= 1e-13

    def test_speed_family_scaling(self, gkdv):
        # d_c M = 12 c^{3/2} along the endstate-zero family
        sp = soliton_point(narrowed(gkdv, (-3.0, 7.0)), 1.44, [0.0])
        assert sp.dcM == pytest.approx(12.0 * 1.44 ** 1.5, rel=1e-9)

    def test_dcM_against_fd_of_moment(self, gkdv):
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        h = 1e-5
        m = narrowed(gkdv, (-3.0, 5.0))
        up = soliton_point(m, 1.0 + h, [0.0]).boussinesq
        dn = soliton_point(m, 1.0 - h, [0.0]).boussinesq
        assert (up - dn) / (2 * h) == pytest.approx(sp.dcM, rel=1e-5)

    def test_lambda_family_anchor(self, gkdv):
        # c = 1, lambda = 0.1: W' = v^2/2 - v - 0.1 vanishes at 1 -+ sqrt(1.2)
        sp = _soliton_point_at_lambda(gkdv, 1.0, [0.1])
        assert sp.lambdas.tolist() == [0.1]
        assert sp.vs == pytest.approx(1.0 - math.sqrt(1.2), rel=1e-12)
        assert sp.lambda_residual < 1e-15
        # the same anchor from its endstate, through the same builder
        again = soliton_point(gkdv, 1.0, sp.Us)
        assert again.lambdas[0] == pytest.approx(0.1, rel=1e-14)
        assert again.vs == sp.vs
        assert again.dc2M == pytest.approx(sp.dc2M, rel=1e-13)
        assert np.allclose(again.gradUM, sp.gradUM, rtol=1e-13, atol=0.0)

    def test_no_saddle_error(self, gkdv):
        with pytest.raises(NoSaddle):
            soliton_point(narrowed(gkdv, (1.0, 1.8)), 1.0, [0.0])
        # endstate 1.5 is the well bottom of its family (lambda = -0.375),
        # whose saddle sits at 0.5: the endstate is not replaced
        with pytest.raises(NoSaddle):
            soliton_point(gkdv, 1.0, [1.5])

    def test_endstate_length_is_checked(self, ek_lagrangian):
        with pytest.raises(ConfigError):
            soliton_point(ek_lagrangian, 0.8, [-1.2])

    def test_system_soliton(self, ek_lagrangian):
        sp = soliton_point(ek_lagrangian, 0.8, np.array([-1.2, 0.3]))
        # constant-tau sign law: the impulse limit carries the sign of -c
        assert np.sign(sp.dcM) == np.sign(-0.8)
        assert sp.lambda_residual == 0.0
        # with constant tau, mu_s - W does not depend on u_s: the two terms
        # of the mass identity cancel exactly, to a positive zero
        assert repr(float(sp.gradUM[1])) == "0.0"
        # moment derivative against finite differences of the moment
        h = 1e-5
        up = soliton_point(ek_lagrangian, 0.8 + h, sp.Us).boussinesq
        dn = soliton_point(ek_lagrangian, 0.8 - h, sp.Us).boussinesq
        assert (up - dn) / (2 * h) == pytest.approx(sp.dcM, rel=1e-5)

    def test_system_soliton_closed_forms(self, ek_lagrangian):
        # d2_c M against its scale 24 a^(1/2) (4 c^2 + |v_s|), which the
        # sign flip crosses, and grad_U M against |d_vs M|
        errs, grad_errs = [], []
        for c in (0.5, 0.8):
            for Us in ([-1.2, 0.3], [-2.0, -0.7], [-1.0, 0.0]):
                sp = soliton_point(ek_lagrangian, c, Us)
                facts = ek_lagrangian_soliton_facts(c, Us[0])
                a = -Us[0] - c * c
                assert sp.boussinesq == pytest.approx(facts["moment"],
                                                      rel=1e-12)
                assert sp.dcM == pytest.approx(facts["dcM"], rel=1e-12)
                errs.append(abs(sp.dc2M - facts["dc2M"])
                            / (24.0 * a ** 0.5 * (4.0 * c * c - Us[0])))
                grad_errs += list(np.abs(sp.gradUM - facts["gradUM"])
                                  / abs(facts["gradUM"][0]))
        assert max(errs) <= 1e-11
        assert max(grad_errs) <= 1e-13

    @pytest.mark.parametrize("vs", [-0.5, -1.0, -1.2, -2.0])
    def test_system_soliton_flips_at_the_threshold(self, ek_lagrangian, vs):
        # d2_c M at fixed endstate changes sign at c*^2 = -v_s / 4 (the
        # form of Bona & Sachs's threshold): complex pair below, real above
        cs = math.sqrt(-vs / 4.0)
        dc2M = [soliton_point(ek_lagrangian, c, [vs, 0.3]).dc2M
                for c in (cs * (1.0 - 1e-6), cs, cs * (1.0 + 1e-6))]
        assert abs(dc2M[1]) <= 1e-10
        assert dc2M[0] < 0.0 < dc2M[2]

    @pytest.mark.parametrize("family, c, endstate", [
        ("gkdv", 1.0, [0.999]),
        ("ek_lagrangian", math.sqrt(0.999 * 1.2), [-1.2, 0.3])])
    def test_near_sonic_anchor(self, request, family, c, endstate):
        # a = -W''(v_s) = 1e-3 |v_s| (c^2 / c_s^2 = 0.999 on ek_lagrangian):
        # the stencil keeps within the soliton family, and the orbit,
        # solved in w = v - v_s, loses no accuracy as |v_s| / a grows
        sp = soliton_point(request.getfixturevalue(family), c, endstate)
        if family == "gkdv":
            a = c - endstate[0]
            facts = {"dc2M": 18.0 * a ** 0.5, "gradUM": [-12.0 * a ** 1.5]}
            scale = facts["dc2M"]
        else:
            facts = ek_lagrangian_soliton_facts(c, endstate[0])
            scale = 24.0 * (-endstate[0] - c * c) ** 0.5 * (
                4.0 * c * c - endstate[0])
        assert abs(sp.dc2M - facts["dc2M"]) <= 1e-8 * scale
        # the mass identity, against |d_vs M|: 1e-9 at c^2 / c_s^2 = 0.999
        tol = 1e-13 if family == "gkdv" else 1e-9
        assert np.allclose(sp.gradUM, facts["gradUM"], rtol=0.0,
                           atol=tol * abs(facts["gradUM"][0]))

    @pytest.mark.parametrize("a", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_gkdv_accuracy_near_the_edge_at_a_far_endstate(self, gkdv, a):
        # endstate v_s = 1 - a at c = 1: the margin a = c - v_s = -W''(v_s)
        # runs from 1e-3 to 1e-6 of |v_s|; the level polynomial, shifted
        # to the saddle, rounds on the orbit's scale a and not on |v_s|
        vs = 1.0 - a
        a = 1.0 - vs
        sp = soliton_point(gkdv, 1.0, [vs])
        assert sp.boussinesq == pytest.approx(4.8 * a ** 2.5, rel=1e-11,
                                              abs=0.0)
        assert sp.dc2M == pytest.approx(18.0 * a ** 0.5, rel=1e-6)
        # the mass identity needs no step and is as good as M itself: 5.5e-13
        # at a = 1e-4, where M is off by 2.7e-12
        assert sp.gradUM[0] == pytest.approx(-12.0 * a ** 1.5, rel=1e-12,
                                             abs=0.0)

    @pytest.mark.parametrize("vs", [-1.2, -20.0, -0.5, -2.0])
    @pytest.mark.parametrize("r", [0.999, 1.0 - 1e-4, 1.0 - 1e-6, 0.81, 0.9])
    def test_system_accuracy_near_sonic(self, ek_lagrangian, vs, r):
        # c^2 = r c_s^2 = r |v_s|, so a = (1 - r) |v_s|; every stencil
        # point keeps its outer turning level, and d2_c M meets its
        # closed form to 1e-7 of its scale (5.1e-8 at v_s = -1.2,
        # r = 1 - 1e-6); the mass identity meets d_vs M to 1e-13 up to
        # r = 0.81 and to 1e-9 beyond, where the orbit's quadrature
        # limits it
        c = math.sqrt(r * -vs)
        sp = soliton_point(ek_lagrangian, c, [vs, 0.3])
        facts = ek_lagrangian_soliton_facts(c, vs)
        a = -vs - c * c
        assert sp.boussinesq == pytest.approx(facts["moment"], rel=1e-9,
                                              abs=0.0)
        assert abs(sp.dc2M - facts["dc2M"]) <= 1e-7 * (
            24.0 * a ** 0.5 * (4.0 * c * c - vs))
        tol = 1e-13 if r <= 0.81 else 1e-9
        assert sp.gradUM[0] == pytest.approx(facts["gradUM"][0], rel=tol,
                                             abs=0.0)
        assert abs(sp.gradUM[1]) <= 1e-12 * abs(sp.gradUM[0])

    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1])
    def test_gkdv_accuracy_holds_down_to_the_edge(self, gkdv, c):
        # the Jacobian steps scale with a = c - v_s, and so does the
        # soliton: the relative error does not grow as a -> 0 at v_s = 0
        sp = soliton_point(gkdv, c, [0.0])
        assert sp.dc2M == pytest.approx(18.0 * c ** 0.5, rel=1e-11)
        assert sp.gradUM[0] == pytest.approx(-12.0 * c ** 1.5, rel=1e-13,
                                             abs=0.0)

    @pytest.mark.parametrize("family, c, endstate", [
        ("gkdv", 1.0, [0.0]), ("gkdv", 1.0, [0.999]),
        ("ek_lagrangian", 0.8, [-1.2, 0.3])])
    def test_every_orbit_is_at_the_endstate(self, request, monkeypatch,
                                            family, c, endstate):
        # the stencil runs along c alone and never moves the saddle: every
        # homoclinic orbit of one anchor is solved about its own v_s
        saddles = []
        orbit = limits._homoclinic_orbit

        def recorded(model, c, lam, vs):
            saddles.append(vs)
            return orbit(model, c, lam, vs)

        monkeypatch.setattr(limits, "_homoclinic_orbit", recorded)
        sp = soliton_point(request.getfixturevalue(family), c, endstate)
        assert saddles == [sp.vs] * 5

    def test_affine_tau_gradient_matches_fd_of_the_moment(self):
        # tau = 1 + 0.2 v moves mu_s - W with u_s: both entries of the mass
        # identity against a Richardson difference of M over U_s, kept as a
        # test oracle only
        model = ModelSpec(kind="euler_korteweg", b=1.0,
                          f=Laurent.make([0.0, 0.0, 0.0, -1.0 / 6.0]),
                          kappa=Laurent.make([1.0]), tau=(1.0, 0.2),
                          domain=(-4.0, 20.0), label="affine_tau")
        for c, Us in ((0.8, [-1.2, 0.3]), (0.5, [-2.0, -0.7]),
                      (0.3, [-1.0, 0.5])):
            sp = soliton_point(model, c, Us)
            fd = _central_differences(
                lambda U: np.array([soliton_point(model, c, U).boussinesq]),
                np.array(Us), 1e-3 * np.ones(2), richardson=True)[0]
            assert abs(sp.gradUM[1]) > 1.0
            assert np.allclose(sp.gradUM, fd, rtol=1e-10, atol=0.0)

    def test_stencil_point_leaving_the_family_is_named(self, gkdv):
        # the window ends at 3.0001, past the outer turning level 3 of the
        # anchor at c = 1 but short of 3.003 at the stencil point c + 1e-3
        model = dataclasses.replace(gkdv, domain=(-1.0, 3.0001))
        with pytest.raises(
                StencilLeftBranch,
                match=r"stencil point \[1\.001\] left the family: no outer "
                      r"turning level right of the saddle"):
            soliton_point(model, 1.0, [0.0])

    def test_window_left_of_the_endstate_keeps_the_anchor(self, gkdv):
        # a window ending 1e-4 left of the endstate holds every stencil
        # point, which moves c alone: the anchor keeps every bit
        sp = soliton_point(dataclasses.replace(gkdv, domain=(-1e-4, 5.0)),
                           1.0, [0.0])
        full = soliton_point(gkdv, 1.0, [0.0])
        assert sp.dc2M == full.dc2M
        assert sp.gradUM.tolist() == full.gradUM.tolist()

    @pytest.mark.parametrize("a", [1e-13, 1e-14])
    def test_anchor_whose_step_rounds_away_is_refused(self, gkdv, a):
        # the step 1e-3 a rounds away at c = 1, where a difference would
        # read a zero or wrong-signed d2_c M
        with pytest.raises(StencilLeftBranch,
                           match=r"stencil step .* rounds away at "
                                 r"coordinate 0 = 1\.0"):
            soliton_point(gkdv, 1.0, [1.0 - a])


class TestLimitingMatrices:
    def test_harmonic_limit_gkdv(self, gkdv):
        hp = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])
        lw = limiting_whitham_harmonic(gkdv, hp)
        assert lw["a_tilde0"] == pytest.approx(-1.0 / (6.0 * TWO_PI ** 2),
                                               rel=1e-12)
        assert lw["block_residual"] < 1e-10
        zs = np.sort(np.linalg.eigvals(lw["W_limit"]).real)
        assert np.allclose(zs, [-1.0, -1.0, 2.0], atol=1e-10)
        # defective double root: rank of (W - vg I) is N + 1
        rank = np.linalg.matrix_rank(lw["W_limit"] - hp.vg * np.eye(3),
                                     tol=1e-8)
        assert rank == 2

    def test_soliton_limit_gkdv(self, gkdv):
        sp = soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])
        lw = limiting_whitham_soliton(gkdv, sp)
        assert lw["block_residual"] < 1e-10
        zs = np.sort(np.linalg.eigvals(lw["W_limit"]).real)
        assert np.allclose(zs, [0.0, 1.0, 1.0], atol=1e-9)
        # (grad M)^2 / (f''(0) + c) = 144
        assert lw["dk2H_limit"] == pytest.approx(144.0, rel=1e-12)
        # diagonalizable double root at the speed
        rank = np.linalg.matrix_rank(lw["W_limit"] - sp.cs * np.eye(3),
                                     tol=1e-7)
        assert rank == 1

    def test_limit_spectra_structure_system(self, ek_lagrangian):
        hp = harmonic_point(narrowed(ek_lagrangian, (-4.0, 6.0)), 0.8,
                            [0.4, -0.2])
        lw = limiting_whitham_harmonic(ek_lagrangian, hp)
        assert lw["block_residual"] < 1e-9
        zs = np.sort(np.linalg.eigvals(lw["W_limit"]).real)
        disp = np.sort(np.linalg.eigvals(lw["dispersionless"]).real)
        want = np.sort(np.concatenate([[hp.vg, hp.vg], disp]))
        assert np.allclose(zs, want, atol=1e-9)

    def test_randomized_block_reductions(self):
        """Similarity reductions hold for arbitrary synthetic limit data."""
        rng = np.random.default_rng(12)
        model = ModelSpec(kind="scalar", b=1.0,
                          f=Laurent.make([0.0, 0.0, 0.0, -1.0 / 6.0]),
                          kappa=Laurent.make([1.0]))
        for _ in range(100):
            hp = HarmonicPoint(
                v0=float(rng.uniform(0.5, 3.0)), mu0=0.0,
                c=float(rng.uniform(-1, 1)), lam=np.zeros(1),
                U0=np.array([rng.uniform(0.5, 3.0)]),
                k0=float(rng.uniform(0.05, 0.5)), Xi0=1.0,
                c0=float(rng.uniform(-1, 1)), vg=float(rng.uniform(-2, -0.2)),
                a0=float(rng.standard_normal()),
                b0=float(rng.standard_normal()), w0=1.0,
                grad_c0=rng.standard_normal(1),
                dispersionless_hyperbolic=True)
            H2 = model.hamiltonian_hessian(hp.U0)
            if abs(-H2[0, 0] - hp.vg) < 1e-3:
                continue
            lw = limiting_whitham_harmonic(model, hp)
            assert lw["block_residual"] < 1e-12 * max(
                1.0, np.max(np.abs(lw["W_limit"])))


class TestToyModel:
    def test_exact_eigenvalues(self):
        out = toy_double_root(0.01, 0.0, 1.0, 1.0, 0.0)
        assert np.allclose(np.sort(out["eigenvalues"].real), [-0.1, 0.1])
        assert out["classification"] == "hyperbolic"

    def test_degenerate_coupling_exact(self):
        out = toy_double_root(0.04, 0.0, 0.0, 1.0, 1.0)
        assert np.allclose(np.sort(out["eigenvalues"].real), [-0.04, 0.04])
        assert out["classification"] == "hyperbolic"

    def test_elliptic_case(self):
        out = toy_double_root(0.01, 0.0, 1.0, -1.0, 0.0)
        assert out["classification"] == "elliptic"
        assert np.max(np.abs(out["eigenvalues"].imag)) > 0.0

    def test_weakly_hyperbolic_cases(self):
        assert toy_double_root(0.01, 0.3, 1.0, 0.0, 1.0)[
            "classification"] == "weakly_hyperbolic"
        assert toy_double_root(0.0, 0.3, 1.0, 1.0, 0.0)[
            "classification"] == "weakly_hyperbolic"

    def test_expansion_rate(self):
        eps = np.geomspace(1e-2, 1e-5, 10)
        res = np.array([toy_double_root(e, 0.2, 1.3, 0.7, 0.4)
                        ["expansion_residual"] for e in eps])
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.1)


class TestDispersionlessFlag:
    def test_flag_matches_spectrum_realness(self):
        """The hyperbolicity flag tracks the dispersionless eigenvalues."""
        rng = np.random.default_rng(21)
        from conftest import random_lagrangian_wave
        from modlab.errors import NoWellMinimum
        checked = 0
        while checked < 20:
            out = random_lagrangian_wave(rng)
            if out is None:
                continue
            model, params = out
            try:
                hp = harmonic_point(narrowed(model, (-6.0, 8.0)), params.c,
                                    params.lam)
            except NoWellMinimum:
                continue
            sm = structural_matrices(model)
            zs = np.linalg.eigvals(-sm.B @ model.hamiltonian_hessian(hp.U0))
            is_real = np.max(np.abs(zs.imag)) < 1e-10
            assert hp.dispersionless_hyperbolic == is_real
            checked += 1
