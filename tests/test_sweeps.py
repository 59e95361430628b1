import math
from pathlib import Path

import numpy as np
import pytest

from modlab.cli import load_config
from modlab.errors import ConfigError, GridDegenerate
from modlab.limits import harmonic_point, soliton_point
from modlab.miindex import delta_mi
from modlab.models import WaveParams, gkdv_model, model_from_dict
from modlab.sweeps import (_pair_near, asymptotic_sweep, eigen_splitting_fit,
                           linear_fit, poly_extrapolate, sweep_table)

from conftest import narrowed, split_ratios
from oracles import d3_kka_H, power_soliton_moment

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parents[1] / "src" / "modlab" / "configs"


@pytest.fixture(scope="module")
def harmonic_anchor(gkdv):
    return harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.0, [0.0])


@pytest.fixture(scope="module")
def soliton_anchor(gkdv):
    return soliton_point(narrowed(gkdv, (-3.0, 5.0)), 1.0, [0.0])


@pytest.fixture(scope="module")
def harmonic_run(gkdv, harmonic_anchor):
    offsets = np.geomspace(1e-3, 1e-6, 10)
    return asymptotic_sweep(gkdv, harmonic_anchor, offsets)


@pytest.fixture(scope="module")
def soliton_run(gkdv, soliton_anchor):
    offsets = np.geomspace(1e-6, 1e-14, 9)
    return asymptotic_sweep(gkdv, soliton_anchor, offsets)


class TestHarmonicSweep:
    def test_wavenumber_rate(self, harmonic_run):
        _, fit = harmonic_run
        assert fit.fits["k_rate_exponent"] == pytest.approx(2.0, abs=0.1)

    def test_impulse_law_corrected_closed_form(self, harmonic_run,
                                               harmonic_anchor):
        _, fit = harmonic_run
        hp = harmonic_anchor
        # the quadratic impulse response carries w0/(4 k0) = pi/2 exactly
        assert fit.fits["alpha_over_delta2"] == pytest.approx(
            hp.w0 / (4.0 * hp.k0), rel=1e-6)

    def test_period_and_mean_law_consistency(self, harmonic_run):
        # the same quadratic-response constant from two independent laws
        _, fit = harmonic_run
        c0_xi = fit.fits["c0_from_xi_law"]
        c0_mean = fit.fits["c0_from_mean_law"]
        assert abs(c0_xi / c0_mean - 1.0) < 0.03

    def test_c0_recoveries_closed_form(self, harmonic_run, harmonic_anchor,
                                       gkdv):
        # the fitted "c0" is delta^2 / (4 (mu - mu0)) -> 1 / (2 W''(v0)),
        # W''(v0) = kappa(v0) (2 pi k0)^2; it is not HarmonicPoint.c0
        _, fit = harmonic_run
        hp = harmonic_anchor
        want = 1.0 / (2.0 * gkdv.kappa_jet(hp.v0, 0)[0]
                      * (TWO_PI * hp.k0) ** 2)
        assert want == pytest.approx(0.5, rel=1e-12)
        for key in ("c0_from_xi_law", "c0_from_alpha_law"):
            assert fit.fits[key] == pytest.approx(want, abs=1e-4)

    def test_xi_coefficient_value(self, harmonic_run):
        # Lindstedt-Poincare for W = mu0 + w^2/2 + w^3/6: 5/48
        _, fit = harmonic_run
        assert fit.fits["xi_coeff"] == pytest.approx(5.0 / 48.0, rel=1e-5)

    def test_mean_coefficient_value(self, harmonic_run):
        _, fit = harmonic_run
        assert fit.fits["mean_coeff"] == pytest.approx(-0.25, rel=1e-5)

    def test_whitham_matrix_convergence_rate(self, harmonic_run):
        _, fit = harmonic_run
        assert fit.fits["whitham_limit_rate"] == pytest.approx(2.0, abs=0.1)

    def test_fit_quality(self, harmonic_run):
        _, fit = harmonic_run
        for key in ("k_rate", "alpha", "Xi"):
            assert fit.r2[key] >= 0.999


class TestSolitonSweep:
    def test_period_slope_confirms_convention(self, soliton_run,
                                              soliton_anchor):
        _, fit = soliton_run
        # slope of Xi against -log rho is Xi_s / pi = 2
        assert fit.fits["xi_slope"] == pytest.approx(
            soliton_anchor.XiS / math.pi, rel=0.01)

    def test_alpha_extrapolates_to_impulse_moment(self, soliton_run,
                                                  soliton_anchor):
        _, fit = soliton_run
        assert abs(fit.fits["alpha_limit"] - soliton_anchor.dcM) \
            / soliton_anchor.dcM < 1e-3

    def test_hessian_blowup_constant(self, soliton_run):
        _, fit = soliton_run
        # exact value 4/9 for this family (from the period derivative law)
        assert fit.fits["hs"] == pytest.approx(4.0 / 9.0, rel=1e-4)

    def test_second_moment_projection(self, soliton_run, soliton_anchor):
        _, fit = soliton_run
        assert fit.fits["d2cM_projection"] == pytest.approx(
            soliton_anchor.dc2M, rel=1e-3)

    def test_intercept_projection_reported(self, soliton_run):
        _, fit = soliton_run
        assert np.isfinite(fit.fits["E_dot_Xs"])


class TestSolitonTheoremTwoField:
    """The shipped ek_lagrangian config at endstate (-1.2, 0.3), on both
    sides of the soliton theorem: the sign of d2_c M decides whether the
    near-soliton pair is real.  The V-projection reads the velocity entry
    g of V = (1, q, v, g), which no scalar family reaches."""

    @pytest.mark.parametrize("c, d2cM", [(0.8, 24.43), (0.5, -4.678)])
    def test_sign_of_d2cM_decides_the_pair(self, c, d2cM):
        model = model_from_dict(
            load_config(str(CONFIGS / "ek_lagrangian.json"))["model"])
        sp = soliton_point(model, c, [-1.2, 0.3])
        assert sp.dc2M == pytest.approx(d2cM, rel=1e-3)
        table, fit = asymptotic_sweep(model, sp, np.geomspace(1e-4, 1e-8, 6))
        assert fit.fits["d2cM_projection"] == pytest.approx(sp.dc2M,
                                                            rel=1e-5)
        for row in table.rows:
            zs = row.eigenvalues
            pair = zs[np.argsort(np.abs(zs - sp.cs))[:2]]
            # a real pair when d2_c M > 0, a conjugate pair (>= 1.1e-3 i
            # on this grid) when d2_c M < 0
            assert (np.max(np.abs(pair.imag)) > 1e-3) == (d2cM < 0.0)


def power_model(p):
    """gKdV power family f = -v^(p+2) / ((p+1)(p+2)), kappa = b = 1."""
    top = -1.0 / ((p + 1) * (p + 2))
    return gkdv_model(f_coeffs=(0.0,) * (p + 2) + (top,), label=f"gkdv_p{p}")


class TestSolitonTheoremPowerFamily:
    """The soliton theorem on the gKdV power family at endstate 0, against
    the closed-form moment: d2_c M > 0 for p < 4, = 0 at p = 4 and < 0
    for p > 4, and the pair nearest c_s is real or conjugate to match.
    At p = 4 only d2_c M = 0 is gated: near c_s the two nearest
    eigenvalues differ in real part there, so they are no plain pair."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_anchor_meets_the_closed_form(self, p, c):
        sp = soliton_point(power_model(p), c, [0.0])
        M, dcM, dc2M = power_soliton_moment(p, c)
        assert abs(sp.boussinesq - M) <= 1e-12 * M
        assert abs(sp.dcM - dcM) <= 1e-12 * dcM
        if p == 4:
            assert dc2M == 0.0 and abs(sp.dc2M) <= 1e-12
        else:
            assert abs(sp.dc2M - dc2M) <= 1e-11 * abs(dc2M)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_sign_of_d2cM_decides_the_pair(self, p, c):
        model = power_model(p)
        sp = soliton_point(model, c, [0.0])
        rhos = np.array([1e-2, 1e-3, 1e-4])
        table = sweep_table(model, sp, 1.125 * c * rhos ** 2)
        for row in table.rows:
            pair, _ = _pair_near(row.eigenvalues, sp.cs)
            if power_soliton_moment(p, c)[2] > 0.0:
                assert np.all(pair.imag == 0.0)
            else:
                # |Im| runs from 0.44 at rho = 1e-2 down to 2.5e-3
                assert pair[1] == np.conj(pair[0])
                assert np.min(np.abs(pair.imag)) >= 1e-3


@pytest.fixture(scope="module", params=[1, 2, 3, 4, 5])
def harmonic_power_run(request):
    """(p, model, anchor, Delta_MI report, table) of the power family at
    c = 1, lambda = 0 on the delta grid 0.02 -> 6e-3; W''(v0) = p there."""
    p = request.param
    model = narrowed(power_model(p), (0.5, 5.0))
    hp = harmonic_point(model, 1.0, [0.0])
    deltas = np.geomspace(0.02, 6e-3, 7)
    table = sweep_table(model, hp, 0.5 * p * deltas ** 2)
    return p, model, hp, delta_mi(model, [hp.v0], hp.k0), table


class TestHarmonicTheoremPowerFamily:
    """The harmonic theorem on the gKdV power family: small-amplitude
    waves are modulationally unstable exactly when p > 2 (Bronski and
    Johnson, ARMA 197, 2010).  Delta_MI = k0 p^2 v0^(p-2) (4 - 2p) at
    the well bottom v0 = (p+1)^(1/p) is positive for p = 1, zero for
    p = 2 and negative for p > 2; the pair nearest v_g is real or
    conjugate to match, and its squared half-gap over alpha recovers
    |Delta_MI|."""

    def test_index_meets_the_closed_form(self, harmonic_power_run):
        p, _, hp, rep, _ = harmonic_power_run
        scale = hp.k0 * p ** 2 * hp.v0 ** (p - 2)
        assert abs(rep.delta_mi - scale * (4 - 2 * p)) <= 1e-12 * scale
        want = {1: "modulationally_stable", 2: "marginal"}.get(
            p, "modulationally_unstable")
        assert rep.stability_verdict == want

    def test_sign_of_the_index_decides_the_pair(self, harmonic_power_run):
        p, _, hp, _, table = harmonic_power_run
        for row in table.rows:
            pair, _ = _pair_near(row.eigenvalues, hp.vg)
            if p <= 2:
                assert np.all(pair.imag == 0.0)
            else:
                # |Im| runs from 1.6e-2 (p = 3, delta = 6e-3) to 0.21
                assert pair[1] == np.conj(pair[0])
                assert np.min(np.abs(pair.imag)) >= 1e-2

    def test_split_law_recovers_the_index(self, harmonic_power_run):
        p, model, hp, rep, table = harmonic_power_run
        split = eigen_splitting_fit(model, hp, table=table)
        ratio = split.fits["split2_over_alpha"]
        assert split.r2["split2_over_alpha"] >= 0.999
        if p == 2:
            # the pair stays double to the eigen noise: 1.4e-9 measured
            assert abs(ratio) <= 1e-6
        else:
            # the half-gap is unsigned, so the ratio meets |Delta_MI|
            # (to <= 1.7e-5 measured)
            assert abs(ratio - abs(rep.delta_mi)) <= 1e-3 * abs(rep.delta_mi)


@pytest.fixture(scope="module")
def harmonic_split_run(gkdv, harmonic_anchor):
    offsets = np.geomspace(0.02, 6e-3, 7) ** 2 / 2.0
    table = sweep_table(gkdv, harmonic_anchor, offsets)
    return table, eigen_splitting_fit(gkdv, harmonic_anchor, table=table)


@pytest.fixture(scope="module")
def soliton_split_run(gkdv, soliton_anchor):
    rhos = np.geomspace(1e-2, 1e-6, 12)
    table = sweep_table(gkdv, soliton_anchor, (9.0 / 8.0) * rhos ** 2)
    return table, eigen_splitting_fit(gkdv, soliton_anchor, table=table)


class TestSplittingHarmonic:

    def test_split_ratio_matches_index(self, harmonic_split_run, gkdv,
                                       harmonic_anchor):
        rep = delta_mi(gkdv, [harmonic_anchor.v0], harmonic_anchor.k0)
        table, split_run = harmonic_split_run
        d = table.column("grid_param")
        ratio = split_ratios(table, harmonic_anchor.vg)
        mask = d <= 0.02
        assert np.all(np.abs(ratio[mask] - rep.delta_mi)
                      / rep.delta_mi < 0.02)
        assert split_run.fits["split2_over_alpha"] == pytest.approx(
            rep.delta_mi, rel=0.02)

    def test_eigvec_coefficient(self, harmonic_split_run, gkdv, harmonic_anchor):
        _, split_run = harmonic_split_run
        rep = delta_mi(gkdv, [harmonic_anchor.v0], harmonic_anchor.k0)
        want = d3_kka_H(gkdv, harmonic_anchor) / math.sqrt(rep.delta_mi)
        assert split_run.fits["eigvec_coefficient"] == pytest.approx(
            want, rel=0.05)

    def test_dispersionless_drift_linear_in_alpha(self, harmonic_split_run):
        _, split_run = harmonic_split_run
        assert split_run.fits["dispersionless_drift_rate"] == pytest.approx(
            1.0, abs=0.1)

    def test_table_of_another_anchor_is_refused(self, harmonic_split_run,
                                                gkdv):
        # a second anchor of the same family, its well minimum at v = 3
        table, _ = harmonic_split_run
        other = harmonic_point(narrowed(gkdv, (0.5, 5.0)), 1.5, [0.0])
        with pytest.raises(ConfigError, match="another anchor"):
            eigen_splitting_fit(gkdv, other, table=table)


class TestSplittingSoliton:

    def test_coefficient_self_consistency(self, soliton_split_run, gkdv,
                                          soliton_anchor):
        table, split = soliton_split_run
        _, fit = asymptotic_sweep(gkdv, soliton_anchor,
                                  np.geomspace(1e-6, 1e-12, 7))
        want = math.sqrt(math.pi / (fit.fits["hs"] * soliton_anchor.XiS
                                    * soliton_anchor.dc2M))
        assert split.fits["split_coefficient"] == pytest.approx(want,
                                                                rel=0.05)

    def test_rate_exponent(self, soliton_split_run):
        _, split = soliton_split_run
        assert split.fits["split_rate_exponent"] >= 0.9

    def test_eigvec_drift_law(self, soliton_split_run):
        _, split = soliton_split_run
        assert split.r2["eigvec_angle"] >= 0.99
        assert split.fits["eigvec_angle_slope"] > 0.0

    def test_fit_leaves_the_table_unchanged(self):
        # p = 5: the splitting pair is complex, so the real parts of its
        # eigenvectors are not unit vectors; normalising them in place
        # would change the table
        m = gkdv_model(f_coeffs=(0.0,) * 7 + (-1.0 / 42.0,), label="p5")
        sp = soliton_point(m, 1.0, [0.0])
        table = sweep_table(m, sp, np.geomspace(1e-4, 1e-8, 6))
        before = [r.eigenvectors.copy() for r in table.rows]
        eigen_splitting_fit(m, sp, table=table)
        for r, vecs in zip(table.rows, before):
            assert np.array_equal(r.eigenvectors, vecs)


class TestSplittingNegativeAlpha:
    """Euler-Korteweg anchors have w0 < 0, so alpha < 0 along the sweep."""

    # the harmonic branch of eigen_splitting_fit takes sqrt(alpha) and
    # log(alpha); numpy's polyfit then fails on the NaNs.  The mend (use
    # |alpha| there, keep split2_over_alpha signed) waits on the
    # benchmark, whose limit-sweeps test counts these calls as failing
    @pytest.mark.xfail(raises=np.linalg.LinAlgError, strict=True,
                       reason="sqrt/log of alpha < 0 in eigen_splitting_fit")
    def test_ek_lagrangian_anchor(self, ek_lagrangian):
        c, lam = 0.8, [0.4, -0.2]
        hp = harmonic_point(ek_lagrangian, c, lam)
        assert hp.w0 < 0.0
        w2 = ek_lagrangian.potential_jet(hp.v0, WaveParams(hp.mu0, c, lam),
                                         2)[2]
        offs = 0.5 * w2 * np.geomspace(0.02, 6e-3, 7) ** 2
        table = sweep_table(ek_lagrangian, hp, offs)
        rep = eigen_splitting_fit(ek_lagrangian, hp, table=table)
        assert np.all(table.column("alpha") < 0.0)
        u0 = ek_lagrangian.velocity_jet(hp.v0, c, lam[1])[0]
        dmi = delta_mi(ek_lagrangian, [hp.v0, u0], hp.k0).delta_mi
        # the ratio keeps alpha's sign; its magnitude is |Delta_MI|
        assert abs(rep.fits["split2_over_alpha"]) == pytest.approx(
            abs(dmi), rel=1e-3)
        assert rep.fits["dispersionless_drift_rate"] == pytest.approx(
            1.0, abs=1e-3)
        assert math.isfinite(rep.fits["eigvec_coefficient"])


class TestFitHelpers:
    def test_linear_fit_exact(self):
        x = np.linspace(0.0, 1.0, 9)
        s, i0, r2 = linear_fit(x, 3.0 * x - 2.0)
        assert (s, i0) == pytest.approx((3.0, -2.0))
        assert r2 == 1.0

    def test_poly_extrapolate_flat_counts_as_resolved(self):
        x = np.linspace(0.01, 0.05, 8)
        y = np.full_like(x, 5.0) + 1e-9 * np.sin(x * 40)
        val, r2 = poly_extrapolate(x, y, 1)
        assert val == pytest.approx(5.0, rel=1e-8)
        assert r2 == 1.0

    def test_grid_validation(self, gkdv, harmonic_anchor):
        with pytest.raises(GridDegenerate):
            sweep_table(gkdv, harmonic_anchor, [1e-3, 1e-3, 1e-3])
        with pytest.raises(GridDegenerate):
            sweep_table(gkdv, harmonic_anchor, [1e-5, 1e-4, 1e-3])

    def test_sweep_table_deterministic_across_runs(self, gkdv,
                                                   harmonic_anchor):
        offs = np.geomspace(1e-3, 1e-5, 5)
        t1 = sweep_table(gkdv, harmonic_anchor, offs)
        t2 = sweep_table(gkdv, harmonic_anchor, offs)
        for a, b in zip(t1.rows, t2.rows):
            assert a.k == b.k and a.alpha == b.alpha
            assert np.array_equal(a.whitham, b.whitham)


class TestUnstableFamily:
    """A negative-quartic family above its critical wavenumber
    destabilizes."""

    def test_elliptic_pair_and_negative_index(self):
        from modlab.miindex import critical_wavenumber
        from modlab.models import gkdv_model
        m = gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0, -1.0 / 48.0),
                       label="neg_quartic")
        hp = harmonic_point(narrowed(m, (0.5, 1.5)), -0.75, [4.0 / 3.0])
        assert hp.v0 == pytest.approx(1.0, abs=1e-10)
        kc = critical_wavenumber(m, hp.v0)
        assert hp.k0 > kc
        rep = delta_mi(m, [hp.v0], hp.k0)
        assert rep.stability_verdict == "modulationally_unstable"
        table = sweep_table(m, hp, np.geomspace(2e-4, 2e-5, 5))
        for r in table.rows:
            zs = r.eigenvalues
            order = np.argsort(np.abs(zs - hp.vg))
            pair = zs[order[:2]]
            # side-band pair leaves the real axis; its squared half-gap
            # recovers the (negative) instability index against alpha
            assert np.max(np.abs(pair.imag)) > 0.0
            signed = np.real(((pair[1] - pair[0]) / 2.0) ** 2)
            assert signed < 0.0
            assert signed / r.alpha == pytest.approx(rep.delta_mi, rel=0.02)
