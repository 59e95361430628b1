"""Checks of the program's outputs against the reference side.

Every check returns a list of failure messages; an empty list passes.
Outputs arrive as plain dicts (or report text for the CLI), so a test
can hand a check a perturbed copy and see it rejected.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from . import reference as ref

EIG_TOL = 1e-10             # reported vs LAPACK eigenvalues, relative to max|W|
MATCH_TOL = 1e-8            # spectral_match_residual
XI_TOL = 1e-9               # period vs adaptive quadrature, relative
ELLIPTIC_TOL = 1e-9         # Xi, mean, Theta vs elliptic closed forms
KDV_SPEED_TOL = 1e-5        # eigenvalues vs Whitham's KdV speeds
K_RATE_TOL = 0.1
ALPHA_COEFF_TOL = 1e-6
C0_TOL = 1e-4
MI_RATIO_TOL = 0.02
SOLITON_TOL = 1e-3
SPLIT_COEFF_TOL = 0.05
SPLIT_RATE_MIN = 0.9
ANGLE_R2_MIN = 0.99
CLI_CLOSED_TOL = 1e-9
CONJ_RESIDUAL_TOL = 1e-10
CONJ_EXPONENT_TOL = 1e-8


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not math.isfinite(got) or _rel(got, want) > tol:
        return [f"{name} = {got!r}, expected {want!r} (rel tol {tol:g})"]
    return []


def _spectrum(eigenvalues, whitham, match) -> list[str]:
    W = np.asarray(whitham, dtype=float)
    z = np.asarray(eigenvalues, dtype=complex)
    lapack = np.linalg.eigvals(W)
    a = z[np.lexsort((z.imag, z.real))]
    b = lapack[np.lexsort((lapack.imag, lapack.real))]
    err = float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(W))), 1e-300)
    out = []
    if not err <= EIG_TOL:
        out.append(f"eigenvalues differ from LAPACK by {err:.3e} of max|W|")
    if not match <= MATCH_TOL:
        out.append(f"spectral_match_residual = {match:.3e}")
    return out


def _kdv_speeds(eigenvalues, e1: float, e2: float, e3: float) -> list[str]:
    """Eigenvalues vs Whitham's KdV speeds, relative to the largest speed.

    One speed can sit near zero, so the error is scaled by max |speed|.
    """
    z = np.asarray(eigenvalues, dtype=complex)
    speeds = ref.kdv_speeds(e1, e2, e3)
    err = float(np.max(np.abs(np.sort(z.real) - speeds))
                + np.max(np.abs(z.imag))) / float(np.max(np.abs(speeds)))
    if not err <= KDV_SPEED_TOL:
        return [f"eigenvalues differ from KdV speeds by {err:.3e}"]
    return []


# ----------------------------------------------------------------------------
# wave-reports


def check_wave(model: ref.RefModel, spec, out: dict) -> list[str]:
    """One wave: spectrum, period, and for the cubic well the closed forms.

    ``out`` holds eigenvalues, whitham, spectral_match_residual, Xi,
    mean, theta and classification of the program's report.
    """
    fails = _spectrum(out["eigenvalues"], out["whitham"],
                      out["spectral_match_residual"])
    xi = model.period_quad(spec.mu, spec.c, spec.lam, spec.v0)
    fails += _close("Xi (quadrature)", out["Xi"], xi, XI_TOL)
    if spec.family == "gkdv":
        v2, v3, others, _ = model.level_roots(spec.mu, spec.c, spec.lam,
                                              spec.v0)
        e1 = float(others[0].real)
        ell = ref.kdv_elliptic(e1, v2, v3)
        for key in ("Xi", "mean", "theta"):
            fails += _close(f"{key} (elliptic)", out[key], ell[key],
                            ELLIPTIC_TOL)
        if out["classification"] != "hyperbolic":
            fails.append(f"classification {out['classification']!r}")
        fails += _kdv_speeds(out["eigenvalues"], e1, v2, v3)
    return [f"{spec.key}: {m}" for m in fails]


# ----------------------------------------------------------------------------
# limit-sweeps


def delta_mi_reference(model: ref.RefModel, op, program_model) -> float:
    """Delta_MI at the harmonic anchor of a splitting sweep.

    gKdV: k0 f'''(v0)^2 from the model's coefficients.  Other families
    take the program's ``delta_mi`` at the reference (v0, k0).
    """
    h = model.harmonic(op.c, op.lam)
    if op.family == "gkdv":
        return h["k0"] * h["f3"] ** 2
    from modlab import delta_mi

    U0 = [h["v0"]]
    if model.N == 2:
        U0.append(model.g_jet(h["v0"], op.c, op.lam)[0])
    return float(delta_mi(program_model, U0, h["k0"]).delta_mi)


def check_sweep(model: ref.RefModel, op, out: dict, dmi: float | None = None
                ) -> list[str]:
    """Fits of one sweep call against the limit closed forms.

    ``out`` holds the ``fits`` and ``r2`` dicts of the fit or split report.
    """
    f, r2 = out["fits"], out["r2"]
    fails = []
    if op.kind == "harmonic_fit":
        h = model.harmonic(op.c, op.lam)
        if not abs(f["k_rate_exponent"] - 2.0) <= K_RATE_TOL:
            fails.append(f"k_rate_exponent = {f['k_rate_exponent']!r}")
        fails += _close("alpha_over_delta2", f["alpha_over_delta2"],
                        h["alpha_over_delta2"], ALPHA_COEFF_TOL)
        for law in ("alpha", "xi", "mean"):
            fails += _close(f"c0_from_{law}_law", f[f"c0_from_{law}_law"],
                            h["c0_law"], C0_TOL)
    elif op.kind == "harmonic_split":
        ratio = f["split2_over_alpha"]
        if model.kind == "euler_korteweg":
            ratio, dmi = abs(ratio), abs(dmi)
        fails += _close("split2_over_alpha", ratio, dmi, MI_RATIO_TOL)
    elif op.kind == "soliton_fit":
        s = ref.kdv_soliton(op.c)
        fails += _close("alpha_limit", f["alpha_limit"], s["dcM"], SOLITON_TOL)
        fails += _close("d2cM_projection", f["d2cM_projection"], s["dc2M"],
                        SOLITON_TOL)
        fails += _close("xi_slope", f["xi_slope"], s["xi_slope"], SOLITON_TOL)
    elif op.kind == "soliton_split":
        s = ref.kdv_soliton(op.c)
        fails += _close("split_coefficient", f["split_coefficient"],
                        s["split_coefficient"], SPLIT_COEFF_TOL)
        if not f["split_rate_exponent"] >= SPLIT_RATE_MIN:
            fails.append(f"split_rate_exponent = {f['split_rate_exponent']!r}")
        if not r2["eigvec_angle"] >= ANGLE_R2_MIN:
            fails.append(f"eigvec_angle R^2 = {r2['eigvec_angle']!r}")
    else:
        raise ValueError(op.kind)
    return [f"{op.key}: {m}" for m in fails]


# ----------------------------------------------------------------------------
# cli-cold


def check_cli(call, refs: dict, text: str, fit_text: str | None = None
              ) -> list[str]:
    """One CLI report (JSON, or the sweep's CSV plus fit JSON)."""
    fails = []
    try:
        rep = json.loads(fit_text if call.out else text)
    except (json.JSONDecodeError, TypeError) as exc:
        return [f"{call.key}: report does not parse: {exc}"]
    key = call.key
    gkdv = refs["gkdv"]
    if key == "validate":
        if rep.get("status") != "ok" or rep.get("N") != gkdv.N \
                or rep.get("kind") != gkdv.kind:
            fails.append(f"validate report {rep.get('status')!r}")
    elif key in ("wave", "whitham/gkdv"):
        v0 = gkdv.well(1.0, (0.0,))[0]
        v2, v3, others, _ = gkdv.level_roots(-0.5, 1.0, (0.0,), v0)
        e1 = float(others[0].real)
        if key == "wave":
            ell = ref.kdv_elliptic(e1, v2, v3)
            fails += _close("Xi (elliptic)", rep["Xi"], ell["Xi"],
                            ELLIPTIC_TOL)
            fails += _close("M (elliptic)", rep["M"][0], ell["mean"],
                            ELLIPTIC_TOL)
        else:
            z = np.array(rep["eigenvalues_re"]) + 1j * np.array(rep["eigenvalues_im"])
            fails += _kdv_speeds(z, e1, v2, v3)
    elif key == "whitham/ek_lagrangian":
        z = np.array(rep["eigenvalues_re"]) + 1j * np.array(rep["eigenvalues_im"])
        fails += _spectrum(z, rep["whitham"], rep["spectral_match_residual"])
    elif key == "limit_harmonic":
        h = gkdv.harmonic(1.0, (0.0,))
        fails += _close("v0", rep["v0"], h["v0"], CLI_CLOSED_TOL)
        fails += _close("k0", rep["k0"], h["k0"], CLI_CLOSED_TOL)
    elif key == "limit_soliton":
        s = ref.kdv_soliton(1.0)
        fails += _close("dcM", rep["dcM"], s["dcM"], SOLITON_TOL)
        fails += _close("dc2M", rep["dc2M"], s["dc2M"], SOLITON_TOL)
    elif key == "mi":
        k0 = float(call.argv[call.argv.index("--k0") + 1])
        v0 = float(call.argv[call.argv.index("--v0") + 1])
        f3 = gkdv.f3(v0)
        fails += _close("delta_mi", rep["delta_mi"], k0 * f3 * f3,
                        CLI_CLOSED_TOL)
    elif key == "toy":
        want = ref.toy_eigenvalues(0.01, 0.0, 1.0, 1.0, 0.0)
        got = np.array(rep["eigenvalues_re"]) + 1j * np.array(rep["eigenvalues_im"])
        err = float(np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))))
        if not err <= 1e-14 * max(1.0, float(np.max(np.abs(want)))):
            fails.append(f"toy eigenvalues off by {err:.3e}")
    elif key == "conjugation":
        for key in ("alpha_over_k_residual", "v0_product_residual",
                    "k0_dictionary_residual", "mi_polynomial_residual"):
            if not rep[key] <= CONJ_RESIDUAL_TOL:
                fails.append(f"{key} = {rep[key]!r}")
        if not abs(rep["mi_polynomial_exponent"] - 13.0) <= CONJ_EXPONENT_TOL:
            fails.append(f"mi_polynomial_exponent = "
                         f"{rep['mi_polynomial_exponent']!r}")
    elif key == "sweep":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 1 + rep["grid_points"]:
            fails.append(f"sweep CSV has {len(rows)} lines")
        s = ref.kdv_soliton(1.0)
        f, sp = rep["fits"], rep["splitting"]
        fails += _close("alpha_limit", f["alpha_limit"], s["dcM"], SOLITON_TOL)
        fails += _close("d2cM_projection", f["d2cM_projection"], s["dc2M"],
                        SOLITON_TOL)
        fails += _close("xi_slope", f["xi_slope"], s["xi_slope"], SOLITON_TOL)
        fails += _close("split_coefficient", sp["split_coefficient"],
                        s["split_coefficient"], SPLIT_COEFF_TOL)
    else:
        raise ValueError(key)
    return [f"{call.key}: {m}" for m in fails]
