"""Tests of the benchmark itself.

A small run of each workload passes its checks with the expected share
of kept failing operations, the traced run's counts match what the code
implies, and every check rejects an output perturbed past its tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from modbench import checks, inputs, reference, tracing  # noqa: E402

E2E = {m["name"] for m in
       json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _bench(workload: str, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "-m", "modbench.run", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("workload, round_size, failing", [
    ("wave-reports", 5, 0), ("limit-sweeps", 19, 3), ("cli-cold", 10, 0)])
def test_small_run_passes_its_checks(workload, round_size, failing):
    p = _bench(workload)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], p.stderr[-3000:]
    assert res["attempted"] % round_size == 0
    assert res["failed"] * round_size == failing * res["attempted"]
    assert set(res["metrics"]) == E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_what_the_code_implies():
    p = _bench("wave-reports", trace=1)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"], p.stderr[-3000:]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == PER_LAYER
    # one round: gkdv, quartic (N = 1, v1 present), ek_lagrangian (N = 2,
    # v1 present), ek_eulerian and nls_hydro (N = 2, no v1); a report is
    # one averaged_state plus a 2n + 1 point Hessian
    assert m["action.orbit_integrals_per_hessian"] == (7 + 7 + 9 + 9 + 9) / 5
    assert m["profiles.orbit_integrals.calls"] == (8 + 8 + 10 + 10 + 10) / 5
    assert m["kernels.horner_batch.calls"] == (32 + 32 + 40 + 20 + 20) / 5
    assert m["profiles.find_turning_points.calls"] == 1.0


def test_count_check_flags_a_short_hessian():
    spans = [(1, "action.action_hessian", 0.0, 1.0, None, 1, True, [3, False])]
    spans += [(2 + i, "profiles.orbit_integrals", 0.1, 0.2, 1, 1, True, False)
              for i in range(6)]
    spans += [(100 + i, "kernels.horner_batch", 0.1, 0.2, 2 + i // 2, 1, True,
               96) for i in range(12)]
    errs = tracing.count_errors(spans)
    assert errs == ["action_hessian (n=3, richardson=False): 6 "
                    "orbit_integrals, expected 7"]


def test_benchmark_alone_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "modbench", tmp_path / "modbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench("wave-reports", cwd=tmp_path)
    assert p.returncode != 0 and not p.stdout


# ----------------------------------------------------------------------------
# each check rejects a perturbed output


@pytest.fixture(scope="module")
def refs():
    with contextlib.chdir(ROOT):
        return inputs.ref_models()


def _wave_output(family: str, refs):
    import modlab

    with contextlib.chdir(ROOT):
        spec = inputs.wave_rounds(refs, 3)[0][inputs.FAMILIES.index(family)]
        model = modlab.model_from_dict(inputs.load_block(family))
    p = modlab.WaveParams(spec.mu, spec.c, np.array(spec.lam))
    br = modlab.find_turning_points(model, p)
    st = modlab.averaged_state(model, p, br)
    rep = modlab.whitham_report(model, p, br)
    return spec, {"eigenvalues": rep.eigenvalues, "whitham": rep.whitham,
                  "spectral_match_residual": rep.spectral_match_residual,
                  "Xi": st.Xi, "mean": float(st.meanU[0]),
                  "theta": st.Xi * (st.meanH + st.meanLH),
                  "classification": rep.classification}


@pytest.mark.parametrize("family", ["gkdv", "nls_hydro"])
def test_wave_check_rejects_perturbations(family, refs):
    spec, out = _wave_output(family, refs)
    model = refs[family]
    assert checks.check_wave(model, spec, out) == []
    bad = [dict(out, eigenvalues=out["eigenvalues"] * (1 + 1e-4)),
           dict(out, Xi=out["Xi"] * (1 + 1e-8)),
           dict(out, spectral_match_residual=1e-7)]
    if family == "gkdv":
        bad += [dict(out, mean=out["mean"] * (1 + 1e-8)),
                dict(out, theta=out["theta"] * (1 + 1e-8)),
                dict(out, classification="elliptic")]
    for b in bad:
        assert checks.check_wave(model, spec, b), b


def _closed_form_fits(op, model, dmi=None):
    if op.kind == "harmonic_fit":
        h = model.harmonic(op.c, op.lam)
        f = {"k_rate_exponent": 2.0,
             "alpha_over_delta2": h["alpha_over_delta2"]}
        f.update({f"c0_from_{law}_law": h["c0_law"]
                  for law in ("alpha", "xi", "mean")})
        return {"fits": f, "r2": {}}
    if op.kind == "harmonic_split":
        return {"fits": {"split2_over_alpha": dmi}, "r2": {}}
    s = reference.kdv_soliton(op.c)
    if op.kind == "soliton_fit":
        return {"fits": {"alpha_limit": s["dcM"], "d2cM_projection": s["dc2M"],
                         "xi_slope": s["xi_slope"]}, "r2": {}}
    return {"fits": {"split_coefficient": s["split_coefficient"],
                     "split_rate_exponent": 0.93},
            "r2": {"eigvec_angle": 0.995}}


PERTURB = {
    "harmonic_fit": [("fits", "k_rate_exponent", 1.06),
                     ("fits", "alpha_over_delta2", 1 + 2e-6),
                     ("fits", "c0_from_alpha_law", 1 + 2e-4),
                     ("fits", "c0_from_xi_law", 1 + 2e-4),
                     ("fits", "c0_from_mean_law", 1 - 2e-4)],
    "harmonic_split": [("fits", "split2_over_alpha", 1.03)],
    "soliton_fit": [("fits", "alpha_limit", 1 + 2e-3),
                    ("fits", "d2cM_projection", 1 - 2e-3),
                    ("fits", "xi_slope", 1 + 2e-3)],
    "soliton_split": [("fits", "split_coefficient", 1.06),
                      ("fits", "split_rate_exponent", 0.95),
                      ("r2", "eigvec_angle", 0.99)],
}


def test_sweep_checks_reject_perturbations(refs):
    import modlab

    with contextlib.chdir(ROOT):
        ops = inputs.sweep_ops(refs)
        quartic = modlab.model_from_dict(inputs.load_block("quartic"))
    kinds = set()
    for op in ops:
        if op.fault or op.kind in kinds and op.family != "quartic":
            continue
        kinds.add(op.kind)
        model = refs[op.family]
        dmi = (checks.delta_mi_reference(model, op, quartic)
               if op.kind == "harmonic_split" else None)
        out = _closed_form_fits(op, model, dmi)
        assert checks.check_sweep(model, op, out, dmi) == [], op.key
        for part, key, factor in PERTURB[op.kind]:
            bad = {p: dict(v) for p, v in out.items()}
            bad[part][key] *= factor
            assert checks.check_sweep(model, op, bad, dmi), (op.key, key)
    assert kinds == set(PERTURB)


def _cli_text(call, tmp_path):
    from modlab.cli import main

    argv = list(call.argv)
    if call.out:
        argv[argv.index("--out") + 1] = str(tmp_path / "sweep.csv")
    buf = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    if call.out:
        return ((tmp_path / "sweep.csv").read_text(),
                (tmp_path / "sweep.fit.json").read_text())
    return buf.getvalue(), None


CLI_PERTURB = {
    "wave": [("Xi", 1 + 1e-8)],
    "whitham/gkdv": [("eigenvalues_re", 1 + 1e-4)],
    "whitham/ek_lagrangian": [("eigenvalues_re", 1 + 1e-6)],
    "limit_harmonic": [("v0", 1 + 1e-8), ("k0", 1 - 1e-8)],
    "limit_soliton": [("dcM", 1 + 2e-3), ("dc2M", 1 - 2e-3)],
    "mi": [("delta_mi", 1 + 1e-8)],
    "toy": [("eigenvalues_re", 1 + 1e-10)],
    "conjugation": [("mi_polynomial_exponent", 1 + 1e-8),
                    ("alpha_over_k_residual", 1e6)],
    "sweep": [("fits.alpha_limit", 1 + 2e-3), ("splitting.split_coefficient",
                                               1.06)],
}


def test_cli_checks_reject_perturbations(refs, tmp_path):
    with contextlib.chdir(ROOT):
        calls = inputs.cli_calls()
    for call in calls:
        text, fit = _cli_text(call, tmp_path)
        assert checks.check_cli(call, refs, text, fit) == [], call.key
        for path, factor in CLI_PERTURB.get(call.key, []):
            rep = json.loads(fit if call.out else text)
            *head, last = path.split(".")
            node = rep
            for h in head:
                node = node[h]
            val = node[last]
            node[last] = ([v * factor for v in val] if isinstance(val, list)
                          else (val * factor if val else factor * 1e-12))
            bad = json.dumps(rep)
            args = (text, bad) if call.out else (bad, None)
            assert checks.check_cli(call, refs, *args), (call.key, path)
    assert checks.check_cli(calls[0], refs, "{not json", None)
