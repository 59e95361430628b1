"""Command-line front end: config ingestion, dispatch, report emission.

Reports are byte-stable: canonical field order, fixed float formatting
(shortest round-trip at precision 17), LF line endings, sweep rows in
grid order.

Exit codes: 0 success, and for a failure the exit code of its error
group (see modlab.errors): 2 invalid input, 3 no periodic orbit,
4 degenerate orbit or limit failure, 5 tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import errors as err
from .action import FDConfig
from .limits import _soliton_point_at_lambda, harmonic_point, \
    limiting_whitham_harmonic, limiting_whitham_soliton, soliton_point, \
    toy_double_root
from .miindex import conjugation_check, delta_mi
from .models import WaveParams, model_from_dict
from .modulation import params_to_modvars, whitham_report
from .profiles import averaged_state, find_turning_points, orbit_integrals
from .sweeps import asymptotic_sweep, eigen_splitting_fit

COMMANDS = ("validate", "wave", "whitham", "limit_harmonic", "limit_soliton",
            "sweep", "mi", "toy", "conjugation")

EXIT_OK = 0


# ----------------------------------------------------------------------------
# deterministic formatting


def format_float(x: float, precision: int = 17) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if precision >= 17:
        return repr(float(x))
    s = format(float(x), f".{precision}g")
    return s


def render_json(obj, precision: int = 17) -> str:
    """Canonical JSON text: insertion order, fixed float format, LF only."""

    def rec(o, indent):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{pad}  "{k}": {rec(v, indent + 1)}'
                     for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            seq = list(o)
            if not seq:
                return "[]"
            flat = all(isinstance(v, (int, float, np.floating, np.integer))
                       for v in seq)
            if flat:
                return "[" + ", ".join(rec(v, indent) for v in seq) + "]"
            items = [f"{pad}  {rec(v, indent + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, (np.floating, float)):
            return format_float(float(o), precision)
        if isinstance(o, (np.integer, int)):
            return str(int(o))
        return json.dumps(str(o))

    return rec(obj, 0) + "\n"


def emit_report(report, sink, fmt: str = "json", precision: int = 17) -> bytes:
    """Serialize a report deterministically and write it to the sink.

    ``fmt`` is "json" for a report dict or "csv" for a sweep table.
    """
    render = render_csv if fmt == "csv" else render_json
    text = render(report, precision)
    data = text.encode("utf-8")
    try:
        if sink in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(sink, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        raise err.IOFailure(str(exc)) from None
    return data


def render_csv(rows, precision: int = 17) -> str:
    """rows = (header_list, list of value lists)."""
    header, body = rows
    out = [",".join(f'"{h}"' for h in header)]
    for r in body:
        out.append(",".join(
            format_float(v, precision) if isinstance(v, (float, np.floating))
            else str(v) for v in r))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------------
# configuration


DEFAULT_NUMERIC = {
    "quad_order": 96,
    "precision": 17,
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise err.ConfigError(f"cannot read config {path}: {exc}") from None
    if "model" not in cfg:
        raise err.ConfigError("config must contain a 'model' block")
    numeric = dict(DEFAULT_NUMERIC)
    numeric.update(cfg.get("numeric", {}))
    p = int(numeric.get("precision", 17))
    if not 6 <= p <= 17:
        raise err.ConfigError("precision must lie in [6, 17]")
    cfg["numeric"] = numeric
    return cfg


def parse_grid(spec: str) -> np.ndarray:
    """'a:b:n' -> n geometrically spaced offsets from a down to b."""
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise err.ConfigError(f"bad grid spec {spec!r}; expected a:b:n") from None
    if a <= 0 or b <= 0 or n < 3 or a == b:
        raise err.ConfigError("grid endpoints must be positive and distinct")
    if a < b:
        a, b = b, a
    return np.geomspace(a, b, n)


def _lambda_arg(text: str | None, N: int) -> np.ndarray:
    if text is None:
        return np.zeros(N)
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != N:
        raise err.ConfigError(
            f"expected {N} comma-separated number(s), got {text!r}")
    return np.asarray(vals)


# ----------------------------------------------------------------------------
# command handlers


def _model_echo(cfg: dict) -> dict:
    m = cfg["model"]
    return {k: m[k] for k in sorted(m)}


def cmd_validate(model, cfg, args) -> dict:
    return {"schema": "modlab/1", "command": "validate",
            "status": "ok", "kind": model.kind, "N": model.N,
            "b": model.b, "label": model.label,
            "domain": [model.domain[0], model.domain[1]],
            "model": _model_echo(cfg)}


def _wave_payload(model, params, quad_order):
    bracket = find_turning_points(model, params)
    o = orbit_integrals(model, params, bracket, quad_order)
    st = averaged_state(model, params, bracket, quad_order)
    mv = params_to_modvars(model, o.grad_theta)
    return bracket, o, st, mv


def cmd_wave(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    bracket, o, st, mv = _wave_payload(model, params,
                                       cfg["numeric"]["quad_order"])
    return {"schema": "modlab/1", "command": "wave",
            "params": {"mu": params.mu, "c": params.c,
                       "lambda": list(params.lam)},
            "bracket": {"v1": bracket.v1, "v2": bracket.v2,
                        "v3": bracket.v3, "regime": bracket.regime_hint},
            "k": mv.k, "alpha": mv.alpha, "M": list(mv.M),
            "Xi": st.Xi, "Theta": o.theta, "meanQ": st.meanQ,
            "meanH": st.meanH, "meanLH": st.meanLH,
            "quad_error": st.quad_error}


def cmd_whitham(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    rep = whitham_report(model, params,
                         fd_config=FDConfig(
                             quad_order=cfg["numeric"]["quad_order"]))
    return {"schema": "modlab/1", "command": "whitham",
            "params": {"mu": params.mu, "c": params.c,
                       "lambda": list(params.lam)},
            "classification": rep.classification,
            "eigenvalues_re": [float(z.real) for z in rep.eigenvalues],
            "eigenvalues_im": [float(z.imag) for z in rep.eigenvalues],
            "eig_residuals": list(rep.residuals),
            "spectral_match_residual": rep.spectral_match_residual,
            "hessH": [list(r) for r in rep.hessH],
            "whitham": [list(r) for r in rep.whitham],
            "hessH_negative_signature": rep.hessH_negative_signature,
            "theta_negative_signature": rep.theta_negative_signature,
            "eigvec_condition": rep.eigvec_condition}


def cmd_limit_harmonic(model, cfg, args) -> dict:
    hp = harmonic_point(model, args.c, _lambda_arg(args.lam, model.N))
    lw = limiting_whitham_harmonic(model, hp)
    return {"schema": "modlab/1", "command": "limit_harmonic",
            "c": hp.c, "lambda": list(hp.lam),
            "v0": hp.v0, "mu0": hp.mu0, "k0": hp.k0, "Xi0": hp.Xi0,
            "c0": hp.c0, "vg": hp.vg, "a0": hp.a0, "b0": hp.b0,
            "w0": hp.w0, "branch": hp.branch,
            "dispersionless_hyperbolic": hp.dispersionless_hyperbolic,
            "a_tilde0": lw["a_tilde0"],
            "block_residual": lw["block_residual"],
            "W_limit": [list(r) for r in lw["W_limit"]]}


def _soliton_anchor(model, args):
    """Soliton anchor of --lambda's family, or at --endstate (default 0)."""
    if args.lam is not None and args.endstate is not None:
        raise err.ConfigError("give --lambda or --endstate, not both")
    if args.lam is not None:
        return _soliton_point_at_lambda(model, args.c,
                                        _lambda_arg(args.lam, model.N))
    return soliton_point(model, args.c, _lambda_arg(args.endstate, model.N))


def cmd_limit_soliton(model, cfg, args) -> dict:
    sp = _soliton_anchor(model, args)
    lw = limiting_whitham_soliton(model, sp)
    return {"schema": "modlab/1", "command": "limit_soliton",
            "c": sp.cs, "lambda": list(sp.lambdas),
            "vs": sp.vs, "vS": sp.vS, "mus": sp.mus, "XiS": sp.XiS,
            "Us": list(sp.Us), "boussinesq": sp.boussinesq,
            "dcM": sp.dcM, "dc2M": sp.dc2M, "gradUM": list(sp.gradUM),
            "lambda_residual": sp.lambda_residual,
            "dk2H_limit": lw["dk2H_limit"],
            "block_residual": lw["block_residual"],
            "W_limit": [list(r) for r in lw["W_limit"]]}


def cmd_mi(model, cfg, args) -> dict:
    v0 = args.v0 if args.v0 is not None else 1.0
    U0 = [v0] if model.N == 1 else [v0, args.u0]
    rep = delta_mi(model, U0, args.k0, branch=args.branch or "plus")
    return {"schema": "modlab/1", "command": "mi",
            "v0": v0, "k0": rep.k0, "U0": list(rep.U0),
            "delta_mi": rep.delta_mi, "a_tilde0": rep.a_tilde0,
            "a0": rep.a0, "b0": rep.b0,
            "k_c": rep.k_c, "naive_index": rep.naive_index,
            "predicted_sign_alpha": rep.predicted_sign_alpha,
            "stability_verdict": rep.stability_verdict}


def cmd_toy(model, cfg, args) -> dict:
    out = toy_double_root(args.eps, args.v, args.a_tilde, args.delta,
                          args.delta_prime)
    return {"schema": "modlab/1", "command": "toy",
            "eps": args.eps, "v": args.v, "a_tilde": args.a_tilde,
            "delta": args.delta, "delta_prime": args.delta_prime,
            "eigenvalues_re": [float(z.real) for z in out["eigenvalues"]],
            "eigenvalues_im": [float(z.imag) for z in out["eigenvalues"]],
            "classification": out["classification"],
            "expansion_residual": out["expansion_residual"]}


def cmd_conjugation(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    res = conjugation_check(model, params, cfg["numeric"]["quad_order"])
    return {"schema": "modlab/1", "command": "conjugation",
            "params": {"mu": params.mu, "c": params.c,
                       "lambda": list(params.lam)},
            "alpha_over_k_residual": res["alpha_over_k"],
            "v0_product_residual": res["v0_product"],
            "k0_dictionary_residual": res["k0_dictionary"],
            "mi_polynomial_residual": res["mi_polynomial"],
            "mi_polynomial_exponent": res["mi_polynomial_exponent"],
            "ratio_E": res["ratio_E"], "ratio_L": res["ratio_L"]}


def sweep_runner(model, cfg, args):
    """Drive a limit sweep; returns ((header, rows), fit_report_dict)."""
    if args.regime == "harmonic":
        anchor = harmonic_point(model, args.c, _lambda_arg(args.lam, model.N))
    elif args.regime == "soliton":
        anchor = _soliton_anchor(model, args)
    else:
        raise err.ConfigError("sweep needs --regime harmonic|soliton")
    offsets = parse_grid(args.grid or cfg.get("sweep", {}).get("grid", ""))
    quad = cfg["numeric"]["quad_order"]
    table, fit = asymptotic_sweep(model, anchor, offsets, quad)
    split = eigen_splitting_fit(model, anchor, table=table)
    n = model.N
    header = (["regime", "grid_param", "mu", "k", "alpha"]
              + [f"M{j + 1}" for j in range(n)] + ["Xi"]
              + [f"eig_re_{j + 1}" for j in range(n + 2)]
              + [f"eig_im_{j + 1}" for j in range(n + 2)]
              + ["residual"])
    body = []
    for r in table.rows:
        body.append([r.regime, r.grid_param, r.mu, r.k, r.alpha]
                    + [float(x) for x in r.M] + [r.Xi]
                    + [float(z.real) for z in r.eigenvalues]
                    + [float(z.imag) for z in r.eigenvalues]
                    + [float(np.max(r.eig_residuals))])
    fitrep = {"schema": "modlab/1", "command": "sweep",
              "regime": table.regime,
              "grid_points": len(table.rows),
              "fits": {k: v for k, v in sorted(fit.fits.items())},
              "fit_r2": {k: v for k, v in sorted(fit.r2.items())},
              "splitting": {k: v for k, v in sorted(split.fits.items())},
              "splitting_r2": {k: v for k, v in sorted(split.r2.items())}}
    return (header, body), fitrep


# ----------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modlab",
        description="periodic traveling waves and their modulation systems")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--mu", type=float, default=None)
    ap.add_argument("--c", type=float, default=0.0)
    ap.add_argument("--lambda", dest="lam", default=None,
                    help="comma-separated lambda components")
    ap.add_argument("--endstate", default=None,
                    help="soliton endstate components (comma-separated)")
    ap.add_argument("--v0", type=float, default=None)
    ap.add_argument("--u0", type=float, default=0.0)
    ap.add_argument("--k0", type=float, default=0.2)
    ap.add_argument("--grid", default=None, help="offset grid a:b:n")
    ap.add_argument("--regime", choices=("harmonic", "soliton"), default=None)
    ap.add_argument("--branch", choices=("plus", "minus"), default=None,
                    help="harmonic speed branch of mi (default plus)")
    ap.add_argument("--out", default=None)
    ap.add_argument("--quad-order", type=int, default=None)
    ap.add_argument("--precision", type=int, default=None)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--v", type=float, default=0.0)
    ap.add_argument("--a-tilde", dest="a_tilde", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--delta-prime", dest="delta_prime", type=float,
                    default=0.0)
    return ap


HANDLERS = {
    "validate": cmd_validate,
    "wave": cmd_wave,
    "whitham": cmd_whitham,
    "limit_harmonic": cmd_limit_harmonic,
    "limit_soliton": cmd_limit_soliton,
    "mi": cmd_mi,
    "toy": cmd_toy,
    "conjugation": cmd_conjugation,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.branch is not None and args.command != "mi":
            raise err.ConfigError("--branch applies to mi only")
        cfg = load_config(args.config)
        if args.quad_order is not None:
            cfg["numeric"]["quad_order"] = args.quad_order
        if args.precision is not None:
            if not 6 <= args.precision <= 17:
                raise err.ConfigError("precision must lie in [6, 17]")
            cfg["numeric"]["precision"] = args.precision
        model = model_from_dict(cfg["model"])
        precision = cfg["numeric"]["precision"]
        if args.command == "sweep":
            if args.out is None:
                raise err.ConfigError("sweep requires --out for its CSV")
            table, fitrep = sweep_runner(model, cfg, args)
            emit_report(table, args.out, "csv", precision)
            emit_report(fitrep, _fit_path(args.out), "json", precision)
            return EXIT_OK
        if args.command in ("wave", "whitham", "conjugation") \
                and args.mu is None:
            raise err.ConfigError(f"{args.command} requires --mu")
        report = HANDLERS[args.command](model, cfg, args)
        emit_report(report, args.out, "json", precision)
        return EXIT_OK
    except err.ModlabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def _fit_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".fit.json"


if __name__ == "__main__":
    sys.exit(main())
