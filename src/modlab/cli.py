"""Command-line front end: config ingestion, dispatch, report emission.

Reports are byte-stable: canonical field order, fixed float formatting
(shortest round-trip at precision 17), LF line endings, sweep rows in
grid order.

Exit codes: 0 success, 2 usage error, and for a failure the exit code
of its error group (see modlab.errors): 2 invalid input, 3 no periodic
orbit, 4 degenerate orbit or limit failure, 5 tolerance failure.
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
from .models import WaveParams, check_keys, model_from_dict
from .modulation import params_to_modvars, whitham_report
from .profiles import (MAX_QUAD_ORDER, averaged_state, find_turning_points,
                       orbit_integrals)
from .sweeps import asymptotic_sweep, eigen_splitting_fit

# ----------------------------------------------------------------------------
# deterministic formatting


def format_float(x: float, precision: int = 17) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if precision >= 17:
        return repr(float(x))
    return format(float(x), f".{precision}g")


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


def emit_report(report, sink, fmt: str = "json", precision: int = 17):
    """Serialize a report deterministically and write it to the sink.

    ``fmt`` is "json" for a report dict or "csv" for a sweep table.
    """
    render = render_csv if fmt == "csv" else render_json
    text = render(report, precision)
    try:
        if sink in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(sink, "wb") as fh:
                fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise err.IOFailure(str(exc)) from None


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


DEFAULT_NUMERIC = {"quad_order": 96, "precision": 17}


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read a JSON config; ``overrides`` replace numeric-block entries.

    Raises ConfigError on an unreadable file, a key modlab does not read,
    a quad_order outside [1, MAX_QUAD_ORDER] or a precision outside [6, 17].
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise err.ConfigError(f"cannot read config {path}: {exc}") from None
    check_keys(cfg, ("model", "numeric"), "config")
    if "model" not in cfg:
        raise err.ConfigError("config must contain a 'model' block")
    numeric = cfg.get("numeric", {})
    check_keys(numeric, DEFAULT_NUMERIC, "numeric")
    numeric = {**DEFAULT_NUMERIC, **numeric, **(overrides or {})}
    for key, lo, hi in (("quad_order", 1, MAX_QUAD_ORDER),
                        ("precision", 6, 17)):
        if type(numeric[key]) is not int or not lo <= numeric[key] <= hi:
            raise err.ConfigError(f"{key} must be an integer in [{lo}, {hi}],"
                                  f" got {numeric[key]!r}")
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


def cmd_validate(model, cfg, args) -> dict:
    return {"status": "ok", "kind": model.kind, "N": model.N,
            "b": model.b, "label": model.label, "domain": list(model.domain),
            "model": dict(sorted(cfg["model"].items()))}


def cmd_wave(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    quad_order = cfg["numeric"]["quad_order"]
    bracket = find_turning_points(model, params)
    o = orbit_integrals(model, params, bracket, quad_order)
    st = averaged_state(model, params, bracket, quad_order)
    mv = params_to_modvars(model, o.grad_theta)
    return {"params": {"mu": params.mu, "c": params.c,
                       "lambda": list(params.lam)},
            "bracket": {"v1": bracket.v1, "v2": bracket.v2,
                        "v3": bracket.v3, "regime": bracket.regime_hint},
            "k": mv.k, "alpha": mv.alpha, "M": list(mv.M),
            "Xi": st.Xi, "Theta": o.theta, "meanQ": st.meanQ,
            "meanH": st.meanH, "meanLH": st.meanLH,
            "quad_error": st.quad_error}


def cmd_whitham(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    fd = FDConfig(quad_order=cfg["numeric"]["quad_order"])
    rep = whitham_report(model, params, fd_config=fd)
    return {"params": {"mu": params.mu, "c": params.c,
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
    return {"c": hp.c, "lambda": list(hp.lam),
            "v0": hp.v0, "mu0": hp.mu0, "k0": hp.k0, "Xi0": hp.Xi0,
            "c0": hp.c0, "vg": hp.vg, "a0": hp.a0, "b0": hp.b0,
            "w0": hp.w0, "branch": hp.branch,
            "dispersionless_hyperbolic": hp.dispersionless_hyperbolic,
            "a_tilde0": lw["a_tilde0"],
            "block_residual": lw["block_residual"],
            "W_limit": [list(r) for r in lw["W_limit"]]}


def _soliton_anchor(model, args):
    """Soliton anchor of --lambda's family, or at --endstate (default 0)."""
    if args.lam is not None:
        return _soliton_point_at_lambda(model, args.c,
                                        _lambda_arg(args.lam, model.N))
    return soliton_point(model, args.c, _lambda_arg(args.endstate, model.N))


def cmd_limit_soliton(model, cfg, args) -> dict:
    sp = _soliton_anchor(model, args)
    lw = limiting_whitham_soliton(model, sp)
    return {"c": sp.cs, "lambda": list(sp.lambdas),
            "vs": sp.vs, "vS": sp.vS, "mus": sp.mus, "XiS": sp.XiS,
            "Us": list(sp.Us), "boussinesq": sp.boussinesq,
            "dcM": sp.dcM, "dc2M": sp.dc2M, "gradUM": list(sp.gradUM),
            "lambda_residual": sp.lambda_residual,
            "dk2H_limit": lw["dk2H_limit"],
            "block_residual": lw["block_residual"],
            "W_limit": [list(r) for r in lw["W_limit"]]}


def cmd_mi(model, cfg, args) -> dict:
    if model.N == 1 and args.u0 is not None:
        raise err.ConfigError("--u0 applies to two-field models only")
    u0 = 0.0 if args.u0 is None else args.u0
    U0 = [args.v0] if model.N == 1 else [args.v0, u0]
    rep = delta_mi(model, U0, args.k0, branch=args.branch)
    return {"v0": args.v0, "k0": rep.k0, "U0": list(rep.U0),
            "delta_mi": rep.delta_mi, "a_tilde0": rep.a_tilde0,
            "a0": rep.a0, "b0": rep.b0,
            "k_c": rep.k_c, "naive_index": rep.naive_index,
            "predicted_sign_alpha": rep.predicted_sign_alpha,
            "stability_verdict": rep.stability_verdict}


def cmd_toy(model, cfg, args) -> dict:
    out = toy_double_root(args.eps, args.v, args.a_tilde, args.delta,
                          args.delta_prime)
    return {"eps": args.eps, "v": args.v, "a_tilde": args.a_tilde,
            "delta": args.delta, "delta_prime": args.delta_prime,
            "eigenvalues_re": [float(z.real) for z in out["eigenvalues"]],
            "eigenvalues_im": [float(z.imag) for z in out["eigenvalues"]],
            "classification": out["classification"],
            "expansion_residual": out["expansion_residual"]}


def cmd_conjugation(model, cfg, args) -> dict:
    params = WaveParams(args.mu, args.c, _lambda_arg(args.lam, model.N))
    res = conjugation_check(model, params, cfg["numeric"]["quad_order"])
    return {"params": {"mu": params.mu, "c": params.c,
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
        if args.endstate is not None:
            raise err.ConfigError("--endstate applies to --regime soliton")
        anchor = harmonic_point(model, args.c, _lambda_arg(args.lam, model.N))
    else:
        anchor = _soliton_anchor(model, args)
    offsets = parse_grid(args.grid)
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
    fitrep = {"regime": table.regime,
              "grid_points": len(table.rows),
              "fits": {k: v for k, v in sorted(fit.fits.items())},
              "fit_r2": {k: v for k, v in sorted(fit.r2.items())},
              "splitting": {k: v for k, v in sorted(split.fits.items())},
              "splitting_r2": {k: v for k, v in sorted(split.r2.items())}}
    return (header, body), fitrep


# ----------------------------------------------------------------------------
# entry point


def _file_path(text: str) -> str:
    if text == "-":
        raise argparse.ArgumentTypeError("a sweep writes two files, not -")
    return text


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each accepting only the options it reads."""
    common, out, quad, line, anchor = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    common.add_argument("--config", required=True)
    common.add_argument("--precision", type=int)
    out.add_argument("--out", help="report path (default stdout)")
    quad.add_argument("--quad-order", type=int)
    lam = {"dest": "lam", "help": "comma-separated lambda components"}
    line.add_argument("--c", type=float, default=0.0)
    line.add_argument("--lambda", **lam)
    anchor.add_argument("--c", type=float, default=0.0)
    one = anchor.add_mutually_exclusive_group()
    one.add_argument("--lambda", **lam)
    one.add_argument("--endstate", help="comma-separated soliton endstate")
    wave = [common, out, quad, line]
    parents = {"validate": [common, out], "wave": wave, "whitham": wave,
               "limit_harmonic": [common, out, line],
               "limit_soliton": [common, out, anchor],
               "sweep": [common, quad, anchor], "mi": [common, out],
               "toy": [common, out], "conjugation": wave}
    ap = argparse.ArgumentParser(
        prog="modlab", allow_abbrev=False,
        description="periodic traveling waves and their modulation systems")
    sub = ap.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name, parents=ps, allow_abbrev=False)
           for name, ps in parents.items()}
    for name in ("wave", "whitham", "conjugation"):
        cmd[name].add_argument("--mu", type=float, required=True)
    sweep = cmd["sweep"]
    sweep.add_argument("--regime", required=True,
                       choices=("harmonic", "soliton"))
    sweep.add_argument("--grid", required=True, help="offset grid a:b:n")
    sweep.add_argument("--out", required=True, type=_file_path,
                       help="CSV path; the fit report goes beside it")
    for flag, default in (("--v0", 1.0), ("--u0", None), ("--k0", 0.2)):
        cmd["mi"].add_argument(flag, type=float, default=default)
    cmd["mi"].add_argument("--branch", choices=("plus", "minus"),
                           default="plus")
    for flag, default in (("--eps", 0.01), ("--v", 0.0), ("--a-tilde", 1.0),
                          ("--delta", 1.0), ("--delta-prime", 0.0)):
        cmd["toy"].add_argument(flag, type=float, default=default)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:        # usage error (2) or --help (0)
        return exc.code
    header = {"schema": "modlab/1", "command": args.command}
    try:
        overrides = {k: v for k, v in vars(args).items()
                     if k in DEFAULT_NUMERIC and v is not None}
        cfg = load_config(args.config, overrides)
        model = model_from_dict(cfg["model"])
        precision = cfg["numeric"]["precision"]
        if args.command == "sweep":
            table, fitrep = sweep_runner(model, cfg, args)
            emit_report(table, args.out, "csv", precision)
            stem = args.out[:-4] if args.out.endswith(".csv") else args.out
            emit_report({**header, **fitrep}, stem + ".fit.json", "json",
                        precision)
        else:
            report = HANDLERS[args.command](model, cfg, args)
            emit_report({**header, **report}, args.out, "json", precision)
        return 0
    except err.ModlabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
