"""Spans around calls into modlab's public functions, from outside the program.

``Tracer.install`` replaces each target function by a wrapper in every
``modlab`` module namespace that binds it (``kernels.horner_batch`` is
looked up at call time, so rebinding it in ``kernels`` covers every
caller).  A span records (id, name, start, end, parent, thread, extra);
spans stay in memory and are written once, when the run ends.  A span
opened in a sweep-pool thread takes the enclosing ``sweep_table`` span as
its parent.  Only the standard library is imported here, so a traced CLI
child can install the wrappers before its first numpy import.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

TARGETS = (
    ("kernels", "horner_batch"),
    ("profiles", "find_turning_points"),
    ("profiles", "orbit_integrals"),
    ("profiles", "bracket_near_limit"),
    ("action", "action_hessian"),
    ("action", "rebracket"),
    ("modulation", "whitham_report"),
    ("modulation", "hessianH"),
    ("modulation", "spectrum_and_classification"),
    ("eigen", "eig_small"),
    ("limits", "harmonic_point"),
    ("limits", "soliton_point"),
    ("limits", "limiting_whitham_harmonic"),
    ("limits", "limiting_whitham_soliton"),
    ("sweeps", "sweep_table"),
    ("sweeps", "asymptotic_sweep"),
    ("sweeps", "eigen_splitting_fit"),
    ("miindex", "delta_mi"),
    ("miindex", "conjugation_check"),
    ("cli", "load_config"),
    ("cli", "render_json"),
)


def _extra(name: str, args, kwargs):
    """Deterministic facts a count check needs, recorded with the span."""
    if name == "horner_batch":
        return len(args[1])
    if name == "orbit_integrals":
        return args[2].v1 is not None          # two quadrature segments
    if name == "action_hessian":
        cfg = args[3] if len(args) > 3 else kwargs.get("fd_config")
        return [len(args[1].lam) + 2, bool(cfg is not None and cfg.richardson)]
    if name == "sweep_table":
        offsets = args[2] if len(args) > 2 else kwargs["offsets"]
        return len(offsets)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._pool_parent = None
        self._saved = []

    def _wrap(self, module: str, name: str, fn):
        tracer = self
        label = f"{module}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            tid = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif tid != tracer._main:
                parent = tracer._pool_parent
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            if name == "sweep_table":
                tracer._pool_parent = sid
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, label, t0, t1, parent, tid, ok,
                                     _extra(name, args, kwargs)))

        return wrapper

    def install(self):
        """Wrap every target in every loaded modlab namespace binding it."""
        for module, _ in TARGETS:
            importlib.import_module(f"modlab.{module}")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "modlab" or n.startswith("modlab."))]
        for module, name in TARGETS:
            orig = getattr(sys.modules[f"modlab.{module}"], name)
            wrapped = self._wrap(module, name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._saved.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()



def dump(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


# ----------------------------------------------------------------------------
# aggregation


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Sum of (duration - time covered by child spans) per span name."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, name, t0, t1, *_ in spans:
        covered = _union((max(a, t0), min(b, t1))
                         for a, b in children.get(sid, ()) if b > t0 and a < t1)
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out


def count_errors(spans) -> list[str]:
    """Counts that differ from what the code implies.

    orbit_integrals per Hessian: 2n + 1, or 4n + 1 with Richardson, for
    n = N + 2 parameters; Horner calls per orbit_integrals: two passes of
    one segment, or of two with an inner root v1.
    """
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)
    errs = []
    for s in spans:
        if not s[6]:
            continue
        if s[1] == "action.action_hessian":
            n, rich = s[7]
            got = sum(1 for k in kids.get(s[0], ())
                      if k[1] == "profiles.orbit_integrals")
            want = 4 * n + 1 if rich else 2 * n + 1
            if got != want:
                errs.append(f"action_hessian (n={n}, richardson={rich}): "
                            f"{got} orbit_integrals, expected {want}")
        elif s[1] == "profiles.orbit_integrals":
            got = sum(1 for k in kids.get(s[0], ())
                      if k[1] == "kernels.horner_batch")
            want = 4 if s[7] else 2
            if got != want:
                errs.append(f"orbit_integrals: {got} Horner calls, "
                            f"expected {want}")
    return errs


def layer_metrics(spans, ops: int) -> dict:
    """Per-operation counts and self times of the traced layers."""
    selfs = self_times(spans)
    calls, nodes = {}, 0
    oi_ids, hess_ids, table_ids = set(), set(), set()
    for s in spans:
        calls[s[1]] = calls.get(s[1], 0) + 1
        if s[1] == "profiles.orbit_integrals":
            oi_ids.add(s[0])
        elif s[1] == "action.action_hessian":
            hess_ids.add(s[0])
        elif s[1] == "sweeps.sweep_table":
            table_ids.add(s[0])
    oi_nodes = oi_per_hess = points = 0
    busy = {}
    for s in spans:
        if s[1] == "kernels.horner_batch":
            nodes += s[7]
            if s[4] in oi_ids:
                oi_nodes += s[7]
        elif s[1] == "profiles.orbit_integrals" and s[4] in hess_ids:
            oi_per_hess += 1
        elif s[1] == "sweeps.sweep_table":
            points += s[7]
        if s[4] in table_ids:
            busy.setdefault((s[4], s[5]), []).append((s[2], s[3]))
    table_wall = sum(s[3] - s[2] for s in spans if s[0] in table_ids)
    busy_time = sum(_union(v) for v in busy.values())

    def per_op(x):
        return x / ops

    def ms(name):
        return 1e3 * selfs.get(name, 0.0) / ops

    def n(name):
        return calls.get(name, 0)

    return {
        "kernels.horner_batch.calls": per_op(n("kernels.horner_batch")),
        "kernels.horner_batch.nodes": per_op(nodes),
        "kernels.horner_batch.self_ms": ms("kernels.horner_batch"),
        "profiles.find_turning_points.calls":
            per_op(n("profiles.find_turning_points")),
        "profiles.find_turning_points.self_ms":
            ms("profiles.find_turning_points"),
        "profiles.orbit_integrals.calls": per_op(n("profiles.orbit_integrals")),
        "profiles.orbit_integrals.self_ms": ms("profiles.orbit_integrals"),
        "profiles.nodes_per_orbit_integral":
            oi_nodes / n("profiles.orbit_integrals")
            if n("profiles.orbit_integrals") else 0.0,
        "profiles.bracket_near_limit.calls":
            per_op(n("profiles.bracket_near_limit")),
        "profiles.bracket_near_limit.self_ms": ms("profiles.bracket_near_limit"),
        "action.action_hessian.calls": per_op(n("action.action_hessian")),
        "action.action_hessian.self_ms": ms("action.action_hessian"),
        "action.rebracket.calls": per_op(n("action.rebracket")),
        "action.rebracket.self_ms": ms("action.rebracket"),
        "action.orbit_integrals_per_hessian":
            oi_per_hess / len(hess_ids) if hess_ids else 0.0,
        "modulation.whitham_report.self_ms": ms("modulation.whitham_report"),
        "modulation.hessianH.self_ms": ms("modulation.hessianH"),
        "modulation.spectrum_and_classification.self_ms":
            ms("modulation.spectrum_and_classification"),
        "eigen.eig_small.calls": per_op(n("eigen.eig_small")),
        "eigen.eig_small.self_ms": ms("eigen.eig_small"),
        "limits.harmonic_point.self_ms": ms("limits.harmonic_point"),
        "limits.soliton_point.self_ms": ms("limits.soliton_point"),
        "limits.limiting_whitham.self_ms":
            ms("limits.limiting_whitham_harmonic")
            + ms("limits.limiting_whitham_soliton"),
        "sweeps.points": per_op(points),
        "sweeps.sweep_table.self_ms": ms("sweeps.sweep_table"),
        "sweeps.sweep_table.parallelism":
            busy_time / table_wall if table_wall else 0.0,
        "sweeps.fits.self_ms": ms("sweeps.asymptotic_sweep"),
        "sweeps.eigen_splitting_fit.self_ms": ms("sweeps.eigen_splitting_fit"),
        "miindex.delta_mi.self_ms": ms("miindex.delta_mi"),
        "miindex.conjugation_check.self_ms": ms("miindex.conjugation_check"),
        "cli.load_config.self_ms": ms("cli.load_config"),
        "cli.render_json.self_ms": ms("cli.render_json"),
    }
