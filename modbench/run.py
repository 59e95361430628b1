"""Benchmark entry point.

    python3 -m modbench.run --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a modlab checkout.  One closed-loop caller runs
whole rounds of the workload's operations for about S seconds, then
checks every output against the reference side (``reference.py``) and
prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Exit code 2 without a result when no modlab source tree
is found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_ROUNDS = {"wave-reports": 1, "limit-sweeps": 1, "cli-cold": 2}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(prog="modbench")
    ap.add_argument("--workload", required=True,
                    choices=("wave-reports", "limit-sweeps", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready' and exit")
    return ap.parse_args(argv)


class Run:
    """Records of one measured stretch of whole rounds."""

    def __init__(self):
        self.durations = []      # seconds, operations that returned
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.outputs = {}        # key -> outputs kept for checking
        self.problems = []       # failures no fault accounts for


def measure(wl, seconds: float, min_rounds: int, first_round: int = 0) -> Run:
    run = Run()
    t_start = perf_counter()
    r = first_round
    while True:
        for key, thunk in wl.round_ops(r):
            t0 = perf_counter()
            try:
                out = thunk()
                exc = None
            except Exception as e:      # an operation failed; record it
                out, exc = None, e
            dt = perf_counter() - t0
            run.attempted += 1
            if exc is None:
                run.durations.append(dt)
                kept = run.outputs.setdefault(key, [])
                if wl.keep_all or not kept:
                    kept.append(out)
                continue
            run.failed += 1
            fault = wl.fault(key)
            if fault is None or type(exc).__name__ != fault[0] \
                    or fault[1] not in str(exc):
                run.problems.append(f"{key}: {type(exc).__name__}: {exc}")
        r += 1
        if r - first_round >= min_rounds and perf_counter() - t_start >= seconds:
            break
    run.elapsed += perf_counter() - t_start
    return run


def quantile(xs, q: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    The operations of a round are a fixed mix of kinds of very different
    cost, so a plain order-statistic quantile jumps from one kind to the
    next when a single slow operation changes the order; this one moves
    smoothly.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(xs, prob=[q])[0])


def setup_probe_seconds(args) -> float:
    """Median wall time from spawning a fresh caller to its 'ready' line."""
    cmd = [sys.executable, "-m", "modbench.run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = perf_counter()
            _, err = p.communicate()
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()[-300:]}")
        times.append(t1 - t0)
    return statistics.median(times)


def import_probes() -> list[dict]:
    """-X importtime of a fresh interpreter importing modlab's CLI."""
    from .workloads import CLI_IMPORT, child_env, import_times

    env = child_env()
    cmd = [sys.executable, "-X", "importtime", "-c", CLI_IMPORT]
    out = []
    for _ in range(IMPORT_PROBES):
        p = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, check=True)
        out.append(import_times(p.stderr))
    return out


def e2e_metrics(run: Run, setup_s: float, rss_mb: float) -> dict:
    ms = [1e3 * d for d in run.durations]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (len(run.durations) / run.elapsed, "1/s"),
        "op_p50_ms": (quantile(ms, 0.5), "ms"),
        "op_p90_ms": (quantile(ms, 0.9), "ms"),
    }


def peak_rss_mb(wl) -> float:
    """Peak resident set of the process that ran the program, in MB."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "modlab" / "__init__.py").is_file():
        print("modbench: run from the root of a modlab checkout "
              "(src/modlab not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from .workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    # stray native-library output must not follow the result line
    result_fd = os.dup(1)
    os.dup2(2, 1)
    warnings.simplefilter("ignore", RuntimeWarning)

    setup_s = setup_probe_seconds(args)
    wl = WORKLOADS[args.workload](args.seed)
    min_rounds = MIN_ROUNDS[args.workload]
    if not args.trace:
        run = measure(wl, args.seconds, min_rounds)
        rss = peak_rss_mb(wl)
        metrics = e2e_metrics(run, setup_s, rss)
        runs = [run]
    else:
        metrics, runs = traced(wl, args, min_rounds)

    problems = [p for r in runs for p in r.problems]
    outputs = {}
    for r in runs:
        for key, outs in r.outputs.items():
            outputs.setdefault(key, []).extend(outs)
    for key in sorted(outputs):
        problems += wl.check(key, outputs[key])
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    os.close(result_fd)
    return 0


def traced(wl, args, min_rounds: int):
    """Half the time untraced, half traced; per-layer metrics per operation."""
    from . import inputs, tracing

    half = 0.5 * args.seconds
    plain = measure(wl, half, min_rounds)
    tracer = tracing.Tracer()
    if wl.name == "cli-cold":
        wl.traced = True
    else:
        tracer.install()
    traced_run = measure(wl, half, min_rounds, first_round=10_000)
    tracer.uninstall()
    if wl.name == "cli-cold":
        spans, offset = [], 0
        wave_oi = waves = 0
        for key, sp in wl.trace_spans:
            for s in sp:
                spans.append((s[0] + offset, s[1], s[2], s[3],
                              None if s[4] is None else s[4] + offset,
                              s[5], s[6], s[7]))
            offset += max((s[0] for s in sp), default=0)
            if key == "wave":
                waves += 1
                wave_oi += sum(1 for s in sp
                               if s[1] == "profiles.orbit_integrals")
        imports = wl.imports
        oi_per_wave = wave_oi / waves if waves else 0.0
    else:
        spans = tracer.spans
        imports = import_probes()
        oi_per_wave = 0.0
    inputs.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracing.dump(inputs.OUT_DIR / f"trace-{wl.name}-{args.seed}.jsonl", spans)
    traced_run.problems += tracing.count_errors(spans)
    if wl.name == "cli-cold" and oi_per_wave != 2.0:
        traced_run.problems.append(
            f"CLI wave ran {oi_per_wave} orbit_integrals, expected 2")
    metrics = {k: (v, "ms" if k.endswith("_ms") else
                   "ratio" if k.endswith(".parallelism") else "count")
               for k, v in tracing.layer_metrics(spans,
                                                 traced_run.attempted).items()}
    metrics["cli.import_numpy_ms"] = (
        statistics.median(i.get("numpy", 0.0) for i in imports), "ms")
    metrics["cli.import_modlab_ms"] = (
        statistics.median(i.get("modlab", 0.0) for i in imports), "ms")
    metrics["cli.orbit_integrals_per_wave"] = (oi_per_wave, "count")
    p50 = [quantile([1e3 * d for d in r.durations], 0.5)
           for r in (plain, traced_run)]
    metrics["trace.overhead_p50_ms"] = (p50[1] - p50[0], "ms")
    return metrics, [plain, traced_run]


if __name__ == "__main__":
    sys.exit(main())
