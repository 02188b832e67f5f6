"""sae-lab benchmark: seeded closed-loop workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweeps,dot_large,dot_small} \
        --seed N --seconds S --trace {0,1}

One client in one process runs the workload's operations one after another:
``cli.main(argv)`` in-process with stdout captured, or one public library
call.  Every output is checked (see checks.py); a nonzero exit, an uncaught
exception or a failed check counts as a failed operation.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the same operations run once
untraced and once with layer wrappers installed (see tracing.py), and the
last line carries the per-layer metrics.  The lines before it record the
environment, every failed operation and the details behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Stop starting rounds once this many times --seconds have passed, so that a
# much slower program still ends within the time a run is given.
OVERRUN_FACTOR = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "oracle_digits": "digits",
}
# Relative errors below the unit roundoff of a double read as exact.
UNIT_ROUNDOFF = 2.0**-53

PER_OP_CALLS = [
    "cli.main",
    "box1d.solve_spectrum",
    "box1d.brentq",
    "box1d.uncertainty_report_1d",
    "box1d.quad",
    "wall_models.reflection",
    "wall_models.effective_gamma",
    "dirac_wall.dispersion_2p1",
    "hetero.parse_interface_file",
    "hetero.validate_interface",
    "qdot_fd.build_hamiltonian",
    "qdot_fd.solve_lowest",
    "qdot_fd.spectral_flow_check",
]
SELF_SHARES = [
    "cli.main",
    "box1d.solve_spectrum",
    "box1d.brentq",
    "box1d.uncertainty_report_1d",
    "box1d.quad",
    "wall_models.reflection",
    "dirac_wall.dispersion_2p1",
    "hetero.parse_interface_file",
    "hetero.validate_interface",
    "qdot_fd.grid",
    "qdot_fd.read_grid",
    "qdot_fd.build_hamiltonian",
    "qdot_fd.moments",
    "qdot_fd.solve_lowest",
    "qdot_fd.spectral_flow_check",
    "qdot_fd.eigh_tridiagonal",
    "qdot_fd.eigh",
    "qdot_fd.splu",
    "qdot_fd.eigsh",
]
ROUTES = {
    "qdot_fd.route.tridiagonal": "qdot_fd.eigh_tridiagonal",
    "qdot_fd.route.dense": "qdot_fd.eigh",
    "qdot_fd.route.shift_invert": "qdot_fd.eigsh",
}
PER_LAYER_UNITS = {
    **{f"{name}.calls": "calls/op" for name in PER_OP_CALLS},
    **{f"{name}.self_share": "share" for name in SELF_SHARES},
    **{route: "calls/op" for route in ROUTES},
    "cli.threads": "threads",
    "box1d.warnings": "warnings/op",
    "qdot_fd.cells": "cells",
    "qdot_fd.lu_fill": "nnz",
    "qdot_fd.lu_solves": "solves/op",
    "qdot_fd.backward_err_max": "ratio",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}

THREAD_VARS = (
    "SAE_LAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# environment and set-up time


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def setup_times() -> list:
    """Seconds for a fresh interpreter to import sae_lab.cli, SETUP_REPEATS times.

    The benchmark process has already imported the package, so the bytecode
    cache is written, as after a user's first run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import sae_lab.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Runs operations one at a time and checks their outputs."""

    def __init__(self, tracer=None):
        from sae_lab import box1d, cli

        self.cli = cli
        self.box1d = box1d
        self.tracer = tracer
        self.main_ident = threading.get_ident()

    def _library(self, params):
        box1d = self.box1d
        level = params["level"]
        state = box1d.solve_spectrum(box1d.BoxSpec(1.0, 1.0, params["gamma"]), level + 1)[level]
        return state, box1d.uncertainty_report_1d(state)

    def execute(self, op) -> dict:
        import checks

        out, err = io.StringIO(), io.StringIO()
        rc, value, error = 0, None, None
        tracer = self.tracer
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.begin_op()
                start = time.perf_counter_ns()
                try:
                    if op.argv is not None:
                        rc = self.cli.main(op.argv)
                    else:
                        value = self._library(op.params)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # an uncaught library error is a failed operation
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter_ns()
                op_trace = tracer.end_op() if tracer is not None else None
        text = out.getvalue()
        shown = text if op.argv is not None else repr(value)
        result = {
            "seconds": (end - start) * 1e-9,
            "rc": rc,
            "digest": hashlib.sha256(shown.encode()).hexdigest(),
            "warnings": sum(1 for w in caught if w.category.__name__ == "IntegrationWarning"),
            "errors": [],
            "problems": [],
        }
        if op_trace is not None:
            result["trace"] = self._reduce(op_trace, start, end)
        if rc == 0 and error is None:
            result["problems"], result["errors"] = checks.check(op, text if op.argv is not None else value)
        result["ok"] = rc == 0 and error is None and not result["problems"]
        if not result["ok"]:
            if error is None and result["problems"]:
                error = "check failed: " + result["problems"][0]
            elif error is None:
                error = (err.getvalue().strip().splitlines() or [""])[0]
            result["failure"] = {"op": op.label(), "exit": rc, "message": error}
        return result

    def _reduce(self, op_trace, start, end) -> dict:
        import tracing

        self_ns, unattributed, threads = tracing.attribute(op_trace.events, self.main_ident, start, end)
        untimed = self_ns.pop(tracing.UNTIMED, 0.0)
        calls = {}
        for name, *_ in op_trace.events:
            calls[name] = calls.get(name, 0) + 1
        calls.pop(tracing.UNTIMED, None)
        return {
            "accounted_s": (end - start - untimed) * 1e-9,
            "unattributed_s": unattributed * 1e-9,
            "self_s": {name: ns * 1e-9 for name, ns in self_ns.items()},
            "calls": calls,
            "threads": len(threads),
            "lu_fill": op_trace.lu_fill,
            "lu_solves": op_trace.lu_solves,
            "cells": op_trace.cells,
            "backward_err": op_trace.backward_err,
        }


def run_ops(runner, ops, seconds) -> list:
    results = []
    begin = time.perf_counter()
    for op in ops:
        if op is None:  # a round boundary
            if time.perf_counter() - begin > OVERRUN_FACTOR * seconds:
                break
            continue
        results.append(runner.execute(op))
    return results


def flatten(rounds):
    ops = []
    for round_ops in rounds:
        ops.append(None)
        ops.extend(round_ops)
    return ops


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 100.0
    return ordered[10], 100.0 * (n - 10) / n


def end_to_end(results, setup) -> tuple:
    ok = [r for r in results if r["ok"]]
    latencies = [r["seconds"] for r in ok]
    errors = [e for r in ok for e in r["errors"]]
    tail_s, tail_pct = tail(latencies) if latencies else (float("nan"), None)
    metrics = {
        "setup_s": statistics.median(setup),
        "ok_per_s": len(ok) / sum(r["seconds"] for r in results),
        "op_p50_s": statistics.median(latencies) if latencies else float("nan"),
        "op_tail_s": tail_s,
        "ok_share": len(ok) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_digits": -math.log10(max(max(errors), UNIT_ROUNDOFF)) if errors else float("nan"),
    }
    details = {
        "setup_runs_s": setup,
        "op_tail_percentile": tail_pct,
        "ok_samples": len(ok),
        "fail_share": 1.0 - len(ok) / len(results),
        "oracle_checks": len(errors),
        "oracle_rel_err": max(errors) if errors else None,
    }
    return metrics, details


def per_layer(untraced, traced, absent) -> tuple:
    n = len(traced)
    traces = [r["trace"] for r in traced]
    accounted = sum(t["accounted_s"] for t in traces)
    self_s, calls = {}, {}
    for t in traces:
        for name, s in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, c in t["calls"].items():
            calls[name] = calls.get(name, 0) + c
    fills = [f for t in traces for f in t["lu_fill"]]
    cells = [c for t in traces for c in t["cells"]]
    backward = [b for t in traces for b in t["backward_err"]]
    untraced_s = sum(r["seconds"] for r in untraced)
    metrics = {}
    for name in PER_OP_CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
    for name in SELF_SHARES:
        metrics[f"{name}.self_share"] = self_s.get(name, 0.0) / accounted
    for route, name in ROUTES.items():
        metrics[route] = calls.get(name, 0) / n
    metrics.update({
        "cli.threads": max(t["threads"] for t in traces),
        "box1d.warnings": sum(r["warnings"] for r in traced) / n,
        "qdot_fd.cells": statistics.fmean(cells) if cells else 0,
        "qdot_fd.lu_fill": statistics.fmean(fills) if fills else 0,
        "qdot_fd.lu_solves": sum(t["lu_solves"] for t in traces) / n,
        "qdot_fd.backward_err_max": max(backward) if backward else 0,
        "trace.overhead_share": (accounted - untraced_s) / untraced_s,
        "trace.unattributed_share": sum(t["unattributed_s"] for t in traces) / accounted,
    })
    details = {
        "traced_ops": n,
        "absent_wrappers": absent,
        "self_s_per_op": {name: s / n for name, s in sorted(self_s.items())},
        "calls_per_op": {name: c / n for name, c in sorted(calls.items())},
        "untraced_op_s": untraced_s / n,
        "traced_op_s": accounted / n,
        "self_sum_over_untraced": sum(self_s.values()) / untraced_s,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# main


def _import_package():
    if not (SRC / "sae_lab" / "cli.py").is_file():
        raise SystemExit(f"error: no sae_lab package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sae_lab
    import sae_lab.cli  # noqa: F401  (writes the bytecode cache before setup timing)

    if not Path(sae_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: sae_lab imported from {sae_lab.__file__}, not from {SRC}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, rounds=rounds)
    print(json.dumps({"env": env}), flush=True)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        files = Path(tmp)
        setup = [] if args.trace else setup_times()
        runner = Runner()
        for op in workloads.warmup(args.workload, files):
            runner.execute(op)
        if args.trace:
            half = max(1, round(rounds / 2))
            ops = flatten(workloads.build(args.workload, args.seed, half, files))
            results = run_ops(runner, ops, args.seconds / 2)
            done = [op for op in ops if op is not None][: len(results)]
            traced, absent, mismatched = trace_pass(done, results)
            metrics, details = per_layer(results, traced, absent)
            units = PER_LAYER_UNITS
            details["stdout_mismatches"] = mismatched
            write_spans(args, done, traced)
        else:
            ops = flatten(workloads.build(args.workload, args.seed, rounds, files))
            results = run_ops(runner, ops, args.seconds)
            metrics, details = end_to_end(results, setup)
            units = END_TO_END_UNITS
            mismatched = []

    failures = [r["failure"] for r in results if "failure" in r]
    details["failed_ops"] = failures
    print(json.dumps({"details": details}), flush=True)
    # An output that fails its check is a failed operation, counted in `failed`
    # and listed above; the run itself is incorrect only if tracing changed
    # what the program printed.
    correct = not mismatched
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def trace_pass(ops, untraced):
    """Replay the operations with wrappers installed; compare stdout bytes."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = Runner(tracer)
        traced = [runner.execute(op) for op in ops]
    finally:
        tracer.uninstall()
    mismatched = [
        i for i, (a, b) in enumerate(zip(untraced, traced)) if (a["digest"], a["rc"]) != (b["digest"], b["rc"])
    ]
    return traced, tracer.absent, mismatched


def write_spans(args, ops, traced):
    """Per-operation span summaries of the traced pass, one JSON line each."""
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w") as fh:
        for op, r in zip(ops, traced):
            t = r["trace"]
            fh.write(json.dumps({"op": op.label(), "seconds": r["seconds"], "accounted_s": t["accounted_s"],
                                 "self_s": t["self_s"], "calls": t["calls"]}) + "\n")


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
