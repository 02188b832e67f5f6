"""The benchmark's own tests; not part of the package's test suite.

Run from the root of a checkout with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, rounds=2):
    """Operation argv lists and input-file contents, with file paths made neutral."""
    with tempfile.TemporaryDirectory() as tmp:
        built = workloads.build(workload, seed, rounds, Path(tmp))
        files = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir())}
        ops = [(op.kind, [a.replace(tmp, "<dir>") for a in op.argv or []], op.params) for r in built for op in r]
    return ops, files


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert _inputs(workload, 7) == _inputs(workload, 7), workload


def test_different_seeds_differ():
    for workload in workloads.WORKLOADS:
        assert _inputs(workload, 7) != _inputs(workload, 8), workload


def test_rounds_share_one_mix():
    """Every round of a workload draws the same kinds of operation in the same numbers."""
    for workload in workloads.WORKLOADS:
        ops, _ = _inputs(workload, 3, rounds=3)
        per_round = len(ops) // 3
        kinds = [sorted(kind for kind, _, _ in ops[i * per_round:(i + 1) * per_round]) for i in range(3)]
        assert kinds[0] == kinds[1] == kinds[2], workload


def test_sweeps_variants_do_not_depend_on_the_seed():
    """Each size band of a sweeps round carries the same format, unit mode and range kind on every seed."""

    bands = {"spectrum": (50, 2002, 8), "dirac": (50, 2002, 8), "scatter": (100, 10001, 4)}

    def variants(seed):
        ops, _ = _inputs("sweeps", seed, rounds=4)
        found = []
        for kind, argv, params in ops:
            if params.get("rows", 1) == 1 or kind not in bands:
                continue
            lo, hi, count = bands[kind]
            found.append((kind, int((params["rows"] - lo) * count // (hi - lo)), argv[argv.index("--format") + 1],
                          "--raw-units" in argv, any(a.startswith(("--gamma-min", "--eta-min")) for a in argv)))
        return sorted(found)

    assert variants(7) == variants(8)


def _run(workload, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = _run("sweeps", trace)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1


def test_traced_stdout_is_identical():
    """The traced replay of a dot workload prints the same bytes as the untraced pass."""
    details, result = _run("dot_small", 1)
    assert details["stdout_mismatches"] == []
    assert details["absent_wrappers"] == []
    assert result["correct"]


def test_trace_and_plain_runs_print_the_same_bytes_in_process():
    """Direct check through the runner, covering the thread-pool sweep path."""
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.warmup("sweeps", Path(tmp)) + workloads.warmup("dot_small", Path(tmp))
        plain = [run.Runner().execute(op) for op in ops]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run.Runner(tracer).execute(op) for op in ops]
        finally:
            tracer.uninstall()
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert all(r["ok"] for r in plain + traced)


def test_absent_attribute_is_reported_not_fatal():
    from sae_lab import box1d

    saved = box1d.quad
    del box1d.quad
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        box1d.quad = saved
    assert tracer.absent == ["box1d.quad"]


def test_self_times_add_up_to_wall_time():
    events = [
        ("outer", 1, 0, 0, 100),
        ("inner", 1, 1, 10, 30),
        ("worker", 2, 0, 40, 80),
        ("worker", 3, 0, 60, 90),
    ]
    self_ns, unattributed, threads = tracing.attribute(events, 1, 0, 110)
    assert self_ns["inner"] == 20
    assert self_ns["worker"] == 20 + 20 + 10  # alone, shared in (60, 80), alone
    assert self_ns["outer"] == 10 + 10 + 10
    assert unattributed == 10
    assert sum(self_ns.values()) + unattributed == 110
    assert threads == {1, 2, 3}


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
