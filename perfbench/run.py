"""Paper-shape benchmark of shufflerl.

    python3 perfbench/run.py --workload train-cnn --seed 1 --seconds 30 --trace 0

Runs one workload in a closed loop: each repetition is a fresh process
(``workload.py``) that sets up the market, trains or backtests, writes and
reads the checkpoint and reports, and the next starts when it has ended.
Repetitions continue until ``--seconds`` have passed, with at least
``MIN_REPS`` of them. A gradient spot check runs first, outside the timed
region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
repetition, then traced ones, and prints the per-layer metrics. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("train-cnn", "train-mlp", "backtest-cnn")
MIN_REPS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (as opposed to a failed operation)."""


def blas_threads() -> int:
    """BLAS threads for each child: the cores this process may use."""
    return len(os.sched_getaffinity(0))


def child(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` with ``args`` and return its JSON result."""
    threads = str(blas_threads())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        raise BenchmarkError(f"workload.py exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def summarize(values: list[float]) -> str:
    """Median, the highest sample and the sample count. A run has too few
    repetitions for a percentile with ten samples above it; the maximum is
    the highest percentile there is."""
    return f"median {statistics.median(values):.6g}  max {max(values):.6g}  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paper-shape benchmark of shufflerl.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shufflerl" / "__init__.py").is_file():
        print(f"no shufflerl source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    rep_args = ["rep", "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(WORKDIR)]
    durations: list[float] = []

    def timed(extra: list[str]) -> dict:
        began = time.monotonic()
        result = child(extra, deadline)
        durations.append(time.monotonic() - began)
        return result

    try:
        grad = child(["gradcheck", "--workload", args.workload, "--seed", str(args.seed)], deadline)
        start = time.monotonic()
        reps = [timed([*rep_args, "--trace", "0"])]
        traced: list[dict] = []
        while True:
            required = not traced if args.trace else len(reps) < MIN_REPS
            out_of_time = time.monotonic() + 1.2 * max(durations) > deadline
            if not required and (time.monotonic() - start >= args.seconds or out_of_time):
                break
            if args.trace:
                traced.append(timed([*rep_args, "--trace", "1"]))
            else:
                reps.append(timed([*rep_args, "--trace", "0"]))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    # Operations: the gradient check and each repetition. A repetition
    # fails if it raised, failed a check, or gave another digest than the
    # first good one (every repetition of one seed must agree bit for bit).
    attempted = 0
    failed = 0
    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    for kind, result in (grad.get("gradcheck") or {}).items():
        attempted += 1
        failed += not result["ok"]
        print(f"gradcheck {kind}: {'ok' if result['ok'] else 'FAILED'}  max relative error {result['max_rel_error']:.3g} at {result['where']}  "
              f"({result['seconds']:.1f} s, {result['kinks']} steps across a ReLU kink)")
    if not grad["ok"]:
        attempted += 1
        failed += 1
        print(f"gradcheck FAILED:\n{grad['error']}")
    digest = None
    for rep in reps + traced:
        attempted += 1
        if rep["ok"]:
            digest = digest or rep["digest"]
            if rep["digest"] != digest:
                rep.update(ok=False, error=f"digest {rep['digest']} differs from {digest}")
        if not rep["ok"]:
            failed += 1
            print(f"repetition FAILED: {rep['error']}")
    untraced = [r for r in reps if r["ok"]]
    traced = [r for r in traced if r["ok"]]
    if not untraced or (args.trace and not traced):
        print("benchmark cannot report: no repetition succeeded", file=sys.stderr)
        return 3
    print(f"digest sha256:{digest}  params {untraced[0]['params']}  steps {untraced[0]['steps']}")

    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
        metrics["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / untraced[0]["wall_s"]
        units = {name: unit_of(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {units[name]}")
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in untraced],
            "wall_s": [r["wall_s"] for r in untraced],
            "steps_per_s": [r["steps"] / r["main_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = END_TO_END
        main_call = "backtest_steps_per_s" if args.workload.startswith("backtest") else "train_steps_per_s"
        for i in range(len(untraced)):
            print(f"repetition {i + 1}: " + "  ".join(f"{name} {values[i]:.6g}" for name, values in samples.items()))
        for name, values in samples.items():
            label = f"{name} ({main_call})" if name == "steps_per_s" else name
            print(f"{label:38s} {summarize(values)} {units[name]}")
    print(f"{'error_rate':38s} {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    """Per-layer units follow the metric's name, less its percentile or
    batch suffix."""
    base = metric
    for tail in (".p50", ".p90", ".b1", ".b64"):
        base = base.removesuffix(tail)
    for suffix, unit in (
        ("gflop_per_s", "GFLOP/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_h", "h"), ("mb", "MB"), ("ratio", "ratio"),
    ):
        if base.endswith(suffix):
            return unit
    if ".share." in base or "_share." in base:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
