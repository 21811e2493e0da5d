"""hqinflab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload mc_small_n --seed 1 --seconds 40 --trace 0

Runs the workload again and again, each time in a fresh worker process
(``worker.py``), until the next run would overrun ``--seconds``.  A worker
times set-up, then ``run_experiment(cfg, threads=1)`` + ``emit`` exactly as
``hqinflab run`` calls them, then checks the outputs.

``--trace 0`` reports the end-to-end metrics (medians over the runs).  Times
are scaled to a reference machine speed (see :func:`at_reference_speed`);
raw seconds are printed and recorded as well.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, plus ``trace.overhead``, the traced median
``wall_s`` over the untraced one, minus 1.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of every run (environment, seeds, samples, ``result_sha``) is written
to ``.perfbench_out/`` in the checkout.
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

from tracer import LAYER_METRICS
from worker import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
CHECKS_PER_RUN = 4          # finite, identity, point_count, summary.csv stable
EXIT_WITHIN_S = 170.0       # every run of this command ends within 180 s
REFERENCE_S = 0.1           # numpy + yaml import time at the reference speed

# One thread per process: the workloads are single-process (threads=1), and
# BLAS threads competing for the two cores of a small machine add noise.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def held_out_seed(seed: int) -> int:
    """A second seed, derived from ``seed``, on which a performance claim
    must also hold; never tune a change on it."""
    return (seed * 2654435761 + 40503) % 2**31


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run_worker(workload: str, seed: int, scale: float, traced: bool,
               index: int, timeout: float) -> dict | None:
    """One worker process; its result, or None if it failed."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--out", str(OUT_DIR / f"out-{workload}-{seed}-{index}")]
    if traced:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"  run {index}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"  run {index}: worker failed\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list, list]:
    """Run workers until ``--seconds`` is used up; (untraced, traced)."""
    begin = time.monotonic()
    plain, traced, durations = [], [], []
    index = 0
    while True:
        elapsed = time.monotonic() - begin
        want_trace = bool(args.trace) and index % 2 == 1
        need_more = not plain or (args.trace and not traced)
        expected = statistics.median(durations) if durations else 0.0
        if not need_more and elapsed + expected > args.seconds:
            break
        if EXIT_WITHIN_S - elapsed < 5.0:
            break
        t0 = time.monotonic()
        result = run_worker(args.workload, args.seed, args.scale, want_trace,
                            index, EXIT_WITHIN_S - elapsed)
        durations.append(time.monotonic() - t0)
        (traced if want_trace else plain).append(result)
        index += 1
        if result is None and not any(plain + traced):
            break           # the program does not run at all
    return plain, traced


def judge(runs: list) -> tuple[int, int, list[str]]:
    """(attempted, failed) checks over ``runs``, and the failures by name.
    A run that raised fails all of its checks."""
    failures = []
    first_sha = next((r["result_sha"] for r in runs if r is not None), None)
    for i, r in enumerate(runs):
        if r is None:
            failures += [f"run {i}: raised"] * CHECKS_PER_RUN
            continue
        checks = {**r["checks"], "summary_stable": r["result_sha"] == first_sha}
        failures += [f"run {i}: {name}" for name, ok in checks.items() if not ok]
    return CHECKS_PER_RUN * len(runs), len(failures), failures


def at_reference_speed(run: dict, seconds: float) -> float:
    """``seconds`` measured in ``run``, scaled to the reference machine speed.

    On a shared VM the speed of this code switches between states up to 1.5x
    apart that last from seconds to minutes, so raw medians taken half an hour
    apart can differ by 40%.  Each worker times its own import of numpy and
    yaml, which no change to hqinflab can alter, and which slows down with the
    machine just as the run does; dividing by it takes the state out.
    """
    return seconds * REFERENCE_S / run["reference_s"]


def describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hqinflab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply replications (R, or P paths); tests only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hqinflab" / "__init__.py").is_file():
        print(f"error: no hqinflab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(f"hqinflab benchmark: workload={args.workload} seed={args.seed} "
          f"held_out_seed={held_out_seed(args.seed)} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    plain, traced = measure(args)
    runs = plain + traced
    good = [r for r in plain if r is not None]
    good_traced = [r for r in traced if r is not None]
    if not good or (args.trace and not good_traced):
        print("error: no run completed", file=sys.stderr)
        return 1
    attempted, failed, failures = judge(runs)

    samples = {
        "wall_s": [at_reference_speed(r, r["wall_s"]) for r in good],
        "work_per_s": [r["work"] / at_reference_speed(r, r["wall_s"]) for r in good],
        "setup_s": [at_reference_speed(r, r["setup_s"]) for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    for name, values in samples.items():
        print(f"  {name:<12} {describe(values)}  [{END_TO_END[name]}]")
    print(f"  raw wall_s   {describe([r['wall_s'] for r in good])}  [s]")
    print(f"  raw setup_s  {describe([r['setup_s'] for r in good])}  [s]")
    print(f"  reference_s  {describe([r['reference_s'] for r in good])}  "
          f"[s; {REFERENCE_S} at the reference speed]")
    print(f"  fail_share   {failed}/{attempted} checks failed "
          f"= {failed / attempted:.6g} [ratio]")
    for line in failures:
        print(f"    FAILED {line}")
    print(f"  result_sha   {good[0]['result_sha']}")
    print(f"  points       {good[0]['points_passed']}/{good[0]['points']} "
          "statistical points pass (recorded, not a check)")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in good_traced)
                  for name in LAYER_METRICS}
        traced_wall = statistics.median(at_reference_speed(r, r["wall_s"])
                                        for r in good_traced)
        layers["trace.overhead"] = traced_wall / statistics.median(samples["wall_s"]) - 1.0
        units = {**LAYER_METRICS, "trace.overhead": "ratio"}
        for name, value in layers.items():
            print(f"  {name:<40} {value:.6g} [{units[name]}]")
        accounted = [r["accounted"] for r in good_traced]
        print(f"  self time / traced wall_s: {describe(accounted)}")
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
                   for name, v in samples.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": held_out_seed(args.seed), "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env,
              "result_sha": good[0]["result_sha"], "failures": failures,
              "runs": plain, "traced_runs": traced, "metrics": metrics}
    record_path = OUT_DIR / f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
