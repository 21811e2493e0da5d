"""One measured run of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload mc_small_n --seed 1 --out DIR \
        [--scale 1.0] [--spans FILE]

Times what a user of ``hqinflab run`` waits for: set-up (importing
``hqinflab`` and parsing the workload's YAML with ``parse_config``), then
``run_experiment(cfg, threads=1)`` followed by ``emit(report, DIR)``.  The
third-party part of set-up (importing numpy and yaml) is also reported on its
own as ``reference_s``, the machine-speed reference.  The output checks run
after the clock stops.  All times are raw seconds.  With ``--spans`` the outside-in
tracer is installed first, its per-layer metrics are reported and its spans
written to FILE.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Workload name -> number of report points its config must produce.
WORKLOADS = {
    # 3 n x (sup Qr, sup Qe, sup Wt) + the sup-error-decreasing check
    "mc_small_n": 10,
    # 30 Var Qr + 24 Var Qe (y > 0) + 1 X1+X2 identity + 30 Var X1 + 30 Var X2
    "mc_large_n": 115,
    # 48 points x (Var, skew, kurtosis of Qr + 3 component correlations)
    # + 40 Var Qe (y > 0) + 2 Kiefer checks + 1 X2 increment
    "limit_paths": 331,
}

IDENTITY_BOUND = 1e-9


def workload_config(name: str) -> Path:
    return BENCH_DIR / "workloads" / f"{name}.yaml"


def _finite_tree(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_tree(v) for v in value)
    return True


def _finite_csv(path: Path) -> bool:
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                number = float(cell)
            except ValueError:
                continue            # a label
            if not math.isfinite(number):
                return False
    return True


def check_outputs(out_dir: Path, expected_points: int,
                  identity_tol: float) -> tuple[dict, dict]:
    """Correctness checks on what ``emit`` wrote.  Returns (checks, facts).

    Identity points are the ones the runner gave the ``identity_abs``
    tolerance, ``identity_tol``.
    """
    report = json.loads((out_dir / "report.json").read_text())
    points = report["points"]
    csvs = [out_dir / "summary.csv", *sorted((out_dir / "plotdata").glob("*.csv"))]
    identity = [p for p in points
                if p["tol_kind"] == "abs" and p["tol"] == identity_tol]
    checks = {
        "finite": _finite_tree(report) and all(_finite_csv(p) for p in csvs),
        "identity": all(p["abs_err"] <= IDENTITY_BOUND for p in identity),
        "point_count": len(points) == expected_points,
    }
    facts = {
        "result_sha": hashlib.sha256((out_dir / "summary.csv").read_bytes()).hexdigest(),
        "points": len(points),
        "points_passed": sum(bool(p["passed"]) for p in points),
    }
    return checks, facts


def count_customers(experiments) -> list[int]:
    """Count customers simulated by wrapping ``experiments.simulate``."""
    total = [0]
    original = experiments.simulate

    def simulate(*args, **kwargs):
        trace = original(*args, **kwargs)
        total[0] += len(trace.arrivals)
        return trace
    experiments.simulate = simulate
    return total


def work_done(cfg, customers: int) -> int:
    """Customers simulated, or for limit paths P x (r-pairs evaluated): the
    grid product plus the engine's y = 0 column."""
    if cfg.experiment == "limit_path_validation":
        T, Y = cfg.grid.shape
        return cfg.replications * (T * Y + T)
    return customers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    tracer = None
    start = time.perf_counter()
    import numpy, yaml  # noqa: E401,F401  the third-party part: the speed reference
    reference_s = time.perf_counter() - start
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from hqinflab import experiments
    from hqinflab.config import parse_config
    path = workload_config(args.workload)
    cfg = tracer.span("config.parse", parse_config, path) if tracer else parse_config(path)
    setup_s = time.perf_counter() - start

    cfg = dataclasses.replace(
        cfg, master_seed=args.seed,
        replications=max(4, round(cfg.replications * args.scale)))
    customers = count_customers(experiments)
    out_dir = Path(args.out)
    start = time.perf_counter()
    if tracer:
        report = tracer.span("experiments.run_experiment",
                             experiments.run_experiment, cfg, threads=1)
        tracer.span("experiments.emit", experiments.emit, report, out_dir)
    else:
        report = experiments.run_experiment(cfg, threads=1)
        experiments.emit(report, out_dir)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks, facts = check_outputs(out_dir, WORKLOADS[args.workload],
                                      cfg.tolerances["identity_abs"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "work": work_done(cfg, customers[0]),
              "peak_rss_mb": peak_rss_mb, "reference_s": reference_s,
              "checks": checks, **facts}
    if tracer:
        tracer.uninstall()
        tracer.counts["experiments.points_passed"] = facts["points_passed"]
        layers = tracer.metrics()
        run_self = sum(v for k, v in layers.items()
                       if k.endswith(".self_s") and k != "config.parse.self_s")
        result["layers"] = layers
        result["accounted"] = run_self / wall_s
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
