"""Command-line interface.

    hqinflab run --config experiment.yaml --out results/ [--seed S]
                 [--reps R] [--threads K]
    hqinflab surfaces --config experiment.yaml --out surfaces/
    hqinflab selftest [--seed S] [--criteria 1,3,8]

Exit code 0 iff every verdict passes; 2 for a bad argument or config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import acceptance
from .config import config_from_dict, parse_config
from .experiments import analytic_surfaces, check_runnable, emit, run_experiment
from .fields import write_surfaces_csv


def _cmd_run(args, cfg) -> int:
    report = run_experiment(cfg, threads=args.threads)
    written = emit(report, args.out)
    for p in report.points:
        status = "pass" if p.passed else "FAIL"
        print(f"  [{status}] {p.label} (t={p.t:g}, y={p.y:g}): "
              f"estimate {p.estimate:.6g}, target {p.target:.6g}")
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'} "
          f"({len(report.points)} points, {report.runtime_s:.1f}s)")
    print("wrote: " + ", ".join(str(w) for w in written))
    return 0 if report.verdict else 1


def _cmd_surfaces(args, cfg) -> int:
    for name, values in analytic_surfaces(cfg).items():
        path = write_surfaces_csv(Path(args.out) / f"{name}.csv", cfg.grid, {name: values})
        print(f"wrote {path}")
    return 0


def _criteria(text: str) -> set[int]:
    """A comma-separated subset of the criterion indices, e.g. 1,3,8."""
    known = {str(index): index for index in acceptance.CRITERIA}
    items = [item.strip() for item in text.split(",")]
    unknown = [item for item in items if item not in known]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown criteria {unknown} (known: {', '.join(known)})")
    return {known[item] for item in items}


def _integer(name: str, kind: str, low: int):
    """An argparse type for ``name``: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be a {kind} integer, got {text!r}")
        return value
    return parse


def _cmd_selftest(args) -> int:
    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed, only=args.criteria)
    all_ok = True
    for res in results:
        print(res.summary())
        for line in res.lines:
            print(line)
        all_ok &= res.passed
    print(f"\nselftest: {'PASS' if all_ok else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqinflab",
        description="Infinite-server queue fields: simulation vs analytic limits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
    p_run.add_argument("--reps", type=int, default=None,
                       help="override the replication count")
    p_run.add_argument("--threads", type=_integer("threads", "positive", 1), default=1,
                       help="worker processes for replications")
    p_run.set_defaults(fn=_cmd_run)

    p_surf = sub.add_parser("surfaces", help="emit analytic surfaces only")
    p_surf.add_argument("--config", required=True)
    p_surf.add_argument("--out", required=True)
    p_surf.set_defaults(fn=_cmd_surfaces)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--seed", type=_integer("seed", "nonnegative", 0), default=None)
    p_self.add_argument("--criteria", type=_criteria, default=None,
                        help="comma-separated subset, e.g. 1,3,8")
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return args.fn(args)
    # a config error exits 2 with one line; an error of the run itself is not caught
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            # the overrides go through the config's own checks
            overrides = {"master_seed": args.seed, "replications": args.reps}
            cfg = config_from_dict(
                {**cfg.echo, **{k: v for k, v in overrides.items() if v is not None}},
                source=args.config)
            check_runnable(cfg)
    except ValueError as exc:
        sub.choices[args.command].error(str(exc))
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
