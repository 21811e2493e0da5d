"""Time the trace layer: drawing blocks of replications and evaluating
their fields.

    python3 bench/trace_layer.py

Uses the models and grid of the ``mc_small_n`` workload
(``perfbench/workloads/mc_small_n.yaml``: Poisson(1) arrivals, Exp(1)
service, a 5 x 5 grid on [0, 2]) and the fields its runner reads (Qr, Qe,
Wt).  Times ``simulate`` and ``eval_fields`` on their own:

- the fixed cost of a block: one replication at n = 1 (about 2 customers),
  the best of 7 rounds of 200 calls each;
- the cost per customer at N of about 1e4, 1e5 and 1e6 customers: blocks
  of 3, 31 and 312 replications at n = 1600 (about 3200 customers each),
  the best of 7 calls, in ns per customer.

Seed words are fixed, so every run times the same traces.  Uses the
``src/`` of the checkout it sits in, numpy, PyYAML and the stdlib only.
Prints one JSON object on one line.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hqinflab.config import parse_config  # noqa: E402
from hqinflab.rng import seed_words  # noqa: E402
from hqinflab.simulate import eval_fields, simulate  # noqa: E402

NAMES = ("Qr", "Qe", "Wt")
REPEATS, CALLS = 7, 200
N_PER_REPLICATION = 1600
BLOCKS = (3, 31, 312)         # replications: about 1e4, 1e5 and 1e6 customers


def best(fn, calls: int = 1) -> float:
    """The best of REPEATS wall times of ``calls`` calls of fn, per call."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return min(times)


def timed(cfg, n: int, reps: int, calls: int = 1) -> dict:
    """Best seconds per call of simulate and of eval_fields on one block of
    ``reps`` replications at scale n, with the block's customer count."""
    words = seed_words(1, [("trace_layer", n, r) for r in range(reps)], 2)
    draw = lambda: simulate(cfg.arrival, cfg.service, n, cfg.horizon, words)  # noqa: E731
    trace = draw()
    return {"customers": int(trace.arrivals.size), "simulate_s": best(draw, calls),
            "eval_fields_s": best(lambda: eval_fields(trace, cfg.grid, NAMES), calls)}


def main() -> None:
    cfg = parse_config(ROOT / "perfbench" / "workloads" / "mc_small_n.yaml")
    fixed = timed(cfg, 1, 1, CALLS)
    per_customer = []
    for reps in BLOCKS:
        case = timed(cfg, N_PER_REPLICATION, reps)
        per_customer.append({"replications": reps, "customers": case["customers"],
                             **{k.replace("_s", "_ns_per_customer"): 1e9 * v / case["customers"]
                                for k, v in case.items() if k != "customers"}})
    print(json.dumps({"workload": "mc_small_n", "fields": NAMES, "fixed_per_block": fixed,
                      "per_customer": per_customer, "repeats": REPEATS,
                      "python": platform.python_version(), "numpy": np.__version__}))


if __name__ == "__main__":
    main()
