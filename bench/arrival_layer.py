"""Time arrival generation, per arrival model.

    python3 bench/arrival_layer.py

Times ``ArrivalModel.draw_block_epochs``, the one epoch path, for four
arrival models: Poisson(1), a sinusoidal NHPP (rate 1 + 0.5 sin 2t), a
renewal stream with H2 interarrivals (weights 0.5, 0.5; rates 2, 2/3) and
that H2 stream time-changed by the rate 1 + 0.5 sin t.  Each case draws one
row of epochs at n = 1e5 on [0, 4] from fixed seed words, 7 times in this
process, and reports the best time in seconds with the epoch count.  Uses
the ``src/`` of the checkout it sits in, numpy and the stdlib only.  Prints
one JSON object on one line.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hqinflab.arrivals import ArrivalModel, RateFunction  # noqa: E402
from hqinflab.rng import seed_words  # noqa: E402
from hqinflab.service import HyperExponential  # noqa: E402

N, HORIZON, REPEATS = 100_000, 4.0, 7
H2 = HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))
MODELS = {
    "poisson": ArrivalModel.poisson(1.0),
    "sinusoidal_nhpp": ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=0.5, c=2.0)),
    "h2_renewal": ArrivalModel.renewal(H2),
    "time_changed_h2": ArrivalModel(H2, RateFunction("sinusoidal", a=1.0, b=0.5)),
}


def best_time(model: ArrivalModel, words: np.ndarray) -> tuple[float, int]:
    """The best of REPEATS wall times of one draw, and its epoch count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        (epochs,) = model.draw_block_epochs(N, HORIZON, words)
        best = min(best, time.perf_counter() - start)
    return best, int(epochs.size)


def main() -> None:
    words = seed_words(1, [("arrival_layer",)])
    cases = {}
    for name, model in MODELS.items():
        best, count = best_time(model, words)
        cases[name] = {"best_s": best, "epochs": count}
    print(json.dumps({"n": N, "horizon": HORIZON, "repeats": REPEATS, "cases": cases,
                      "python": platform.python_version(), "numpy": np.__version__}))


if __name__ == "__main__":
    main()
