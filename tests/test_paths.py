import numpy as np
import pytest

from hqinflab.arrivals import ArrivalModel
from hqinflab.fields import Grid
from hqinflab.limits import LimitInputs
from hqinflab.paths import _TOL, _LimitEngine
from hqinflab.service import (Deterministic, Exponential, FiniteAtoms, HyperExponential,
                              LogNormal, Mixture, Uniform)

SERVICES = [
    Exponential(1.5),
    Deterministic(0.7),
    Uniform(0.2, 1.4),
    LogNormal(-0.5, 1.0),
    HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
    FiniteAtoms(((0.6, 0.3), (1.2, 0.7))),
    Mixture(0.5, LogNormal(-0.5, 1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4)))),
]


class TestWeights:
    @pytest.mark.parametrize("service", SERVICES, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("elapsed", [False, True], ids=["residual", "elapsed"])
    def test_against_scalar_differences(self, service, elapsed):
        inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        eng = _LimitEngine(inputs, Grid([0.5, 1.0, 1.5], [0.0, 0.4, 1.2]), k=7, n_paths=1)
        pairs = eng.ep if elapsed else eng.rp
        w = eng._weights(service.integrated_sf, pairs, elapsed=elapsed)
        isf = service.integrated_sf
        want = np.zeros_like(w)
        for j, (s0, s1) in enumerate(zip(eng.s0, eng.s1)):
            for g, (t, y) in enumerate(zip(pairs.t, pairs.y)):
                if s1 > t + _TOL or (elapsed and s0 < t - y - _TOL):
                    continue
                shift = t if elapsed else t + y
                want[j, g] = (isf(float(shift - s0)) - isf(float(shift - s1))) / (s1 - s0)
        assert np.count_nonzero(want) > 0
        np.testing.assert_allclose(w, want, rtol=1e-14, atol=0.0)
