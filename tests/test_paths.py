import numpy as np
import pytest

from hqinflab.arrivals import ArrivalModel
from hqinflab.fields import Grid
from hqinflab.limits import LimitInputs
from hqinflab.paths import _TOL, _LimitEngine, assemble_limit_bundle
from hqinflab.rng import substream
from hqinflab.service import (Exponential, FiniteAtoms, HyperExponential, LogNormal,
                              Mixture, Uniform)

from oracles import law_id

SERVICES = [
    Exponential(1.5),
    FiniteAtoms(((0.7, 1.0),)),
    Uniform(0.2, 1.4),
    LogNormal(-0.5, 1.0),
    HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
    FiniteAtoms(((0.6, 0.3), (1.2, 0.7))),
    Mixture(0.5, LogNormal(-0.5, 1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4)))),
]


class TestWeights:
    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
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


class TestSplitCovariance:
    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    def test_multinomial(self, service):
        dec = service.decompose()
        cov = dec.split_covariance()
        probs = np.array([dec.p_c] + [dec.p_d * m for _, m in dec.atoms])
        np.testing.assert_array_equal(cov, cov.T)
        np.testing.assert_allclose(cov.sum(axis=1), 0.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.diag(cov), probs * (1.0 - probs), rtol=0.0, atol=1e-15)
        assert np.linalg.eigvalsh(cov).min() >= -1e-15


class TestBundle:
    GRID = Grid([0.5, 1.0, 1.5], [0.0, 0.4, 1.2])

    def paths(self, service):
        inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        return assemble_limit_bundle(inputs, self.GRID, k=8, n_paths=16,
                                     rng=substream(3, "bundle")).paths

    def test_one_atom_law_has_arrival_noise_only(self):
        # one category: neither service sampling nor splitting noise
        paths = self.paths(FiniteAtoms(((0.7, 1.0),)))
        assert not paths["X2"].any() and not paths["X3"].any()
        assert paths["X1"].any()

    def test_exponential_has_no_splitting_noise(self):
        paths = self.paths(Exponential(1.5))
        assert not paths["X3"].any()
        assert paths["X1"].any() and paths["X2"].any()

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    def test_qr_is_the_sum_of_the_components(self, service):
        paths = self.paths(service)
        assert paths["Qr"].shape == (16,) + self.GRID.shape
        np.testing.assert_array_equal(paths["Qr"], paths["X1"] + paths["X2"] + paths["X3"])
