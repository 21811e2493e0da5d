import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqinflab
from hqinflab import paths as paths_module
from hqinflab.arrivals import ArrivalModel, RateFunction
from hqinflab.fields import Grid
from hqinflab.limits import LimitInputs, surface
from hqinflab.paths import (_TOL, _LimitEngine, assemble_limit_bundle,
                            markov_decomposition_check)
from hqinflab.rng import substream
from hqinflab.service import (Exponential, FiniteAtoms, HyperExponential, LogNormal,
                              Mixture, Uniform)

from oracles import law_id, service_component_loop

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
    GRID = Grid([0.5, 1.0, 1.5], [0.0, 0.4, 1.2])
    PROBES = [(0.5, 1.5, 0.4), (0.2, 1.0, 0.0)]

    def windows(self, kind):
        """(lo, hi, shift) of each column of one kind, in engine order."""
        grid = [(t, y) for t in self.GRID.t for y in self.GRID.y]
        if kind == "residual":
            return ([(0.0, t, t + y) for t, y in grid]
                    + [(0.0, t2, t2 + y) for t1, t2, y in self.PROBES]
                    + [(0.0, t1, t1 + (y + (t2 - t1))) for t1, t2, y in self.PROBES])
        if kind == "elapsed":
            return [(t - min(y, t), t, t) for t, y in grid]
        return [(t1, t2, t2 + y) for t1, t2, y in self.PROBES]

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    @pytest.mark.parametrize("kind", ["residual", "elapsed", "innovation"])
    def test_against_scalar_differences(self, service, kind):
        inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        eng = _LimitEngine(inputs, self.GRID, k=7, n_paths=1, markov_probes=self.PROBES)
        cols = {"residual": eng.rp, "elapsed": eng.ep, "innovation": eng.zp}[kind]
        w = eng._weights(service.integrated_sf)[:, cols]
        isf = service.integrated_sf
        want = np.zeros_like(w)
        for j, (s0, s1) in enumerate(zip(eng.s0, eng.s1)):
            for g, (lo, hi, shift) in enumerate(self.windows(kind)):
                if s1 <= hi + _TOL and s0 >= lo - _TOL:
                    want[j, g] = (isf(float(shift - s0)) - isf(float(shift - s1))) / (s1 - s0)
        assert np.count_nonzero(want) > 0
        np.testing.assert_allclose(w, want, rtol=1e-14, atol=0.0)


class TestServiceComponent:
    # y grid without 0, workload (t, x) pairs and Markov probes: every kind
    # of column, and spans that start past column 0
    GRID = Grid([0.5, 1.0, 1.5], [0.3, 0.8, 1.2])
    EXTRA = [(t, x) for t in (0.5, 1.0, 1.5) for x in (0.0, 0.25, 0.6)]
    PROBES = [(0.5, 1.5, 0.4), (0.2, 1.0, 0.0)]
    P = 16

    def engine(self, service):
        inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        return _LimitEngine(inputs, self.GRID, k=7, n_paths=self.P,
                            extra_r_pairs=self.EXTRA, markov_probes=self.PROBES)

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    @pytest.mark.parametrize("budget", ["default", "small", "gather"])
    def test_matches_interval_loop(self, service, budget, monkeypatch):
        # same normals in the same order: X2 equal up to summation order, and
        # the generator left in the same state
        if budget == "small":
            # blocks of a few levels, and intervals larger than a block
            monkeypatch.setattr(paths_module, "_BLOCK_NORMALS", 5 * self.P)
        if budget == "gather":
            # every interval of more than two levels by the cumulative sum
            monkeypatch.setattr(paths_module, "_DENSE_LEVELS", 2)
        eng = self.engine(service)
        sizes = []

        def normals(rng, shape):
            sizes.append(np.prod(shape))
            return rng.standard_normal(shape)
        eng._normals = normals
        rng, rng_loop = substream(7, "x2"), substream(7, "x2")
        x2 = eng.service_component(rng)
        want = service_component_loop(eng, rng_loop)
        np.testing.assert_allclose(x2, want, rtol=0.0, atol=1e-13)
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        if eng.dec.p_c == 0.0:
            assert not sizes and not x2.any()
            return
        assert np.abs(want).max() > 0.1
        if budget == "default":
            # several blocks, each of several intervals
            assert 1 < len(sizes) < len(eng.ds)
        if budget == "small":
            assert max(sizes) > 5 * self.P
        if budget == "gather":
            assert max(sizes) > 2 * self.P

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    def test_sheet_levels_are_the_sorted_distinct_pairs(self, service):
        # the (interval, level) pairs of every covered cell and the level 1
        # of every covered interval, as np.unique sorts and indexes them
        eng = self.engine(service)
        if eng.dec.p_c == 0.0:
            return
        start, lev_row, lev_idx, u, _, pos, lev = eng._sheet_levels()
        rows, cols = np.nonzero(eng.covers)
        covered = np.unique(rows)
        keys = np.concatenate((np.stack((rows, lev[rows, cols])),
                               np.stack((covered, np.ones(len(covered))))), axis=1)
        (want_row, want_u), inv = np.unique(keys, axis=1, return_inverse=True)
        assert np.array_equal(lev_row, want_row.astype(int)) and np.array_equal(u, want_u)
        assert np.array_equal(pos[rows, cols], inv[:len(rows)] - start[rows])
        assert np.array_equal(lev_idx, np.arange(len(u)) - start[lev_row])


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

    def test_workload_variance_under_nhpp(self):
        # Var Wr of 2000 paths against var_w, each point within 4 standard
        # errors of a sample variance (from the sample's fourth moment); k = 50
        # leaves a discretization bias of 1-5% on this grid, the same under
        # Poisson arrivals, about one standard error
        inputs = LimitInputs.from_models(
            ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=0.5)), Exponential(1.0))
        grid = Grid([1.0, 2.0, 4.0], [0.0, 0.5, 1.0])
        P = 2000
        wr = assemble_limit_bundle(inputs, grid, k=50, n_paths=P, workload=True,
                                   rng=substream(4, "nhpp workload")).paths["Wr"]
        dev = wr - wr.mean(axis=0)
        var = np.var(wr, axis=0, ddof=1)
        se = np.sqrt((np.mean(dev**4, axis=0) - var**2 * (P - 3) / (P - 1)) / P)
        z = (var - surface(inputs, grid, "var_w")) / se
        assert np.all(np.abs(z) <= 4.0), z


class TestImports:
    def test_bundle_and_ks_distance_leave_out_numpy_ma(self):
        # np.unique imports numpy.ma on first use, about 10 ms of a run
        src = str(Path(hqinflab.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from hqinflab.arrivals import ArrivalModel\n"
                "from hqinflab.fields import Grid\n"
                "from hqinflab.limits import LimitInputs\n"
                "from hqinflab.paths import assemble_limit_bundle\n"
                "from hqinflab.rng import substream\n"
                "from hqinflab.service import FiniteAtoms, LogNormal, Mixture\n"
                "from hqinflab.stats import ks_distance\n"
                "law = Mixture(0.5, LogNormal(-0.5, 1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))\n"
                "inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), law)\n"
                "bundle = assemble_limit_bundle(inputs, Grid([0.5, 1.0], [0.0, 0.5]), k=4,\n"
                "                               rng=substream(1, 'ma'), n_paths=8)\n"
                "assert bundle.paths['X2'].any()\n"
                "ks_distance(law.sample(substream(2, 'ma'), 50), law.cdf)\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


class TestMarkov:
    GRID = Grid([0.5, 1.0, 2.0], [0.0, 0.5])
    PROBES = [(0.5, 1.0, 0.0), (1.0, 2.0, 0.0), (0.5, 2.0, 0.5)]

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    def test_decomposition_is_exact(self, service):
        # Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y) on every path; atom
        # laws carry the splitting term whose innovation window is clipped
        inputs = LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        bundle = assemble_limit_bundle(inputs, self.GRID, k=20, n_paths=64,
                                       rng=substream(5, "markov"),
                                       markov_probes=self.PROBES)
        for probe in self.PROBES:
            assert markov_decomposition_check(bundle, *probe).residual_max <= 1e-12
