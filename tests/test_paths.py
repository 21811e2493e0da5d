import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqinflab
from hqinflab.arrivals import ArrivalModel, RateFunction
from hqinflab.fields import Grid
from hqinflab.limits import LimitInputs, cov_x2_increment, surface, var_components
from hqinflab.paths import _factor, _gauss_legendre, _LimitEngine, assemble_limit_bundle
from hqinflab.rng import substream
from hqinflab.service import (Exponential, FiniteAtoms, HyperExponential, LogNormal,
                              Mixture, Uniform)

from oracles import (law_id, service_component_loop, service_weights_loop,
                     split_component_paths, unit_weights, wr_fold)

SERVICES = [
    Exponential(1.5),
    FiniteAtoms(((0.7, 1.0),)),
    Uniform(0.2, 1.4),
    LogNormal(-0.5, 1.0),
    HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
    FiniteAtoms(((0.6, 0.3), (1.2, 0.7))),
    Mixture(0.5, LogNormal(-0.5, 1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4)))),
]
H2 = HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))   # renewal interarrivals, mean 1


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
    def test_node_values_against_a_scalar_loop(self, service, kind):
        inputs = LimitInputs(ArrivalModel.poisson(1.0), service)
        eng = _LimitEngine(inputs, self.GRID, k=7, n_paths=1, markov_probes=self.PROBES)
        cols = {"residual": eng.rp, "elapsed": eng.ep, "innovation": eng.zp}[kind]
        w = eng._at_nodes(service.sf)[:, cols]
        want = np.zeros_like(w)
        for j, s in enumerate(eng.s0):
            for g, (lo, hi, shift) in enumerate(self.windows(kind)):
                if lo < s < hi:
                    want[j, g] = service.sf(float(shift - s))
        assert np.count_nonzero(want) > 0
        np.testing.assert_allclose(w, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    def test_each_window_reads_a_gauss_rule_of_its_integral(self, service):
        # the pieces are cut wherever a window's integrand jumps or kinks,
        # so each window's node sum is a Gauss rule for int_abar's integral
        # of F^c, under a time-varying rate
        inputs = LimitInputs(ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=0.5)),
                             service)
        eng = _LimitEngine(inputs, self.GRID, k=200, n_paths=1, markov_probes=self.PROBES)
        got = eng.mu @ eng._at_nodes(service.sf)
        want = inputs.int_abar(service.sf, eng.t - eng.length, eng.t, eng.t + eng.y)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 8, 25, 100])
    def test_golub_welsch_is_the_legendre_rule(self, m):
        from numpy.polynomial.legendre import leggauss
        x, w = _gauss_legendre(m)
        want_x, want_w = leggauss(m)
        np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, want_w, rtol=0.0, atol=1e-14)


def arrival_direct(eng, rng):
    """X1 on every window column: one normal per node, scaled by
    sqrt(c_a^2 mu_n), times F^c at each covering window's shift."""
    dA = rng.standard_normal((eng.n_paths, len(eng.s0))) * np.sqrt(eng.inputs.ca2 * eng.mu)
    x1 = np.zeros((eng.n_paths, len(eng.t)))
    for g, (t, length, y) in enumerate(zip(eng.t, eng.length, eng.y)):
        live = (eng.s0 > t - length) & (eng.s0 < t)
        x1[:, g] = dA[:, live] @ eng.inputs.service.sf(t + y - eng.s0[live])
    return x1


class TestFactor:
    @pytest.mark.parametrize("sizes", [[3, 5], [7, 0, 2], [3000, 2000, 1, 5000]],
                             ids=["fewer_rows", "empty_block", "stacked"])
    def test_gram_of_the_stacked_blocks(self, sizes):
        # fewer rows than columns: the weights themselves; more: a triangle
        # with R^T R = M^T M, refactored as blocks stack past the threshold
        rng = substream(2, "factor")
        blocks = [rng.standard_normal((n, 12)) for n in sizes]
        m = np.concatenate(blocks)
        r = _factor(iter(blocks), 12)
        if len(m) <= 12:
            assert np.array_equal(r, m)
        else:
            assert r.shape == (12, 12) and np.allclose(np.tril(r, -1), 0.0, atol=0.0)
        np.testing.assert_allclose(r.T @ r, m.T @ m, rtol=0.0, atol=1e-12 * np.abs(m.T @ m).max())

    def test_sign_canonical_across_stackings(self, monkeypatch):
        # each row of R is signed so that its diagonal entry is nonnegative:
        # the stacked and the one-shot factors of full-rank weights are the
        # same R to roundoff, not only up to the signs of its rows
        m = substream(2, "canonical").standard_normal((3000, 96))
        blocks = np.split(m, range(100, 3000, 100))
        one_shot = _factor(iter(blocks), 96)
        monkeypatch.setattr(hqinflab.paths, "_STACK_ROWS", 256)
        stacked = _factor(iter(blocks), 96)
        assert np.all(np.diag(one_shot) >= 0.0) and np.all(np.diag(stacked) >= 0.0)
        np.testing.assert_allclose(stacked, one_shot, rtol=0.0,
                                   atol=1e-12 * np.abs(one_shot).max())


class TestGramFactor:
    # y grid without 0, Markov probes, and an x grid for the Wr fold that
    # holds the y grid's first two values and ends before its last: every
    # kind of column; renewal arrivals, so c_a^2 != 1
    GRID = Grid([0.5, 1.0, 1.5], [0.3, 0.8, 1.2])
    XGRID = [0.0, 0.3, 0.55, 0.8, 1.0]
    PROBES = [(0.5, 1.5, 0.4), (0.2, 1.0, 0.0)]

    def engine(self, service, fold=True):
        inputs = LimitInputs(ArrivalModel.renewal(H2), service)
        return _LimitEngine(inputs, self.GRID, k=7, n_paths=1,
                            xgrid=self.XGRID if fold else None, markov_probes=self.PROBES)

    @pytest.mark.parametrize("service", SERVICES, ids=law_id)
    @pytest.mark.parametrize("fold", [False, True], ids=["windows", "wr_fold"])
    @pytest.mark.parametrize("name", ["X1", "X2", "X3"])
    def test_law_matches_direct_weights(self, name, fold, service):
        # the engine on unit normals returns its factor R; the direct
        # sampler on unit normals returns its weights M, one row per normal.
        # Same law: R^T R = M^T M on the output columns, from min(rows, G)
        # normals per path, none for a component the law does not have
        eng = self.engine(service, fold)
        component, direct = {
            "X1": (_LimitEngine.arrival_component, arrival_direct),
            "X2": (_LimitEngine.service_component, service_component_loop),
            "X3": (_LimitEngine.split_component, split_component_paths)}[name]
        r = unit_weights(component, eng)
        m = unit_weights(direct, eng)
        if fold:
            m = wr_fold(m, self.GRID, self.XGRID)
        G = len(eng.rp) + len(eng.ep) + len(eng.zp) + len(eng.wp)
        assert r.shape == (min(len(m), G), G) and eng.drawn[name] == len(r)
        live = {"X1": True, "X2": eng.dec.p_c > 0.0, "X3": eng.dec.p_d > 0.0}[name]
        assert (len(m) > 0) == live
        gram = m.T @ m
        np.testing.assert_allclose(r.T @ r, gram, rtol=0.0, atol=1e-12 * np.abs(gram).max())
        np.testing.assert_allclose(eng.exact_var[name], np.diag(gram),
                                   rtol=0.0, atol=1e-12 * np.abs(gram).max())

    @pytest.mark.parametrize("service", [s for s in SERVICES if s.decompose().p_c > 0.0],
                             ids=law_id)
    @pytest.mark.parametrize("fold", [False, True], ids=["windows", "wr_fold"])
    def test_service_weights_match_the_strip_loop(self, fold, service):
        # without a fold K holds 0/1 counts, so the one-scatter build is the
        # strip loop bit for bit, and so is its factor R.  The Wr fold sums
        # u^T K in another order; M is rank-deficient there, so its R is
        # unique only up to row signs: compare R^T R
        eng = self.engine(service, fold)
        m = np.concatenate(list(eng._service_weights()))
        want = np.concatenate(list(service_weights_loop(eng)))
        G = m.shape[1]
        r, r_want = _factor(eng._service_weights(), G), _factor(service_weights_loop(eng), G)
        if not fold:
            assert np.array_equal(m, want) and np.array_equal(r, r_want)
        assert m.shape == want.shape and np.abs(m - want).max() <= 1e-15 * np.abs(want).max()
        gram = want.T @ want
        np.testing.assert_allclose(r.T @ r, gram, rtol=0.0, atol=1e-12 * np.abs(gram).max())


class TestLimitPathsSizes:
    # the limit_paths benchmark's models, grid and refinement
    GRID = Grid([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
                [0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    INPUTS = LimitInputs(ArrivalModel.renewal(H2), SERVICES[-1])

    def test_normals_per_path(self, monkeypatch):
        # 200 nodes, 2275 sheet cells and 600 splitting increments (200
        # nodes, 3 categories) for 96 columns: each component draws (P, 96)
        # once, 288 normals per path
        shapes = []

        def normals(eng, rng, shape):
            shapes.append(shape)
            return rng.standard_normal(shape)
        monkeypatch.setattr(_LimitEngine, "_normals", normals)
        bundle = assemble_limit_bundle(self.INPUTS, self.GRID, k=200, n_paths=5,
                                       rng=substream(1, "normals"))
        assert shapes == [(5, 96)] * 3
        assert bundle.engine["weight_rows"] == {"X1": 200, "X2": 2275, "X3": 600}
        assert bundle.engine["normals_per_path"] == {"X1": 96, "X2": 96, "X3": 96}
        assert (bundle.engine["J"], bundle.engine["G"]) == (200, 96)

    @pytest.mark.parametrize("stack", [hqinflab.paths._STACK_ROWS, 300],
                             ids=["one_stack", "refactored"])
    def test_service_weights_match_the_strip_loop(self, monkeypatch, stack):
        # the 2275 rows in one stack, and in stacks refactored about every
        # 300 rows: the chunks end where the strip loop's stacks do, so the
        # weights and R are the loop's bit for bit
        monkeypatch.setattr(hqinflab.paths, "_STACK_ROWS", stack)
        eng = _LimitEngine(self.INPUTS, self.GRID, k=200, n_paths=1)
        m = np.concatenate(list(eng._service_weights()))
        assert m.shape == (2275, 96)
        assert np.array_equal(m, np.concatenate(list(service_weights_loop(eng))))
        assert np.array_equal(_factor(eng._service_weights(), 96),
                              _factor(service_weights_loop(eng), 96))

    @pytest.mark.parametrize("grid,k", [
        (Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5]), 200),
        (GRID, 100),
    ], ids=["3x3_k200", "limit_paths_k100"])
    def test_exact_workload_variance_matches_var_w(self, grid, k):
        # the engine's exact Var Wr, renewal arrivals and atoms: within 0.5%
        # of var_w, the x-columns' trapezoid rule.  Their windows are cut at
        # the atoms like every other window's; uncut, the benchmark grid at
        # k = 100 read -0.52% at worst
        exact = assemble_limit_bundle(self.INPUTS, grid, k=k, n_paths=1, workload=True,
                                      rng=substream(1, "exact wr")).engine["exact_var"]["Wr"]
        np.testing.assert_allclose(exact, surface(self.INPUTS, grid, "var_w"), rtol=0.005)

    def parts(self):
        parts = var_components(self.INPUTS, self.GRID.t[:, None], self.GRID.y[None, :])
        return {"X1": parts.arrival, "X2": parts.service, "X3": parts.splitting}

    def test_exact_service_variance_converges_spectrally_in_k(self):
        # diag(R^T R) is the engine's exact Var X2 at refinement k, a Gauss
        # rule for the limit's service part: its worst relative bias falls
        # from 0.12 to 7.9e-3 to 6.6e-6 at k = 8, 16 and 50
        want = self.parts()["X2"]
        bias = []
        for k in (8, 16, 50):
            eng = _LimitEngine(self.INPUTS, self.GRID, k=k, n_paths=1)
            r = _factor(eng._service_weights(), len(eng.t))
            exact = np.sum(r * r, axis=0)[:want.size].reshape(want.shape)
            bias.append(np.max(np.abs(exact / want - 1.0)))
        assert bias[0] / bias[1] >= 10.0 and bias[1] / bias[2] >= 500.0, bias
        assert bias[2] <= 1e-5, bias

    def test_exact_variances_match_var_components(self):
        # at k = 200 each component's exact variance is its part of var_qr
        # to 1e-8, relative
        exact = assemble_limit_bundle(self.INPUTS, self.GRID, k=200, n_paths=1,
                                      rng=substream(1, "exact parts")).engine["exact_var"]
        for name, want in self.parts().items():
            live = want > 1e-10
            np.testing.assert_allclose(exact[name][live], want[live], rtol=1e-8, atol=0.0,
                                       err_msg=name)

    def test_exact_service_increment_matches_cov_x2_increment(self):
        # the engine's exact mean-square X2 increment between (t, y) and
        # (t, y'), |R_a - R_b|^2 over R's columns a and b, for each pair of
        # neighbouring y on the grid
        eng = _LimitEngine(self.INPUTS, self.GRID, k=200, n_paths=1)
        r = unit_weights(_LimitEngine.service_component, eng)[:, eng.rp]
        r = r.reshape(-1, *self.GRID.shape)
        exact = np.sum((r[:, :, 1:] - r[:, :, :-1]) ** 2, axis=0)
        t, y = np.meshgrid(self.GRID.t, self.GRID.y, indexing="ij")
        want = cov_x2_increment(self.INPUTS, t[:, 1:], y[:, :-1], y[:, 1:])
        np.testing.assert_allclose(exact, want, rtol=1e-8, atol=0.0)


class TestMMInfinity:
    # Poisson(1) arrivals and Exp(1) services: Cov(Qr(t, y), Qr(t', y')) =
    # e^{-max(v, v')} (e^{min(t, t')} - 1), with v = t + y
    GRID = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("k", [20, 50, 200])
    def test_qr_covariance_is_the_closed_form(self, k):
        inputs = LimitInputs(ArrivalModel.poisson(1.0), Exponential(1.0))
        eng = _LimitEngine(inputs, self.GRID, k=k, n_paths=1)
        cov = sum(r.T @ r for r in (unit_weights(c, eng) for c in (
            _LimitEngine.arrival_component, _LimitEngine.service_component,
            _LimitEngine.split_component)))[np.ix_(eng.rp, eng.rp)]
        t, v = eng.t[eng.rp], eng.t[eng.rp] + eng.y[eng.rp]
        want = np.exp(-np.maximum.outer(v, v)) * np.expm1(np.minimum.outer(t, t))
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.max(np.abs(cov - want) / scale) <= 1e-12


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
        inputs = LimitInputs(ArrivalModel.poisson(1.0), service)
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

    def test_each_array_is_held_once(self):
        # each component's grid block is its own array; Qr, Qe, Wr and the
        # Markov columns are views of one (P, G) total
        inputs = LimitInputs(ArrivalModel.poisson(1.0), SERVICES[-1])
        probe = (0.5, 1.5, 0.4)
        bundle = assemble_limit_bundle(inputs, self.GRID, k=8, n_paths=16, workload=True,
                                       rng=substream(3, "bundle"), markov_probes=[probe])
        paths = bundle.paths
        total = paths["Qr"].base
        assert total.shape == (16, bundle.engine["G"])
        for field in (paths["Qe"], paths["Wr"], *bundle.markov[probe]):
            assert np.shares_memory(field, total)
        for a, b in itertools.combinations(("X1", "X2", "X3"), 2):
            assert not np.shares_memory(paths[a], paths[b]), (a, b)
        for name in ("X1", "X2", "X3"):
            assert not np.shares_memory(paths[name], total), name

    def test_workload_variance_under_nhpp(self):
        # Var Wr of 2000 paths against var_w, each point within 4 standard
        # errors of a sample variance (from the sample's fourth moment).  The
        # engine's exact Var Wr at k = 50 is 0.07-0.09% above var_w on this
        # grid, the x-columns' trapezoid rule, against a standard error of
        # about 3%
        inputs = LimitInputs(
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
                "inputs = LimitInputs(ArrivalModel.poisson(1.0), law)\n"
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
        inputs = LimitInputs(ArrivalModel.poisson(1.0), service)
        bundle = assemble_limit_bundle(inputs, self.GRID, k=20, n_paths=64,
                                       rng=substream(5, "markov"),
                                       markov_probes=self.PROBES)
        for probe in self.PROBES:
            lhs, shifted, z = bundle.markov[probe]
            assert np.max(np.abs(lhs - shifted - z)) <= 1e-12
