import math

import numpy as np
import pytest

from hqinflab.arrivals import ArrivalModel, RateFunction
from hqinflab.fields import Grid, TwoParamField
from hqinflab.limits import LimitInputs, fluid_qr, surface, var_components
from hqinflab.rng import seed_words, substream
from hqinflab.scaling import (clt_scale, clt_scale_arrivals, composed_empirical,
                              decompose_hatQr, lln_scale, sequential_empirical,
                              split_arrivals, x1_integration_by_parts)
from hqinflab.service import Exponential, FiniteAtoms, HyperExponential, LogNormal, Mixture
from hqinflab.simulate import SimulationTrace, eval_fields, simulate

from oracles import brute_arrivals, brute_x1_x2

EXP1 = Exponential(1.0)
ARR = ArrivalModel.poisson(1.0)
INPUTS = LimitInputs.from_models(ARR, EXP1)


# decompose_hatQr at n=200, horizon 2, H2 interarrivals under the sinusoidal
# rate a=1, b=0.5, LogNormal(-0.5, 1) service, substream(2024, "pin",
# "decompose"), recorded when the lognormal c.d.f. went through math.erf and
# the rate was inverted by 80-sweep bisection, centered by the fluid_qr
# surface of that time (adaptive Simpson), pinned here too so that X1 does
# not move with the quadrature
PINNED_CENTER = np.array([[0.4589934682178831, 0.24103105075415737, 0.08274468535862672],
                          [0.7858203638993045, 0.4210252940131467, 0.1524098831310327],
                          [1.1568894678208943, 0.6432324274976837, 0.24969267164202102]])
PINNED_X1 = np.array([[1.3538101970906746, 0.7055330050184327, 0.24650318628221846],
                       [1.8558604041182765, 0.9994113471860251, 0.35822802051063274],
                       [-1.106386978062078, -0.5421407992682212, -0.15492650568256394]])
PINNED_X2 = np.array([[0.1453485523733671, 0.6233886196357633, 0.421787882318161],
                       [0.6074116325098616, 0.11745965572433077, 0.45621922283681715],
                       [0.019005696102492184, -0.1399687318657933, 0.15927278500211953]])


def _trace(n, horizon, seed, service=EXP1, arrival=ARR):
    return simulate(arrival, service, n=n, horizon=horizon,
                    words=seed_words(seed, [("scaling",)], 2))


def _replications(key, reps=2000, n=400, horizon=1.0):
    """One block of M/exp replications whose row r draws from the children
    of substream(r, key), as seed_words(r, [(key,)], 2) gives them (numpy
    spawns them 6x faster for one row at a time)."""
    words = [[child.generate_state(4, np.uint64)
              for child in substream(r, key).bit_generator.seed_seq.spawn(2)]
             for r in range(reps)]
    return simulate(ARR, EXP1, n, horizon, words)


class TestScalings:
    def test_lln_constant(self):
        g = Grid([1.0], [0.0, 1.0])
        f = TwoParamField(g, np.full((1, 2), 40.0), "Qr")
        assert np.all(lln_scale(f, 8).values == 5.0)

    def test_clt_zero_when_centered(self):
        g = Grid([1.0], [0.0, 1.0])
        center = TwoParamField(g, np.array([[2.0, 3.0]]), "c")
        f = TwoParamField(g, 16 * center.values, "Qr")
        scaled = clt_scale(f, 16, center)
        assert np.allclose(scaled.values, 0.0)

    def test_grid_mismatch(self):
        f = TwoParamField(Grid([1.0], [0.0]), np.zeros((1, 1)), "Qr")
        center = TwoParamField(Grid([2.0], [0.0]), np.zeros((1, 1)), "c")
        with pytest.raises(ValueError, match="grid"):
            clt_scale(f, 4, center)

    def test_clt_variance_matches_analytic(self):
        # M/exp at n=400: Var Qr-hat(1, 0) ~= 0.632121 over 2000 replications
        g = Grid([1.0], [0.0])
        center = surface(INPUTS, g, "fluid_qr")
        f = eval_fields(_replications("cltvar"), g)["Qr"]
        vals = clt_scale(f, 400, center).values[:, 0, 0]
        assert np.var(vals, ddof=1) == pytest.approx(fluid_qr(INPUTS, 1.0, 0.0), rel=0.10)


class TestSequentialEmpirical:
    def test_single_sample(self):
        g = Grid([1.0], [2.0])
        field = sequential_empirical(np.array([1.5]), 1, g, EXP1)
        assert field.kbar[0, 0] == 1.0

    def test_centered_vanishes_at_infinity(self):
        g = Grid([0.5, 1.0], [1e9])
        services = np.asarray(EXP1.sample(substream(0, "se"), size=10))
        field = sequential_empirical(services, 10, g, EXP1)
        assert np.allclose(field.khat, 0.0, atol=1e-12)

    def test_exact_expectation_centering(self):
        # centering is floor(nt)/n * F(x), not t * F(x)
        g = Grid([0.25], [1.0])
        services = np.array([10.0, 10.0, 10.0])
        field = sequential_empirical(services, 3, g, EXP1)
        m = math.floor(3 * 0.25)
        assert field.khat[0, 0] == pytest.approx(
            -math.sqrt(3) * (m / 3) * EXP1.cdf(1.0))

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="service samples"):
            sequential_empirical(np.array([1.0]), 10, Grid([1.0], [1.0]), EXP1)

    def test_dkw_bound(self):
        n = 10_000
        xs = Grid([1.0], np.linspace(0.05, 8.0, 60).tolist())
        passes = 0
        runs = 20
        for seed in range(runs):
            services = np.asarray(EXP1.sample(substream(seed, "dkw"), size=n))
            field = sequential_empirical(services, n, xs, EXP1)
            fx = np.asarray(EXP1.cdf(np.asarray(xs.y)))
            passes += np.max(np.abs(field.kbar[0] - fx)) < 0.02
        assert passes >= 0.95 * runs


class TestComposedEmpirical:
    def test_empty_trace(self):
        trace = SimulationTrace(n=4, arrivals=np.array([]), services=np.array([]),
                                horizon=1.0, service_model=EXP1)
        field = composed_empirical(trace, Grid([0.5, 1.0], [0.5, 1.0]))
        assert not field.values.any()

    def test_zero_at_origin_for_continuous_service(self):
        trace = _trace(100, 1.0, 1)
        field = composed_empirical(trace, Grid([1.0], [0.0, 1e9]))
        assert field.values[0, 0, 0] == 0.0          # F(0) = 0, no zero services
        assert field.values[0, 0, 1] == pytest.approx(0.0, abs=1e-12)   # R(t, inf) = 0

    def test_variance_matches_limit(self):
        # Var R(1, x) -> abar(1) F(x) (1 - F(x))
        vals = composed_empirical(_replications("rhat"), Grid([1.0], [math.log(2.0)])).values[:, 0, 0]
        target = 1.0 * 0.5 * 0.5
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.15)

    def test_asymptotically_independent_of_arrivals(self):
        # |corr(A-hat_n(1), R-hat_n(1, median))| < 0.08 at n=400
        block = _replications("indep")
        a_vals = clt_scale_arrivals(block, np.array([1.0]), INPUTS.abar)[:, 0]
        r_vals = composed_empirical(block, Grid([1.0], [math.log(2.0)])).values[:, 0, 0]
        rho = np.corrcoef(a_vals, r_vals)[0, 1]
        assert abs(rho) < 0.08


class TestSplitArrivals:
    def test_pure_continuous(self):
        trace = _trace(100, 1.0, 2)
        out = split_arrivals(trace, EXP1.decompose(), np.array([0.5, 1.0]))
        assert np.array_equal(out["Ac"].values, trace.count_arrivals([0.5, 1.0]))
        assert not out["Ad"].values.any()

    def test_atom_fractions(self):
        service = FiniteAtoms(((1.0, 0.3), (2.0, 0.7)))
        trace = simulate(ArrivalModel.poisson(1.0), service, 100_000, 1.0,
                         seed_words(3, [("split",)], 2))
        out = split_arrivals(trace, service.decompose(), np.array([1.0]))
        total = trace.count_arrivals([1.0])[0, 0]
        # first atom in mass order is the one at 2.0 with mass 0.7
        assert out["Adi"][0].values[0, 0] / total == pytest.approx(0.7, abs=0.01)

    def test_partition(self):
        mix = Mixture(0.5, EXP1, FiniteAtoms(((1.0, 1.0),)))
        trace = simulate(ARR, mix, 500, 2.0, seed_words(5, [("split",)], 2))
        ts = np.array([0.5, 1.0, 2.0])
        out = split_arrivals(trace, mix.decompose(), ts)
        assert np.array_equal(out["Ac"].values + out["Ad"].values,
                              trace.count_arrivals(ts))
        per_atom = sum(f.values for f in out["Adi"])
        assert np.array_equal(per_atom, out["Ad"].values)

    def test_alien_value_under_atomic_law(self):
        service = FiniteAtoms(((1.0, 1.0),))
        trace = SimulationTrace(n=1, arrivals=np.array([0.5]),
                                services=np.array([1.5]), horizon=1.0,
                                service_model=service)
        with pytest.raises(ValueError, match="match no atom"):
            split_arrivals(trace, service.decompose(), np.array([1.0]))


class TestBlockAgainstCustomerLoop:
    """Each replication of a block holding a full replication, an empty one
    and one with no arrival before the first grid time, against loops over
    its own customers."""

    GRID = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
    MIX = Mixture(0.5, EXP1, FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))
    N = 40

    def block(self, service):
        drawn = simulate(ARR, service, self.N, 2.0, seed_words(9, [("odd", r) for r in range(2)], 2))
        full = slice(drawn.bounds[0], drawn.bounds[1])
        second = np.arange(drawn.bounds[1], drawn.bounds[2])
        late = second[drawn.arrivals[second] > self.GRID.t[0]]
        reps = [(drawn.arrivals[full], drawn.services[full]), ([], []),
                (drawn.arrivals[late], drawn.services[late])]
        assert len(reps[0][0]) and len(reps[2][0]) and reps[0][0][0] <= self.GRID.t[0]
        return SimulationTrace(n=self.N, arrivals=np.concatenate([r[0] for r in reps]),
                               services=np.concatenate([r[1] for r in reps]), horizon=2.0,
                               service_model=service,
                               bounds=np.cumsum([0] + [len(r[0]) for r in reps])), reps

    def test_arrival_counts_and_composed_empirical(self):
        block, reps = self.block(EXP1)
        g, n = self.GRID, self.N
        counts = block.count_arrivals(g.t)
        ahat = clt_scale_arrivals(block, g.t, INPUTS.abar)
        rhat = composed_empirical(block, g).values
        assert counts.shape == ahat.shape == (3, len(g.t)) and rhat.shape == (3, *g.shape)
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(g.t):
                arrived = brute_arrivals(tau, eta, t, 0.0)[0]
                assert counts[r, i] == arrived
                assert ahat[r, i] == pytest.approx((arrived - n * t) / math.sqrt(n), abs=1e-12)
                for j, x in enumerate(g.y):
                    arrived, below, _ = brute_arrivals(tau, eta, t, x)
                    want = (below - arrived * EXP1.cdf(x)) / math.sqrt(n)
                    assert rhat[r, i, j] == pytest.approx(want, abs=1e-12)

    def test_split_arrivals(self):
        block, reps = self.block(self.MIX)
        decomposition = self.MIX.decompose()
        locs = [loc for loc, _ in decomposition.atoms]
        out = split_arrivals(block, decomposition, self.GRID.t)
        assert len(out["Adi"]) == len(locs)
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(self.GRID.t):
                arrived, _, at = brute_arrivals(tau, eta, t, 0.0, locs)
                assert out["Ac"].values[r, i] == arrived - sum(at)
                assert out["Ad"].values[r, i] == sum(at)
                for j, field in enumerate(out["Adi"]):
                    assert field.values[r, i] == at[j]

    def test_x1_integration_by_parts(self):
        block, reps = self.block(EXP1)
        g, n = self.GRID, self.N
        center = surface(INPUTS, g, "fluid_qr")
        parts = x1_integration_by_parts(block, g, INPUTS.abar, INPUTS.rate)
        assert parts.shape == (3, *g.shape)
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    want = brute_x1_x2(tau, eta, n, t, y, lambda x: math.exp(-x),
                                       center.values[i, j])[0]
                    assert abs(parts[r, i, j] - want) < 1e-6


class TestDecomposition:
    def test_additivity_exact(self):
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5])
        center = surface(INPUTS, g, "fluid_qr")
        for seed in range(3):
            trace = _trace(300, 2.0, seed)
            x1, x2 = decompose_hatQr(trace, g, center)
            qhat = clt_scale(eval_fields(trace, g)["Qr"], trace.n, center)
            assert np.max(np.abs(x1.values + x2.values - qhat.values)) < 1e-9

    def test_block_against_customer_loop(self):
        # a full replication, an empty one, one with no arrival before the
        # first grid time, a full one and an empty last one: reduceat would
        # give an empty segment the next replication's first value
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        center = surface(INPUTS, g, "fluid_qr")
        n = 40
        full = [_trace(n, 2.0, seed) for seed in range(3)]
        late = full[1].arrivals > 0.5
        reps = [(full[0].arrivals, full[0].services), ([], []),
                (full[1].arrivals[late], full[1].services[late]),
                (full[2].arrivals, full[2].services), ([], [])]
        block = SimulationTrace(n=n, arrivals=np.concatenate([r[0] for r in reps]),
                                services=np.concatenate([r[1] for r in reps]), horizon=2.0,
                                service_model=EXP1,
                                bounds=np.cumsum([0] + [len(r[0]) for r in reps]))
        x1, x2 = decompose_hatQr(block, g, center)
        assert x1.values.shape == x2.values.shape == (len(reps), *g.shape)
        qhat = clt_scale(eval_fields(block, g)["Qr"], n, center).values
        assert np.max(np.abs(x1.values + x2.values - qhat)) < 1e-9
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    want = brute_x1_x2(tau, eta, n, t, y, lambda x: math.exp(-x),
                                       center.values[i, j])
                    assert abs(x1.values[r, i, j] - want[0]) <= 1e-12
                    assert abs(x2.values[r, i, j] - want[1]) <= 1e-12
            # a replication's terms are its own, whatever block it is in
            alone = SimulationTrace(n=n, arrivals=np.asarray(tau, dtype=float),
                                    services=np.asarray(eta, dtype=float), horizon=2.0,
                                    service_model=EXP1)
            a1, a2 = decompose_hatQr(alone, g, center)
            assert np.array_equal(a1.values, x1.values[r:r + 1])
            assert np.array_equal(a2.values, x2.values[r:r + 1])

    def test_refused_for_atomic_service(self):
        mix = Mixture(0.5, EXP1, FiniteAtoms(((1.0, 1.0),)))
        trace = simulate(ARR, mix, 50, 1.0, seed_words(0, [("dec",)], 2))
        g = Grid([1.0], [0.0])
        center = TwoParamField(g, np.zeros((1, 1)), "fluid_qr")
        with pytest.raises(ValueError, match="refused"):
            decompose_hatQr(trace, g, center)

    def test_x1_matches_integration_by_parts(self):
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5])
        center = surface(INPUTS, g, "fluid_qr")
        trace = _trace(200, 2.0, 7)
        x1, _ = decompose_hatQr(trace, g, center)
        parts = x1_integration_by_parts(trace, g, INPUTS.abar, INPUTS.rate)
        assert np.max(np.abs(x1.values - parts)) < 1e-6

    def test_pinned_lognormal_time_varying(self):
        # roundoff only: the erfc and the rate inverse changed, not the sums
        arrival = ArrivalModel(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
                               RateFunction("sinusoidal", a=1.0, b=0.5))
        service = LogNormal(-0.5, 1.0)
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        center = TwoParamField(g, PINNED_CENTER, "fluid_qr")
        trace = simulate(arrival, service, n=200, horizon=2.0,
                         words=seed_words(2024, [("pin", "decompose")], 2))
        assert len(trace.arrivals) == 548
        x1, x2 = decompose_hatQr(trace, g, center)
        np.testing.assert_allclose(x1.values[0], PINNED_X1, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(x2.values[0], PINNED_X2, rtol=1e-10, atol=0.0)

    def test_x2_variance(self):
        # Var X2(1, 0) -> int_0^1 F(1-s) F^c(1-s) ds = 0.199789
        g = Grid([1.0], [0.0])
        center = surface(INPUTS, g, "fluid_qr")
        target = var_components(INPUTS, 1.0, 0.0).service
        # closed form 1/2 - e^-1 + e^-2/2
        assert target == pytest.approx(0.5 - math.exp(-1.0) + 0.5 * math.exp(-2.0),
                                       abs=1e-9)
        _, x2 = decompose_hatQr(_replications("x2var"), g, center)
        vals = x2.values[:, 0, 0]
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.15)
