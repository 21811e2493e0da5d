import math

import numpy as np
import pytest

from hqinflab.arrivals import ArrivalModel, RateFunction
from hqinflab.fields import Grid
from hqinflab.limits import LimitInputs, fluid_qr, surface, var_components
from hqinflab.rng import seed_words, substream
from hqinflab.scaling import decompose_hatQr, x1_integration_by_parts
from hqinflab.service import (Exponential, FiniteAtoms, HyperExponential, LogNormal, Mixture,
                              Uniform)
from hqinflab.simulate import SimulationTrace, eval_fields, simulate

from oracles import brute_arrivals, brute_x1_x2, law_id

EXP1 = Exponential(1.0)
ARR = ArrivalModel.poisson(1.0)
INPUTS = LimitInputs(ARR, EXP1)


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
    def test_clt_variance_matches_analytic(self):
        # M/exp at n=400: Var Qr-hat(1, 0) ~= 0.632121 over 2000 replications
        g = Grid([1.0], [0.0])
        center = surface(INPUTS, g, "fluid_qr")
        f = eval_fields(_replications("cltvar"), g)["Qr"]
        vals = (math.sqrt(400) * (f / 400 - center))[:, 0, 0]
        assert np.var(vals, ddof=1) == pytest.approx(fluid_qr(INPUTS, 1.0, 0.0), rel=0.10)


class TestBlockAgainstCustomerLoop:
    """Each replication of a block holding a full replication, an empty one
    and one with no arrival before the first grid time, against loops over
    its own customers."""

    GRID = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
    N = 40

    def block(self):
        drawn = simulate(ARR, EXP1, self.N, 2.0, seed_words(9, [("odd", r) for r in range(2)], 2))
        full = slice(drawn.bounds[0], drawn.bounds[1])
        second = np.arange(drawn.bounds[1], drawn.bounds[2])
        late = second[drawn.arrivals[second] > self.GRID.t[0]]
        reps = [(drawn.arrivals[full], drawn.services[full]), ([], []),
                (drawn.arrivals[late], drawn.services[late])]
        assert len(reps[0][0]) and len(reps[2][0]) and reps[0][0][0] <= self.GRID.t[0]
        return SimulationTrace(n=self.N, arrivals=np.concatenate([r[0] for r in reps]),
                               services=np.concatenate([r[1] for r in reps]), horizon=2.0,
                               service_model=EXP1,
                               bounds=np.cumsum([0] + [len(r[0]) for r in reps])), reps

    def test_arrival_counts_off_the_grid(self):
        # before the first epoch, exactly at an epoch and just below it,
        # beyond the horizon, unsorted, and an empty replication
        block, reps = self.block()
        late = block.arrivals[block.bounds[2]]
        ts = [5.0, block.arrivals[3], block.arrivals[0] / 2, late, 0.0, 1.0,
              np.nextafter(late, 0.0), 2.0]
        counts = block.count_arrivals(ts)
        assert counts.shape == (3, len(ts)) and counts.dtype == np.intp
        for r, (tau, eta) in enumerate(reps):
            assert counts[r].tolist() == [brute_arrivals(tau, t) for t in ts]
        assert counts[:, 1].tolist() == [4, 0, 0] and counts[:, 2].tolist() == [0, 0, 0]
        assert counts[2, 3] == 1 and counts[2, 6] == 0
        assert block.count_arrivals([]).shape == (3, 0)

    def test_x1_integration_by_parts(self):
        block, reps = self.block()
        g, n = self.GRID, self.N
        center = surface(INPUTS, g, "fluid_qr")
        parts = x1_integration_by_parts(block, g, center, INPUTS.abar)
        assert parts.shape == (3, *g.shape)
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    want = brute_x1_x2(tau, eta, n, t, y, lambda x: math.exp(-x),
                                       center[i, j])[0]
                    assert abs(parts[r, i, j] - want) < 1e-6


class TestDecomposition:
    SHARED = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0, 1.5])   # t + y = 2 at every t
    LOGN = LogNormal(-0.5, 1.0)

    def test_additivity_exact(self):
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5])
        center = surface(INPUTS, g, "fluid_qr")
        for seed in range(3):
            trace = _trace(300, 2.0, seed)
            x1, x2 = decompose_hatQr(trace, g, center)
            qhat = math.sqrt(trace.n) * (eval_fields(trace, g)["Qr"] / trace.n - center)
            assert np.max(np.abs(x1 + x2 - qhat)) < 1e-9

    @staticmethod
    def odd_block(service, n=40):
        # a full replication, an empty one, one with no arrival before the
        # first grid time, a full one and an empty last one: reduceat would
        # give an empty segment the next replication's first value
        full = [_trace(n, 2.0, seed, service) for seed in range(3)]
        late = full[1].arrivals > 0.5
        reps = [(full[0].arrivals, full[0].services), ([], []),
                (full[1].arrivals[late], full[1].services[late]),
                (full[2].arrivals, full[2].services), ([], [])]
        return SimulationTrace(n=n, arrivals=np.concatenate([r[0] for r in reps]),
                               services=np.concatenate([r[1] for r in reps]), horizon=2.0,
                               service_model=service,
                               bounds=np.cumsum([0] + [len(r[0]) for r in reps])), reps

    def check_block_against_customer_loop(self, g, service):
        center = surface(INPUTS, g, "fluid_qr")
        block, reps = self.odd_block(service)
        n = block.n
        x1, x2 = decompose_hatQr(block, g, center)
        assert x1.shape == x2.shape == (len(reps), *g.shape)
        qhat = math.sqrt(n) * (eval_fields(block, g)["Qr"] / n - center)
        assert np.max(np.abs(x1 + x2 - qhat)) < 1e-9
        for r, (tau, eta) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    want = brute_x1_x2(tau, eta, n, t, y, lambda x: 1.0 - service.cdf(x),
                                       center[i, j])
                    assert abs(x1[r, i, j] - want[0]) <= 1e-12
                    assert abs(x2[r, i, j] - want[1]) <= 1e-12
            # a replication's terms are its own, whatever block it is in
            alone = SimulationTrace(n=n, arrivals=np.asarray(tau, dtype=float),
                                    services=np.asarray(eta, dtype=float), horizon=2.0,
                                    service_model=service)
            a1, a2 = decompose_hatQr(alone, g, center)
            assert np.array_equal(a1, x1[r:r + 1])
            assert np.array_equal(a2, x2[r:r + 1])

    def test_block_against_customer_loop(self):
        self.check_block_against_customer_loop(Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5]), EXP1)

    @pytest.mark.parametrize("service", [EXP1, LOGN], ids=law_id)
    def test_shared_shifts_against_customer_loop(self, service):
        self.check_block_against_customer_loop(self.SHARED, service)

    @staticmethod
    def customer_points(block, g):
        """c.d.f. points of the customer-by-customer sums: one per distinct
        shift t + y and arrival by the last grid time that uses it."""
        a = block.count_arrivals(g.t).sum(axis=0)
        last = {s: i for i, row in enumerate((g.t[:, None] + g.y).tolist()) for s in row}
        return sum(a[i] for i in last.values())

    @staticmethod
    def cdf_points(monkeypatch, block, g):
        """decompose_hatQr on ``block`` and the c.d.f. points it evaluated."""
        model = block.service_model
        points, original = [], type(model).cdf
        with monkeypatch.context() as patch:
            patch.setattr(type(model), "cdf",
                          lambda law, x: points.append(np.size(x)) or original(law, x))
            x1, x2 = decompose_hatQr(block, g, np.zeros(g.shape))
        return sum(points), x1, x2

    def test_cdf_budget_small_block(self, monkeypatch):
        # no panel holds more epochs than nodes, so every sum is taken
        # customer by customer, at no more points than that rule
        block, _ = self.odd_block(self.LOGN)
        points, _, _ = self.cdf_points(monkeypatch, block, self.SHARED)
        # 0.5 is last used at t = 0.5, 1 at t = 1, 1.5 at t = 1.5, and 2,
        # 2.5, 3 and 3.5 at t = 2
        a = block.count_arrivals(self.SHARED.t).sum(axis=0)
        assert self.customer_points(block, self.SHARED) == a[0] + a[1] + a[2] + 4 * a[3]
        assert 0 < points <= a[0] + a[1] + a[2] + 4 * a[3]

    def test_cdf_budget_large_n(self, monkeypatch):
        # the benchmark's large-n trace shape: a tenth of the points at most
        arrival = ArrivalModel(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
                               RateFunction("sinusoidal", a=1.0, b=0.5))
        g = Grid([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], [0.0, 0.25, 0.5, 1.0, 2.0])
        block = simulate(arrival, self.LOGN, n=6000, horizon=4.0,
                         words=seed_words(2024, [("budget",)], 2))
        points, _, _ = self.cdf_points(monkeypatch, block, g)
        assert 10 * points <= self.customer_points(block, g)

    # every continuous law of service.py, at a size where most panels are
    # interpolated: a Uniform whose kinks t + y - a and t + y - b fall
    # strictly inside panels; Exponential(50), whose first panel past
    # x = 0.1 the tail check sends back; and a lognormal that changes within
    # a panel, which only the tail check keeps within the bound
    @pytest.mark.parametrize("service", [
        Exponential(1.0), Exponential(50.0), Uniform(0.23, 1.37), LogNormal(-0.5, 1.0),
        HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
        Mixture(1.0, LogNormal(-0.5, 1.0), FiniteAtoms(((1.0, 1.0),))), LogNormal(0.0, 0.02)],
        ids=["Exponential(1)", "Exponential(50)", "Uniform", "LogNormal", "HyperExponential",
             "Mixture(1)", "LogNormal(0, 0.02)"])
    def test_panel_sums_within_bound(self, monkeypatch, service):
        g = Grid([1.0, 4.0], [0.0, 0.5])
        block = simulate(ARR, service, n=2000, horizon=4.0, words=seed_words(11, [("bound",)], 2))
        points, x1, x2 = self.cdf_points(monkeypatch, block, g)
        assert points < self.customer_points(block, g)
        tau, eta = block.arrivals, block.services
        # F^c at every t + y - tau the loop asks for, from one array call
        xs = ((g.t[:, None] + g.y).reshape(-1, 1) - tau).ravel()
        sf = dict(zip(xs.tolist(), (1.0 - service.cdf(xs)).tolist())).__getitem__
        for i, t in enumerate(g.t):
            for j, y in enumerate(g.y):
                want = brute_x1_x2(tau, eta, 2000, t, y, sf, 0.0)
                assert abs(x1[0, i, j] - want[0]) <= 1e-12
                assert abs(x2[0, i, j] - want[1]) <= 1e-12

    def test_panel_sums_do_not_depend_on_the_block(self):
        # at n = 2000 most panels are interpolated, and the block's node
        # table holds panels before t = 0.5 that the late replication alone
        # leaves out: its values must not move
        block, reps = self.odd_block(self.LOGN, n=2000)
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        center = np.zeros(g.shape)
        x1, x2 = decompose_hatQr(block, g, center)
        for r, (tau, eta) in enumerate(reps):
            alone = SimulationTrace(n=block.n, arrivals=np.asarray(tau, dtype=float),
                                    services=np.asarray(eta, dtype=float), horizon=2.0,
                                    service_model=self.LOGN)
            a1, a2 = decompose_hatQr(alone, g, center)
            assert np.array_equal(a1, x1[r:r + 1])
            assert np.array_equal(a2, x2[r:r + 1])

    def test_refused_for_atomic_service(self):
        mix = Mixture(0.5, EXP1, FiniteAtoms(((1.0, 1.0),)))
        trace = simulate(ARR, mix, 50, 1.0, seed_words(0, [("dec",)], 2))
        g = Grid([1.0], [0.0])
        with pytest.raises(ValueError, match="refused"):
            decompose_hatQr(trace, g, np.zeros(g.shape))

    @pytest.mark.parametrize("shape", [(1,), (2, 2), (3, 2, 2), (2, 3)])
    def test_refuses_a_centering_off_the_grid(self, shape):
        # an array carries no grid: its shape must be the grid's (T, Y)
        trace = _trace(50, 2.0, 0)
        with pytest.raises(ValueError, match=r"centering has shape .*\(3, 2\)"):
            decompose_hatQr(trace, Grid([0.5, 1.0, 2.0], [0.0, 0.5]), np.zeros(shape))

    def test_x1_matches_integration_by_parts(self):
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5])
        center = surface(INPUTS, g, "fluid_qr")
        trace = _trace(200, 2.0, 7)
        x1, _ = decompose_hatQr(trace, g, center)
        parts = x1_integration_by_parts(trace, g, center, INPUTS.abar)
        assert np.max(np.abs(x1 - parts)) < 1e-6

    def test_pinned_lognormal_time_varying(self):
        # roundoff only: the erfc and the rate inverse changed, not the sums
        arrival = ArrivalModel(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
                               RateFunction("sinusoidal", a=1.0, b=0.5))
        service = LogNormal(-0.5, 1.0)
        g = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        trace = simulate(arrival, service, n=200, horizon=2.0,
                         words=seed_words(2024, [("pin", "decompose")], 2))
        assert len(trace.arrivals) == 548
        x1, x2 = decompose_hatQr(trace, g, PINNED_CENTER)
        np.testing.assert_allclose(x1[0], PINNED_X1, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(x2[0], PINNED_X2, rtol=1e-10, atol=0.0)

    def test_x2_variance(self):
        # Var X2(1, 0) -> int_0^1 F(1-s) F^c(1-s) ds = 0.199789
        g = Grid([1.0], [0.0])
        center = surface(INPUTS, g, "fluid_qr")
        target = var_components(INPUTS, 1.0, 0.0).service
        # closed form 1/2 - e^-1 + e^-2/2
        assert target == pytest.approx(0.5 - math.exp(-1.0) + 0.5 * math.exp(-2.0),
                                       abs=1e-9)
        _, x2 = decompose_hatQr(_replications("x2var"), g, center)
        vals = x2[:, 0, 0]
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.15)
