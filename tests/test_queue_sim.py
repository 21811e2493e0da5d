import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqinflab.arrivals import ArrivalModel
from hqinflab.fields import Grid, TwoParamField, write_fields_csv
from hqinflab.rng import substream
from hqinflab.service import Exponential, FiniteAtoms
from hqinflab.simulate import (CountLaw, InitialConditions, SimulationTrace,
                               eval_empirical_distributions,
                               eval_initial_fields, eval_queue_fields,
                               eval_workload_fields, export_trace_csv,
                               simulate)

from oracles import brute_queue_fields

EXP1 = Exponential(1.0)


def one_customer_trace():
    return SimulationTrace(n=1, arrivals=np.array([1.0]), services=np.array([2.0]),
                           horizon=4.0, service_model=EXP1)


def empty_trace():
    return SimulationTrace(n=1, arrivals=np.array([]), services=np.array([]),
                           horizon=4.0, service_model=EXP1)


@st.composite
def random_traces(draw):
    n_cust = draw(st.integers(0, 25))
    taus = sorted(draw(st.lists(st.floats(0.001, 3.999), min_size=n_cust,
                                max_size=n_cust, unique=True)))
    etas = draw(st.lists(st.floats(0.0, 5.0), min_size=n_cust, max_size=n_cust))
    return SimulationTrace(n=1, arrivals=np.array(taus), services=np.array(etas),
                           horizon=4.0, service_model=EXP1)


class TestGridAndFields:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid([], [0.0])
        with pytest.raises(ValueError):
            Grid([1.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            Grid([-1.0, 1.0], [0.0])

    def test_field_shape_checked(self):
        g = Grid([1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            TwoParamField(g, np.zeros((2, 2)), "bad")


class TestSimulate:
    def test_alignment(self):
        trace = simulate(ArrivalModel.poisson(1.0), EXP1, n=1, horizon=10.0,
                         rng=substream(0, "t"))
        assert len(trace.services) == len(trace.arrivals)

    def test_deterministic_renewal_epochs(self):
        trace = simulate(ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))), EXP1, n=2,
                         horizon=1.0, rng=substream(0, "t"))
        assert np.allclose(trace.arrivals, [0.5, 1.0])

    def test_initial_state(self):
        init = InitialConditions(CountLaw("fixed", 5.0), EXP1)
        trace = simulate(ArrivalModel.poisson(1.0), EXP1, n=100, horizon=1.0,
                         rng=substream(0, "t"), init=init)
        assert trace.initial_count == 500
        assert len(trace.initial_residuals) == 500

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            SimulationTrace(n=1, arrivals=np.array([2.0, 1.0]),
                            services=np.array([1.0, 1.0]), horizon=4.0,
                            service_model=EXP1)
        with pytest.raises(ValueError):
            SimulationTrace(n=1, arrivals=np.array([1.0]),
                            services=np.array([1.0, 2.0]), horizon=4.0,
                            service_model=EXP1)


class TestQueueFields:
    def test_empty_trace_is_zero(self):
        g = Grid([1.0, 2.0], [0.0, 1.0])
        q = eval_queue_fields(empty_trace(), g)
        assert not q["Qr"].values.any()
        assert not q["Qe"].values.any()
        assert not q["Qt"].values.any()

    def test_single_customer_residual(self):
        q = eval_queue_fields(one_customer_trace(), Grid([2.0], [0.5, 1.1]))
        assert q["Qr"].values[0, 0] == 1.0   # 1(3 > 2.5)
        assert q["Qr"].values[0, 1] == 0.0   # 1(3 > 3.1)

    def test_single_customer_elapsed(self):
        q = eval_queue_fields(one_customer_trace(), Grid([2.0], [0.5, 1.5]))
        assert q["Qe"].values[0, 0] == 0.0   # arrived at 1, elapsed 1 > 0.5
        assert q["Qe"].values[0, 1] == 1.0

    def test_grid_beyond_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            eval_queue_fields(one_customer_trace(), Grid([5.0], [0.0]))

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_against_brute_force(self, trace):
        g = Grid([0.5, 1.5, 3.0], [0.0, 0.7, 2.0])
        q = eval_queue_fields(trace, g)
        w = eval_workload_fields(trace, g)
        for i, t in enumerate(g.t):
            for j, y in enumerate(g.y):
                qr, qe, qt, wr = brute_queue_fields(trace.arrivals, trace.services,
                                                    float(t), float(y))
                assert q["Qr"].values[i, j] == qr
                assert q["Qe"].values[i, j] == qe
                assert q["Qt"].values[i] == qt
                assert w["Wr"].values[i, j] == pytest.approx(wr, abs=1e-9)

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_counting_identities(self, trace):
        g = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])
        q = eval_queue_fields(trace, g)
        a_t = trace.count_arrivals(g.t)
        # flow conservation and nonnegativity
        assert np.array_equal(a_t, q["Qt"].values + q["D"].values)
        assert (q["Qr"].values >= 0).all() and (q["Qe"].values >= 0).all()
        # monotonicity in y and t
        assert (np.diff(q["Qr"].values, axis=1) <= 0).all()
        assert (np.diff(q["Qe"].values, axis=1) >= 0).all()
        assert (np.diff(q["D"].values) >= 0).all()
        # Qt(t) = Qr(t, 0) = Qe(t, t); the latter via a y=t grid
        assert np.array_equal(q["Qt"].values, q["Qr"].values[:, 0])
        for i, t in enumerate(g.t):
            qe_tt = eval_queue_fields(trace, Grid([t], [float(t)]))["Qe"].values[0, 0]
            assert qe_tt == q["Qt"].values[i]
        # Qe(t,y) = Qt(t) - Qr(t-y, y) on aligned points
        for i, t in enumerate(g.t):
            for j, y in enumerate(g.y):
                if y > t:
                    continue
                prev = float(t - y)
                if prev == 0.0:
                    qr_prev = 0.0
                else:
                    hits = np.isclose(g.t, prev)
                    if not hits.any():
                        continue
                    qr_prev = q["Qr"].values[int(np.argmax(hits)), j]
                assert q["Qe"].values[i, j] == q["Qt"].values[i] - qr_prev


class TestWorkloadFields:
    def test_single_customer(self):
        w = eval_workload_fields(one_customer_trace(), Grid([2.0], [0.0, 0.5]))
        assert w["Wr"].values[0, 1] == pytest.approx(0.5)
        assert w["I"].values[0] == 2.0
        assert w["Wt"].values[0] == pytest.approx(1.0)
        assert w["C"].values[0] == pytest.approx(1.0)

    def test_empty(self):
        w = eval_workload_fields(empty_trace(), Grid([2.0], [0.0]))
        assert not w["I"].values.any() and not w["Wr"].values.any()

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_work_conservation_and_convexity(self, trace):
        g = Grid([1.0, 2.0, 3.5], [0.0, 0.5, 1.0, 1.5])
        w = eval_workload_fields(trace, g)
        assert np.allclose(w["I"].values, w["Wt"].values + w["C"].values, atol=1e-9)
        assert (np.diff(w["I"].values) >= -1e-12).all()
        assert (np.diff(w["C"].values) >= -1e-9).all()
        # Wr nonincreasing and convex in y (uniform spacing on [0.5, 1.5])
        vals = w["Wr"].values
        assert (np.diff(vals, axis=1) <= 1e-12).all()
        second = vals[:, 3] - 2.0 * vals[:, 2] + vals[:, 1]
        assert (second >= -1e-9).all()


class TestEmpiricalDistributions:
    def test_zero_convention(self):
        emp = eval_empirical_distributions(empty_trace(), Grid([1.0], [0.0, 0.5]))
        assert not emp["Fe"].values.any()
        assert not emp["Frc"].values.any()

    def test_age_cdf_reaches_one(self):
        trace = simulate(ArrivalModel.poisson(1.0), EXP1, n=50, horizon=2.0,
                         rng=substream(4, "emp"))
        t = 2.0
        emp = eval_empirical_distributions(trace, Grid([t], [t]))
        if eval_queue_fields(trace, Grid([t], [0.0]))["Qt"].values[0] > 0:
            assert emp["Fe"].values[0, 0] == 1.0

    def test_single_customer_residual_ratio(self):
        emp = eval_empirical_distributions(one_customer_trace(), Grid([2.0], [0.5]))
        assert emp["Frc"].values[0, 0] == 1.0


class TestInitialFields:
    def test_residual_counts(self):
        trace = SimulationTrace(n=1, arrivals=np.array([]), services=np.array([]),
                                horizon=4.0, service_model=EXP1, initial_count=2,
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_initial_fields(trace, Grid([1.0], [1.0]))
        assert fields["Qir"].values[0] == 1.0

    def test_total_field_combines_populations(self):
        trace = SimulationTrace(n=1, arrivals=np.array([1.0]), services=np.array([2.0]),
                                horizon=4.0, service_model=EXP1, initial_count=2,
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_initial_fields(trace, Grid([2.0], [0.5]))
        # initial residual 2.0 <= t+y = 2.5 has departed; the new arrival survives
        assert fields["QTr"].values[0, 0] == 1.0

    def test_no_initials_means_qtr_equals_qr(self):
        trace = one_customer_trace()
        g = Grid([1.0, 2.0], [0.0, 0.5])
        fields = eval_initial_fields(trace, g)
        assert np.array_equal(fields["QTr"].values,
                              eval_queue_fields(trace, g)["Qr"].values)


class TestExports:
    def test_fields_csv(self, tmp_path):
        g = Grid([1.0], [0.0, 0.5])
        q = eval_queue_fields(one_customer_trace(), g)
        out = tmp_path / "fields.csv"
        write_fields_csv(out, [q["Qr"], q["Qt"]])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,t,y,value"
        assert len(lines) == 1 + 2 + 1   # header + Qr grid + Qt row

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        export_trace_csv(one_customer_trace(), out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "i,tau,eta"
        assert lines[1] == "1,1,2"
