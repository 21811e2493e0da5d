import math

import numpy as np
import pytest

from hqinflab import limits, quadrature
from hqinflab.arrivals import ArrivalModel, RateFunction
from hqinflab.fields import Grid
from hqinflab.limits import (LimitInputs, cov_x2_increment, fluid_qe, fluid_qr,
                             fluid_workload, fluid_workload_steady, initial_and_total_limits,
                             surface, var_components, var_qe, var_qr, var_workload)
from hqinflab.service import Exponential, FiniteAtoms, HyperExponential, LogNormal, Mixture
from hqinflab.simulate import CountLaw, InitialConditions

from oracles import simpson, simpson_rule

EXP1 = Exponential(1.0)
M_EXP = LimitInputs(ArrivalModel.poisson(1.0), EXP1)
M_DET = LimitInputs(ArrivalModel.poisson(1.0), FiniteAtoms(((1.0, 1.0),)))
MIX = Mixture(0.5, EXP1, FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))
M_MIX = LimitInputs(ArrivalModel.poisson(1.0), MIX)
D_EXP = LimitInputs(ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))), EXP1)
SINE = RateFunction("sinusoidal", a=1.0, b=0.5)
NHPP_EXP = LimitInputs(ArrivalModel.nhpp(SINE), EXP1)

# the models and grids of the three benchmark workloads
H2 = HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))
LOGNORMAL = LogNormal(-0.5, 1.0)
BENCH = {
    "mc_small_n": (M_EXP, Grid([0.25, 0.5, 1.0, 1.5, 2.0], [0.0, 0.25, 0.5, 1.0, 2.0])),
    "mc_large_n": (LimitInputs(
        ArrivalModel(H2, RateFunction("sinusoidal", a=1.0, b=0.5)), LOGNORMAL),
        Grid([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], [0.0, 0.25, 0.5, 1.0, 2.0])),
    "limit_paths": (LimitInputs(
        ArrivalModel.renewal(H2), Mixture(0.5, LOGNORMAL, FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))),
        Grid([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], [0.0, 0.25, 0.5, 0.75, 1.0, 1.5])),
}


class TestFluidCounts:
    def test_m_exp_value(self):
        got = fluid_qr(M_EXP, 1.0, 0.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        oracle = simpson(lambda s: math.exp(-(1.0 - s)), 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_deterministic_piecewise(self):
        assert fluid_qr(M_DET, 2.0, 0.5) == pytest.approx(0.5, abs=1e-8)

    def test_zero_time(self):
        assert fluid_qr(M_EXP, 0.0, 0.3) == 0.0

    def test_qe_value_and_errors(self):
        got = fluid_qe(M_EXP, 5.0, 0.5)
        assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-8)
        assert fluid_qe(M_EXP, 1.0, 0.0) == 0.0
        with pytest.raises(ValueError, match="y <= t"):
            fluid_qe(M_EXP, 1.0, 2.0)

    @pytest.mark.parametrize("inputs", [M_EXP, M_DET, M_MIX, D_EXP])
    def test_consistency_qt(self, inputs):
        for t in (0.5, 1.0, 2.0):
            qt = fluid_qr(inputs, t, 0.0)
            assert qt == pytest.approx(fluid_qe(inputs, t, t), abs=1e-8)

    def test_nhpp_time_varying(self):
        t, y = 2.0, 0.25
        oracle = simpson(lambda s: math.exp(-(t + y - s)) * (1.0 + 0.5 * math.sin(s)),
                         0.0, t)
        assert fluid_qr(NHPP_EXP, t, y) == pytest.approx(oracle, abs=1e-8)


class TestFluidWorkload:
    def test_m_exp_total(self):
        for t in (1.0, 4.0, 8.0):
            assert fluid_workload(M_EXP, t, 0.0) == pytest.approx(
                1.0 - math.exp(-t), abs=1e-7)

    def test_steady_state(self):
        quad, exact = fluid_workload_steady(M_EXP, 1.0)
        assert exact == 1.0
        assert quad == pytest.approx(1.0, abs=1e-6)
        quad_d, exact_d = fluid_workload_steady(M_DET, 1.0)
        assert exact_d == 0.5
        assert quad_d == pytest.approx(0.5, abs=1e-9)

    def test_zero_time(self):
        assert fluid_workload(M_EXP, 0.0, 0.0) == 0.0

    def test_monotone_and_bounded(self):
        mom = MIX.moments()
        bound = (mom.scv + 1.0) / (2.0 / mom.mean) / mom.mean / 2.0 * 2.0
        bound = 1.0 * (mom.scv + 1.0) * mom.mean**2 / 2.0
        vals = [fluid_workload(M_MIX, t, 0.0) for t in (1.0, 2.0, 4.0, 8.0, 20.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= bound + 1e-9 for v in vals)

    @pytest.mark.parametrize("t,y", [(1.5, 0.0), (4.0, 1.0)])
    def test_nhpp_against_nested_simpson(self, t, y):
        # int_0^t (m - int_0^{t+y-s} F^c) rate(s) ds, the inner integral by
        # Simpson on [0, t + y - s] scaled from one rule on [0, 1]
        inputs = LimitInputs(ArrivalModel.nhpp(SINE), LOGNORMAL)
        s, ws = simpson_rule(0.0, t, m=401)
        xi, wxi = simpson_rule(0.0, 1.0, m=4001)
        width = t + y - s
        inner = width * (LOGNORMAL.sf(width[:, None] * xi) @ wxi)
        oracle = ws @ ((LOGNORMAL.moments().mean - inner) * (1.0 + 0.5 * np.sin(s)))
        assert fluid_workload(inputs, t, y) == pytest.approx(oracle, abs=1e-9)


class TestVariances:
    def test_poisson_collapse(self):
        for inputs in (M_EXP, M_MIX):
            for t in (0.5, 1.0, 2.0):
                for y in (0.0, 0.25, 1.0):
                    assert var_qr(inputs, t, y) == pytest.approx(
                        fluid_qr(inputs, t, y), abs=1e-8)
                    if y <= t:
                        assert var_qe(inputs, t, y) == pytest.approx(
                            fluid_qe(inputs, t, y), abs=1e-8)

    def test_deterministic_arrivals_steady_state(self):
        # c_a^2 = 0: -int F^c(s)^2 + int F^c(s) over [0, inf) = 0.5 for exp(1)
        assert var_qr(D_EXP, 40.0, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_qt_variance_reaches_lambda_over_mu(self):
        assert var_qr(M_EXP, 40.0, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_component_values_m_exp(self):
        c = var_components(M_EXP, 1.0, 0.0)
        assert c.arrival == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), abs=1e-8)
        assert c.service == pytest.approx(0.5 - math.exp(-1.0) + 0.5 * math.exp(-2.0),
                                          abs=1e-8)
        assert c.splitting == 0.0

    def test_components_zero_at_origin(self):
        c = var_components(M_MIX, 0.0, 0.0)
        assert (c.arrival, c.service, c.splitting) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("inputs", [M_EXP, M_MIX, D_EXP,
                                        LimitInputs(
                                            ArrivalModel.poisson(1.0),
                                            HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)))])
    def test_additivity(self, inputs):
        for t in (0.4, 1.2, 2.0):
            for y in (0.0, 0.5, 1.5):
                total = var_components(inputs, t, y).total
                assert total == pytest.approx(var_qr(inputs, t, y), abs=1e-6)


class TestWorkloadVariance:
    def test_zero_time(self):
        assert var_workload(M_EXP, 0.0, 0.0) == 0.0

    def test_beyond_truncation(self):
        assert var_workload(M_EXP, 1.0, 20.0) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("t,y", [(1.0, 0.0), (2.0, 0.5), (0.3, 1.0)])
    def test_m_m_infinity_closed_form(self, t, y):
        # Poisson(1) arrivals, Exp(1) service: Var Wr(t, y) = 2 (1 - e^-t) e^-y
        want = 2.0 * -math.expm1(-t) * math.exp(-y)
        assert var_workload(M_EXP, t, y) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("inputs,t,y", [(M_EXP, 1.0, 0.0), (NHPP_EXP, 1.5, 0.0),
                                            (NHPP_EXP, 4.0, 1.0)],
                             ids=["poisson", "nhpp-1.5-0", "nhpp-4-1"])
    def test_against_direct_quadrature(self, inputs, t, y):
        # independent nested Simpson on the symmetric triple integral, its
        # integrand evaluated on the whole (x, z, s) node array at once
        sf = EXP1.sf
        xs = np.linspace(y, y + 14.0, 57)
        s, ws = simpson_rule(0.0, t, m=101)
        x, z = xs[:, None, None], xs[None, :, None]
        vals = (sf(t + x - s) * sf(t + z - s)
                + EXP1.cdf(t + np.minimum(x, z) - s) * sf(t + np.maximum(x, z) - s)) \
            @ (ws * inputs.rate(s))
        oracle = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert var_workload(inputs, t, y) == pytest.approx(oracle, rel=0.01)


class TestIncrementCovariance:
    def test_degenerate(self):
        # no increment between equal points, and no arrivals by t = 0
        assert cov_x2_increment(M_EXP, 1.0, 0.0, 0.0) == 0.0
        assert cov_x2_increment(M_EXP, 0.0, 0.0, 0.5) == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordering"):
            cov_x2_increment(M_EXP, 1.0, 0.5, 0.0)

    def test_value_against_direct_quadrature(self):
        t, y, y2 = 1.0, 0.0, 0.5

        def g(u):
            diff = EXP1.cdf(t + y2 - u) - EXP1.cdf(t + y - u)
            return diff * (1.0 - diff)
        assert cov_x2_increment(M_EXP, t, y, y2) == pytest.approx(
            simpson(g, 0.0, t), abs=1e-7)


class TestInitialAndTotal:
    INIT = InitialConditions(CountLaw("fixed", 1.0), EXP1)

    def _inputs(self):
        return LimitInputs(ArrivalModel.poisson(1.0), EXP1, init=self.INIT)

    def test_y_zero(self):
        qir, var_qir, _, _ = initial_and_total_limits(self._inputs(), 0.0, 0.0)
        assert qir == 1.0
        assert var_qir == 0.0     # fixed count, bridge term vanishes at 0

    def test_y_large(self):
        qir, var_qir, _, _ = initial_and_total_limits(self._inputs(), 0.0, 60.0)
        assert qir == pytest.approx(0.0, abs=1e-12)
        assert var_qir == pytest.approx(0.0, abs=1e-12)

    def test_bridge_variance_at_median(self):
        y = math.log(2.0)
        _, var_qir, _, _ = initial_and_total_limits(self._inputs(), 0.0, y)
        assert var_qir == pytest.approx(0.25, abs=1e-12)

    def test_totals_add_independent_pieces(self):
        inputs = self._inputs()
        t, y = 1.0, 0.5
        qir, var_qir, qtr, var_qtr = initial_and_total_limits(inputs, t, y)
        fic = EXP1.sf(t + y)
        assert qtr == pytest.approx(fic + fluid_qr(inputs, t, y), abs=1e-9)
        assert var_qtr == pytest.approx(
            EXP1.cdf(t + y) * fic + var_qr(inputs, t, y), abs=1e-9)

    def test_missing_init(self):
        with pytest.raises(ValueError, match="initial-condition"):
            initial_and_total_limits(M_EXP, 1.0, 0.0)


class TestQuadratureAccuracy:
    def test_var_qr_pinned_to_simpson_oracle(self):
        # adaptive Simpson asked for 1e-8 missed this point by 2.6e-7
        inputs, _ = BENCH["mc_large_n"]
        t, y = 3.0, 1.0
        s, ws = simpson_rule(0.0, t, m=200001)
        fc = LOGNORMAL.sf(t + y - s)
        oracle = ws @ ((fc + (inputs.ca2 - 1.0) * fc * fc) * inputs.rate(s))
        assert oracle == pytest.approx(0.44231639614, abs=1e-11)
        assert abs(var_qr(inputs, t, y) - oracle) <= 1e-9

    @pytest.mark.parametrize("name", BENCH)
    def test_benchmark_surfaces_against_refined_panels(self, name, monkeypatch):
        inputs, grid = BENCH[name]
        t, y = np.meshgrid(grid.t, grid.y, indexing="ij")
        probe = (t[:, :-1], y[:, :-1], y[:, 1:])

        def evaluate():
            out = [surface(inputs, grid, which)
                   for which in ("fluid_qr", "fluid_qe", "var_qr", "var_qe")]
            comp = var_components(inputs, t, y)
            out += [comp.arrival, comp.service, comp.splitting,
                    cov_x2_increment(inputs, *probe), surface(inputs, grid, "fluid_wr")]
            return out

        got = evaluate()
        # reference: every interval also cut into 16 equal pieces
        integrate = quadrature.integrate

        def refined(f, a, b, breakpoints=()):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            extra = a[..., None] + (b - a)[..., None] * np.linspace(0.0, 1.0, 17)[1:-1]
            cuts = np.asarray(breakpoints, dtype=float)
            rows = np.broadcast_shapes(extra.shape[:-1], cuts.shape[:-1])
            cuts = np.concatenate((np.broadcast_to(extra, rows + extra.shape[-1:]),
                                   np.broadcast_to(cuts, rows + cuts.shape[-1:])), axis=-1)
            return integrate(f, a, b, breakpoints=cuts)
        monkeypatch.setattr(limits, "integrate", refined)
        for value, reference in zip(got, evaluate(), strict=True):
            assert np.max(np.abs(value - reference)) <= 1e-9


class TestSurfaces:
    POINTS = {
        "fluid_qr": fluid_qr,
        "fluid_qe": lambda inputs, t, y: fluid_qe(inputs, t, min(y, t)),
        "fluid_wr": fluid_workload,
        "var_qr": var_qr,
        "var_qe": lambda inputs, t, y: var_qe(inputs, t, min(y, t)),
        "var_w": var_workload,
        "fluid_total": lambda inputs, t, y: initial_and_total_limits(inputs, t, y)[2],
        "var_total": lambda inputs, t, y: initial_and_total_limits(inputs, t, y)[3],
    }

    @pytest.mark.parametrize("which", POINTS)
    def test_surface_equals_point_calls(self, which):
        inputs = LimitInputs(
            ArrivalModel.renewal(H2), Mixture(0.5, LOGNORMAL, FiniteAtoms(((1.0, 0.6), (2.0, 0.4)))),
            init=InitialConditions(CountLaw("poisson", 1.0), EXP1))
        grid = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        field = surface(inputs, grid, which)
        assert field.shape == grid.shape and field.dtype == float
        for i, t in enumerate(grid.t):
            for j, y in enumerate(grid.y):
                point = self.POINTS[which](inputs, float(t), float(y))
                assert type(point) is float
                assert field[i, j] == pytest.approx(point, abs=1e-9)

    def test_qe_clamps_above_diagonal(self):
        g = Grid([0.5, 1.0], [0.0, 2.0])
        field = surface(M_EXP, g, "fluid_qe")
        assert field[0, 1] == pytest.approx(fluid_qe(M_EXP, 0.5, 0.5), abs=1e-10)

    def test_unknown_surface(self):
        with pytest.raises(ValueError, match="unknown surface"):
            surface(M_EXP, Grid([1.0], [0.0]), "nope")
