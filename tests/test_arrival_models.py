import math

import numpy as np
import pytest

from hqinflab import arrivals
from hqinflab.arrivals import ArrivalModel, RateFunction, _strictify, arrival_from_spec
from hqinflab.rng import substream
from hqinflab.service import Deterministic, Exponential, HyperExponential

from oracles import simpson

H2 = HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))

MODELS = {
    "poisson": ArrivalModel.poisson(1.0),
    "nhpp": ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=0.5)),
    "renewal": ArrivalModel.renewal(H2),
    "time_changed": ArrivalModel(H2, RateFunction("sinusoidal", a=1.0, b=0.5)),
}


H2_SPEC = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]}
SIN_SPEC = {"form": "sinusoidal", "a": 1.0, "b": 0.5}

# Epochs of each spec kind at n=50, horizon 2, substream(2024, "pin", name),
# recorded from the four-class generator that ArrivalModel replaced:
# (spec, count, indices, epochs at those indices).
PINNED = {
    "poisson_1": ({"kind": "poisson", "rate": 1.0}, 91, [0, 1, 2, 30, 45, 89, 90],
                  [0.0024521026402100497, 0.060187182354825515, 0.09596534939175835,
                   0.8064304180201275, 1.0846537774362108, 1.9432811262316332,
                   1.9974995991812188]),
    "poisson_3.7": ({"kind": "poisson", "rate": 3.7}, 379, [0, 1, 2, 126, 189, 377, 378],
                    [0.0032126367247419267, 0.005181974747892559, 0.008378953527590471,
                     0.6422350334844963, 0.9561408326872787, 1.9920403796424442,
                     1.9986315837736965]),
    "nhpp_sin": ({"kind": "nhpp", "rate_fn": SIN_SPEC}, 116, [0, 1, 2, 38, 58, 114, 115],
                 [0.020453424440839973, 0.05811204564327818, 0.08645704056614503,
                  0.78128034501285, 1.2203047410761005, 1.9626517069905,
                  1.9632753809640553]),
    "renewal_h2": ({"kind": "renewal", "interarrival": H2_SPEC}, 68, [0, 1, 2, 22, 34, 66, 67],
                   [0.04600351955705926, 0.13318183526923616, 0.1369377604921074,
                    0.605530419480436, 1.2368915717057902, 1.9767336290473911,
                    1.9920018552560403]),
    "renewal_det0.3": ({"kind": "renewal",
                        "interarrival": {"kind": "deterministic", "point": 0.3}},
                       333, [0, 1, 2, 111, 166, 331, 332],
                       [0.006, 0.012, 0.018, 0.6720000000000007, 1.0019999999999976,
                        1.9919999999999882, 1.9979999999999882]),
    "renewal_exp2": ({"kind": "renewal", "interarrival": {"kind": "exponential", "rate": 2.0}},
                     239, [0, 1, 2, 79, 119, 237, 238],
                     [0.005705812841396706, 0.011298046399976593, 0.02304868034783418,
                      0.6644756385717695, 1.0579742970905943, 1.9811422225990865,
                      1.985166748002516]),
    "tcr_h2_sin": ({"kind": "time_changed_renewal", "interarrival": H2_SPEC,
                    "rate_fn": SIN_SPEC}, 149, [0, 1, 2, 49, 74, 147, 148],
                   [0.023219546752310263, 0.10385492622133086, 0.10890842349901969,
                    0.8042782499945627, 1.1415049992282542, 1.9774014694394042,
                    1.9916266484082628]),
}


def strictify_reference(epochs):
    """The plain sequential loop that _strictify must reproduce exactly."""
    out = np.array(epochs, dtype=float)
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + 1e-13 * (1.0 + out[i - 1])
    return out


def bisect_inverse(rate_fn, levels, horizon):
    """The 80-sweep bisection that invert_cumulative used to run."""
    lo = np.zeros_like(levels)
    hi = np.full_like(levels, horizon)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = rate_fn.cumulative(mid) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# (rate function, horizon); the last two have a zero of the rate inside the
# horizon (a = |b|), where cumulative() is flat to third order
INVERSION_CASES = {
    "linear": (RateFunction("linear", a=1.0, b=0.5), 4.0),
    "linear_from_zero": (RateFunction("linear", a=0.0, b=2.0), 4.0),
    "sinusoidal": (RateFunction("sinusoidal", a=1.0, b=0.5), 4.0),
    "sin_zero_rate": (RateFunction("sinusoidal", a=1.0, b=1.0), 5.0),
    "sin_zero_rate_shifted": (RateFunction("sinusoidal", a=2.0, b=-2.0, c=3.0, d=1.0), 5.0),
}


def inversion_levels(rate_fn, horizon):
    top = rate_fn.cumulative(horizon)
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0, top], np.linspace(0.0, top, 2001)[1:-1],
                           rng.uniform(0.0, top, 20000)])


def assert_round_trip(rate_fn, levels, t, horizon):
    assert t[0] == 0.0 and np.all((t >= 0.0) & (t <= horizon))
    # 4 ulp of the largest term cumulative() adds: for the sinusoidal form
    # a*t and (b/c)(cos d - cos(ct + d)), whose rounding near t = 0 is many
    # ulp of a small level
    scale = levels.copy()
    if rate_fn.form == "sinusoidal":
        scale = np.maximum(scale, abs(rate_fn.b / rate_fn.c) * (1.0 + abs(math.cos(rate_fn.d))))
    assert np.all(np.abs(rate_fn.cumulative(t) - levels) <= 4.0 * np.spacing(scale))


class TestInvertCumulative:
    @pytest.mark.parametrize("case", INVERSION_CASES)
    def test_round_trip(self, case):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        assert_round_trip(rate_fn, levels, rate_fn.invert_cumulative(levels, horizon), horizon)

    @pytest.mark.parametrize("case", ["linear", "linear_from_zero", "sinusoidal"])
    def test_matches_bisection(self, case):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        # atol: near t = 0 the bisection oracle resolves t only to
        # horizon * 2^-80 and cumulative() rounds to ~1e-16 absolute
        np.testing.assert_allclose(rate_fn.invert_cumulative(levels, horizon),
                                   bisect_inverse(rate_fn, levels, horizon),
                                   rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("case", ["sinusoidal", "sin_zero_rate", "sin_zero_rate_shifted"])
    def test_iterations_bounded(self, case, monkeypatch):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        sizes = []
        original = RateFunction.cumulative

        def counted(self, t):
            sizes.append(np.size(t))
            return original(self, t)
        monkeypatch.setattr(RateFunction, "cumulative", counted)
        rate_fn.invert_cumulative(levels, horizon)
        sweeps = sizes[1:]                  # sizes[0] is the start table
        assert sweeps[0] == levels.size
        # Newton converges quadratically: after three sweeps almost every
        # level is done, and the stragglers near a zero of the rate stop
        # long before the cap
        assert sweeps[3] <= 0.02 * levels.size
        assert len(sweeps) <= 20

    @pytest.mark.parametrize("case", ["sinusoidal", "sin_zero_rate", "sin_zero_rate_shifted"])
    def test_cap_falls_back_to_bisection(self, case, monkeypatch):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        # with no Newton step allowed every level bisects its start bracket
        # until it meets the same stopping rule
        monkeypatch.setattr(arrivals, "_NEWTON_MAX_ITER", 0)
        assert_round_trip(rate_fn, levels, rate_fn.invert_cumulative(levels, horizon), horizon)


class TestCumulativeRate:
    def test_poisson_linear(self):
        assert ArrivalModel.poisson(1.0).cumulative_rate(2.0) == 2.0

    def test_nhpp_sinusoidal(self):
        model = ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=1.0))
        got = model.cumulative_rate(math.pi)
        assert got == pytest.approx(math.pi + 2.0, abs=1e-12)
        assert got == pytest.approx(simpson(model.rate, 0.0, math.pi), abs=1e-8)

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_zero_at_origin(self, model):
        assert model.cumulative_rate(0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ArrivalModel.poisson(1.0).cumulative_rate(-0.1)

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_continuous_nondecreasing(self, model):
        ts = np.linspace(0.0, 5.0, 200)
        vals = np.array([model.cumulative_rate(t) for t in ts])
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(np.diff(vals))) < 0.1   # no jumps on this grid


class TestGeneration:
    def test_poisson_count_concentration(self):
        lam, n, h = 1.0, 1000, 1.0
        bound = 3.0 * math.sqrt(n * lam * h)
        hits = 0
        runs = 50
        for seed in range(runs):
            eps = ArrivalModel.poisson(lam).generate(n, h, substream(seed, "pc"))
            hits += abs(len(eps) - n * lam * h) <= bound
        assert hits >= 0.99 * runs - 1

    def test_deterministic_renewal_spacing(self):
        eps = ArrivalModel.renewal(Deterministic(1.0)).generate(10, 1.0, substream(0, "d"))
        assert np.allclose(eps, np.arange(1, 11) / 10.0, atol=1e-12)

    def test_nhpp_quadratic_cumulative(self):
        # rate 2s, abar(t) = t^2: expected count n * abar(1) = 100
        model = ArrivalModel.nhpp(RateFunction("linear", a=0.0, b=2.0))
        counts = [len(model.generate(100, 1.0, substream(s, "quad"))) for s in range(30)]
        assert np.all(np.abs(np.asarray(counts) - 100.0) <= 3.0 * 10.0 + 1)

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_epochs_strictly_increasing(self, model):
        for seed in range(5):
            eps = model.generate(200, 2.0, substream(seed, "mono"))
            assert np.all(np.diff(eps) > 0.0)
            assert np.all(eps >= 0.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ArrivalModel.poisson(1.0).generate(0, 1.0, substream(0, "x"))
        with pytest.raises(ValueError):
            ArrivalModel.poisson(1.0).generate(10, 0.0, substream(0, "x"))


class TestPinnedEpochs:
    @pytest.mark.parametrize("name", PINNED)
    def test_matches_replaced_generator(self, name):
        # Same draws, rescaled once by the interarrival mean: equal counts,
        # epochs equal up to roundoff (the largest, ~1e-13, is Deterministic(0.3),
        # whose epochs the old generator summed as raw 0.3 steps).
        spec, count, idx, epochs = PINNED[name]
        eps = arrival_from_spec(spec).generate(50, 2.0, substream(2024, "pin", name))
        assert len(eps) == count
        np.testing.assert_allclose(eps[idx], epochs, rtol=1e-12, atol=0.0)


class TestStrictify:
    @pytest.mark.parametrize("epochs", [
        [],
        [0.7],
        [0.1, 0.2, 0.3],
        [0.1, 0.2, 0.2, 0.3],                  # one tie
        [0.5, 0.5, 0.5, 0.7],                  # a run of three equal epochs
        [1.0, 1.0, 1.0 + 1e-14, 2.0],          # the first fix-up creates a second tie
        [0.2, 0.2, 0.4, 0.4, 0.4, 0.4 + 2e-14, 0.9, 0.9],
    ])
    def test_matches_sequential_loop(self, epochs):
        epochs = np.asarray(epochs, dtype=float)
        out = _strictify(epochs)
        assert np.array_equal(out, strictify_reference(epochs))
        assert np.all(np.diff(out) > 0.0)
        if len(epochs):
            assert np.max(np.abs(out - epochs)) < 1e-12

    def test_random_ties(self):
        rng = np.random.default_rng(5)
        epochs = np.sort(rng.integers(0, 50, size=400)).astype(float) / 7.0
        out = _strictify(epochs)
        assert np.array_equal(out, strictify_reference(epochs))
        assert np.all(np.diff(out) > 0.0)

    def test_input_untouched(self):
        epochs = np.array([0.3, 0.3, 0.6])
        _strictify(epochs)
        assert np.array_equal(epochs, [0.3, 0.3, 0.6])


class TestAsymptoticParams:
    def test_poisson(self):
        model = ArrivalModel.poisson(3.0)
        assert (model.constant_rate, model.ca2) == (3.0, 1.0)

    def test_deterministic_renewal(self):
        model = ArrivalModel.renewal(Deterministic(1.0))
        assert (model.constant_rate, model.ca2) == (1.0, 0.0)

    def test_hyperexp_renewal(self):
        model = ArrivalModel.renewal(H2)
        assert model.constant_rate == pytest.approx(1.0)
        assert model.ca2 == pytest.approx(1.5)     # scv from the moment formulas

    def test_time_changed_keeps_driving_scv(self):
        assert MODELS["time_changed"].ca2 == pytest.approx(1.5)


class TestLimitBehaviour:
    @pytest.mark.parametrize("name", ["poisson", "nhpp", "renewal"])
    def test_lln(self, name):
        model = MODELS[name]
        n, h = 10_000, 1.0
        target = model.cumulative_rate(h)
        passes = 0
        runs = 20
        for seed in range(runs):
            eps = model.generate(n, h, substream(seed, "lln", name))
            passes += abs(len(eps) / n - target) < 0.05
        assert passes >= 0.95 * runs

    @pytest.mark.parametrize("name,target", [("poisson", 1.0), ("renewal", 1.5)])
    def test_clt_variance(self, name, target):
        # Var of sqrt(n)(A_n(1)/n - abar(1)) ~= lambda c_a^2 at t=1
        model = MODELS[name]
        n, reps = 400, 2000
        vals = np.empty(reps)
        for r in range(reps):
            eps = model.generate(n, 1.0, substream(r, "clt", name))
            vals[r] = math.sqrt(n) * (len(eps) / n - model.cumulative_rate(1.0))
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.15)

    def test_deterministic_renewal_is_noiseless(self):
        model = ArrivalModel.renewal(Deterministic(1.0))
        eps = model.generate(400, 1.0, substream(1, "clt0"))
        assert abs(len(eps) / 400 - 1.0) <= 1.0 / 400


class TestSpecs:
    def test_roundtrip(self):
        model = arrival_from_spec({"kind": "renewal",
                                   "interarrival": {"kind": "deterministic", "point": 1.0}})
        assert model == ArrivalModel.renewal(Deterministic(1.0))
        assert (model.constant_rate, model.ca2) == (1.0, 0.0)

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            arrival_from_spec({"kind": "poisson", "rate": -1.0})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            arrival_from_spec({"kind": "map"})

    def test_sinusoidal_must_stay_nonnegative(self):
        with pytest.raises(ValueError):
            RateFunction("sinusoidal", a=0.5, b=1.0)
