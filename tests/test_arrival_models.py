import math
import re

import numpy as np
import pytest

from hqinflab import arrivals
from hqinflab.arrivals import ArrivalModel, RateFunction, _strictify
from hqinflab.config import config_from_dict, read_section
from hqinflab.experiments import run_experiment
from hqinflab.rng import seated, seed_words
from hqinflab.service import FiniteAtoms, HyperExponential

from oracles import simpson

H2 = HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))


def epochs_on(model, n, horizon, seed, *keys):
    """The epochs of one replication drawn on the stream substream(seed,
    *keys), ties broken."""
    return _strictify(model.draw_block_epochs(n, horizon, seed_words(seed, [keys]))[0])


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
    assert np.all(t[levels == 0.0] == 0.0) and np.all((t >= 0.0) & (t <= horizon))
    # 4 ulp of L, or of a*t where the sinusoidal form adds a negative
    # 2(b/c) sin(ct/2) sin(ct/2 + d) to it: that cancellation is in the
    # function, not in the way it is written
    scale = levels.copy()
    if rate_fn.form == "sinusoidal":
        scale = np.maximum(scale, rate_fn.a * t)
    assert np.all(np.abs(rate_fn.cumulative(t) - levels) <= 4.0 * np.spacing(scale))


def count_points(monkeypatch, method):
    """The number of points of each call of RateFunction.<method>, in order."""
    sizes = []
    original = getattr(RateFunction, method)

    def counted(self, t):
        sizes.append(np.size(t))
        return original(self, t)
    monkeypatch.setattr(RateFunction, method, counted)
    return sizes


def block_levels(model, n, horizon, words):
    """The levels of each row of draw_block_epochs(n, horizon, words),
    rebuilt from the row's seed words: its first batch of interarrivals,
    rescaled to mean 1 and summed, up to n abar(horizon), over n."""
    total = n * model.rate_fn.cumulative(horizon)
    batch = max(int(total * 1.1 + 6.0 * math.sqrt(total + 1.0)), 16)
    mean = model.interarrival.moments().mean
    rows = []
    for w in words:
        levels = np.cumsum(model.interarrival.sample(seated(w), size=batch) / mean)
        assert levels[-1] > total           # the first batch reaches the top
        rows.append(levels[levels <= total] / n)
    return rows


class TestInvertCumulative:
    @pytest.mark.parametrize("case", INVERSION_CASES)
    def test_round_trip(self, case):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        assert_round_trip(rate_fn, levels, rate_fn.invert_cumulative(levels, horizon), horizon)

    @pytest.mark.parametrize("case", INVERSION_CASES)
    @pytest.mark.parametrize("size", [0, 1])
    def test_round_trip_of_no_or_one_level(self, case, size):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = np.full(size, 0.3 * rate_fn.cumulative(horizon))
        t = rate_fn.invert_cumulative(levels, horizon)
        assert t.shape == (size,) and np.all((t > 0.0) & (t < horizon))
        scale = np.maximum(levels, rate_fn.a * t)
        assert np.all(np.abs(rate_fn.cumulative(t) - levels) <= 4.0 * np.spacing(scale))

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
        sizes = count_points(monkeypatch, "cumulative")
        rates = count_points(monkeypatch, "rate")
        rate_fn.invert_cumulative(levels, horizon)
        sweeps = sizes[1:]                  # sizes[0] is the start table
        # the single Newton step from the Hermite start, then the check
        assert sweeps[:2] == [levels.size] * 2
        if case == "sinusoidal":
            # rates: the table's slopes, the single step, then one call per
            # loop sweep at the levels it steps; at most 2% of the levels
            # fail the check and reach the loop
            assert rates[1] == levels.size and sum(rates[2:3]) <= 0.02 * levels.size
        # Newton converges quadratically: after three sweeps almost every
        # level is done, and the stragglers near a zero of the rate stop
        # long before the cap
        assert len(sweeps) <= 3 or sweeps[3] <= 0.02 * levels.size
        assert len(sweeps) <= 20

    def test_rate_skipped_once_every_level_converged(self, monkeypatch):
        rate_fn, horizon = INVERSION_CASES["sinusoidal"]
        levels = inversion_levels(rate_fn, horizon)
        points = count_points(monkeypatch, "rate")
        rate_fn.invert_cumulative(levels, horizon)
        # the table's slopes and one Newton step from the Hermite start; the
        # sweep that finds every level converged stops before it evaluates
        # the rate
        assert sum(points) <= 1.05 * levels.size

    @pytest.mark.parametrize("case", ["sinusoidal", "sin_zero_rate", "sin_zero_rate_shifted"])
    def test_cap_falls_back_to_bisection(self, case, monkeypatch):
        rate_fn, horizon = INVERSION_CASES[case]
        levels = inversion_levels(rate_fn, horizon)
        # with no Newton step allowed, not even the single one from the
        # Hermite start, every level bisects its start bracket until it
        # meets the same stopping rule; the rate is read only for the
        # table's slopes
        monkeypatch.setattr(arrivals, "_NEWTON_MAX_ITER", 0)
        points = count_points(monkeypatch, "rate")
        assert_round_trip(rate_fn, levels, rate_fn.invert_cumulative(levels, horizon), horizon)
        assert len(points) == 1 and points[0] < levels.size

    def test_small_levels_round_trip(self):
        # cumulative() near t = 0 rounds relative to the level, not to b/c
        rate_fn = RateFunction("sinusoidal", a=2.0, b=2.0, c=3.0, d=1.0)
        levels = np.concatenate(([0.0], np.geomspace(1e-15, 1e-3, 200)))
        t = rate_fn.invert_cumulative(levels, 4.0)
        assert np.all(np.abs(rate_fn.cumulative(t) - levels) <= 4.0 * np.spacing(levels))


class TestDrawPathRoundTrip:
    # mc_large_n's arrival model, and a sinusoid whose rate touches zero
    @pytest.mark.parametrize("model,horizon", [
        (ArrivalModel(H2, RateFunction("sinusoidal", a=1.0, b=0.5)), 4.0),
        (ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=-1.0, c=2.0, d=0.5)), 5.0),
    ], ids=["time_changed_h2", "sin_zero_rate"])
    def test_every_epoch_meets_the_rule(self, model, horizon):
        # each row is inverted on its own table, as in the benchmark's blocks
        words = seed_words(3, [("draw_path", r) for r in range(4)])
        epochs = model.draw_block_epochs(6000, horizon, words)
        for levels, t in zip(block_levels(model, 6000, horizon, words), epochs, strict=True):
            assert t.size == levels.size
            assert_round_trip(model.rate_fn, levels, t, horizon)


class TestRoundoffOfTheInverse:
    def test_fclt_variance_as_with_the_bisection_oracle(self, monkeypatch):
        # the shipped inverse and the bisection oracle differ by roundoff:
        # the same points and verdicts, every estimate within 1e-12
        # relative.  max|X1+X2-Qr-hat| is itself a roundoff residual
        # (about 1e-15, gated at 1e-9), so it is held to 1e-12 absolute.
        cfg = config_from_dict({
            "experiment": "fclt_variance",
            "arrival": {"kind": "time_changed_renewal", "interarrival": H2_SPEC,
                        "rate_fn": SIN_SPEC},
            "service": {"kind": "lognormal", "logmean": -0.5, "logsd": 1.0},
            "grid": {"t": [0.5, 1.0, 2.0], "y": [0.0, 0.5]},
            "n_list": [400], "replications": 20})
        shipped = run_experiment(cfg)
        monkeypatch.setattr(RateFunction, "_newton_inverse", bisect_inverse)
        oracle = run_experiment(cfg)
        assert len(shipped.points) == len(oracle.points) == 22
        for p, q in zip(shipped.points, oracle.points):
            assert (p.label, p.t, p.y, p.passed) == (q.label, q.t, q.y, q.passed)
            if p.tol_kind == "rel":
                assert p.estimate == pytest.approx(q.estimate, rel=1e-12, abs=0.0), p.label
            else:
                assert p.estimate == pytest.approx(q.estimate, rel=0.0, abs=1e-12), p.label


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
            eps = epochs_on(ArrivalModel.poisson(lam), n, h, seed, "pc")
            hits += abs(len(eps) - n * lam * h) <= bound
        assert hits >= 0.99 * runs - 1

    def test_deterministic_renewal_spacing(self):
        eps = epochs_on(ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))), 10, 1.0, 0, "d")
        assert np.allclose(eps, np.arange(1, 11) / 10.0, atol=1e-12)

    def test_nhpp_quadratic_cumulative(self):
        # rate 2s, abar(t) = t^2: expected count n * abar(1) = 100
        model = ArrivalModel.nhpp(RateFunction("linear", a=0.0, b=2.0))
        counts = [len(epochs_on(model, 100, 1.0, s, "quad")) for s in range(30)]
        assert np.all(np.abs(np.asarray(counts) - 100.0) <= 3.0 * 10.0 + 1)

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_epochs_strictly_increasing(self, model):
        for seed in range(5):
            eps = epochs_on(model, 200, 2.0, seed, "mono")
            assert np.all(np.diff(eps) > 0.0)
            assert np.all(eps >= 0.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ArrivalModel.poisson(1.0).draw_block_epochs(0, 1.0, seed_words(0, [("x",)]))
        with pytest.raises(ValueError):
            ArrivalModel.poisson(1.0).draw_block_epochs(10, 0.0, seed_words(0, [("x",)]))


class TestPinnedEpochs:
    @pytest.mark.parametrize("name", PINNED)
    def test_matches_replaced_generator(self, name):
        # Same draws, rescaled once by the interarrival mean: equal counts,
        # epochs equal up to roundoff (the largest, ~1e-13, is the deterministic
        # law at 0.3, whose epochs the old generator summed as raw 0.3 steps).
        spec, count, idx, epochs = PINNED[name]
        model = read_section("arrival", spec)
        eps = epochs_on(model, 50, 2.0, 2024, "pin", name)
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

    def test_bounds_fix_each_replication_alone(self):
        reps = [[0.1, 0.2, 0.2], [0.2, 0.2, 0.3], [], [0.05], [1.0, 1.0, 1.0], [1.0, 1.5]]
        bounds = np.cumsum([0] + [len(r) for r in reps])
        out = _strictify(np.concatenate(reps), bounds)
        expected = np.concatenate([strictify_reference(r) for r in reps])
        assert np.array_equal(out, expected)
        # a drop or a tie onto a replication's first epoch is left alone
        assert out[3] == 0.2 and out[6] == 0.05 and out[10] == 1.0


class TestAsymptoticParams:
    def test_poisson(self):
        model = ArrivalModel.poisson(3.0)
        assert (model.rate_fn.constant_rate, model.ca2) == (3.0, 1.0)

    def test_deterministic_renewal(self):
        model = ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),)))
        assert (model.rate_fn.constant_rate, model.ca2) == (1.0, 0.0)

    def test_hyperexp_renewal(self):
        model = ArrivalModel.renewal(H2)
        assert model.rate_fn.constant_rate == pytest.approx(1.0)
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
            eps = epochs_on(model, n, h, seed, "lln", name)
            passes += abs(len(eps) / n - target) < 0.05
        assert passes >= 0.95 * runs

    @pytest.mark.parametrize("name,target", [("poisson", 1.0), ("renewal", 1.5)])
    def test_clt_variance(self, name, target):
        # Var of sqrt(n)(A_n(1)/n - abar(1)) ~= lambda c_a^2 at t=1
        model = MODELS[name]
        n, reps = 400, 2000
        vals = np.empty(reps)
        for r in range(reps):
            eps = epochs_on(model, n, 1.0, r, "clt", name)
            vals[r] = math.sqrt(n) * (len(eps) / n - model.cumulative_rate(1.0))
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.15)

    def test_deterministic_renewal_is_noiseless(self):
        model = ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),)))
        eps = epochs_on(model, 400, 1.0, 1, "clt0")
        assert abs(len(eps) / 400 - 1.0) <= 1.0 / 400


class TestSpecs:
    def test_roundtrip(self):
        model = read_section("arrival", {"kind": "renewal",
                                         "interarrival": {"kind": "deterministic", "point": 1.0}})
        assert model == ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),)))
        assert (model.rate_fn.constant_rate, model.ca2) == (1.0, 0.0)

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            read_section("arrival", {"kind": "poisson", "rate": -1.0})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            read_section("arrival", {"kind": "map"})

    @pytest.mark.parametrize("form,params,message", [
        ("sinusoidal", {"a": 0.5, "b": 1.0}, "a >= |b|"),
        ("constant", {"a": 2.0, "b": 5.0}, "constant rate takes no slope"),
    ], ids=["sinusoidal_negative", "constant_with_slope"])
    def test_invalid_rate_function(self, form, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RateFunction(form, **params)
