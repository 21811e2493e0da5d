import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqinflab.config import read_section
from hqinflab.rng import substream
from hqinflab.service import (Exponential, FiniteAtoms, HyperExponential,
                              LogNormal, Mixture, Uniform, erfc_array)
from hqinflab.stats import ks_critical_value, ks_distance

from oracles import law_id, simpson_rule

MIX = Mixture(0.5, Exponential(1.0), FiniteAtoms(((1.0, 1.0),)))

ALL_MODELS = [
    Exponential(1.0),
    Exponential(2.0),
    FiniteAtoms(((1.0, 1.0),)),
    Uniform(0.0, 2.0),
    LogNormal(0.0, 0.5),
    HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0)),
    FiniteAtoms(((1.0, 0.3), (2.0, 0.7))),
    MIX,
]


class TestCdf:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_deterministic_right_continuous(self):
        d = FiniteAtoms(((1.0, 1.0),))
        assert d.cdf(0.99) == 0.0
        assert d.cdf(1.0) == 1.0

    def test_mixture_value(self):
        # 0.5 * (1 - e^-2) + 0.5, atom at 1 fully below x=2
        expected = 0.5 * (1.0 - math.exp(-2.0)) + 0.5
        assert MIX.cdf(2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.932332, abs=5e-7)

    def test_mixture_against_empirical(self):
        rng = substream(11, "mixcdf")
        draws = np.asarray(MIX.sample(rng, size=10**6))
        emp = np.mean(draws <= 2.0)
        # 3 sigma for a Bernoulli(0.932) mean over 1e6 draws
        assert emp == pytest.approx(MIX.cdf(2.0), abs=8e-4)

    def test_negative_argument_is_zero(self):
        for m in ALL_MODELS:
            assert m.cdf(-0.5) == 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_monotone_and_limits(self, model):
        xs = np.linspace(0.0, 50.0, 400)
        vals = np.array([model.cdf(x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestErfc:
    def test_against_math_erfc(self):
        x = np.linspace(-30.0, 30.0, 600001)
        ref = np.array([math.erfc(v) for v in x])
        err = np.abs(erfc_array(x) - ref)
        assert err.max() <= 1e-15
        normal = ref > 1e-300
        assert np.max(err[normal] / ref[normal]) <= 1e-14

    def test_shape_and_extremes(self):
        x = np.array([[-np.inf, 0.0], [np.inf, 40.0]])
        assert erfc_array(x).tolist() == [[2.0, 1.0], [0.0, 0.0]]
        assert np.isnan(erfc_array(np.nan))

    def test_lognormal_cdf_against_math_erfc(self):
        model = LogNormal(-0.5, 1.0)
        xs = np.concatenate([np.linspace(-1.0, 50.0, 200001), np.geomspace(1e-12, 1e6, 100001)])
        ref = np.array([0.5 * math.erfc(-(math.log(v) + 0.5) * math.sqrt(0.5)) if v > 0 else 0.0
                        for v in xs])
        # one ulp of 1: the two erfc implementations round apart by that much
        # where erfc of a negative argument lies in [1, 2)
        assert np.max(np.abs(model.cdf(xs) - ref)) <= np.finfo(float).eps

    def test_lognormal_edges(self):
        model = LogNormal(-0.5, 1.0)
        assert model.cdf(0.0) == 0.0 and model.cdf(-2.0) == 0.0 and model.cdf(0) == 0.0
        assert model.cdf(np.array([-1.0, 0.0])).tolist() == [0.0, 0.0]
        for x in (np.array(1.5), np.float64(1.5), 1.5, np.array(-1.0)):
            assert type(model.cdf(x)) is float
        assert model.cdf(np.array(1.5)) == model.cdf(1.5)

    def test_atoms_cdf(self):
        atoms = FiniteAtoms(((1.0, 0.3), (2.0, 0.5), (0.5, 0.2)))
        expected = {-1.0: 0.0, 0.5: 0.2, 0.7: 0.2, 1.0: 0.5, 1.5: 0.5, 2.0: 1.0, 3.0: 1.0}
        for x, want in expected.items():
            for arg in (x, np.float64(x), np.array(x)):
                assert type(atoms.cdf(arg)) is float
                assert atoms.cdf(arg) == pytest.approx(want, abs=1e-15)
        np.testing.assert_allclose(atoms.cdf(np.array(list(expected))), list(expected.values()),
                                   rtol=0, atol=1e-15)


class TestDecompose:
    def test_continuous(self):
        dec = Exponential(1.0).decompose()
        assert dec.p_c == 1.0 and dec.p_d == 0.0 and dec.atoms == ()

    def test_atoms_ordered_by_mass(self):
        dec = FiniteAtoms(((1.0, 0.3), (2.0, 0.7))).decompose()
        assert dec.p_c == 0.0 and dec.p_d == 1.0
        assert dec.atoms == ((2.0, 0.7), (1.0, 0.3))

    def test_mass_ties_broken_by_location(self):
        dec = FiniteAtoms(((3.0, 0.5), (1.0, 0.5))).decompose()
        assert dec.atoms == ((1.0, 0.5), (3.0, 0.5))

    def test_mixture(self):
        dec = MIX.decompose()
        assert dec.p_c == 0.5 and dec.p_d == 0.5
        assert dec.atoms == ((1.0, 1.0),)
        assert dec.continuous_part is MIX.continuous

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_reconstruction(self, model):
        dec = model.decompose()
        xs = np.linspace(0.0, 20.0, 1000)
        fc = np.asarray(dec.continuous_part.cdf(xs)) if dec.p_c else 0.0
        fd = np.array([dec.atomic_cdf(x) for x in xs])
        err = np.abs(np.asarray(model.cdf(xs)) - dec.p_c * fc - dec.p_d * fd)
        assert err.max() < 1e-10

    @given(weight=st.floats(0.05, 0.95),
           rate=st.floats(0.2, 5.0),
           locs=st.lists(st.floats(0.1, 9.0), min_size=1, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_random_mixtures(self, weight, rate, locs):
        masses = np.ones(len(locs)) / len(locs)
        atoms = FiniteAtoms(tuple((loc, m) for loc, m in zip(locs, masses)))
        model = Mixture(weight, Exponential(rate), atoms)
        dec = model.decompose()
        xs = np.linspace(0.0, 12.0, 500)
        recon = dec.p_c * np.asarray(dec.continuous_part.cdf(xs)) \
            + dec.p_d * np.array([dec.atomic_cdf(x) for x in xs])
        assert np.abs(recon - np.asarray(model.cdf(xs))).max() < 1e-10


class TestIntegratedSf:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_zero_at_origin(self, model):
        assert model.integrated_sf(0.0) == 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_tail_integral_is_half_the_second_moment(self, model):
        # int_0^inf (m - int_0^x F^c) dx = E[S^2] / 2 = (scv + 1) m^2 / 2
        mom = model.moments()
        xs, ws = simpson_rule(0.0, 80.0, m=8001)
        got = ws @ (mom.mean - model.integrated_sf(xs))
        assert got == pytest.approx(mom.second_moment / 2.0, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_integrated_sf_matches_quadrature(self, model):
        breaks = set(model.breakpoints())
        for x in (0.3, 1.0, 2.5, 7.0):
            # oracle panels split at the jump points so Simpson converges;
            # panels ending at a jump stop just short of it (F right-continuous)
            edges = [0.0] + [b for b in sorted(breaks) if 0.0 < b <= x] + [x]
            oracle = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                if b > a:
                    xs, ws = simpson_rule(a, b - (1e-10 if b in breaks else 0.0), m=4001)
                    oracle += ws @ model.sf(xs)
            assert model.integrated_sf(x) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_excess_second_moment_matches_quadrature(self, model):
        # E[((S - x)^+)^2] = 2 int_x^inf (m - int_0^q F^c) dq, the integrand
        # kinked at the jump points; E[S^2] at x = 0
        mom = model.moments()
        assert model.excess_second_moment(0.0) == pytest.approx(mom.second_moment, rel=1e-12)
        for x in (0.3, 1.0, 2.5, 7.0):
            edges = [x] + [b for b in model.breakpoints() if b > x] + [80.0]
            oracle = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                xs, ws = simpson_rule(a, b, m=4001)
                oracle += 2.0 * ws @ (mom.mean - model.integrated_sf(xs))
            assert model.excess_second_moment(x) == pytest.approx(oracle, abs=1e-6)
        xs = np.array([0.0, 0.3, 2.5])
        np.testing.assert_allclose(model.excess_second_moment(xs),
                                   [model.excess_second_moment(v) for v in xs], rtol=1e-15)


class TestSfQuantile:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    @pytest.mark.parametrize("eps", [1e-6, 0.2])
    def test_smallest_float_at_or_below_eps(self, model, eps):
        q = model.sf_quantile(eps)
        assert model.sf(q) <= eps < model.sf(np.nextafter(q, 0.0))


class TestMoments:
    def test_exponential(self):
        assert Exponential(2.0).moments().mean == pytest.approx(0.5)
        assert Exponential(2.0).moments().scv == pytest.approx(1.0)

    def test_deterministic(self):
        m = FiniteAtoms(((3.0, 1.0),)).moments()
        assert (m.mean, m.scv) == (3.0, 0.0)

    def test_hyperexponential_brute_force(self):
        w, r = (0.5, 0.5), (2.0, 2.0 / 3.0)
        mean = sum(wi / ri for wi, ri in zip(w, r))
        m2 = sum(2.0 * wi / ri**2 for wi, ri in zip(w, r))
        mom = HyperExponential(w, r).moments()
        assert mom.mean == pytest.approx(mean)
        assert mom.scv == pytest.approx(m2 / mean**2 - 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_against_sample_moments(self, model):
        rng = substream(5, "moments", law_id(model))
        draws = np.asarray(model.sample(rng, size=200_000), dtype=float)
        mom = model.moments()
        assert draws.mean() == pytest.approx(mom.mean, abs=6.0 * draws.std() / math.sqrt(len(draws)))
        if mom.scv > 0:
            assert draws.var() / draws.mean()**2 == pytest.approx(mom.scv, rel=0.05)


class TestSampling:
    def test_deterministic(self):
        rng = substream(1, "s")
        assert FiniteAtoms(((1.0, 1.0),)).sample(rng, size=1).tolist() == [1.0]

    def test_one_atom_draw_leaves_the_generator_alone(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        draws = FiniteAtoms(((0.7, 1.0),)).sample(rng, (3, 2))
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(draws, np.full((3, 2), 0.7))

    def test_exponential_mean(self):
        rng = substream(2, "s")
        draws = Exponential(1.0).sample(rng, size=10**6)
        assert abs(draws.mean() - 1.0) < 0.005

    @pytest.mark.parametrize("rate", [1.0, 0.7, 3.3])
    @pytest.mark.parametrize("size", [1, 7, (3, 4), (2, 3, 5)])
    def test_exponential_draws_are_numpys_scaled_draws(self, rate, size):
        # the standard draw scaled in place is numpy's exponential(scale),
        # bit for bit; the hyperexponential divides its component's rate
        hyper = HyperExponential((0.25, 0.75), (rate, 2.0 * rate))
        for seed in (0, 5, 12345):
            assert np.array_equal(Exponential(rate).sample(np.random.default_rng(seed), size),
                                  np.random.default_rng(seed).exponential(1.0 / rate, size))
            rng = np.random.default_rng(seed)
            n = int(np.prod(size))
            comp = rng.choice(2, size=n, p=hyper._w)
            want = (rng.exponential(1.0, size=n) / hyper._r[comp]).reshape(size)
            assert np.array_equal(hyper.sample(np.random.default_rng(seed), size), want)

    def test_atom_frequencies(self):
        rng = substream(3, "s")
        draws = np.asarray(FiniteAtoms(((1.0, 0.3), (2.0, 0.7))).sample(rng, size=10**6))
        assert abs(np.mean(draws == 2.0) - 0.7) < 0.002

    @pytest.mark.parametrize("model", ALL_MODELS, ids=law_id)
    def test_ks_consistency(self, model):
        # 1% critical value; >= 95% of seeded runs must pass
        passes = 0
        runs = 20
        for seed in range(runs):
            rng = substream(seed, "ks", law_id(model))
            draws = np.asarray(model.sample(rng, size=100_000))
            passes += ks_distance(draws, model.cdf) < ks_critical_value(100_000)
        assert passes >= 0.95 * runs


class TestValidationAndSpecs:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            FiniteAtoms(((1.0, 0.4), (2.0, 0.4)))    # masses must sum to 1
        with pytest.raises(ValueError):
            Mixture(1.5, Exponential(1.0), FiniteAtoms(((1.0, 1.0),)))

    def test_from_spec_roundtrip(self):
        spec = {"kind": "mixture", "weight": 0.5,
                "continuous": {"kind": "exponential", "rate": 1.0},
                "atoms": [[1.0, 1.0]]}
        model = read_section("service", spec)
        assert model.cdf(2.0) == pytest.approx(MIX.cdf(2.0))

    def test_from_spec_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            read_section("service", {"kind": "pareto", "alpha": 1.0})

    def test_from_spec_unknown_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            read_section("service", {"kind": "exponential", "rate": 1.0, "scale": 2.0})
