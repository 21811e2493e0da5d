import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqinflab.rng import substream
from hqinflab.service import (Deterministic, Exponential, FiniteAtoms,
                              HyperExponential, LogNormal, Mixture, Uniform,
                              erfc_array, service_from_spec)
from hqinflab.stats import ks_critical_value, ks_distance

from oracles import simpson

MIX = Mixture(0.5, Exponential(1.0), FiniteAtoms(((1.0, 1.0),)))

ALL_MODELS = [
    Exponential(1.0),
    Exponential(2.0),
    Deterministic(1.0),
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
        d = Deterministic(1.0)
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

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
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

    def test_lognormal_scalar_and_array_paths_agree(self):
        model = LogNormal(-0.5, 1.0)
        xs = np.concatenate([np.linspace(-1.0, 50.0, 200001), np.geomspace(1e-12, 1e6, 100001)])
        scalar = np.array([model.cdf(float(v)) for v in xs])
        # one ulp of 1: the two erfc implementations round apart by that much
        # where erfc of a negative argument lies in [1, 2)
        assert np.max(np.abs(model.cdf(xs) - scalar)) <= np.finfo(float).eps

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

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
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


class TestStationaryExcess:
    def test_exponential_is_its_own_excess(self):
        m = Exponential(1.0)
        got = m.stationary_excess_cdf(0.5)
        oracle = simpson(m.sf, 0.0, 0.5) / m.moments().mean
        assert got == pytest.approx(oracle, abs=1e-7)
        assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-7)
        for x in (0.25, 1.0, 3.0):
            assert m.stationary_excess_cdf(x) == pytest.approx(m.cdf(x), abs=1e-7)

    def test_deterministic_excess_is_uniform(self):
        m = Deterministic(1.0)
        assert m.stationary_excess_cdf(0.5) == pytest.approx(0.5, abs=1e-9)
        assert m.stationary_excess_cdf(2.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_zero_at_origin(self, model):
        assert model.stationary_excess_cdf(0.0) == 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_excess_mean(self, model):
        # mean of the stationary-excess law is (scv + 1) / (2 mu)
        mom = model.moments()
        expected = (mom.scv + 1.0) * mom.mean / 2.0
        got = simpson(model.stationary_excess_sf, 0.0, 80.0, m=8001)
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_integrated_sf_matches_quadrature(self, model):
        breaks = set(model.breakpoints())
        for x in (0.3, 1.0, 2.5, 7.0):
            # oracle panels split at the jump points so Simpson converges;
            # panels ending at a jump stop just short of it (F right-continuous)
            edges = [0.0] + [b for b in sorted(breaks) if 0.0 < b <= x] + [x]
            oracle = sum(simpson(model.sf, a, b - (1e-10 if b in breaks else 0.0), m=4001)
                         for a, b in zip(edges[:-1], edges[1:]) if b > a)
            assert model.integrated_sf(x) == pytest.approx(oracle, abs=1e-6)


class TestMoments:
    def test_exponential(self):
        assert Exponential(2.0).moments().mean == pytest.approx(0.5)
        assert Exponential(2.0).moments().scv == pytest.approx(1.0)

    def test_deterministic(self):
        m = Deterministic(3.0).moments()
        assert (m.mean, m.scv) == (3.0, 0.0)

    def test_hyperexponential_brute_force(self):
        w, r = (0.5, 0.5), (2.0, 2.0 / 3.0)
        mean = sum(wi / ri for wi, ri in zip(w, r))
        m2 = sum(2.0 * wi / ri**2 for wi, ri in zip(w, r))
        mom = HyperExponential(w, r).moments()
        assert mom.mean == pytest.approx(mean)
        assert mom.scv == pytest.approx(m2 / mean**2 - 1.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_against_sample_moments(self, model):
        rng = substream(5, "moments", type(model).__name__)
        draws = np.asarray(model.sample(rng, size=200_000), dtype=float)
        mom = model.moments()
        assert draws.mean() == pytest.approx(mom.mean, abs=6.0 * draws.std() / math.sqrt(len(draws)))
        if mom.scv > 0:
            assert draws.var() / draws.mean()**2 == pytest.approx(mom.scv, rel=0.05)


class TestSampling:
    def test_deterministic(self):
        rng = substream(1, "s")
        assert Deterministic(1.0).sample(rng) == 1.0

    def test_exponential_mean(self):
        rng = substream(2, "s")
        draws = Exponential(1.0).sample(rng, size=10**6)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_atom_frequencies(self):
        rng = substream(3, "s")
        draws = np.asarray(FiniteAtoms(((1.0, 0.3), (2.0, 0.7))).sample(rng, size=10**6))
        assert abs(np.mean(draws == 2.0) - 0.7) < 0.002

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_ks_consistency(self, model):
        # 1% critical value; >= 95% of seeded runs must pass
        passes = 0
        runs = 20
        for seed in range(runs):
            rng = substream(seed, "ks", type(model).__name__)
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
        model = service_from_spec(spec)
        assert model.cdf(2.0) == pytest.approx(MIX.cdf(2.0))

    def test_from_spec_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            service_from_spec({"kind": "pareto", "alpha": 1.0})

    def test_from_spec_unknown_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            service_from_spec({"kind": "exponential", "rate": 1.0, "scale": 2.0})
