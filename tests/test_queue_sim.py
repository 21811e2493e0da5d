import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqinflab.arrivals import ArrivalModel, RateFunction, _strictify
from hqinflab.fields import Grid, TimeField, TwoParamField, write_fields_csv
from hqinflab.rng import reseat, seed_words, substream
from hqinflab.service import Exponential, FiniteAtoms, HyperExponential, LogNormal
from hqinflab.simulate import (FIELDS, CountLaw, InitialConditions, SimulationTrace,
                               eval_empirical_distributions, eval_fields,
                               eval_initial_fields, export_trace_csv, simulate)

from oracles import brute_queue_fields

EXP1 = Exponential(1.0)


def stream_words(seed, *keys, count=3):
    """Seed words of a block of one replication, drawn from the children of
    substream(seed, *keys)."""
    return seed_words(seed, [keys], count)


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


HORIZON = 2.0
# t - y and t + y are often inexact in floats on this grid (1.1 - 0.4 is not
# 0.7), so boundary customers test that every comparison uses the same float
# threshold as the brute force
ODD_GRID = Grid([0.3, 0.7, 1.1, 2.0], [0.0, 0.4, 0.7, 1.3])
# every t - y on this grid is exact and on the grid or 0, for the identities
DYADIC_GRID = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])


def _service_ending_at(tau: float, end: float) -> float:
    """A service time with tau + eta == end in floats, where one is near
    end - tau."""
    eta = end - tau
    for _ in range(4):
        if tau + eta == end:
            break
        eta = float(np.nextafter(eta, np.inf if tau + eta < end else -np.inf))
    return max(eta, 0.0)


@st.composite
def boundary_replication(draw, grid):
    """(taus, etas, residuals) of one replication, possibly empty, whose
    epochs sit on t and t - y, ends on t + y, and services may be 0."""
    t = grid.t[:, None]
    starts = [float(v) for v in np.unique(np.concatenate((grid.t, (t - grid.y).ravel())))
              if 0.0 < v <= HORIZON]
    ends = [float(v) for v in np.unique(t + grid.y)]
    taus = sorted(set(draw(st.lists(st.one_of(st.sampled_from(starts),
                                              st.floats(1e-3, HORIZON)), max_size=10))))
    etas = []
    for tau in taus:
        kind = draw(st.sampled_from(("zero", "on_boundary", "free")))
        if kind == "zero":
            etas.append(0.0)
        elif kind == "on_boundary":
            etas.append(_service_ending_at(tau, draw(st.sampled_from([e for e in ends if e >= tau]))))
        else:
            etas.append(draw(st.floats(0.0, 3.0)))
    on_grid = [float(v) for v in np.unique(np.concatenate((grid.y, ends))) if v > 0.0]
    residuals = draw(st.lists(st.one_of(st.sampled_from(on_grid), st.floats(1e-3, 4.0)),
                              max_size=4))
    return taus, etas, residuals


def block_trace(reps) -> SimulationTrace:
    """One block of the (taus, etas, residuals) replications."""
    def flat(k):
        return np.array([v for rep in reps for v in rep[k]], dtype=float)
    return SimulationTrace(n=1, arrivals=flat(0), services=flat(1), horizon=HORIZON,
                           service_model=EXP1,
                           initial_counts=[len(rep[2]) for rep in reps],
                           initial_residuals=flat(2),
                           bounds=np.cumsum([0] + [len(rep[0]) for rep in reps]))


def alone(rep) -> SimulationTrace:
    """The (taus, etas, residuals) replication as a block of its own."""
    return block_trace([rep])


def blocks(grid):
    return st.lists(boundary_replication(grid), min_size=1, max_size=5)


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
                         words=stream_words(0, "t"))
        assert len(trace.services) == len(trace.arrivals)

    def test_deterministic_renewal_epochs(self):
        trace = simulate(ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))), EXP1, n=2,
                         horizon=1.0, words=stream_words(0, "t"))
        assert np.allclose(trace.arrivals, [0.5, 1.0])

    def test_initial_state(self):
        init = InitialConditions(CountLaw("fixed", 5.0), EXP1)
        trace = simulate(ArrivalModel.poisson(1.0), EXP1, n=100, horizon=1.0,
                         words=stream_words(0, "t"), init=init)
        assert trace.initial_counts.tolist() == [500]
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


ARRIVALS = {
    "poisson": ArrivalModel.poisson(2.0),
    "h2_renewal": ArrivalModel.renewal(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))),
    "sinusoidal_nhpp": ArrivalModel.nhpp(RateFunction("sinusoidal", a=1.0, b=0.5)),
}
INIT = InitialConditions(CountLaw("poisson", 1.5), Exponential(2.0))

# simulate(ARRIVALS[name], LogNormal(-0.5, 1), n=4, horizon=3, init) on the
# children of substream(2024, "pin", name), as recorded before blocks existed:
# (customers, first and last epoch, first and last service, initial count
# and first residual with INIT).
PINNED_TRACES = {
    "poisson": (17, [0.11284108116027242, 2.7991559067445877],
                [1.625407727838294, 0.34173418249967297], 2, 0.23036804122714802),
    "h2_renewal": (14, [0.0502887128256734, 2.892254642526341],
                   [0.2090198437237073, 1.6259616806813226], 4, 0.19769328085673119),
    "sinusoidal_nhpp": (10, [0.49014675308467787, 2.698762414330837],
                        [0.44448042885736666, 2.547732999495028], 6, 0.6007773376895593),
}


class TestStreams:
    @pytest.mark.parametrize("keys", [("fwlln", 100, 3, "trace"), (7,), ("x", 2**40 + 5)])
    def test_children_are_the_spawned_ones(self, keys):
        spawned = substream(11, *keys).spawn(3)
        (direct,) = stream_words(11, *keys)
        gen = np.random.default_rng()
        for a, words in zip(spawned, direct):
            assert a.bit_generator.state == reseat(gen, words).bit_generator.state
            assert np.array_equal(a.random(8), gen.random(8))

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**130 + 7])
    @pytest.mark.parametrize("count", [None, 1, 2, 3])
    def test_seed_words_are_numpys(self, seed, count):
        # 2**130 + 7 has five entropy words, more than the pool: it is not padded
        rows = [("fwlln", 100, 3, "trace"), ("x", 2**40 + 5, "y"), (2**33, "z", 0)]
        for keys in rows:
            (words,) = seed_words(seed, [keys], count)
            seq = substream(seed, *keys).bit_generator.seed_seq
            seqs = [seq] if count is None else seq.spawn(count)
            words = [words] if count is None else words
            gen = np.random.default_rng()
            for child, w in zip(seqs, words):
                assert np.array_equal(w, child.generate_state(4, np.uint64))
                ref = np.random.Generator(np.random.PCG64(child))
                assert reseat(gen, w).bit_generator.state == ref.bit_generator.state
                assert np.array_equal(gen.random(8), ref.random(8))
        # many rows at once: each row's words are its own
        block = [("fwlln", 100, r, "trace") for r in range(3)]
        assert np.array_equal(seed_words(seed, block, count),
                              np.stack([seed_words(seed, [keys], count)[0] for keys in block]))

    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    @pytest.mark.parametrize("init", [None, INIT], ids=["no_init", "init"])
    def test_single_trace_draws_as_before(self, name, init):
        trace = simulate(ARRIVALS[name], LogNormal(-0.5, 1.0), 4, 3.0,
                         stream_words(2024, "pin", name), init=init)
        count, epochs, services, n_init, first_resid = PINNED_TRACES[name]
        assert len(trace.arrivals) == count
        assert trace.arrivals[[0, -1]].tolist() == epochs
        assert trace.services[[0, -1]].tolist() == services
        if init is None:
            assert trace.initial_counts.tolist() == [0] and len(trace.initial_residuals) == 0
        else:
            assert trace.initial_counts.tolist() == [n_init]
            assert trace.initial_residuals[0] == first_resid
        # the same draws as from the generator's spawned children
        arr_rng, svc_rng, init_rng = substream(2024, "pin", name).spawn(3)
        epochs = _strictify(ARRIVALS[name].draw_epochs(4, 3.0, arr_rng))
        assert np.array_equal(trace.arrivals, epochs)
        assert np.array_equal(trace.services, LogNormal(-0.5, 1.0).sample(svc_rng, len(epochs)))

    @pytest.mark.parametrize("init", [None, INIT], ids=["no_init", "init"])
    def test_same_words_draw_the_same_block_twice(self, init):
        # the scratch generator is re-seated before every draw
        words = seed_words(8, [("twice", r) for r in range(3)], 3)
        first, second = (simulate(ARRIVALS["h2_renewal"], EXP1, 5, 2.0, words, init=init)
                         for _ in range(2))
        for name in ("arrivals", "services", "initial_counts", "initial_residuals", "bounds"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    @pytest.mark.parametrize("init", [None, INIT], ids=["no_init", "init"])
    def test_block_replications_are_the_single_traces(self, name, init):
        service = LogNormal(-0.5, 1.0)
        count = 2 if init is None else 3
        block = simulate(ARRIVALS[name], service, 3, 2.0,
                         seed_words(5, [("blk", r) for r in range(4)], count), init=init)
        assert block.replications == 4
        skips = np.cumsum(np.concatenate(([0], block.initial_counts)))
        for r in range(4):
            one = simulate(ARRIVALS[name], service, 3, 2.0, stream_words(5, "blk", r, count=count),
                           init=init)
            own = slice(block.bounds[r], block.bounds[r + 1])
            assert np.array_equal(block.arrivals[own], one.arrivals)
            assert np.array_equal(block.services[own], one.services)
            assert [block.initial_counts[r]] == one.initial_counts.tolist()
            assert np.array_equal(block.initial_residuals[skips[r]:skips[r + 1]],
                                  one.initial_residuals)

    def test_ties_broken_within_each_replication(self):
        # a phase of rate 1e20 adds nothing to the running sum: exact ties
        arrival = ArrivalModel.renewal(HyperExponential((0.5, 0.5), (1e20, 1.0)))
        block = simulate(arrival, EXP1, 20, 2.0, seed_words(3, [("ties", r) for r in range(3)], 2))
        for r in range(3):
            raw = arrival.draw_epochs(20, 2.0, substream(3, "ties", r).spawn(1)[0])
            assert np.any(np.diff(raw) <= 0)
            epochs = block.arrivals[block.bounds[r]:block.bounds[r + 1]]
            assert np.all(np.diff(epochs) > 0)
            assert np.array_equal(epochs, _strictify(raw))

    def test_block_redraws_a_short_first_batch(self, monkeypatch):
        # the phase of mean 100 makes the first batch of interarrivals often
        # end before the horizon's level: such a row is drawn again alone
        arrival = ArrivalModel.renewal(HyperExponential((0.99, 0.01), (1e3, 1e-2)))
        redrawn = []
        draw = ArrivalModel.draw_epochs

        def counted(self, *args):
            redrawn.append(args)
            return draw(self, *args)
        monkeypatch.setattr(ArrivalModel, "draw_epochs", counted)
        block = simulate(arrival, EXP1, 20, 2.0,
                         seed_words(8, [("short", r) for r in range(20)], 2))
        assert redrawn
        monkeypatch.undo()
        for r in range(20):
            one = simulate(arrival, EXP1, 20, 2.0, stream_words(8, "short", r, count=2))
            arr_rng, svc_rng = substream(8, "short", r).spawn(2)
            epochs = _strictify(arrival.draw_epochs(20, 2.0, arr_rng))
            own = slice(block.bounds[r], block.bounds[r + 1])
            assert np.array_equal(block.arrivals[own], one.arrivals)
            assert np.array_equal(block.arrivals[own], epochs)
            assert np.array_equal(block.services[own], one.services)
            assert np.array_equal(block.services[own], EXP1.sample(svc_rng, len(epochs)))


class TestBlockFields:
    @given(blocks(ODD_GRID))
    @settings(max_examples=60, deadline=None)
    def test_each_replication_against_brute_force(self, reps):
        g = ODD_GRID
        trace = block_trace(reps)
        q = eval_fields(trace, g)
        init = eval_initial_fields(trace, g)
        for r, (taus, etas, resid) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    qr, qe, qt, wr = brute_queue_fields(taus, etas, float(t), float(y))
                    assert q["Qr"].values[r, i, j] == qr
                    assert q["Qe"].values[r, i, j] == qe
                    assert q["Qt"].values[r, i] == qt
                    assert q["Wr"].values[r, i, j] == pytest.approx(wr, abs=1e-9)
                    assert init["QTr"].values[r, i, j] == qr + sum(x > t + y for x in resid)
            for j, y in enumerate(g.y):
                assert init["Qir"].values[r, j] == sum(x > y for x in resid)

    @given(blocks(DYADIC_GRID))
    @settings(max_examples=40, deadline=None)
    def test_counting_identities_per_replication(self, reps):
        g = DYADIC_GRID
        trace = block_trace(reps)
        q = eval_fields(trace, g)
        qr, qe, qt = q["Qr"].values, q["Qe"].values, q["Qt"].values
        assert np.array_equal(qt, qr[:, :, 0])
        for i, t in enumerate(g.t):
            qe_tt = eval_fields(trace, Grid([t], [float(t)]))["Qe"].values[:, 0, 0]
            assert np.array_equal(qe_tt, qt[:, i])
            for j, y in enumerate(g.y):
                if y <= t:
                    prev = eval_fields(trace, Grid([t - y], [y]))["Qr"].values[:, 0, 0]
                    assert np.array_equal(qe[:, i, j], qt[:, i] - prev)

    @given(blocks(ODD_GRID))
    @settings(max_examples=30, deadline=None)
    def test_block_equals_its_replications_alone(self, reps):
        trace = block_trace(reps)
        evals = (eval_fields, eval_initial_fields, eval_empirical_distributions)
        for ev in evals:
            fields = ev(trace, ODD_GRID)
            for r, rep in enumerate(reps):
                own = ev(alone(rep), ODD_GRID)
                for name, f in fields.items():
                    assert np.array_equal(f.values[r:r + 1], own[name].values)

    @pytest.mark.parametrize("kind", ["block", "single", "empty_replication"])
    def test_every_subset_of_names_matches_the_full_evaluation(self, kind):
        block = simulate(ARRIVALS["poisson"], LogNormal(-0.5, 1.0), 3, HORIZON,
                         seed_words(5, [("subsets", r) for r in range(2)], 2))
        reps = [(block.arrivals[lo:hi], block.services[lo:hi], [])
                for lo, hi in zip(block.bounds[:-1], block.bounds[1:])]
        trace = {"block": block, "single": alone(reps[0]),
                 "empty_replication": block_trace([reps[0], ([], [], []), reps[1]])}[kind]
        full = eval_fields(trace, ODD_GRID)
        assert list(full) == list(FIELDS)
        for k in range(1, len(FIELDS) + 1):
            for names in itertools.combinations(FIELDS, k):
                part = eval_fields(trace, ODD_GRID, names[::-1])
                assert list(part) == list(names[::-1])
                for name in names:
                    assert np.array_equal(part[name].values, full[name].values), (names, name)

    def test_unknown_field_names_are_refused(self):
        with pytest.raises(KeyError, match="Wq"):
            eval_fields(one_customer_trace(), Grid([2.0], [0.0]), ("Qr", "Wq"))

    def test_validation_per_replication(self):
        def trace(arrivals, bounds, services=None, counts=None, resid=None):
            arrivals = np.asarray(arrivals, dtype=float)
            return SimulationTrace(n=1, arrivals=arrivals,
                                   services=np.ones(len(arrivals)) if services is None else services,
                                   horizon=4.0, service_model=EXP1, initial_counts=counts,
                                   initial_residuals=resid, bounds=np.asarray(bounds))
        trace([1.0, 2.0, 0.5, 0.5], [0, 2, 3, 3, 4])        # drops across bounds are fine
        with pytest.raises(ValueError, match="strictly increasing"):
            trace([1.0, 2.0, 0.5, 0.5], [0, 2, 4])
        with pytest.raises(ValueError, match="strictly increasing"):
            trace([1.0, -0.5], [0, 1, 2])
        with pytest.raises(ValueError, match="bounds"):
            trace([1.0, 2.0], [0, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            trace([1.0, 2.0], [0, 1, 2], services=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="count"):
            trace([1.0, 2.0], [0, 1, 2], counts=np.array([1, 1]), resid=np.array([0.5]))
        with pytest.raises(ValueError, match="positive"):
            trace([1.0, 2.0], [0, 1, 2], counts=np.array([0, 1]), resid=np.array([0.0]))
        with pytest.raises(ValueError, match="horizon"):
            eval_fields(trace([1.0, 2.0], [0, 1, 2]), Grid([5.0], [0.0]))
        with pytest.raises(ValueError, match="count"):
            trace([1.0, 2.0], [0, 1, 2], counts=np.array([1]), resid=np.array([0.5]))
        assert trace([1.0, 2.0], [0, 1, 2]).count_arrivals([1.5]).tolist() == [[1], [0]]
        assert alone(([2.0], [1.0], [])).count_arrivals([1.5, 2.0]).tolist() == [[0, 1]]

    def test_finite_values_checked(self):
        with pytest.raises(ValueError, match="non-finite"):
            TwoParamField(Grid([1.0], [0.0]), np.array([[[np.nan]], [[1.0]]]), "bad")


class TestQueueFields:
    def test_empty_trace_is_zero(self):
        g = Grid([1.0, 2.0], [0.0, 1.0])
        q = eval_fields(empty_trace(), g)
        assert not q["Qr"].values.any()
        assert not q["Qe"].values.any()
        assert not q["Qt"].values.any()

    def test_single_customer_residual(self):
        q = eval_fields(one_customer_trace(), Grid([2.0], [0.5, 1.1]))
        assert q["Qr"].values[0, 0, 0] == 1.0   # 1(3 > 2.5)
        assert q["Qr"].values[0, 0, 1] == 0.0   # 1(3 > 3.1)

    def test_single_customer_elapsed(self):
        q = eval_fields(one_customer_trace(), Grid([2.0], [0.5, 1.5]))
        assert q["Qe"].values[0, 0, 0] == 0.0   # arrived at 1, elapsed 1 > 0.5
        assert q["Qe"].values[0, 0, 1] == 1.0

    def test_boundaries_are_exact(self):
        # arrivals at t - y = 1.5 and at t = 2; ends at t + y = 2.5 and at t = 2
        trace = SimulationTrace(n=1, arrivals=np.array([1.5, 2.0]),
                                services=np.array([0.5, 0.5]), horizon=4.0,
                                service_model=EXP1)
        q = eval_fields(trace, Grid([2.0], [0.0, 0.5]))
        assert q["Qr"].values.tolist() == [[[1.0, 0.0]]]   # end 2.5 > 2.5 is false
        assert q["Qe"].values.tolist() == [[[0.0, 1.0]]]   # 1.5 is outside (1.5, 2]
        assert q["Qt"].values.tolist() == [[1.0]]          # the end at 2 has left
        assert q["Wr"].values.tolist() == [[[0.5, 0.0]]]

    def test_bins_match_searchsorted(self):
        from hqinflab.simulate import _bin
        for thresholds in (np.array([0.5]), np.linspace(0.1, 3.3, 13), np.linspace(0, 1, 300)):
            x = np.concatenate((thresholds, np.nextafter(thresholds, -np.inf),
                                np.nextafter(thresholds, np.inf), [-1.0, 9.0, np.inf]))
            assert np.array_equal(_bin(thresholds, x), np.searchsorted(thresholds, x, side="left"))

    def test_grid_beyond_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            eval_fields(one_customer_trace(), Grid([5.0], [0.0]))

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_against_brute_force(self, trace):
        g = Grid([0.5, 1.5, 3.0], [0.0, 0.7, 2.0])
        q = eval_fields(trace, g)
        for i, t in enumerate(g.t):
            for j, y in enumerate(g.y):
                qr, qe, qt, wr = brute_queue_fields(trace.arrivals, trace.services,
                                                    float(t), float(y))
                assert q["Qr"].values[0, i, j] == qr
                assert q["Qe"].values[0, i, j] == qe
                assert q["Qt"].values[0, i] == qt
                assert q["Wr"].values[0, i, j] == pytest.approx(wr, abs=1e-9)

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_counting_identities(self, trace):
        g = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])
        q = {name: f.values[0] for name, f in eval_fields(trace, g).items()}
        a_t = trace.count_arrivals(g.t)[0]
        # flow conservation and nonnegativity
        assert np.array_equal(a_t, q["Qt"] + q["D"])
        assert (q["Qr"] >= 0).all() and (q["Qe"] >= 0).all()
        # monotonicity in y and t
        assert (np.diff(q["Qr"], axis=1) <= 0).all()
        assert (np.diff(q["Qe"], axis=1) >= 0).all()
        assert (np.diff(q["D"]) >= 0).all()
        # Qt(t) = Qr(t, 0) = Qe(t, t); the latter via a y=t grid
        assert np.array_equal(q["Qt"], q["Qr"][:, 0])
        for i, t in enumerate(g.t):
            qe_tt = eval_fields(trace, Grid([t], [float(t)]))["Qe"].values[0, 0, 0]
            assert qe_tt == q["Qt"][i]
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
                    qr_prev = q["Qr"][int(np.argmax(hits)), j]
                assert q["Qe"][i, j] == q["Qt"][i] - qr_prev


class TestWorkloadFields:
    def test_single_customer(self):
        w = eval_fields(one_customer_trace(), Grid([2.0], [0.0, 0.5]))
        assert w["Wr"].values[0, 0, 1] == pytest.approx(0.5)
        assert w["I"].values[0, 0] == 2.0
        assert w["Wt"].values[0, 0] == pytest.approx(1.0)
        assert w["C"].values[0, 0] == pytest.approx(1.0)

    def test_empty(self):
        w = eval_fields(empty_trace(), Grid([2.0], [0.0]))
        assert not w["I"].values.any() and not w["Wr"].values.any()

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_work_conservation_and_convexity(self, trace):
        g = Grid([1.0, 2.0, 3.5], [0.0, 0.5, 1.0, 1.5])
        w = eval_fields(trace, g)
        assert np.allclose(w["I"].values, w["Wt"].values + w["C"].values, atol=1e-9)
        assert (np.diff(w["I"].values) >= -1e-12).all()
        assert (np.diff(w["C"].values) >= -1e-9).all()
        # Wr nonincreasing and convex in y (uniform spacing on [0.5, 1.5])
        vals = w["Wr"].values[0]
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
                         words=stream_words(4, "emp"))
        t = 2.0
        emp = eval_empirical_distributions(trace, Grid([t], [t]))
        if eval_fields(trace, Grid([t], [0.0]))["Qt"].values[0, 0] > 0:
            assert emp["Fe"].values[0, 0, 0] == 1.0

    def test_single_customer_residual_ratio(self):
        emp = eval_empirical_distributions(one_customer_trace(), Grid([2.0], [0.5]))
        assert emp["Frc"].values[0, 0, 0] == 1.0


class TestInitialFields:
    def test_residual_counts(self):
        trace = SimulationTrace(n=1, arrivals=np.array([]), services=np.array([]),
                                horizon=4.0, service_model=EXP1, initial_counts=[2],
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_initial_fields(trace, Grid([1.0], [1.0]))
        assert fields["Qir"].values[0, 0] == 1.0

    def test_total_field_combines_populations(self):
        trace = SimulationTrace(n=1, arrivals=np.array([1.0]), services=np.array([2.0]),
                                horizon=4.0, service_model=EXP1, initial_counts=[2],
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_initial_fields(trace, Grid([2.0], [0.5]))
        # initial residual 2.0 <= t+y = 2.5 has departed; the new arrival survives
        assert fields["QTr"].values[0, 0, 0] == 1.0

    def test_no_initials_means_qtr_equals_qr(self):
        trace = one_customer_trace()
        g = Grid([1.0, 2.0], [0.0, 0.5])
        fields = eval_initial_fields(trace, g)
        assert np.array_equal(fields["QTr"].values,
                              eval_fields(trace, g)["Qr"].values)


class TestExports:
    def test_fields_csv(self, tmp_path):
        g = Grid([1.0], [0.0, 0.5])
        q = eval_fields(one_customer_trace(), g)
        out = tmp_path / "fields.csv"
        # a block's fields are written one replication at a time
        write_fields_csv(out, [TwoParamField(g, q["Qr"].values[0], "Qr"),
                               TimeField(g.t, q["Qt"].values[0], "Qt")])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,t,y,value"
        assert len(lines) == 1 + 2 + 1   # header + Qr grid + Qt row

    @pytest.mark.parametrize("reps", [1, 2])
    def test_block_fields_are_not_written(self, tmp_path, reps):
        block = block_trace([(np.array([1.0]), np.array([2.0]), np.array([]))] * reps)
        g = Grid([1.0], [0.0, 0.5])
        q = eval_fields(block, g)
        out = tmp_path / "fields.csv"
        for field in (q["Qr"], q["Qt"]):
            with pytest.raises(ValueError, match="block of replications"):
                write_fields_csv(out, [TwoParamField(g, q["Qr"].values[0], "Qr"), field])
        assert not out.exists()

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        export_trace_csv(block_trace([([1.0], [2.0], []), ([], [], []),
                                      ([0.5, 1.5], [0.25, 1.0], [])]), out)
        lines = out.read_text().strip().splitlines()
        assert lines == ["replication,i,tau,eta", "0,1,1,2", "2,1,0.5,0.25", "2,2,1.5,1"]
