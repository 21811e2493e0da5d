import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqinflab import experiments
from hqinflab.arrivals import ArrivalModel, RateFunction, _strictify
from hqinflab.fields import Grid, write_surfaces_csv
from hqinflab.rng import reseat, seed_words, substream
from hqinflab.service import Exponential, FiniteAtoms, HyperExponential, LogNormal
from hqinflab.simulate import (FIELDS, CountLaw, InitialConditions, SimulationTrace, _layout,
                               eval_fields, export_trace_csv, replication_sums, simulate)

from oracles import brute_queue_fields, generator_epochs

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


# a 1x1 grid and a block of several hundred replications, as block_size makes
# for such a grid at small n: most hold a few customers, every third one
# epochs at t - y and at t, and ends at t + y and at t
ONE_GRID = Grid([1.1], [0.4])


def many_replications(grid, count=600):
    rng = np.random.default_rng(25)
    t, y = float(grid.t[0]), float(grid.y[0])
    reps = []
    for r in range(count):
        taus = set(rng.uniform(1e-3, HORIZON, rng.integers(0, 8)).tolist())
        taus = sorted(taus | {t - y, t} if r % 3 == 0 else taus)
        etas = [_service_ending_at(tau, (t + y, t, tau + 1.0)[k % 3]) if tau <= t else float(k)
                for k, tau in enumerate(taus)]
        reps.append((taus, etas, rng.uniform(1e-3, 4.0, rng.integers(0, 3)).tolist()))
    return reps


class TestGridAndFields:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid([], [0.0])
        with pytest.raises(ValueError):
            Grid([1.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            Grid([-1.0, 1.0], [0.0])

    def test_field_shape_checked(self, tmp_path):
        # a field leaves the program only through the writer, which checks it
        out = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=r"shape \(2, 2\) != grid \(1, 2\)"):
            write_surfaces_csv(out, Grid([1.0], [0.0, 1.0]), {"bad": np.zeros((2, 2))})
        assert not out.exists()


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
# and first residual with INIT).  The sinusoidal epochs were re-recorded
# when the rate inverse started from a cubic Hermite interpolant: each moved
# by 1 ulp, and both the old and the new ones meet |abar(t) - L| <= 4 ulp(L).
PINNED_TRACES = {
    "poisson": (17, [0.11284108116027242, 2.7991559067445877],
                [1.625407727838294, 0.34173418249967297], 2, 0.23036804122714802),
    "h2_renewal": (14, [0.0502887128256734, 2.892254642526341],
                   [0.2090198437237073, 1.6259616806813226], 4, 0.19769328085673119),
    "sinusoidal_nhpp": (10, [0.4901467530846778, 2.6987624143308366],
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
        epochs = _strictify(generator_epochs(ARRIVALS[name], 4, 3.0, arr_rng))
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
            raw = generator_epochs(arrival, 20, 2.0, substream(3, "ties", r).spawn(1)[0])
            assert np.any(np.diff(raw) <= 0)
            epochs = block.arrivals[block.bounds[r]:block.bounds[r + 1]]
            assert np.all(np.diff(epochs) > 0)
            assert np.array_equal(epochs, _strictify(raw))

    def test_block_redraws_a_short_first_batch(self, monkeypatch):
        # the phase of mean 100 makes the first batch of interarrivals often
        # end before the horizon's level: such a row draws on past it
        arrival = ArrivalModel.renewal(HyperExponential((0.99, 0.01), (1e3, 1e-2)))
        batches = []
        sample = HyperExponential.sample

        def counted(self, *args, **kwargs):
            batches.append(self)
            return sample(self, *args, **kwargs)
        monkeypatch.setattr(HyperExponential, "sample", counted)
        block = simulate(arrival, EXP1, 20, 2.0,
                         seed_words(8, [("short", r) for r in range(20)], 2))
        assert len(batches) > 20         # a first batch per row, and more
        monkeypatch.undo()
        for r in range(20):
            one = simulate(arrival, EXP1, 20, 2.0, stream_words(8, "short", r, count=2))
            arr_rng, svc_rng = substream(8, "short", r).spawn(2)
            epochs = _strictify(generator_epochs(arrival, 20, 2.0, arr_rng))
            own = slice(block.bounds[r], block.bounds[r + 1])
            assert np.array_equal(block.arrivals[own], one.arrivals)
            assert np.array_equal(block.arrivals[own], epochs)
            assert np.array_equal(block.services[own], one.services)
            assert np.array_equal(block.services[own], EXP1.sample(svc_rng, len(epochs)))


class TestBlockFields:
    @given(reps=blocks(ODD_GRID), g=st.just(ODD_GRID))
    @example(reps=many_replications(ONE_GRID), g=ONE_GRID)
    @settings(max_examples=60, deadline=None)
    def test_each_replication_against_brute_force(self, reps, g):
        trace = block_trace(reps)
        q = eval_fields(trace, g)
        for r, (taus, etas, resid) in enumerate(reps):
            for i, t in enumerate(g.t):
                for j, y in enumerate(g.y):
                    qr, qe, qt, wr = brute_queue_fields(taus, etas, float(t), float(y))
                    assert q["Qr"][r, i, j] == qr
                    assert q["Qe"][r, i, j] == qe
                    assert q["Qt"][r, i] == qt
                    assert q["Wr"][r, i, j] == pytest.approx(wr, abs=1e-9)
                    assert q["QTr"][r, i, j] == qr + sum(x > t + y for x in resid)
            for j, y in enumerate(g.y):
                assert q["Qir"][r, j] == sum(x > y for x in resid)

    @given(blocks(DYADIC_GRID))
    @settings(max_examples=40, deadline=None)
    def test_counting_identities_per_replication(self, reps):
        g = DYADIC_GRID
        trace = block_trace(reps)
        q = eval_fields(trace, g)
        qr, qe, qt = q["Qr"], q["Qe"], q["Qt"]
        assert np.array_equal(qt, qr[:, :, 0])
        for i, t in enumerate(g.t):
            qe_tt = eval_fields(trace, Grid([t], [float(t)]))["Qe"][:, 0, 0]
            assert np.array_equal(qe_tt, qt[:, i])
            for j, y in enumerate(g.y):
                if y <= t:
                    prev = eval_fields(trace, Grid([t - y], [y]))["Qr"][:, 0, 0]
                    assert np.array_equal(qe[:, i, j], qt[:, i] - prev)

    @given(blocks(ODD_GRID))
    @settings(max_examples=30, deadline=None)
    def test_block_equals_its_replications_alone(self, reps):
        fields = eval_fields(block_trace(reps), ODD_GRID)
        for r, rep in enumerate(reps):
            own = eval_fields(alone(rep), ODD_GRID)
            for name, f in fields.items():
                assert np.array_equal(f[r:r + 1], own[name])

    @pytest.mark.parametrize("kind", ["block", "single", "empty_replication"])
    def test_every_subset_of_names_matches_the_full_evaluation(self, kind):
        # drawn with initial customers, so that Qir and QTr are not those of
        # an empty initial population
        block = simulate(ARRIVALS["poisson"], LogNormal(-0.5, 1.0), 3, HORIZON,
                         seed_words(5, [("subsets", r) for r in range(2)], 3), init=INIT)
        skips = np.cumsum(np.concatenate(([0], block.initial_counts)))
        assert skips[1] > 0 and skips[2] > skips[1]
        reps = [(block.arrivals[lo:hi], block.services[lo:hi],
                 block.initial_residuals[skips[r]:skips[r + 1]])
                for r, (lo, hi) in enumerate(zip(block.bounds[:-1], block.bounds[1:]))]
        trace = {"block": block, "single": alone(reps[0]),
                 "empty_replication": block_trace([reps[0], ([], [], []), reps[1]])}[kind]
        full = eval_fields(trace, ODD_GRID)
        assert list(full) == list(FIELDS)
        for k in range(1, len(FIELDS) + 1):
            for names in itertools.combinations(FIELDS, k):
                part = eval_fields(trace, ODD_GRID, names[::-1])
                assert list(part) == list(names[::-1])
                for name in names:
                    assert np.array_equal(part[name], full[name]), (names, name)

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


def test_a_fine_grid_holds_one_histogram_at_a_time():
    # on an irregular 40 x 40 grid, one replication's residual and elapsed
    # histograms have 41 x 1601 cells (0.53 MB) each, against 93
    # customers.  They are built one at a time and summed in place, so
    # evaluating Qr, Qe and Wt peaks near one of them; a corner table made
    # beside each histogram read 2.15.  A first call makes the grid's
    # layout outside the reading
    rng = np.random.default_rng(5)
    grid = Grid(np.sort(rng.uniform(0.1, 2.0, 40)),
                np.concatenate(([0.0], np.sort(rng.uniform(0.01, 1.5, 39)))))
    trace = simulate(ArrivalModel.poisson(1.0), EXP1, 50, 2.0, stream_words(1, "fine", count=2))
    eval_fields(trace, grid, ("Qr", "Qe", "Wt"))
    layout = _layout(grid)
    assert layout.residual_shape == layout.elapsed_shape == (41, 1601)
    tracemalloc.start()
    try:
        eval_fields(trace, grid, ("Qr", "Qe", "Wt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    histogram = math.prod(layout.residual_shape) * 8
    assert peak <= 1.3 * histogram, peak / histogram


def looped_sums(rows, bounds):
    """Each replication's rows summed by a loop over replications."""
    return np.array([rows[lo:hi].sum(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])


class TestReplicationSums:
    BOUNDS = {"no_customers": [0, 0, 0], "empty_between_full": [0, 3, 3, 7],
              "empty_first_and_last": [0, 0, 4, 7, 7], "one_replication": [0, 7]}

    @pytest.mark.parametrize("bounds", BOUNDS.values(), ids=BOUNDS)
    def test_counts_against_a_loop(self, bounds):
        rows = np.random.default_rng(3).random((bounds[-1], 4)) < 0.5
        sums = replication_sums(rows, np.asarray(bounds))
        assert sums.shape == (len(bounds) - 1, 4) and sums.dtype == np.intp
        assert np.array_equal(sums, looped_sums(rows.astype(np.intp), bounds))

    @pytest.mark.parametrize("bounds", BOUNDS.values(), ids=BOUNDS)
    def test_float_fields_against_a_loop(self, bounds):
        rows = np.random.default_rng(4).standard_normal((bounds[-1], 3, 5))
        sums = replication_sums(rows, np.asarray(bounds))
        assert sums.shape == (len(bounds) - 1, 3, 5)
        np.testing.assert_allclose(sums, looped_sums(rows, bounds),
                                   rtol=0.0, atol=1e-12)

    def test_arrivals_of_an_empty_block(self):
        block = SimulationTrace(n=1, arrivals=np.array([]), services=np.array([]), horizon=4.0,
                                service_model=EXP1, bounds=np.array([0, 0, 0]))
        counts = block.count_arrivals([0.0, 1.0, 4.0])
        assert counts.dtype == np.intp and counts.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert empty_trace().count_arrivals([2.0]).tolist() == [[0]]
        assert block.count_arrivals([]).shape == (2, 0)


class TestQueueFields:
    def test_empty_trace_is_zero(self):
        g = Grid([1.0, 2.0], [0.0, 1.0])
        q = eval_fields(empty_trace(), g)
        assert not q["Qr"].any()
        assert not q["Qe"].any()
        assert not q["Qt"].any()

    def test_single_customer_residual(self):
        q = eval_fields(one_customer_trace(), Grid([2.0], [0.5, 1.1]))
        assert q["Qr"][0, 0, 0] == 1.0   # 1(3 > 2.5)
        assert q["Qr"][0, 0, 1] == 0.0   # 1(3 > 3.1)

    def test_single_customer_elapsed(self):
        q = eval_fields(one_customer_trace(), Grid([2.0], [0.5, 1.5]))
        assert q["Qe"][0, 0, 0] == 0.0   # arrived at 1, elapsed 1 > 0.5
        assert q["Qe"][0, 0, 1] == 1.0

    def test_boundaries_are_exact(self):
        # arrivals at t - y = 1.5 and at t = 2; ends at t + y = 2.5 and at t = 2
        trace = SimulationTrace(n=1, arrivals=np.array([1.5, 2.0]),
                                services=np.array([0.5, 0.5]), horizon=4.0,
                                service_model=EXP1)
        q = eval_fields(trace, Grid([2.0], [0.0, 0.5]))
        assert q["Qr"].tolist() == [[[1.0, 0.0]]]   # end 2.5 > 2.5 is false
        assert q["Qe"].tolist() == [[[0.0, 1.0]]]   # 1.5 is outside (1.5, 2]
        assert q["Qt"].tolist() == [[1.0]]          # the end at 2 has left
        assert q["Wr"].tolist() == [[[0.5, 0.0]]]

    def test_bins_match_searchsorted(self):
        from hqinflab.simulate import _Binner
        clustered = np.array([1.0, 1 + 1e-12, 1 + 2e-12, 1 + 3e-12, 5.0])    # one bucket holds 4
        rng = np.random.default_rng(3)
        for thresholds in (np.array([0.5]), np.linspace(0.1, 3.3, 13), np.linspace(0, 1, 300),
                           clustered, np.array([-1.75, -0.5, -0.25, 0.0, 0.25, 2.0]),
                           np.array([-0.3]), np.sort(rng.uniform(-2, 4, 40))):
            x = np.concatenate((thresholds, np.nextafter(thresholds, -np.inf),
                                np.nextafter(thresholds, np.inf), rng.uniform(-3, 6, 200),
                                [-1.0, -0.0, 0.0, 9.0, -np.inf, np.inf]))
            binner = _Binner(thresholds)
            assert np.array_equal(binner(x), np.searchsorted(thresholds, x, side="left"))
            assert np.array_equal(binner(x[::-1]), np.searchsorted(thresholds, x[::-1], side="left"))
        assert _Binner(clustered).step == 2               # two rounds of search

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
                assert q["Qr"][0, i, j] == qr
                assert q["Qe"][0, i, j] == qe
                assert q["Qt"][0, i] == qt
                assert q["Wr"][0, i, j] == pytest.approx(wr, abs=1e-9)

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_counting_identities(self, trace):
        g = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])
        q = {name: f[0] for name, f in eval_fields(trace, g).items()}
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
            qe_tt = eval_fields(trace, Grid([t], [float(t)]))["Qe"][0, 0, 0]
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
        assert w["Wr"][0, 0, 1] == pytest.approx(0.5)
        assert w["I"][0, 0] == 2.0
        assert w["Wt"][0, 0] == pytest.approx(1.0)
        assert w["C"][0, 0] == pytest.approx(1.0)

    def test_empty(self):
        w = eval_fields(empty_trace(), Grid([2.0], [0.0]))
        assert not w["I"].any() and not w["Wr"].any()

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_work_conservation_and_convexity(self, trace):
        g = Grid([1.0, 2.0, 3.5], [0.0, 0.5, 1.0, 1.5])
        w = eval_fields(trace, g)
        assert np.allclose(w["I"], w["Wt"] + w["C"], atol=1e-9)
        assert (np.diff(w["I"]) >= -1e-12).all()
        assert (np.diff(w["C"]) >= -1e-9).all()
        # Wr nonincreasing and convex in y (uniform spacing on [0.5, 1.5])
        vals = w["Wr"][0]
        assert (np.diff(vals, axis=1) <= 1e-12).all()
        second = vals[:, 3] - 2.0 * vals[:, 2] + vals[:, 1]
        assert (second >= -1e-9).all()


class TestEmpiricalDistributions:
    """The empirical age c.d.f. Fe = Qe / Qt at the last grid time, as the
    age-distribution experiment reads it: sup over y of |Fe - target|."""

    @staticmethod
    def sup(trace, grid, targets):
        q = eval_fields(trace, grid, ("Qe", "Qt"))
        return experiments._age_sup(q["Qe"], q["Qt"], np.array(targets))

    def test_zero_convention(self):
        # an empty system has Fe = 0, not 0 / 0
        assert self.sup(empty_trace(), Grid([1.0], [0.0, 0.5]), [0.0, 0.0]).tolist() == [0.0]

    def test_age_cdf_reaches_one(self):
        trace = simulate(ArrivalModel.poisson(1.0), EXP1, n=50, horizon=2.0,
                         words=stream_words(4, "emp"))
        t = 2.0
        if eval_fields(trace, Grid([t], [0.0]))["Qt"][0, 0] > 0:
            assert self.sup(trace, Grid([t], [t]), [1.0]).tolist() == [0.0]


class TestInitialFields:
    def test_residual_counts(self):
        trace = SimulationTrace(n=1, arrivals=np.array([]), services=np.array([]),
                                horizon=4.0, service_model=EXP1, initial_counts=[2],
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_fields(trace, Grid([1.0], [1.0]), ("Qir",))
        assert fields["Qir"][0, 0] == 1.0

    def test_total_field_combines_populations(self):
        trace = SimulationTrace(n=1, arrivals=np.array([1.0]), services=np.array([2.0]),
                                horizon=4.0, service_model=EXP1, initial_counts=[2],
                                initial_residuals=np.array([0.5, 2.0]))
        fields = eval_fields(trace, Grid([2.0], [0.5]), ("QTr",))
        # initial residual 2.0 <= t+y = 2.5 has departed; the new arrival survives
        assert fields["QTr"][0, 0, 0] == 1.0

    def test_no_initials_means_qtr_equals_qr(self):
        trace = one_customer_trace()
        g = Grid([1.0, 2.0], [0.0, 0.5])
        fields = eval_fields(trace, g, ("QTr", "Qr"))
        assert np.array_equal(fields["QTr"], fields["Qr"])


class TestExports:
    def test_fields_csv(self, tmp_path):
        g = Grid([1.0], [0.0, 0.5])
        q = eval_fields(one_customer_trace(), g)
        out = tmp_path / "fields.csv"
        # a block's fields are written one replication at a time
        write_surfaces_csv(out, g, {"Qr": q["Qr"][0], "Qe": q["Qe"][0]})
        assert out.read_text().splitlines() == [
            "label,t,y,value", "Qr,1,0,1", "Qr,1,0.5,1", "Qe,1,0,0", "Qe,1,0.5,1"]

    @pytest.mark.parametrize("reps", [1, 2])
    def test_block_fields_are_not_written(self, tmp_path, reps):
        block = block_trace([(np.array([1.0]), np.array([2.0]), np.array([]))] * reps)
        g = Grid([1.0], [0.0, 0.5])
        q = eval_fields(block, g)
        out = tmp_path / "fields.csv"
        for field in (q["Qr"], q["Qt"]):
            with pytest.raises(ValueError, match="write one replication's"):
                write_surfaces_csv(out, g, {"Qr": q["Qr"][0], "block": field})
        assert not out.exists()

    def test_non_finite_surfaces_are_not_written(self, tmp_path):
        out = tmp_path / "fields.csv"
        g = Grid([1.0], [0.0, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                write_surfaces_csv(out, g, {"ok": np.ones(g.shape), "bad": np.array([[1.0, bad]])})
        assert not out.exists()

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        export_trace_csv(block_trace([([1.0], [2.0], []), ([], [], []),
                                      ([0.5, 1.5], [0.25, 1.0], [])]), out)
        lines = out.read_text().strip().splitlines()
        assert lines == ["replication,i,tau,eta", "0,1,1,2", "2,1,0.5,0.25", "2,2,1.5,1"]
