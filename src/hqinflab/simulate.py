"""Realize G/GI/infinity systems, in blocks of replications, and evaluate
their two-parameter fields.

With infinitely many servers customers never interact, so a realized system
is fully described by its arrival epochs, the service times aligned with
them, and the residual times of customers present at time zero.  Every field
is then a direct sum of per-customer indicators evaluated on a grid:

  Qr(t, y) = #{i : tau_i <= t, tau_i + eta_i > t + y}      (residual > y)
  Qe(t, y) = #{i : t - y < tau_i <= t, tau_i + eta_i > t}  (elapsed <= y)
  Wr(t, y) = sum_{tau_i <= t} (tau_i + eta_i - t - y)^+    (remaining work)

Monte Carlo runs many small independent replications, so :func:`simulate`
draws a block of them at once.  A block is given by the seed words of its
replications' arrival, service and initial-state streams (see :mod:`rng`):
one generator is re-seated on each stream in turn, the epochs of all
replications are drawn by one call (:meth:`ArrivalModel.draw_block_epochs`),
and each replication draws exactly what it would draw on its own.  The block
is one :class:`SimulationTrace` that stores its replications one after
another, and every field evaluated on it has a leading replication axis.
Ties are broken and the trace is checked once per block.  A sum over each
replication's customers that no field gives, such as the arrival count
A_n(t), is one cumulative sum over the block (:func:`replication_sums`).

:func:`eval_fields` evaluates the fields that it is asked for in one pass.
With a sorted threshold set c and bin(x) = #{c_k < x}
(``searchsorted(c, x, side="left")``), x <= c_m holds exactly when
bin(x) <= m, and x > c_m exactly when bin(x) > m.  So one histogram of
customers over (replication, tau-bin, end-bin) cells, with tau-bins over the
grid times and end-bins over the values t + y, gives every Qr(t, y) as a sum
over a corner of cells; another, with tau-bins over the values t and t - y
and end-bins over the grid times, gives every Qe(t, y).  One prefix sum over
each axis of a histogram, in place, and one gather read all grid points off
at once, and the same residual histogram weighted by the ends gives
Wr(t, y) = sum(end) - (t + y) * Qr(t, y).

One call bins each customer's tau and end once, each through an exact
bucket map made once per threshold set (:class:`_Binner`): a few array
passes per customer, sorted or not, in place of a binary search each.  A bin
over the grid times alone and a customer's cell then follow by table lookup,
and the call builds the residual histogram once per weight that its fields
read: the count for Qr, Qt, D and QTr; the ends as well for Wr and Wt; the
services as well for I and C (C = I - Wt).  It builds the elapsed histogram
only when Qe is named.  Initial customers count as arrivals at time 0 that
end at their residuals: QTr adds their residual histogram to the arrivals'
count histogram on the same layout, and Qir bins them alone at t = 0,
without binning the arrivals.  Bins are not kept between calls, so a caller
names every field it needs of a trace and grid in one call.  The thresholds
and the cell layout are set up once per grid, and the cells of a block are
kept within the block budget, down to one replication.

A call holds little beside the trace.  The cells are built in the arrays of
the bins, the ends are added again for their weight rather than held through
the binning, and the histograms are built, summed and gathered one at a
time: at most about three arrays of one value per customer (with the
trace's two, about 42 bytes per customer), and one histogram.

Boundary conventions are exact: the residual comparison is strict and the
elapsed window is open on the left, which makes the counting identities
  Qt(t) = Qr(t,0) = Qe(t,t),     Qe(t,y) = Qt(t) - Qr(t-y, y)
hold with equality on every trace (not just in distribution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel, _strictify
from .fields import Grid, write_csv
from .rng import seated
from .service import ServiceModel

__all__ = [
    "CountLaw",
    "InitialConditions",
    "SimulationTrace",
    "replication_sums",
    "simulate",
    "block_size",
    "FIELDS",
    "eval_fields",
    "export_trace_csv",
]

# Customers, and histogram cells, that one block of replications aims to hold.
# A block pays a fixed cost beside its customers, and while its fields are
# evaluated it holds about 42 bytes per customer.  On the mc_small_n benchmark
# workload (2-vCPU x86-64 VM; medians of ten alternating worker runs, scaled
# wall_s and peak_rss_mb): 2**14 0.683 s, 40.26 MB; 2**15 0.635 s, 40.90 MB;
# 2**16 0.614 s, 42.15 MB.  2**15 is the largest that holds what 2**14 held
# when each block kept a corner table beside its histogram and the rows were
# joined (0.689 s, 40.88 MB).
_BLOCK_BUDGET = 2**15
# The fields that eval_fields evaluates.
FIELDS = ("Qr", "Qe", "Qt", "D", "Wr", "Wt", "I", "C", "Qir", "QTr")
# The weights of the residual histograms, each with the fields that read it.
_WEIGHTS = {"count": {"Qr", "Qt", "D", "Wr", "Wt", "C", "QTr"}, "ends": {"Wr", "Wt", "C"},
            "services": {"I", "C"}}


@dataclass(frozen=True)
class CountLaw:
    """Law of the initial customer count at scale n: floor(level*n) or
    Poisson(level*n)."""
    kind: str          # "fixed" | "poisson"
    level: float       # q^{i,t}: initial customers per unit of n

    def __post_init__(self):
        if self.kind not in ("fixed", "poisson"):
            raise ValueError(f"unknown count law {self.kind!r}")
        if self.level < 0:
            raise ValueError("initial level must be nonnegative")

    def draw(self, n: int, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            return int(math.floor(self.level * n))
        return int(rng.poisson(self.level * n))

    @property
    def clt_variance(self) -> float:
        """Var of (count - n*level)/sqrt(n) in the limit."""
        return 0.0 if self.kind == "fixed" else self.level


@dataclass(frozen=True)
class InitialConditions:
    """The customers present at time zero: their count law and the law of
    their residual service times, for the simulator and for the limits."""
    count: CountLaw
    residual: ServiceModel


@dataclass(frozen=True)
class SimulationTrace:
    """A block of independent realizations of the n-th system.

    The replications are stored one after another: replication r owns
    customers bounds[r]:bounds[r + 1] of ``arrivals`` and ``services``, and
    the next initial_counts[r] of ``initial_residuals``.  ``bounds`` None
    means one replication, [0, N]; ``initial_counts`` None means none.
    """
    n: int
    arrivals: np.ndarray           # epochs tau_i, strictly increasing per replication
    services: np.ndarray           # eta_i aligned with arrivals
    horizon: float
    service_model: ServiceModel
    initial_counts: np.ndarray = None
    initial_residuals: np.ndarray = None
    bounds: np.ndarray = None

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        svc = np.asarray(self.services, dtype=float)
        if arr.ndim != 1 or svc.shape != arr.shape:
            raise ValueError("arrivals and services must be aligned 1-D arrays")
        bounds = np.asarray([0, len(arr)] if self.bounds is None else self.bounds, dtype=np.intp)
        if (bounds.ndim != 1 or len(bounds) < 2 or bounds[0] != 0
                or bounds[-1] != len(arr) or (bounds[1:] < bounds[:-1]).any()):
            raise ValueError("replication bounds must rise from 0 to the customer count")
        rising = arr[1:] > arr[:-1]
        firsts = bounds[1:-1]                # a drop onto these epochs is no fault
        rising[firsts[(firsts > 0) & (firsts < len(arr))] - 1] = True
        if not rising.all() or arr.min(initial=0.0) < 0:
            raise ValueError("arrival epochs must be nonnegative and strictly increasing")
        if svc.min(initial=0.0) < 0:
            raise ValueError("service times must be nonnegative")
        resid = self.initial_residuals
        resid = np.asarray([] if resid is None else resid, dtype=float)
        counts = self.initial_counts
        counts = np.asarray(np.zeros(len(bounds) - 1) if counts is None else counts, dtype=np.intp)
        if (counts.shape != (len(bounds) - 1,) or counts.sum() != len(resid)
                or counts.min(initial=0) < 0):
            raise ValueError("initial residual count mismatch")
        if resid.min(initial=np.inf) <= 0:
            raise ValueError("initial residuals must be positive")
        for name, value in (("arrivals", arr), ("services", svc), ("bounds", bounds),
                            ("initial_counts", counts), ("initial_residuals", resid)):
            object.__setattr__(self, name, value)

    @property
    def replications(self) -> int:
        return len(self.bounds) - 1

    def count_arrivals(self, t) -> np.ndarray:
        """A_n(t) = #{i : tau_i <= t} per replication, shape (R, len(t))."""
        return replication_sums(self.arrivals[:, None] <= np.ravel(t), self.bounds)


def replication_sums(rows: np.ndarray, bounds) -> np.ndarray:
    """The rows of a block summed per replication, replication r owning
    rows[bounds[r]:bounds[r + 1]]: differences of one cumulative sum over
    axis 0, shape (R, *rows.shape[1:]).  An empty replication sums to 0."""
    total = np.cumsum(rows, axis=0)
    total = np.concatenate((np.zeros((1, *rows.shape[1:]), total.dtype), total))
    return total[bounds[1:]] - total[bounds[:-1]]


def simulate(arrival: ArrivalModel, service: ServiceModel,
             n: int, horizon: float, words,
             init: InitialConditions | None = None) -> SimulationTrace:
    """Draw a block of realizations of the n-th system.

    ``words`` are the seed words of the block's replications (see
    :mod:`rng`), shape (R, k, 4): per replication those of its arrival,
    service[ and initial-state] streams, the third needed only with
    ``init``.  Services are i.i.d. from the service law, independent of the
    arrival process; the initial state is independent of both.
    """
    words = np.asarray(words, dtype=np.uint64).tolist()
    epochs = arrival.draw_block_epochs(n, horizon, [w[0] for w in words])
    bounds = np.zeros(len(epochs) + 1, dtype=np.intp)
    np.cumsum([len(tau) for tau in epochs], out=bounds[1:])
    arrivals = _strictify(np.concatenate(epochs), bounds)
    del epochs
    services = np.empty(bounds[-1])
    counts, residuals = np.zeros(len(words), dtype=np.intp), []
    for r, (w, lo, hi) in enumerate(zip(words, bounds.tolist(), bounds[1:].tolist())):
        services[lo:hi] = service.sample(seated(w[1]), size=hi - lo)
        if init is not None:
            gen = seated(w[2])
            counts[r] = init.count.draw(n, gen)
            residuals.append(np.asarray(init.residual.sample(gen, size=counts[r]), dtype=float))
    return SimulationTrace(
        n=n, arrivals=arrivals, services=services, horizon=horizon, service_model=service,
        initial_counts=counts,
        initial_residuals=np.concatenate(residuals) if residuals else None,
        bounds=bounds)


def block_size(arrival: ArrivalModel, n: int, horizon: float, grid: Grid) -> int:
    """Replications per block: as many as keep a block's expected customers
    and its histogram cells within the block budget, and at least one.

    A replication's residual and elapsed histograms each have at most
    (T + 1) x (T (Y + 1) + 1) cells.
    """
    T, Y = grid.shape
    cells = 2 * (T + 1) * (T * (Y + 1) + 1)
    customers = n * float(arrival.cumulative_rate(horizon))
    return max(1, int(_BLOCK_BUDGET // max(customers, cells)))


def _check_grid(trace: SimulationTrace, grid: Grid) -> None:
    if grid.t[-1] > trace.horizon + 1e-12:
        raise ValueError(f"grid extends to t={grid.t[-1]} beyond trace horizon {trace.horizon}")


def _corners(hist: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """hist[r, a, e] summed over a <= row and e <= col, per replication r, at
    the flat cells row * hist.shape[2] + col: a prefix sum over each axis, in
    place, and one gather, shape (R, *flat.shape).  Axis 1, the grid times,
    is summed by one add per row: a cumulative sum along it runs one short
    strided loop per (replication, column) pair, 1.6 times as long on a
    block of 88 replications of a 5 x 5 grid and 3.3 times on one
    replication of an irregular 40 x 40 grid.  The results are C-ordered, so
    that a mean over replications sums in one order whatever the block
    size."""
    for a in range(1, hist.shape[1] - 1):
        hist[:, a] += hist[:, a - 1]
    np.cumsum(hist[:, :-1], axis=2, out=hist[:, :-1])
    return hist.reshape(len(hist), -1).take(flat, axis=1)


class _Binner:
    """bin(x) = #{c in thresholds : c < x} for each x, as ``searchsorted(
    thresholds, x, side="left")`` gives it, through a bucket map made once
    per threshold set (sorted, distinct, at least one).

    [c_0, c_last] is cut into 4 buckets per threshold, and x goes to bucket
    floor((x - c_0) * scale), clipped to the first and the last.  That map
    is monotone, so every threshold in an earlier bucket lies below x and
    none in a later one does: bin(x) is #{c in earlier buckets}, read from a
    table, plus one compare of x with the first threshold of its bucket and,
    where a bucket holds several, a branchless binary search among the rest.
    Every compare is against a threshold itself, so the bins are exact for
    any positive finite scale.
    """

    def __init__(self, thresholds: np.ndarray):
        self.c0, span = thresholds[0], float(thresholds[-1] - thresholds[0])
        self.top = 4 * len(thresholds) - 1             # the last bucket
        self.scale = min(self.top / span, 1e300) if span > 0 else 1.0
        below = np.searchsorted(self._bucket(thresholds).astype(np.intp), np.arange(self.top + 1))
        most = int(np.diff(below, append=len(thresholds)).max())   # in the fullest bucket
        self.step = (1 << (most - 1).bit_length()) >> 1            # of the search, 0 for none
        self.padded = np.concatenate((thresholds, np.full(2 * self.step + 1, np.inf)))
        self.below, self.first = below, self.padded[below]

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        """Every x's bucket, as a float."""
        b = np.subtract(x, self.c0)
        b *= self.scale
        return b.clip(0, self.top, out=b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Every x's bin.  The float buckets' buffer takes the first
        thresholds, and each buffer goes once its last use is passed."""
        buf = self._bucket(x)
        b = buf.astype(np.intp)
        above = x > self.first.take(b, out=buf, mode="clip")
        del buf
        out = self.below.take(b)
        del b
        out += above
        step = self.step
        while step:
            out += step * (x > self.padded.take(out + (step - 1)))
            step >>= 1
        return out


def _sorted_set(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (``np.unique`` imports ``numpy.ma`` on
    first use, 11 ms)."""
    c = np.sort(values.ravel())
    return c[np.concatenate(([True], c[1:] != c[:-1]))]


def _offsets(sizes: np.ndarray, stride: int, first: int = 0) -> np.ndarray:
    """first + stride * (each customer's replication), for customers that
    follow one another, sizes[r] of replication r, as int32 where every
    offset fits: added in place to an intp array, it costs half as much."""
    top = first + len(sizes) * stride
    return np.repeat(np.arange(first, top, stride, dtype=_index_type(top)), sizes)


def _index_type(top: int):
    """int32 if every index below ``top`` fits in it, else intp."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.intp


class _Layout:
    """Where each field of one grid sits in the histograms of its customers.

    tau is binned over the sorted values t and t - y, end over the sorted
    values t + y (y = 0 included).  Both sets hold the grid times, so a bin
    over the grid times alone follows from either by a table, which holds it
    as the offset of its row in a replication's histogram: a customer's cell
    is its replication's offset, one lookup and one bin.  Every field is a
    sum over a corner of cells that :func:`_corners` reads as a prefix sum
    over both axes, so each histogram counts down the bins of the side that
    its corners bound from below: the residual one its end-bins, the
    elapsed one its rows, the grid times that end exceeds.  The layout
    depends on the grid only and is made once per grid.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        T = len(t)
        self.shifts = t[:, None] + np.concatenate(([0.0], y))       # t + y
        starts = t[:, None] - y                                     # t - y
        c_end = _sorted_set(self.shifts)
        c_tau = _sorted_set(np.concatenate((t, starts.ravel())))
        self.bin_tau, self.bin_end = _Binner(c_tau), _Binner(c_end)
        self.residual_shape = (T + 1, len(c_end) + 1)
        self.elapsed_shape = (T + 1, len(c_tau) + 1)
        # a value's bin over the grid times: the grid times among the
        # thresholds of the set below it, as its row's offset
        cells = max(math.prod(self.residual_shape), math.prod(self.elapsed_shape))
        rows = np.concatenate(([0], np.cumsum(np.isin(c_tau, t))))
        self.residual_rows = (rows * self.residual_shape[1]).astype(_index_type(cells))
        rows = np.concatenate(([0], np.cumsum(np.isin(c_end, t))))
        self.elapsed_rows = ((T - rows) * self.elapsed_shape[1]).astype(_index_type(cells))
        # the corners' flat cells in a replication's prefix table: residual
        # tau <= t and end > t alone, then end > t + y, that is end-bin
        # counted down to len(c_end) - 1 - k for the k-th threshold; elapsed
        # end > t and tau <= t, then tau <= t - y
        times = np.arange(T)[:, None]
        ends = np.concatenate((np.full((T, 1), -1), np.searchsorted(c_end, self.shifts)), axis=1)
        self.residual_corners = times * self.residual_shape[1] + (len(c_end) - 1 - ends)
        bounds = np.stack(np.broadcast_arrays(t[:, None], starts))     # t, then t - y
        self.elapsed_corners = ((T - 1 - times) * self.elapsed_shape[1]
                                + np.searchsorted(c_tau, bounds))

    def cells(self, tau, service, sizes, elapsed: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Each customer's residual cell and, with ``elapsed``, its elapsed
        cell (else None), for customers that arrive at tau, stay for
        ``service`` and follow one another, sizes[r] of replication r.

        Each end and tau is binned once, and the cells are built in place
        in the arrays of the bins: the ends go once they are binned, and
        the row lookups and replication offsets are added as int32
        temporaries.  Beyond its arguments, a call holds at most about three
        arrays of one float or index per customer at a time: two in the
        binner (three where it searches within buckets), and the ends or the
        bins beside them.
        """
        end = self.bin_end(tau + service)
        tau = self.bin_tau(tau)
        rows = self.residual_rows.take(tau)     # before tau's array is reused
        if elapsed:
            tau += self.elapsed_rows.take(end)
            tau += _offsets(sizes, math.prod(self.elapsed_shape))
        np.subtract(self.residual_shape[1] - 1, end, out=end)   # end-bins counted down
        end += rows
        del rows
        end += _offsets(sizes, math.prod(self.residual_shape))
        return end, tau if elapsed else None

    def residual(self, cells, sizes, weights) -> list[np.ndarray]:
        """Sums over {tau <= t, end > t + y} per replication, for customers
        in ``cells`` (see :meth:`cells`), sizes[r] of replication r, one per
        weight, taken in turn: the customer count for a weight of None, else
        the weight's sum.

        Each result has shape (R, T, Y + 2): column 0 sums over tau <= t
        alone, column 1 is y = 0, and the rest follow grid.y.
        """
        shape = (len(sizes), *self.residual_shape)
        return [_corners(np.bincount(cells, weights=w, minlength=math.prod(shape)).reshape(shape),
                         self.residual_corners) for w in weights]

    def elapsed(self, cells, sizes) -> np.ndarray:
        """Qe(t, y) = #{t - y < tau <= t, end > t} per replication, shape
        (R, T, Y), for customers in elapsed ``cells`` as in :meth:`residual`."""
        shape = (len(sizes), *self.elapsed_shape)
        hist = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
        upper, lower = _corners(hist, self.elapsed_corners).swapaxes(0, 1)
        return upper - lower


@functools.lru_cache(maxsize=16)
def _layout_of(t: bytes, y: bytes) -> _Layout:
    return _Layout(np.frombuffer(t), np.frombuffer(y))


def _layout(grid: Grid) -> _Layout:
    """The grid's layout, made once per grid."""
    return _layout_of(grid.t.tobytes(), grid.y.tobytes())


def eval_fields(trace: SimulationTrace, grid: Grid, names=FIELDS) -> dict[str, np.ndarray]:
    """The named fields of a trace on a grid, in the order named, as float
    arrays with a leading replication axis: the counts Qr, Qe, the
    remaining work Wr and the all-customer count QTr = Qr + Qir(t + y), of
    shape (R, T, Y); the count Qt, departures D, total workload Wt, input I
    and completed work C, of shape (R, T); and the initial customers'
    residual count Qir(y), of shape (R, Y).  It builds only the histograms
    that these fields read (see the module docstring); an unknown name
    raises KeyError.
    """
    wanted = set(names)
    _check_grid(trace, grid)
    layout = _layout(grid)
    weights = [w for w, fields in _WEIGHTS.items() if wanted & fields]
    sums, out = {}, {}
    if weights or "Qe" in wanted:
        sizes = trace.bounds[1:] - trace.bounds[:-1]
        cells, elapsed = layout.cells(trace.arrivals, trace.services, sizes, "Qe" in wanted)
        if elapsed is not None:                 # Qe first, so its cells go
            out["Qe"] = layout.elapsed(elapsed, sizes).astype(float)
            del elapsed
        # each weight is made in its turn: the ends are added again here
        # rather than held through the binning
        weight = {"count": lambda: None, "ends": lambda: trace.arrivals + trace.services,
                  "services": lambda: trace.services}
        sums = dict(zip(weights, layout.residual(cells, sizes, (weight[w]() for w in weights))))
    if "count" in sums:
        counts = sums["count"].astype(float)
        qt = counts[:, :, 1]
        out["Qr"] = counts[:, :, 2:]
        out["Qt"] = qt
        out["D"] = counts[:, :, 0] - qt
    if "ends" in sums:
        work = sums["ends"][:, :, 1:] - layout.shifts * sums["count"][:, :, 1:]
        out["Wr"] = work[:, :, 1:]
        out["Wt"] = work[:, :, 0]
    if "services" in sums:
        out["I"] = sums["services"][:, :, 0]
        if "C" in wanted:
            out["C"] = out["I"] - out["Wt"]
    if wanted & {"Qir", "QTr"}:
        at_zero, resid = np.zeros(len(trace.initial_residuals)), trace.initial_residuals
    if "Qir" in wanted:
        initial = _layout(Grid([0.0], grid.y))
        cells, _ = initial.cells(at_zero, resid, trace.initial_counts, False)
        (qir,) = initial.residual(cells, trace.initial_counts, [None])
        out["Qir"] = qir[:, 0, 2:].astype(float)
    if "QTr" in wanted:
        cells, _ = layout.cells(at_zero, resid, trace.initial_counts, False)
        (qtr,) = layout.residual(cells, trace.initial_counts, [None])
        qtr += sums["count"]
        out["QTr"] = qtr[:, :, 2:].astype(float)
    return {name: out[name] for name in names}


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Audit dump: one row (replication, i, tau, eta) per customer, with
    replications counted from 0 and customers from 1 within each."""
    rep = np.repeat(np.arange(trace.replications), np.diff(trace.bounds))
    i = np.arange(1, len(rep) + 1) - trace.bounds[rep]
    write_csv(path, ("replication", "i", "tau", "eta"),
              zip(rep.tolist(), i.tolist(), trace.arrivals, trace.services))
