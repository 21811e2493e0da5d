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
one generator is re-seated on each stream in turn, the first batches of
interarrivals of all replications are drawn into one array
(:meth:`ArrivalModel.draw_block_epochs`), and each replication draws exactly
what it would draw on its own.  The block is one :class:`SimulationTrace`
that stores its replications one after another, and every field evaluated
on it has a leading replication axis.  Ties are broken and the trace is
checked once per block.

:func:`eval_fields` evaluates the fields that it is asked for in one pass.
With a sorted threshold set c and bin(x) = #{c_k < x}
(``searchsorted(c, x, side="left")``), x <= c_m holds exactly when
bin(x) <= m, and x > c_m exactly when bin(x) > m.  So one histogram of
customers over (replication, tau-bin, end-bin) cells, with tau-bins over the
grid times and end-bins over the values t + y, gives every Qr(t, y) as a sum
over a corner of cells; another, with tau-bins over the values t and t - y
and end-bins over the grid times, gives every Qe(t, y).  Cumulative sums over
the bins read all grid points off at once, and the same residual histogram
weighted by the ends gives Wr(t, y) = sum(end) - (t + y) * Qr(t, y).

One call bins each customer once and builds the residual histogram once per
weight that its fields read: the count for Qr, Qt and D; the ends as well
for Wr and Wt; the services as well for I and C (C = I - Wt).  It builds the
elapsed histogram only when Qe is named.  Bins are not kept between calls, so
a caller names every field it needs of a trace and grid in one call.  The
thresholds and the cell layout are set up once per grid, and the cells of a
block are kept within the block budget, down to one replication.

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
from .fields import Grid, TimeField, TwoParamField, write_csv
from .rng import seated
from .service import ServiceModel

__all__ = [
    "CountLaw",
    "InitialConditions",
    "SimulationTrace",
    "simulate",
    "block_size",
    "FIELDS",
    "eval_fields",
    "eval_empirical_distributions",
    "eval_initial_fields",
    "export_trace_csv",
]

# Customers, and histogram cells, that one block of replications aims to hold.
_BLOCK_BUDGET = 2**14
# The fields that eval_fields evaluates.
FIELDS = ("Qr", "Qe", "Qt", "D", "Wr", "Wt", "I", "C")


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
                or bounds[-1] != len(arr) or np.any(np.diff(bounds) < 0)):
            raise ValueError("replication bounds must rise from 0 to the customer count")
        rising = np.diff(arr) > 0
        firsts = bounds[1:-1]                # a drop onto these epochs is no fault
        rising[firsts[(firsts > 0) & (firsts < len(arr))] - 1] = True
        if not rising.all() or np.any(arr < 0):
            raise ValueError("arrival epochs must be nonnegative and strictly increasing")
        if np.any(svc < 0):
            raise ValueError("service times must be nonnegative")
        resid = self.initial_residuals
        resid = np.asarray([] if resid is None else resid, dtype=float)
        counts = self.initial_counts
        counts = np.asarray(np.zeros(len(bounds) - 1) if counts is None else counts, dtype=np.intp)
        if (counts.shape != (len(bounds) - 1,) or counts.sum() != len(resid)
                or np.any(counts < 0)):
            raise ValueError("initial residual count mismatch")
        if np.any(resid <= 0):
            raise ValueError("initial residuals must be positive")
        for name, value in (("arrivals", arr), ("services", svc), ("bounds", bounds),
                            ("initial_counts", counts), ("initial_residuals", resid)):
            object.__setattr__(self, name, value)

    @property
    def replications(self) -> int:
        return len(self.bounds) - 1

    def count_arrivals(self, t) -> np.ndarray:
        """A_n(t) = #{i : tau_i <= t} per replication, shape (R, len(t))."""
        came = np.cumsum(self.arrivals[:, None] <= np.asarray(t, dtype=float), axis=0)
        came = np.concatenate((np.zeros((1, came.shape[1]), came.dtype), came))
        return came[self.bounds[1:]] - came[self.bounds[:-1]]


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
    services = np.empty(bounds[-1])
    counts, residuals = np.zeros(len(epochs), dtype=np.intp), []
    for r, (w, lo, hi) in enumerate(zip(words, bounds.tolist(), bounds[1:].tolist())):
        services[lo:hi] = service.sample(seated(w[1]), size=hi - lo)
        if init is not None:
            gen = seated(w[2])
            counts[r] = init.count.draw(n, gen)
            residuals.append(np.asarray(init.residual.sample(gen, size=counts[r]), dtype=float))
    return SimulationTrace(
        n=n, arrivals=_strictify(np.concatenate(epochs), bounds),
        services=services, horizon=horizon, service_model=service,
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


def _corners(hist: np.ndarray, *pairs) -> list[np.ndarray]:
    """For each (rows, cols) pair: hist[r, a, e] summed over a <= row and
    e > col, per replication r and (row, col); col may be -1.  The results
    are C-ordered, so that a mean over replications sums in one order
    whatever the block size."""
    table = np.cumsum(hist, axis=1, out=hist)
    table = np.cumsum(table[:, :, ::-1], axis=2)[:, :, ::-1]
    return [np.ascontiguousarray(table[:, rows, cols + 1]) for rows, cols in pairs]


def _bin(thresholds: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{c in thresholds : c < x} for each x, as ``searchsorted(thresholds,
    x, side="left")`` gives it, by a branchless binary search: each round
    compares every x with one threshold.  On unsorted x, where the branches
    of ``searchsorted`` mispredict, this is 2-3x faster: binning the ends
    with it cut the ``mc_small_n`` perfbench workload from 1.59 to 1.43 s
    (10 of 10 alternating pairs, 2-vCPU x86-64 VM)."""
    width = 1 << len(thresholds).bit_length()         # a power of 2 > len
    padded = np.full(width, np.inf)
    padded[:len(thresholds)] = thresholds
    out = np.zeros(len(x), dtype=np.intp)
    step = width >> 1
    while step:
        out += step * (x > padded[step - 1:].take(out))
        step >>= 1
    return out


def _sorted_set(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (``np.unique`` imports ``numpy.ma`` on
    first use, 11 ms)."""
    c = np.sort(values.ravel())
    return c[np.concatenate(([True], c[1:] != c[:-1]))]


def _replication_index(trace: SimulationTrace) -> np.ndarray:
    """The replication of every customer."""
    return np.repeat(np.arange(trace.replications), np.diff(trace.bounds))


class _Layout:
    """Where each field of one grid sits in the histograms of its customers.

    tau is binned over the sorted values t and t - y, end over the sorted
    values t + y (y = 0 included).  Both sets hold the grid times, so a bin
    over the grid times alone follows from either by table lookup.  The
    layout depends on the grid only and is made once per grid.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        T = len(t)
        self.shifts = t[:, None] + np.concatenate(([0.0], y))       # t + y
        starts = t[:, None] - y                                     # t - y
        self.c_end = _sorted_set(self.shifts)
        self.c_tau = _sorted_set(np.concatenate((t, starts.ravel())))
        # a value's bin over the grid times: the grid times among the
        # thresholds of the set below it
        self.t_of_tau = np.concatenate(([0], np.cumsum(np.isin(self.c_tau, t))))
        self.t_of_end = np.concatenate(([0], np.cumsum(np.isin(self.c_end, t))))
        self.times = np.arange(T)[:, None]
        self.residual_shape = (T + 1, len(self.c_end) + 1)
        self.elapsed_shape = (len(self.c_tau) + 1, T + 1)
        # residual columns: tau <= t alone, then every t + y
        self.residual_cols = np.concatenate(
            (np.full((T, 1), -1), np.searchsorted(self.c_end, self.shifts)), axis=1)
        self.elapsed_rows = (np.searchsorted(self.c_tau, t)[:, None],
                             np.searchsorted(self.c_tau, starts))

    def bin(self, tau, end) -> tuple[np.ndarray, np.ndarray]:
        """Every customer's tau-bin and end-bin, as int32 (half the memory).
        Epochs rise within a replication, which ``searchsorted`` is fast on;
        ends do not."""
        return (np.searchsorted(self.c_tau, tau, side="left").astype(np.int32),
                _bin(self.c_end, end).astype(np.int32))

    def residual(self, bins, rep, reps: int, *weights) -> list[np.ndarray]:
        """Sums over {tau <= t, end > t + y} per replication (``rep`` gives
        each customer's): the customer count for a weight of None, else the
        weight's sum.

        Each result has shape (reps, T, Y + 2): column 0 sums over tau <= t
        alone, column 1 is y = 0, and the rest follow grid.y.
        """
        tau, end = bins
        shape = (reps, *self.residual_shape)
        cells = (rep * shape[1] + self.t_of_tau.take(tau)) * shape[2] + end
        return [_corners(np.bincount(cells, weights=w, minlength=np.prod(shape)).reshape(shape),
                         (self.times, self.residual_cols))[0] for w in weights]

    def elapsed(self, bins, rep, reps: int) -> np.ndarray:
        """Qe(t, y) = #{t - y < tau <= t, end > t} per replication, shape
        (reps, T, Y)."""
        tau, end = bins
        shape = (reps, *self.elapsed_shape)
        cells = (rep * shape[1] + tau) * shape[2] + self.t_of_end.take(end)
        hist = np.bincount(cells, minlength=np.prod(shape)).reshape(shape)
        upper, lower = self.elapsed_rows
        upper, lower = _corners(hist, (upper, self.times), (lower, self.times))
        return upper - lower


@functools.lru_cache(maxsize=16)
def _layout_of(t: bytes, y: bytes) -> _Layout:
    return _Layout(np.frombuffer(t), np.frombuffer(y))


def _layout(grid: Grid) -> _Layout:
    """The grid's layout, made once per grid."""
    return _layout_of(grid.t.tobytes(), grid.y.tobytes())


def eval_fields(trace: SimulationTrace, grid: Grid,
                names=FIELDS) -> dict[str, TwoParamField | TimeField]:
    """The named fields of a trace on a grid, in the order named: the counts
    Qr, Qe (two-parameter), Qt and departures D (time-only); the remaining
    work Wr (two-parameter), total workload Wt, input I and completed work C
    (time-only).  It builds only the histograms that these fields read (see
    the module docstring); an unknown name raises KeyError.
    """
    wanted = set(names)
    _check_grid(trace, grid)
    layout, ends = _layout(grid), trace.arrivals + trace.services
    bins, rep, R = layout.bin(trace.arrivals, ends), _replication_index(trace), trace.replications
    weights = {}
    if wanted & {"Qr", "Qt", "D", "Wr", "Wt", "C"}:
        weights["count"] = None
    if wanted & {"Wr", "Wt", "C"}:
        weights["ends"] = ends
    if wanted & {"I", "C"}:
        weights["services"] = trace.services
    sums = dict(zip(weights, layout.residual(bins, rep, R, *weights.values())))
    out = {}
    if "count" in sums:
        counts = sums["count"].astype(float)
        qt = counts[:, :, 1]
        out["Qr"] = TwoParamField(grid, counts[:, :, 2:], "Qr")
        out["Qt"] = TimeField(grid.t, qt, "Qt")
        out["D"] = TimeField(grid.t, counts[:, :, 0] - qt, "D")
    if "Qe" in wanted:
        out["Qe"] = TwoParamField(grid, layout.elapsed(bins, rep, R).astype(float), "Qe")
    if "ends" in sums:
        work = sums["ends"][:, :, 1:] - layout.shifts * sums["count"][:, :, 1:]
        out["Wr"] = TwoParamField(grid, work[:, :, 1:], "Wr")
        out["Wt"] = TimeField(grid.t, work[:, :, 0], "Wt")
    if "services" in sums:
        out["I"] = TimeField(grid.t, sums["services"][:, :, 0], "I")
        if "C" in wanted:
            out["C"] = TimeField(grid.t, out["I"].values - out["Wt"].values, "C")
    return {name: out[name] for name in names}


def eval_empirical_distributions(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField]:
    """Empirical age c.d.f. Fe(t,y) and residual complement Frc(t,y),
    both 0 by convention when the system is empty."""
    q = eval_fields(trace, grid, ("Qr", "Qe", "Qt"))
    qt = q["Qt"].values[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        fe = np.where(qt > 0, q["Qe"].values / qt, 0.0)
        frc = np.where(qt > 0, q["Qr"].values / qt, 0.0)
    return {
        "Fe": TwoParamField(grid, fe, "Fe"),
        "Frc": TwoParamField(grid, frc, "Frc"),
    }


def eval_initial_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Initial-customer residual counts Qir(y) and the all-customer field
    QTr(t,y) = Qr(t,y) + Qir(t+y).

    An initial customer counts as one that arrived at time 0 and ends at its
    residual, so QTr is Qr of the joined population, and Qir(y) is Qr at
    t = 0 of the initial customers alone.
    """
    _check_grid(trace, grid)
    R = trace.replications
    rep0 = np.repeat(np.arange(R), trace.initial_counts)
    at_zero = np.zeros(len(rep0))
    resid = trace.initial_residuals
    initial = _layout(Grid([0.0], grid.y))
    (qir,) = initial.residual(initial.bin(at_zero, resid), rep0, R, None)
    joined = _layout(grid)
    (qtr,) = joined.residual(
        joined.bin(np.concatenate((trace.arrivals, at_zero)),
                   np.concatenate((trace.arrivals + trace.services, resid))),
        np.concatenate((_replication_index(trace), rep0)), R, None)
    return {
        "Qir": TimeField(grid.y, qir[:, 0, 2:].astype(float), "Qir"),
        "QTr": TwoParamField(grid, qtr[:, :, 2:].astype(float), "QTr"),
    }


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Audit dump: one row (replication, i, tau, eta) per customer, with
    replications counted from 0 and customers from 1 within each."""
    rep = _replication_index(trace)
    i = np.arange(1, len(rep) + 1) - trace.bounds[rep]
    write_csv(path, ("replication", "i", "tau", "eta"),
              zip(rep.tolist(), i.tolist(), trace.arrivals, trace.services))
