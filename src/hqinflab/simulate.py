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
that stores its replications one after another; a single trace is a block
of one, whose fields carry no replication axis.  Ties are broken and the
trace is checked once per block.

The evaluators bin every customer once.  With a sorted threshold set c and
bin(x) = #{c_k < x} (``searchsorted(c, x, side="left")``), x <= c_m holds
exactly when bin(x) <= m, and x > c_m exactly when bin(x) > m.  So one
histogram of customers over (replication, tau-bin, end-bin) cells, with
tau-bins over the grid times and end-bins over the values t + y, gives every
Qr(t, y) as a sum over a corner of cells; another, with tau-bins over the
values t and t - y and end-bins over the grid times, gives every Qe(t, y).
Cumulative sums over the bins read all grid points off at once, and the same
histogram weighted by the ends gives Wr(t, y) = sum(end) - (t + y) * Qr(t, y).
Each customer is binned once per trace and grid, whichever fields are asked
for; the thresholds and the cell layout are set up once per grid; and the
cells of a block are kept within the block budget, down to one replication.

Boundary conventions are exact: the residual comparison is strict and the
elapsed window is open on the left, which makes the counting identities
  Qt(t) = Qr(t,0) = Qe(t,t),     Qe(t,y) = Qt(t) - Qr(t-y, y)
hold with equality on every trace (not just in distribution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalModel, _strictify
from .fields import Grid, TimeField, TwoParamField, write_csv
from .rng import reseat
from .service import ServiceModel

__all__ = [
    "CountLaw",
    "InitialConditions",
    "SimulationTrace",
    "simulate",
    "block_size",
    "eval_queue_fields",
    "eval_workload_fields",
    "eval_empirical_distributions",
    "eval_initial_fields",
    "export_trace_csv",
]

# Customers, and histogram cells, that one block of replications aims to hold.
_BLOCK_BUDGET = 2**14
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
    """One realization of the n-th system, or a block of independent ones.

    A block stores its replications one after another: replication r owns
    customers bounds[r]:bounds[r + 1] of ``arrivals`` and ``services``, and
    the next initial_count[r] of ``initial_residuals``.  A single trace has
    ``bounds`` None and a scalar ``initial_count``.
    """
    n: int
    arrivals: np.ndarray           # epochs tau_i, strictly increasing per replication
    services: np.ndarray           # eta_i aligned with arrivals
    horizon: float
    service_model: ServiceModel
    initial_count: int | np.ndarray = 0
    initial_residuals: np.ndarray = None
    bounds: np.ndarray | None = None
    # the customers' bins per grid, made by the first evaluator that needs them
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        svc = np.asarray(self.services, dtype=float)
        if arr.ndim != 1 or svc.shape != arr.shape:
            raise ValueError("arrivals and services must be aligned 1-D arrays")
        if self.bounds is not None:
            bounds = np.asarray(self.bounds, dtype=np.intp)
            if (bounds.ndim != 1 or len(bounds) < 2 or bounds[0] != 0
                    or bounds[-1] != len(arr) or np.any(np.diff(bounds) < 0)):
                raise ValueError("replication bounds must rise from 0 to the customer count")
            object.__setattr__(self, "bounds", bounds)
        rising = np.diff(arr) > 0
        firsts = self.offsets[1:-1]          # a drop onto these epochs is no fault
        rising[firsts[(firsts > 0) & (firsts < len(arr))] - 1] = True
        if not rising.all() or np.any(arr < 0):
            raise ValueError("arrival epochs must be nonnegative and strictly increasing")
        if np.any(svc < 0):
            raise ValueError("service times must be nonnegative")
        resid = self.initial_residuals
        resid = np.asarray([] if resid is None else resid, dtype=float)
        counts = self.initial_counts
        if (counts.shape != (self.replications,) or counts.sum() != len(resid)
                or np.any(counts < 0)):
            raise ValueError("initial residual count mismatch")
        if np.any(resid <= 0):
            raise ValueError("initial residuals must be positive")
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "services", svc)
        object.__setattr__(self, "initial_residuals", resid)

    @property
    def offsets(self) -> np.ndarray:
        """Customer offsets of the replications: ``bounds``, or [0, N]."""
        return np.array([0, len(self.arrivals)]) if self.bounds is None else self.bounds

    @property
    def replications(self) -> int:
        return len(self.offsets) - 1

    @property
    def batch_shape(self) -> tuple:
        """Leading shape of every evaluated field: () or (replications,)."""
        return () if self.bounds is None else (self.replications,)

    @property
    def initial_counts(self) -> np.ndarray:
        """Initial customers per replication, shape (replications,)."""
        counts = np.asarray(self.initial_count, dtype=np.intp)
        return np.full(self.replications, counts) if counts.ndim == 0 else counts

    def count_arrivals(self, t) -> np.ndarray:
        """A_n(t) = #{i : tau_i <= t}, on a single trace."""
        if self.bounds is not None:
            raise ValueError("count_arrivals needs a single trace, not a block")
        return np.searchsorted(self.arrivals, np.asarray(t, dtype=float), side="right")


def simulate(arrival: ArrivalModel, service: ServiceModel,
             n: int, horizon: float, rng,
             init: InitialConditions | None = None) -> SimulationTrace:
    """Draw one realization of the n-th system, or a block of them.

    ``rng`` is one Generator, whose first three spawned children drive the
    arrivals, the services and the initial state of a single trace; or the
    seed words of a block (see :mod:`rng`), shape (R, k, 4): per replication
    those of its arrival, service[ and initial-state] streams, the third
    needed only with ``init``.  Services are i.i.d. from the service law,
    independent of the arrival process; the initial state is independent of
    both.
    """
    single = isinstance(rng, np.random.Generator)
    words = (np.array([[child.generate_state(4, np.uint64)
                        for child in rng.bit_generator.seed_seq.spawn(3)]])
             if single else np.asarray(rng, dtype=np.uint64))
    gen = np.random.Generator(np.random.PCG64())    # re-seated for every stream
    words = words.tolist()
    epochs = arrival.draw_block_epochs(n, horizon, [w[0] for w in words], gen)
    bounds = np.zeros(len(epochs) + 1, dtype=np.intp)
    np.cumsum([len(tau) for tau in epochs], out=bounds[1:])
    services = np.empty(bounds[-1])
    counts, residuals = np.zeros(len(epochs), dtype=np.intp), []
    for r, (w, lo, hi) in enumerate(zip(words, bounds.tolist(), bounds[1:].tolist())):
        services[lo:hi] = service.sample(reseat(gen, w[1]), size=hi - lo)
        if init is not None:
            counts[r] = init.count.draw(n, reseat(gen, w[2]))
            residuals.append(np.asarray(init.residual.sample(gen, size=counts[r]), dtype=float))
    return SimulationTrace(
        n=n, arrivals=_strictify(np.concatenate(epochs), bounds),
        services=services, horizon=horizon, service_model=service,
        initial_count=int(counts[0]) if single else counts,
        initial_residuals=np.concatenate(residuals) if residuals else None,
        bounds=None if single else bounds)


def block_size(arrival: ArrivalModel, n: int, horizon: float, grid: Grid,
               init: InitialConditions | None = None) -> int:
    """Replications per block: as many as keep a block's expected customers
    and its histogram cells within the block budget, and at least one.

    A replication's residual and elapsed histograms each have at most
    (T + 1) x (T (Y + 1) + 1) cells.
    """
    T, Y = grid.shape
    cells = 2 * (T + 1) * (T * (Y + 1) + 1)
    customers = n * float(arrival.cumulative_rate(horizon))
    if init is not None:
        customers += n * init.count.level
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
    return np.repeat(np.arange(trace.replications), np.diff(trace.offsets))


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


def _trace_bins(trace: SimulationTrace, grid: Grid) -> tuple[_Layout, tuple]:
    """The grid's layout and the bins of the trace's customers on it, made
    once per trace and grid."""
    key = (grid.t.tobytes(), grid.y.tobytes())
    layout = _layout_of(*key)
    if key not in trace._bins:
        trace._bins[key] = layout.bin(trace.arrivals, trace.arrivals + trace.services)
    return layout, trace._bins[key]


def eval_queue_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Qr, Qe (two-parameter), Qt and departures D (time-only)."""
    _check_grid(trace, grid)
    (layout, bins), rep = _trace_bins(trace, grid), _replication_index(trace)
    R, shape = trace.replications, trace.batch_shape
    (counts,) = layout.residual(bins, rep, R, None)
    counts = counts.astype(float)
    qt = counts[:, :, 1]
    return {
        "Qr": TwoParamField(grid, counts[:, :, 2:].reshape(shape + grid.shape), "Qr"),
        "Qe": TwoParamField(grid, layout.elapsed(bins, rep, R).astype(float).reshape(shape + grid.shape), "Qe"),
        "Qt": TimeField(grid.t, qt.reshape(shape + grid.t.shape), "Qt"),
        "D": TimeField(grid.t, (counts[:, :, 0] - qt).reshape(shape + grid.t.shape), "D"),
    }


def eval_workload_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Remaining work Wr(t,y), input I, total workload Wt, completed work C."""
    _check_grid(trace, grid)
    layout, bins = _trace_bins(trace, grid)
    counts, end_sums, input_work = layout.residual(
        bins, _replication_index(trace), trace.replications,
        None, trace.arrivals + trace.services, trace.services)
    work = end_sums[:, :, 1:] - layout.shifts * counts[:, :, 1:]
    shape = trace.batch_shape
    wt = work[:, :, 0].reshape(shape + grid.t.shape)
    input_work = input_work[:, :, 0].reshape(shape + grid.t.shape)
    return {
        "Wr": TwoParamField(grid, work[:, :, 1:].reshape(shape + grid.shape), "Wr"),
        "I": TimeField(grid.t, input_work, "I"),
        "Wt": TimeField(grid.t, wt, "Wt"),
        "C": TimeField(grid.t, input_work - wt, "C"),
    }


def eval_empirical_distributions(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField]:
    """Empirical age c.d.f. Fe(t,y) and residual complement Frc(t,y),
    both 0 by convention when the system is empty."""
    q = eval_queue_fields(trace, grid)
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
    R, shape = trace.replications, trace.batch_shape
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
        "Qir": TimeField(grid.y, qir[:, 0, 2:].astype(float).reshape(shape + grid.y.shape), "Qir"),
        "QTr": TwoParamField(grid, qtr[:, :, 2:].astype(float).reshape(shape + grid.shape), "QTr"),
    }


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Audit dump: one row (i, tau, eta) per customer."""
    write_csv(path, ("i", "tau", "eta"),
              zip(range(1, len(trace.arrivals) + 1), trace.arrivals, trace.services))
