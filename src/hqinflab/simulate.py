"""Realize one G/GI/infinity system and evaluate its two-parameter fields.

With infinitely many servers customers never interact, so a realized system
is fully described by its arrival epochs, the service times aligned with
them, and the residual times of customers present at time zero.  Every field
is then a direct sum of per-customer indicators evaluated on a grid:

  Qr(t, y) = #{i : tau_i <= t, tau_i + eta_i > t + y}      (residual > y)
  Qe(t, y) = #{i : t - y < tau_i <= t, tau_i + eta_i > t}  (elapsed <= y)
  Wr(t, y) = sum_{tau_i <= t} (tau_i + eta_i - t - y)^+    (remaining work)

Boundary conventions are exact: the residual comparison is strict and the
elapsed window is open on the left, which makes the counting identities
  Qt(t) = Qr(t,0) = Qe(t,t),     Qe(t,y) = Qt(t) - Qr(t-y, y)
hold with equality on every trace (not just in distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel
from .fields import Grid, TimeField, TwoParamField, write_csv
from .service import ServiceModel

__all__ = [
    "CountLaw",
    "InitialConditions",
    "SimulationTrace",
    "simulate",
    "eval_queue_fields",
    "eval_workload_fields",
    "eval_empirical_distributions",
    "eval_initial_fields",
    "export_trace_csv",
]


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
    count: CountLaw
    residual: ServiceModel


@dataclass(frozen=True)
class SimulationTrace:
    n: int
    arrivals: np.ndarray           # strictly increasing epochs tau_i
    services: np.ndarray           # eta_i aligned with arrivals
    horizon: float
    service_model: ServiceModel
    initial_count: int = 0
    initial_residuals: np.ndarray = None

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        svc = np.asarray(self.services, dtype=float)
        if arr.ndim != 1 or svc.shape != arr.shape:
            raise ValueError("arrivals and services must be aligned 1-D arrays")
        if len(arr) and (np.any(np.diff(arr) <= 0) or arr[0] < 0):
            raise ValueError("arrival epochs must be nonnegative and strictly increasing")
        if np.any(svc < 0):
            raise ValueError("service times must be nonnegative")
        resid = self.initial_residuals
        resid = np.asarray([] if resid is None else resid, dtype=float)
        if len(resid) != self.initial_count:
            raise ValueError("initial residual count mismatch")
        if np.any(resid <= 0):
            raise ValueError("initial residuals must be positive")
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "services", svc)
        object.__setattr__(self, "initial_residuals", resid)

    def count_arrivals(self, t) -> np.ndarray:
        """A_n(t) = #{i : tau_i <= t}."""
        return np.searchsorted(self.arrivals, np.asarray(t, dtype=float), side="right")


def simulate(arrival: ArrivalModel, service: ServiceModel,
             n: int, horizon: float, rng: np.random.Generator,
             init: InitialConditions | None = None) -> SimulationTrace:
    """Draw one realization of the n-th system.

    Arrivals, services and the initial state come from independent
    substreams of ``rng`` (services i.i.d. from the service law, independent
    of the arrival process; initial state independent of both).
    """
    arr_rng, svc_rng, init_rng = rng.spawn(3)
    arrivals = arrival.generate(n, horizon, arr_rng)
    services = np.asarray(service.sample(svc_rng, size=len(arrivals)), dtype=float)
    count = 0
    residuals = None
    if init is not None:
        count = init.count.draw(n, init_rng)
        residuals = np.asarray(init.residual.sample(init_rng, size=count), dtype=float)
    return SimulationTrace(n=n, arrivals=arrivals, services=services,
                           horizon=horizon, service_model=service,
                           initial_count=count, initial_residuals=residuals)


def _check_grid(trace: SimulationTrace, grid: Grid) -> None:
    if grid.t[-1] > trace.horizon + 1e-12:
        raise ValueError(f"grid extends to t={grid.t[-1]} beyond trace horizon {trace.horizon}")


def eval_queue_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Qr, Qe (two-parameter), Qt and departures D (time-only)."""
    _check_grid(trace, grid)
    tau = trace.arrivals
    ends = trace.arrivals + trace.services
    T, Y = grid.shape
    qr = np.zeros((T, Y))
    qe = np.zeros((T, Y))
    a_t = trace.count_arrivals(grid.t)
    for i, t in enumerate(grid.t):
        k = a_t[i]
        if k == 0:
            continue
        prefix_ends = ends[:k]
        qr[i] = np.sum(prefix_ends[None, :] > t + grid.y[:, None], axis=1)
        # elapsed <= y  <=>  tau in (t-y, t]; cumulative survivor counts make
        # every y column an O(1) difference.  For y > t the window already
        # covers all arrivals, so Qe(t, y) = Qe(t, t) falls out for free.
        surv = np.concatenate(([0], np.cumsum(prefix_ends > t)))
        lo = np.searchsorted(tau[:k], t - grid.y, side="right")
        qe[i] = surv[k] - surv[lo]
    qt = qr[:, 0] if grid.y[0] == 0.0 else np.array(
        [np.sum(ends[:k] > t) for k, t in zip(a_t, grid.t)], dtype=float)
    return {
        "Qr": TwoParamField(grid, qr, "Qr"),
        "Qe": TwoParamField(grid, qe, "Qe"),
        "Qt": TimeField(grid.t, qt.astype(float), "Qt"),
        "D": TimeField(grid.t, a_t - qt.astype(float), "D"),
    }


def eval_workload_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Remaining work Wr(t,y), input I, total workload Wt, completed work C."""
    _check_grid(trace, grid)
    ends = trace.arrivals + trace.services
    T, Y = grid.shape
    wr = np.zeros((T, Y))
    a_t = trace.count_arrivals(grid.t)
    input_work = np.concatenate(([0.0], np.cumsum(trace.services)))[a_t]
    for i, t in enumerate(grid.t):
        k = a_t[i]
        if k == 0:
            continue
        wr[i] = np.sum(np.maximum(ends[:k][None, :] - (t + grid.y[:, None]), 0.0), axis=1)
    wt = wr[:, 0] if grid.y[0] == 0.0 else np.array(
        [np.sum(np.maximum(ends[:k] - t, 0.0)) for k, t in zip(a_t, grid.t)])
    return {
        "Wr": TwoParamField(grid, wr, "Wr"),
        "I": TimeField(grid.t, input_work, "I"),
        "Wt": TimeField(grid.t, wt, "Wt"),
        "C": TimeField(grid.t, input_work - wt, "C"),
    }


def eval_empirical_distributions(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField]:
    """Empirical age c.d.f. Fe(t,y) and residual complement Frc(t,y),
    both 0 by convention when the system is empty."""
    q = eval_queue_fields(trace, grid)
    qt = q["Qt"].values
    with np.errstate(invalid="ignore", divide="ignore"):
        fe = np.where(qt[:, None] > 0, q["Qe"].values / qt[:, None], 0.0)
        frc = np.where(qt[:, None] > 0, q["Qr"].values / qt[:, None], 0.0)
    return {
        "Fe": TwoParamField(grid, fe, "Fe"),
        "Frc": TwoParamField(grid, frc, "Frc"),
    }


def eval_initial_fields(trace: SimulationTrace, grid: Grid) -> dict[str, TwoParamField | TimeField]:
    """Initial-customer residual counts Qir(y) and the all-customer field
    QTr(t,y) = Qr(t,y) + Qir(t+y)."""
    resid = trace.initial_residuals
    qir_y = np.array([np.sum(resid > y) for y in grid.y], dtype=float)
    qr = eval_queue_fields(trace, grid)["Qr"].values
    shifted = np.sum(resid[None, None, :] > (grid.t[:, None] + grid.y[None, :])[..., None], axis=-1)
    return {
        "Qir": TimeField(grid.y, qir_y, "Qir"),
        "QTr": TwoParamField(grid, qr + shifted, "QTr"),
    }


def export_trace_csv(trace: SimulationTrace, path) -> None:
    """Audit dump: one row (i, tau, eta) per customer."""
    write_csv(path, ("i", "tau", "eta"),
              zip(range(1, len(trace.arrivals) + 1), trace.arrivals, trace.services))
