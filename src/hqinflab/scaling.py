"""LLN/CLT scalings, sequential empirical processes, arrival splitting, and
the two-term decomposition of the normalized residual-count field.

The CLT-scaled field hat(Qr)_n = sqrt(n) (Qr_n / n - qr) splits exactly into

  hat(X)_{n,2}(t,y) = n^{-1/2} sum_{tau_i <= t} [ 1(tau_i + eta_i > t+y)
                                                  - F^c(t+y - tau_i) ]
  hat(X)_{n,1}      = hat(Qr)_n - hat(X)_{n,2},

the first carrying the service-sampling noise, the second the arrival noise;
the sum telescopes customer-wise, so additivity holds to float roundoff on
every trace.  Like the field evaluators, the split takes a single trace or a
block, whose terms get a leading replication axis; each replication's sums
run over its own customers alone.  hat(X)_{n,1} also equals the
integration-by-parts form F^c(y) hat(A)_n(t) - int hat(A)_n(s-) dF(t+y-s),
exposed here for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, TimeField, TwoParamField
from .quadrature import integrate
from .service import MixtureDecomposition, ServiceModel
from .simulate import SimulationTrace

__all__ = [
    "ScaledField",
    "EmpiricalProcessField",
    "lln_scale",
    "clt_scale",
    "clt_scale_arrivals",
    "sequential_empirical",
    "composed_empirical",
    "split_arrivals",
    "decompose_hatQr",
    "x1_integration_by_parts",
]


@dataclass(frozen=True)
class ScaledField:
    base: TwoParamField
    n: int
    scaling: str                      # "lln" | "clt"
    values: np.ndarray
    centering: TwoParamField | None = None


@dataclass(frozen=True)
class EmpiricalProcessField:
    """K-bar (LLN-scaled sequential empirical c.d.f.) and its centered
    CLT-scaled companion on a (t, x) grid."""
    grid: Grid
    kbar: np.ndarray
    khat: np.ndarray


def lln_scale(field: TwoParamField, n: int) -> ScaledField:
    return ScaledField(base=field, n=n, scaling="lln", values=field.values / n)


def clt_scale(field: TwoParamField, n: int, centering: TwoParamField) -> ScaledField:
    if not field.grid.same_as(centering.grid):
        raise ValueError("centering surface lives on a different grid")
    vals = math.sqrt(n) * (field.values / n - centering.values)
    return ScaledField(base=field, n=n, scaling="clt", values=vals, centering=centering)


def clt_scale_arrivals(trace: SimulationTrace, t_points: np.ndarray, abar) -> np.ndarray:
    """hat(A)_n(t) = (A_n(t) - n abar(t)) / sqrt(n) on the given times."""
    t_points = np.asarray(t_points, dtype=float)
    counts = trace.count_arrivals(t_points)
    return (counts - trace.n * np.asarray(abar(t_points), dtype=float)) / math.sqrt(trace.n)


def sequential_empirical(services: np.ndarray, n: int, grid: Grid,
                         service_model: ServiceModel) -> EmpiricalProcessField:
    """K-bar_n(t,x) = n^{-1} sum_{i <= floor(nt)} 1(eta_i <= x) and
    K-hat_n = sqrt(n) (K-bar_n - (floor(nt)/n) F(x)).

    The centering uses the exact mean floor(nt)/n * F(x), not t F(x).
    """
    services = np.asarray(services, dtype=float)
    t_grid, x_grid = grid.t, grid.y
    need = int(math.floor(n * t_grid[-1]))
    if len(services) < need:
        raise ValueError(f"need at least {need} service samples for t up to {t_grid[-1]}, "
                         f"got {len(services)}")
    fx = np.asarray(service_model.cdf(x_grid), dtype=float)
    kbar = np.zeros(grid.shape)
    khat = np.zeros(grid.shape)
    for i, t in enumerate(t_grid):
        m = int(math.floor(n * t))
        if m > 0:
            prefix = np.sort(services[:m])
            counts = np.searchsorted(prefix, x_grid, side="right")
            kbar[i] = counts / n
        khat[i] = math.sqrt(n) * (kbar[i] - (m / n) * fx)
    return EmpiricalProcessField(grid=grid, kbar=kbar, khat=khat)


def composed_empirical(trace: SimulationTrace, grid: Grid) -> TwoParamField:
    """R-hat_n(t,x) = n^{-1/2} sum_{i <= A_n(t)} (1(eta_i <= x) - F(x)):
    the sequential empirical process run through the arrival clock."""
    fx = np.asarray(trace.service_model.cdf(grid.y), dtype=float)
    a_t = trace.count_arrivals(grid.t)
    out = np.zeros(grid.shape)
    for i, k in enumerate(a_t):
        if k == 0:
            continue
        prefix = np.sort(trace.services[:k])
        counts = np.searchsorted(prefix, grid.y, side="right")
        out[i] = (counts - k * fx) / math.sqrt(trace.n)
    return TwoParamField(grid, out, "Rhat")


def split_arrivals(trace: SimulationTrace, decomposition: MixtureDecomposition,
                   t_points: np.ndarray) -> dict[str, TimeField | list[TimeField]]:
    """Split the arrival counting path by the service-time component of each
    customer: continuous part vs each atom.

    Labels are read off the realized service values (a value equal to an atom
    location belongs to that atom; anything else is continuous, which is
    almost surely correct since the continuous part has no atoms).
    """
    t_points = np.asarray(t_points, dtype=float)
    svc = trace.services
    atom_locs = np.asarray([loc for loc, _ in decomposition.atoms])
    is_atom = np.zeros(len(svc), dtype=bool)
    atom_idx = np.full(len(svc), -1)
    for j, loc in enumerate(atom_locs):
        hit = svc == loc
        is_atom |= hit
        atom_idx[hit] = j
    if decomposition.p_c == 0.0 and not np.all(is_atom):
        bad = svc[~is_atom][:3]
        raise ValueError(f"service values {bad} match no atom of a purely atomic law")
    order = np.searchsorted(trace.arrivals, t_points, side="right")
    cum_cont = np.concatenate(([0], np.cumsum(~is_atom)))
    a_c = cum_cont[order].astype(float)
    a_total = order.astype(float)
    per_atom = []
    for j in range(len(atom_locs)):
        cum_j = np.concatenate(([0], np.cumsum(atom_idx == j)))
        per_atom.append(TimeField(t_points, cum_j[order].astype(float), f"Ad{j + 1}"))
    a_d = a_total - a_c
    return {
        "Ac": TimeField(t_points, a_c, "Ac"),
        "Ad": TimeField(t_points, a_d, "Ad"),
        "Adi": per_atom,
    }


def _require_continuous(model: ServiceModel) -> None:
    if model.decompose().p_d > 0.0:
        raise ValueError(
            "decomposition refused: the service c.d.f. has atoms, and the "
            "service-noise component is then not a right-continuous function "
            "of the second argument (it concentrates on the atom lines); "
            "split the law into continuous and atomic parts instead")


def decompose_hatQr(trace: SimulationTrace, grid: Grid,
                    fluid_centering: TwoParamField) -> tuple[TwoParamField, TwoParamField]:
    """Split hat(Qr)_n into the arrival-noise term X1 and the
    service-sampling term X2 (continuous service c.d.f. only), per
    replication of a block."""
    _require_continuous(trace.service_model)
    if not grid.same_as(fluid_centering.grid):
        raise ValueError("centering surface lives on a different grid")
    tau = trace.arrivals
    ends = tau + trace.services
    sqrt_n = math.sqrt(trace.n)
    x2 = np.zeros((trace.replications, *grid.shape))
    sum_sf = np.zeros(x2.shape)
    for i, t in enumerate(grid.t):
        # replication r's arrivals by t are came[starts[r]:starts[r + 1]];
        # reduceat would give an empty one the next one's first value
        came = np.flatnonzero(tau <= t)
        starts = np.searchsorted(came, trace.offsets)
        live = np.flatnonzero(np.diff(starts))
        if len(live) == 0:
            continue
        shift = t + grid.y[:, None]
        sf_vals = np.asarray(trace.service_model.cdf(shift - tau[came]), dtype=float)
        # 1 - F in place: a third (Y, k) array per t took a cold mc_large_n
        # run from 40k to 72k page faults
        np.subtract(1.0, sf_vals, out=sf_vals)
        sf = np.add.reduceat(sf_vals, starts[live], axis=1)
        count = np.add.reduceat(ends[came] > shift, starts[live], axis=1, dtype=np.intp)
        x2[live, i] = ((count - sf) / sqrt_n).T
        sum_sf[live, i] = (sf / sqrt_n).T
    shape = trace.batch_shape + grid.shape
    x1 = (sum_sf - sqrt_n * fluid_centering.values).reshape(shape)
    return (TwoParamField(grid, x1, "X1n"), TwoParamField(grid, x2.reshape(shape), "X2n"))


def x1_integration_by_parts(trace: SimulationTrace, grid: Grid, abar, rate) -> np.ndarray:
    """Independent evaluation of the arrival-noise term:
    F^c(y) hat(A)_n(t) - int_0^t hat(A)_n(s-) dF(t+y-s), with the Stieltjes
    integral taken exactly over the arrival step function and by quadrature
    against the drift n*abar.
    """
    _require_continuous(trace.service_model)
    model = trace.service_model
    tau = trace.arrivals
    sqrt_n = math.sqrt(trace.n)
    a_t = trace.count_arrivals(grid.t)
    fy = np.asarray(model.cdf(grid.y), dtype=float)
    # step-function part of int A_n(s-) dF(t+y-s): exact sum, one row per t
    step = np.array([np.sum(np.asarray(model.cdf(t + grid.y[:, None] - tau[None, :k]),
                                       dtype=float) - fy[:, None], axis=1)
                     for t, k in zip(grid.t, a_t)])
    # drift part int abar(s) dF(t+y-s) reduces by parts to
    # abar(t) F^c(y) - int_0^t F^c(t+y-s) dabar(s), one quadrature per point
    t = grid.t[:, None]
    u = (t + grid.y)[..., None]
    qr_quad = integrate(lambda s: model.sf(u - s) * rate(s), 0.0, t,
                        breakpoints=u - np.asarray(model.breakpoints(), dtype=float))
    abar_t = np.asarray(abar(t), dtype=float)
    ahat_t = (a_t[:, None] - trace.n * abar_t) / sqrt_n
    drift = abar_t * (1.0 - fy) - qr_quad
    return (1.0 - fy) * ahat_t - (step / sqrt_n - sqrt_n * drift)
