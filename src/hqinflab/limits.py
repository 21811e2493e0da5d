"""Deterministic fluid surfaces and Gaussian variance/covariance surfaces.

Everything here is a one-dimensional quadrature against the arrival measure
dabar(s) = rate(s) ds (or a closed form where the service law admits one):

  fluid residual count   qr(t,y)  = int_0^t F^c(t+y-s) dabar(s)
  fluid elapsed count    qe(t,y)  = int_{t-y}^t F^c(t-s) dabar(s)
  fluid remaining work   wr(t,y)  = int_0^t (m - int_0^{t+y-s} F^c) dabar(s)
  variance (Brownian-family arrival limit, variability c_a^2)
      var_qr(t,y) = (c_a^2 - 1) int_0^t F^c(t+y-s)^2 dabar(s) + qr(t,y)

plus the three-way variance split by noise source (arrival, service sampling,
multinomial splitting of arrivals across the atomic service components),
whose sum must reproduce var_qr exactly; the workload variance; the
mean-square increment of the service-noise component; and the
initial-condition/total-count limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel
from .fields import Grid
from .quadrature import integrate
from .service import MixtureDecomposition, ServiceModel
from .simulate import InitialConditions

__all__ = [
    "LimitInputs",
    "VarianceComponents",
    "fluid_qr",
    "fluid_qe",
    "fluid_workload",
    "fluid_workload_steady",
    "var_qr",
    "var_qe",
    "var_components",
    "var_workload",
    "cov_x2_increment",
    "initial_and_total_limits",
    "surface",
]

STEADY_HORIZON_MEANS = 40.0   # "t -> infinity" evaluated at 40 mean services


@dataclass(frozen=True)
class VarianceComponents:
    arrival: float      # carried by the arrival limit (Ito isometry)
    service: float      # service sampling noise (continuous part)
    splitting: float    # multinomial splitting across service components

    @property
    def total(self) -> float:
        return self.arrival + self.service + self.splitting


def _broadcast(*args):
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))


class LimitInputs:
    """Bundle of everything the limit formulas consume: the arrival model's
    cumulative rate abar, its rate and its variability c_a^2, the service
    law and its decomposition, and the initial conditions, if any."""

    def __init__(self, arrival: ArrivalModel, service: ServiceModel,
                 init: InitialConditions | None = None):
        self.abar = arrival.cumulative_rate
        self.rate = arrival.rate
        self.ca2 = float(arrival.ca2)
        self.service = service
        self.init = init
        self.decomposition: MixtureDecomposition = service.decompose()

    def int_abar(self, g, lo, hi, *shifts):
        """int_lo^hi g(u_1 - s, u_2 - s, ...) dabar(s) for the shifts u_k,
        elementwise over the broadcast of lo, hi and the shifts, with panel
        edges at every u_k minus a breakpoint of the service law."""
        lo, hi, *shifts = _broadcast(lo, hi, *shifts)
        shifts = [u[..., None] for u in shifts]
        law_cuts = np.asarray(self.service.breakpoints(), dtype=float)
        cuts = np.concatenate([u - law_cuts for u in shifts], axis=-1)
        return integrate(lambda s: g(*(u - s for u in shifts)) * self.rate(s),
                         lo, hi, breakpoints=cuts)

    def require_finite_mean(self, what: str) -> float:
        m = self.service.moments().mean
        if not math.isfinite(m):
            raise ValueError(f"{what} requires a finite service mean")
        return m


# -- fluid limits ------------------------------------------------------------
#
# Every function below takes t, y (and t2, y2) as numbers or as arrays that
# broadcast together, and returns a float for numbers, else an array.

def _nonneg(t, y):
    t, y = _broadcast(t, y)
    if np.any(t < 0) or np.any(y < 0):
        raise ValueError("t and y must be nonnegative")
    return t, y


def _elapsed_args(t, y, what: str):
    t, y = _nonneg(t, y)
    if np.any(y > t):
        bad = np.argmax(y > t)
        raise ValueError(f"{what} needs y <= t, got y={y.flat[bad]} > t={t.flat[bad]}")
    return t, y


def _value(x):
    return float(x) if np.ndim(x) == 0 else x


def fluid_qr(inputs: LimitInputs, t, y):
    """qr(t, y) = int_0^t F^c(t+y-s) dabar(s)."""
    t, y = _nonneg(t, y)
    return inputs.int_abar(inputs.service.sf, 0.0, t, t + y)


def fluid_qe(inputs: LimitInputs, t, y):
    """qe(t, y) = int_{t-y}^t F^c(t-s) dabar(s) for 0 <= y <= t."""
    t, y = _elapsed_args(t, y, "fluid_qe")
    return inputs.int_abar(inputs.service.sf, t - y, t, t)


def fluid_workload(inputs: LimitInputs, t, y):
    """w^r(t,y) = int_0^t (m - int_0^{t+y-s} F^c) dabar(s), the fluid
    remaining work beyond t + y of the arrivals by t; the inner integral is
    integrated_sf, exact per service kind."""
    mean = inputs.require_finite_mean("fluid workload")
    t, y = _nonneg(t, y)
    return inputs.int_abar(lambda v: mean - inputs.service.integrated_sf(v), 0.0, t, t + y)


def fluid_workload_steady(inputs: LimitInputs, lam: float) -> tuple[float, float]:
    """(quadrature value of w^t at a long horizon, analytic limit
    lam (c_s^2 + 1) / (2 mu^2)) for arrivals at the constant rate lam.
    Needs a finite second moment."""
    mom = inputs.service.moments()
    if not math.isfinite(mom.mean) or not math.isfinite(mom.second_moment):
        raise ValueError("steady-state workload requires a finite second moment")
    mu = 1.0 / mom.mean
    horizon = STEADY_HORIZON_MEANS / mu
    analytic = lam * (mom.scv + 1.0) / (2.0 * mu * mu)
    return fluid_workload(inputs, horizon, 0.0), analytic


# -- Gaussian variances -------------------------------------------------------

def var_qr(inputs: LimitInputs, t, y):
    """(c_a^2 - 1) int_0^t F^c(t+y-s)^2 dabar(s) + qr(t, y)."""
    t, y = _nonneg(t, y)
    return inputs.int_abar(_variance_integrand(inputs, _indicator(inputs)), 0.0, t, t + y)


def var_qe(inputs: LimitInputs, t, y):
    """(c_a^2 - 1) int_{t-y}^t F^c(t-s)^2 dabar(s) + qe(t, y) for y <= t."""
    t, y = _elapsed_args(t, y, "var_qe")
    return inputs.int_abar(_variance_integrand(inputs, _indicator(inputs)), t - y, t, t)


def _indicator(inputs: LimitInputs):
    """(E X, E X^2) = (F^c(v), F^c(v)) for X = 1(S > v), what an arrival
    adds to a count at shift v."""
    return lambda v: (inputs.service.sf(v),) * 2


def _variance_integrand(inputs: LimitInputs, moments):
    """E X^2 + (c_a^2 - 1) (E X)^2 at shift v, for moments(v) = (E X,
    E X^2) of what an arrival adds; exactly E X^2 when c_a^2 = 1."""
    extra = inputs.ca2 - 1.0

    def g(v):
        first, second = moments(v)
        return second + extra * first * first
    return g


def var_components(inputs: LimitInputs, t, y) -> VarianceComponents:
    """Variance of the residual-count limit split by noise source.

    arrival   = c_a^2 int_0^t F^c(t+y-s)^2 dabar(s)
    service   = p_c int_0^t F_c(t+y-s) F_c^c(t+y-s) dabar(s)
    splitting = sum_ab C_ab K_ab over the categories (continuous, atom_1, ...,
                atom_m), with C the multinomial splitting covariance and
                K_cc = int_0^t F_c^c(t+y-s)^2 dabar(s),
                K_ci = int_{s_i}^t F_c^c(t+y-s) dabar(s),
                K_ij = abar(t) - abar(s_i v s_j),  s_i = (t - (x_i - y)^+)^+.
    The sum of the three parts equals var_qr identically (the additivity
    identity is the ground truth for this split).
    """
    t, y = _nonneg(t, y)
    u = t + y
    dec = inputs.decomposition
    sf = inputs.service.sf
    arrival = inputs.ca2 * inputs.int_abar(lambda v: sf(v) ** 2, 0.0, t, u)

    cont = dec.continuous_part
    service = np.zeros_like(t)
    if dec.p_c > 0.0:
        service = dec.p_c * inputs.int_abar(lambda v: cont.cdf(v) * cont.sf(v), 0.0, t, u)

    splitting = np.zeros_like(t)
    if dec.p_d > 0.0:
        cov = dec.split_covariance()
        # category a is live for s > s_a; the continuous one from s_c = 0
        starts = [0.0] + [np.maximum(t - np.maximum(loc - y, 0.0), 0.0) for loc, _ in dec.atoms]
        abar_t = inputs.abar(t)

        def kernel(a, b):                        # K_ab for a <= b
            if a > 0:
                return abar_t - inputs.abar(np.maximum(starts[a], starts[b]))
            g = (lambda v: cont.sf(v) ** 2) if b == 0 else cont.sf
            return inputs.int_abar(g, starts[b], t, u)

        first = 0 if dec.p_c > 0.0 else 1        # no continuous category
        for a in range(first, len(starts)):
            for b in range(a, len(starts)):
                splitting += (1.0 if a == b else 2.0) * cov[a, b] * kernel(a, b)
    return VarianceComponents(arrival=_value(arrival), service=_value(service),
                              splitting=_value(splitting))


def var_workload(inputs: LimitInputs, t, y):
    """Variance of the remaining-workload limit, int_0^t [E X^2 + (c_a^2 -
    1) (E X)^2] dabar(s) as var_qr, for the work X = (S - v)^+ an arrival at
    s leaves beyond t + y, v = t + y - s: E X = m - int_0^v F^c and E X^2
    exact per service kind, so the x and z integrals of the triple-integral
    form are done exactly."""
    mean = inputs.require_finite_mean("workload variance")
    t, y = _nonneg(t, y)
    svc = inputs.service
    return inputs.int_abar(_variance_integrand(
        inputs, lambda v: (mean - svc.integrated_sf(v), svc.excess_second_moment(v))),
        0.0, t, t + y)


def cov_x2_increment(inputs: LimitInputs, t, y, y2):
    """Mean-square increment of the service-noise component between (t, y)
    and (t, y2) with y <= y2: int_0^t d (1 - d) dabar^c(u), with d =
    F_c(t+y2-u) - F_c(t+y-u) and dabar^c = p_c dabar."""
    t, y, y2 = _broadcast(t, y, y2)
    if np.any(y2 < y):
        raise ValueError("increment ordering requires y <= y2")
    dec = inputs.decomposition
    if dec.p_c == 0.0:
        return _value(np.zeros_like(t))
    cd = dec.continuous_part.cdf

    def g(v2, v1):
        diff = cd(v2) - cd(v1)
        return diff * (1.0 - diff)

    return dec.p_c * inputs.int_abar(g, 0.0, t, t + y2, t + y)


def initial_and_total_limits(inputs: LimitInputs, t, y):
    """(qir(y), Var Qir-hat(y), qTr(t,y), Var QTr-hat(t,y)).

    qir(y) = F_i^c(y) q^{i,t}, with q^{i,t} the count law's level;  the CLT
    variance adds the Brownian-bridge term q^{i,t} F_i(y) F_i^c(y) to the
    count-noise term F_i^c(y)^2 Var(Q^{i,t}-hat), the count law's CLT
    variance.  Totals add the independent new-arrival surface with the
    initial part evaluated at t + y.
    """
    if inputs.init is None:
        raise ValueError("no initial-condition block configured")
    level, count_var = inputs.init.count.level, inputs.init.count.clt_variance
    residual = inputs.init.residual
    t, y = _nonneg(t, y)
    fi = residual.cdf(y)
    fic = 1.0 - fi
    qir = fic * level
    var_qir = fic * fic * count_var + level * fi * fic
    fi_shift = residual.cdf(t + y)
    fic_shift = 1.0 - fi_shift
    qtr = fic_shift * level + fluid_qr(inputs, t, y)
    var_qtr = (fic_shift * fic_shift * count_var
               + level * fi_shift * fic_shift
               + var_qr(inputs, t, y))
    return qir, var_qir, qtr, var_qtr


# -- grid evaluation -----------------------------------------------------------

_SURFACES = {
    "fluid_qr": fluid_qr,
    "fluid_qe": fluid_qe,
    "fluid_wr": fluid_workload,
    "var_qr": var_qr,
    "var_qe": var_qe,
    "var_w": var_workload,
    "fluid_total": lambda inputs, t, y: initial_and_total_limits(inputs, t, y)[2],
    "var_total": lambda inputs, t, y: initial_and_total_limits(inputs, t, y)[3],
}


def surface(inputs: LimitInputs, grid: Grid, which: str) -> np.ndarray:
    """Evaluate a named limit surface on a grid, all points at once: a
    (T, Y) array.

    ``fluid_qe``/``var_qe`` clamp y to t (matching the prelimit convention
    that the elapsed-count field is constant in y beyond y = t).
    """
    if which not in _SURFACES:
        raise ValueError(f"unknown surface {which!r} (known: {sorted(_SURFACES)})")
    t, y = np.meshgrid(grid.t, grid.y, indexing="ij")
    if which in ("fluid_qe", "var_qe"):
        y = np.minimum(y, t)
    return _SURFACES[which](inputs, t, y)
