"""The two-term decomposition of the normalized residual-count field, and an
independent evaluation of its arrival-noise term by integration by parts,
which criterion 1 reads as a cross-check.

The CLT-scaled field hat(Qr)_n = sqrt(n) (Qr_n / n - qr) splits exactly into

  hat(X)_{n,2}(t,y) = n^{-1/2} sum_{tau_i <= t} [ 1(tau_i + eta_i > t+y)
                                                  - F^c(t+y - tau_i) ]
  hat(X)_{n,1}      = hat(Qr)_n - hat(X)_{n,2},

the first carrying the service-sampling noise, the second the arrival noise;
the sum telescopes customer-wise, so additivity holds to float roundoff on
every trace.  hat(X)_{n,1} also equals the integration-by-parts form
F^c(y) hat(A)_n(t) - int hat(A)_n(s-) dF(t+y-s).  Like the field
evaluators, everything here is evaluated per replication of a trace's block,
with a leading replication axis; a replication's arrivals by t are its first
A_n(t) customers.

The sums sum_{tau_i <= t} F^c(t+y - tau_i) behind both terms are taken over
panels of width at most 0.1 that cut the arrival axis at 0 and at every grid
time: on a panel, F^c is interpolated at 17 Chebyshev nodes (Trefethen 2013,
Approximation Theory and Approximation Practice), shared by the block, and
summed against the Chebyshev moments of the panel's epochs, as the far-field
expansion of the fast Gauss transform sums a kernel (Greengard & Strain 1991).
Panels near x = 0, at a kink of the law, where the interpolant has not
converged, or too sparse to pay are summed customer by customer (see
``decompose_hatQr``); X1 and X2 stay within 1e-12 of the customer-by-customer
sums, and the count of ends past t + y is an exact recount, so additivity
still holds to roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Grid
from .service import ServiceModel
from .simulate import SimulationTrace, _Binner, replication_sums

__all__ = ["decompose_hatQr", "x1_integration_by_parts"]


def _require_continuous(model: ServiceModel) -> None:
    if model.decompose().p_d > 0.0:
        raise ValueError(
            "decomposition refused: the service c.d.f. has atoms, and the "
            "service-noise component is then not a right-continuous function "
            "of the second argument (it concentrates on the atom lines); "
            "split the law into continuous and atomic parts instead")


# Panel sums for decompose_hatQr: interpolation degree, panel width, and the
# bound on the last two Chebyshev coefficients of an interpolated panel
_M = 16
_H = 0.1
_TAIL = 1e-15
_CHUNK = 32768               # epochs per pass of the moments and direct sums
# Chebyshev-Lobatto nodes cos(pi j / m) and the matrix taking the values at
# them to the coefficients of the interpolant, c = f @ _DCT.T
_NODES = np.cos(np.pi * np.arange(_M + 1) / _M)
_DCT = np.cos(np.pi * np.outer(np.arange(_M + 1), np.arange(_M + 1)) / _M) * (2.0 / _M)
_DCT[:, [0, -1]] *= 0.5
_DCT[[0, -1]] *= 0.5


def _panel_edges(t: np.ndarray) -> np.ndarray:
    """Edges of panels of width at most _H cutting [0, t[-1]] at 0 and at
    every grid time, and of one more, (t[-1], inf), for the arrivals after
    it; a grid time 0 gets the panel (-_H, 0] for the epochs at 0."""
    knots = np.concatenate(([-_H if t[0] == 0.0 else 0.0], t))
    cuts = [np.linspace(a, b, math.ceil((b - a) / _H) + 1)[:-1]
            for a, b in zip(knots[:-1].tolist(), knots[1:].tolist())]
    return np.concatenate((*cuts, t[-1:], [np.inf]))


def _runs(counts: np.ndarray):
    """(g0, g1, e0, e1) for consecutive runs of whole segments g0:g1 of
    ``counts`` epochs each, holding epochs e0:e1, of at most _CHUNK epochs
    (a longer segment is a run of its own)."""
    ends = np.cumsum(counts)
    g0 = e0 = 0
    while g0 < len(counts):
        g1 = max(int(np.searchsorted(ends, e0 + _CHUNK, side="right")), g0 + 1)
        e1 = int(ends[g1 - 1])
        yield g0, g1, e0, e1
        g0, e0 = g1, e1


def _moments(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_i T_k(u_i), k <= _M, per segment of ``u`` (``counts`` epochs each,
    none empty), by the three-term recurrence on runs of whole segments, so
    each segment's sums are taken in its own order whatever else the block
    holds."""
    moments = np.empty((len(counts), _M + 1))
    moments[:, 0] = counts
    for g0, g1, e0, e1 in _runs(counts):
        cuts = np.cumsum(counts[g0:g1]) - counts[g0:g1]
        twice = 2.0 * u[e0:e1]
        prev, cur, buf = np.ones(e1 - e0), u[e0:e1].copy(), np.empty(e1 - e0)
        for k in range(1, _M + 1):
            if k > 1:                  # T_k = 2u T_{k-1} - T_{k-2}, in place
                np.multiply(twice, cur, out=buf)
                np.subtract(buf, prev, out=prev)
                prev, cur = cur, prev
            moments[g0:g1, k] = np.add.reduceat(cur, cuts)
    return moments


def decompose_hatQr(trace: SimulationTrace, grid: Grid,
                    centering: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split hat(Qr)_n into the arrival-noise term X1 and the
    service-sampling term X2 (continuous service c.d.f. only), per
    replication of a block: two (R, T, Y) arrays.  ``centering`` is the
    fluid surface qr on the grid, a (T, Y) array; any other shape raises
    ValueError.

    Both rest on S(t, s) = sum_{tau <= t} F^c(s - tau) at each distinct
    shift s = t + y (floats equal exactly) and on the count C(t, s) of the
    arrivals by t whose service ends past s: X1 = S / sqrt(n) - sqrt(n) *
    centering, X2 = (C - S) / sqrt(n).  C is an exact recount, read off one
    (R, T + 1, Q + 1) histogram of the customers by arrival among the grid
    times and by end among the Q shifts, so X1 + X2 = hat(Qr)_n to roundoff,
    independently of the field evaluators.

    S is summed over panels of width at most 0.1 that cut [0, t_T] at 0 and
    at every grid time, so each prefix tau <= t is a union of panels.  On a
    panel, F^c(s - tau) is interpolated at the 17 Chebyshev-Lobatto nodes
    (degree 16), and the panel's sum is the dot product of the
    interpolant's Chebyshev coefficients with the moments sum_i T_k(u_i) of
    the replication's epochs in the panel, mapped to u in [-1, 1]; the node
    values are shared by every replication of the block.  A (shift, panel)
    pair is instead summed customer by customer when

    - its range of x = s - tau comes within 0.1 of 0, where the law need
      not be analytic;
    - that range holds one of the law's ``breakpoints()``;
    - the interpolant's last two coefficients exceed 1e-15 in magnitude
      together (a law that changes within a panel); F^c <= 1, so below
      that the interpolation error is about 1e-15 per epoch;
    - the replication has no more epochs in the panel than there are nodes;
    - no other shift interpolates the panel: its moments cost 16 recurrence
      steps per epoch, more than the one c.d.f. point per epoch that a
      single shift saves.

    So X1 and X2 stay within 1e-12 of the customer-by-customer sums (tested
    on every continuous law at n = 2000, horizon 4), a replication's values
    do not depend on the block it is in, and, but for the pairs the third
    rule sends back, no call evaluates the c.d.f. at more points than one
    per arrival and distinct shift.
    """
    _require_continuous(trace.service_model)
    if np.shape(centering) != grid.shape:
        raise ValueError(f"centering has shape {np.shape(centering)}, not the grid's {grid.shape}")
    model = trace.service_model
    sqrt_n = math.sqrt(trace.n)
    reps, T = trace.replications, len(grid.t)
    shifts, q_of = np.unique(grid.t[:, None] + grid.y, return_inverse=True)
    q_of, Q = q_of.reshape(grid.shape), len(shifts)
    last = np.zeros(Q, dtype=np.intp)                 # the last grid time using each shift
    np.maximum.at(last, q_of, np.arange(T)[:, None])
    edges = _panel_edges(grid.t)
    P, at_t = len(edges) - 1, np.searchsorted(edges, grid.t)    # t_i ends panel at_t[i] - 1
    tau = trace.arrivals
    rep = np.repeat(np.arange(reps), np.diff(trace.bounds))
    panel = np.searchsorted(edges, tau) - 1
    np.maximum(panel, 0, out=panel)                   # an epoch at edges[0] = 0 too
    segment = rep * P + panel
    counts = np.bincount(segment, minlength=reps * P)

    # C: a customer counts at (t_i, s_q) when its panel ends by t_i, i.e.
    # fewer than i + 1 grid times lie below it, and at least q + 1 shifts
    # lie below its end; binned per panel's (replication, grid-time) row
    rows = (np.arange(reps)[:, None] * (T + 1) + np.searchsorted(grid.t, edges[1:])) * (Q + 1)
    hist = np.bincount(rows.ravel()[segment] + _Binner(shifts)(tau + trace.services),
                       minlength=reps * (T + 1) * (Q + 1)).reshape(reps, T + 1, Q + 1)
    past = np.cumsum(np.cumsum(hist[:, :, ::-1], axis=2)[:, :, ::-1], axis=1)
    count = past[:, np.arange(T)[:, None], q_of + 1]

    # S: per replication, panel and shift, then summed over the panels
    near, far = shifts - edges[1:, None], shifts - edges[:-1, None]    # (P, Q) range of x
    kinks = np.asarray(model.breakpoints(), dtype=float)
    used = np.arange(P)[:, None] < at_t[last]
    smooth = used & (near >= _H) & ~((near[..., None] <= kinks) & (kinks <= far[..., None])).any(axis=2)
    big = counts.reshape(reps, P) > _M + 1
    sums = np.zeros((reps, P, Q))
    pp, qq = np.nonzero(smooth & (big.any(axis=0) & (smooth.sum(axis=1) > 1))[:, None])
    if len(pp):
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        fc = 1.0 - np.asarray(model.cdf(shifts[qq, None] - (mid[pp, None] + half[pp, None] * _NODES)),
                              dtype=float)
        coef = fc @ _DCT.T
        fits = np.abs(coef[:, -2:]).sum(axis=1) <= _TAIL
        pair = np.full((P, Q), -1)
        pair[pp[fits], qq[fits]] = np.flatnonzero(fits)
        need = big & ((pair >= 0).sum(axis=1) > 1)
        cheb = need[:, :, None] & (pair >= 0)
        inside = need.ravel()[segment]
        u = (tau[inside] - mid[panel[inside]]) / half[panel[inside]]
        moments = np.zeros((reps, P, _M + 1))
        moments[need] = _moments(u, counts[need.ravel()])
        r, p, q = np.nonzero(cheb)
        sums[r, p, q] = (coef[pair[p, q]] * moments[r, p]).sum(axis=1)
        used = used & ~cheb
    r, p, q = np.nonzero(used & (counts.reshape(reps, P, 1) > 0))
    first, size = (np.cumsum(counts) - counts)[r * P + p], counts[r * P + p]
    for g0, g1, e0, e1 in _runs(size):          # pairs of at most _CHUNK epochs at a time
        k = size[g0:g1]
        cuts = np.cumsum(k) - k
        at = np.repeat(first[g0:g1] - cuts, k) + np.arange(e1 - e0)
        fc = 1.0 - np.asarray(model.cdf(np.repeat(shifts[q[g0:g1]], k) - tau[at]), dtype=float)
        sums[r[g0:g1], p[g0:g1], q[g0:g1]] = np.add.reduceat(fc, cuts)
    total = np.zeros((reps, P + 1, Q))
    np.cumsum(sums, axis=1, out=total[:, 1:])
    sf = total[:, at_t[:, None], q_of]
    return sf / sqrt_n - sqrt_n * centering, (count - sf) / sqrt_n


def x1_integration_by_parts(trace: SimulationTrace, grid: Grid, centering: np.ndarray,
                            abar) -> np.ndarray:
    """Independent evaluation of the arrival-noise term, per replication:
    F^c(y) hat(A)_n(t) - int_0^t hat(A)_n(s-) dF(t+y-s), with the Stieltjes
    integral taken exactly over the arrival step function and against the
    drift n*abar through the fluid surface ``centering`` = qr on the grid,
    shape (T, Y), as :func:`decompose_hatQr` takes it.
    """
    _require_continuous(trace.service_model)
    model = trace.service_model
    sqrt_n = math.sqrt(trace.n)
    a_t = trace.count_arrivals(grid.t)
    fy = np.asarray(model.cdf(grid.y), dtype=float)
    t = grid.t[:, None]
    # step-function part of int A_n(s-) dF(t+y-s): exact sum over the arrivals by t
    tau = trace.arrivals[:, None, None]
    rows = np.asarray(model.cdf(t + grid.y - tau), dtype=float) - fy
    rows *= tau <= t
    step = replication_sums(rows, trace.bounds)
    # drift part int abar(s) dF(t+y-s) reduces by parts to
    # abar(t) F^c(y) - int_0^t F^c(t+y-s) dabar(s) = abar(t) F^c(y) - qr(t, y)
    abar_t = np.asarray(abar(t), dtype=float)
    ahat_t = (a_t[..., None] - trace.n * abar_t) / sqrt_n
    drift = abar_t * (1.0 - fy) - centering
    return (1.0 - fy) * ahat_t - (step / sqrt_n - sqrt_n * drift)
