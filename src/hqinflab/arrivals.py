"""The arrival stream of the n-th system: one model for every kind of stream.

Every stream here has the form A_n(t) = R(n * abar(t)), where R is a
stationary renewal process of rate 1 and abar(t) is a cumulative base rate
(arrivals per unit of the scale parameter n).  The limits of Pang & Whitt
need only the fluid limit abar(t) and the FCLT limit sqrt(c_a^2) B(abar(t)),
with c_a^2 the squared coefficient of variation of R's interarrivals.
Poisson streams (exponential interarrivals at a constant rate),
nonhomogeneous Poisson streams (exponential interarrivals under a rate
function) and plain renewal streams (any interarrival law at the constant
rate 1/mean) are all special cases.  Rate functions are restricted to three
forms (constant, linear, sinusoidal) so the cumulative rate
is exact in closed form.  Its inverse is exact for constant and linear rates
and accurate to roundoff for sinusoidal ones: one Newton step from a cubic
Hermite start, then safeguarded Newton for the few levels that step leaves
short.
Epochs are drawn one way, a block of replications at a time, each from its
own stream's seed words (:meth:`ArrivalModel.draw_block_epochs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import seated
from .service import Exponential, Moments, ServiceModel, _as_array_or_scalar

__all__ = ["RateFunction", "ArrivalModel"]

# Sweeps after which the sinusoidal inverse stops taking Newton steps and only
# bisects; the single step from the start is the first.  Newton needs only
# that one from its Hermite start; levels next to a zero of the rate, where it
# converges only linearly, about 15.
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class RateFunction:
    """lambda(t) = a (constant), a + b*t (linear) or a + b*sin(c*t + d)
    (sinusoidal).

    The constant form takes no b, so every form with b = 0 is the constant
    rate a.  The rate must stay nonnegative on [0, inf); for the sinusoidal
    form that means a >= |b|.
    """
    form: str
    a: float
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "linear", "sinusoidal"):
            raise ValueError(f"unknown rate-function form {self.form!r}")
        if self.form == "constant" and self.a <= 0:
            raise ValueError("rate must be positive")
        if self.form == "constant" and self.b != 0.0:
            raise ValueError(f"a constant rate takes no slope b, got b={self.b}")
        if self.form == "linear" and (self.a < 0 or self.b < 0 or self.a + self.b == 0):
            raise ValueError("linear rate must be nonnegative and nondegenerate")
        if self.form == "sinusoidal" and (self.a <= 0 or self.a < abs(self.b)):
            raise ValueError("sinusoidal rate requires a >= |b| > 0 to stay nonnegative")
        if self.form == "sinusoidal" and self.c == 0:
            raise ValueError("sinusoidal rate requires a frequency c != 0")

    def rate(self, t):
        if self.form == "sinusoidal":
            return _as_array_or_scalar(t, lambda v: self.a + self.b * np.sin(self.c * v + self.d))
        return _as_array_or_scalar(t, lambda v: self.a + self.b * v)

    def cumulative(self, t):
        if self.form == "sinusoidal":
            # (b/c)(cos d - cos(ct + d)) as a product of sines: no cancellation near t = 0
            return _as_array_or_scalar(t, lambda v: self.a * v + 2.0 * (self.b / self.c)
                                       * np.sin(0.5 * self.c * v) * np.sin(0.5 * self.c * v + self.d))
        return _as_array_or_scalar(t, lambda v: self.a * v + 0.5 * self.b * v * v)

    @property
    def constant_rate(self) -> float | None:
        return self.a if self.b == 0.0 else None

    def invert_cumulative(self, levels: np.ndarray, horizon: float) -> np.ndarray:
        """Solve cumulative(t) = level for each level in [0, cumulative(horizon)]."""
        const = self.constant_rate
        if const is not None:
            return levels / const
        if self.form == "linear":
            # the root of a t + b t^2 / 2 = L without cancellation
            if self.a == 0.0:
                t = np.sqrt(2.0 * levels / self.b)
            else:
                t = 2.0 * levels / (self.a + np.sqrt(self.a * self.a + 2.0 * self.b * levels))
            return np.minimum(t, horizon)
        return self._newton_inverse(np.asarray(levels, dtype=float), horizon)

    def _newton_inverse(self, levels: np.ndarray, horizon: float) -> np.ndarray:
        """Newton on cumulative(t) - L with rate(t) as derivative.

        A table of cumulative(t) (64 nodes per radian of phase) brackets each
        level's root between two neighbouring nodes [lo, hi].  The start is
        the cubic Hermite interpolant of the inverse on that interval, with
        the exact slopes 1/rate at its two nodes; where either slope exceeds
        three times the secant (next to a zero of the rate) the interval
        takes the secant line instead, which keeps the start monotone and
        inside [lo, hi].  On a smooth rate the start is within about 2e-10
        of the root, so one Newton step, kept only where it stays strictly
        inside [lo, hi], leaves almost every level within
        |cumulative(t) - L| <= 4 ulp(L).  Such a level costs two
        ``cumulative`` calls and one ``rate`` call: the step evaluates both,
        and the check of the rule one ``cumulative``.

        The levels that fail the check go on to a bracketed loop.  Every
        iterate shrinks the closed bracket [lo, hi]; a Newton step that
        leaves it (or a zero rate) bisects instead, and so does every step
        after ``_NEWTON_MAX_ITER`` sweeps, which bounds the loop (a cap of 0
        also skips the single step).  A level stops once it meets the rule
        above, its Newton step no longer moves t, or its bracket cannot
        shrink.  Each sweep works on compact arrays of the levels still
        unconverged, stores the iterates of the levels it stops and keeps
        only the rest; a sweep in which every level meets the rule ends the
        loop without evaluating the rate.
        """
        nodes = np.linspace(0.0, horizon, int(min(64.0 * abs(self.c) * horizon, levels.size)) + 2)
        table = np.maximum.accumulate(self.cumulative(nodes))
        k = np.clip(np.searchsorted(table, levels, side="right") - 1, 0, nodes.size - 2)
        lo, hi = nodes[k], nodes[k + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            # slopes dt/dL of the inverse at the nodes, and the secants between
            h = np.diff(table)
            slope, secant = 1.0 / self.rate(nodes), np.diff(nodes) / h
            cubic = (slope[:-1] <= 3.0 * secant) & (slope[1:] <= 3.0 * secant)
            m0 = np.where(cubic, slope[:-1], secant)
            m1 = np.where(cubic, slope[1:], secant)
            # t = lo + u (m0 + u (c2 + u c3)) in u = L - table[k]
            c2 = (3.0 * secant - 2.0 * m0 - m1) / h
            c3 = (m0 + m1 - 2.0 * secant) / (h * h)
            u = levels - table[k]
            t = lo + u * (m0[k] + u * (c2[k] + u * c3[k]))
            if _NEWTON_MAX_ITER > 0:
                step = t - (self.cumulative(t) - levels) / self.rate(t)
                t = np.where((step > lo) & (step < hi), step, t)
        # out holds each level's latest iterate.  A sweep first drops the
        # levels that meet the rule, and only then brackets and steps the rest.
        out, index = t, np.arange(levels.size)
        sweep = 1
        while True:
            f = self.cumulative(t) - levels
            # 4 ulp(L) > 2^-51 L, so only a level outside 2^-51 L needs np.spacing
            keep = np.flatnonzero(~(np.abs(f) <= 2.0**-51 * levels))
            keep = keep[~(np.abs(f[keep]) <= 4.0 * np.spacing(levels[keep]))]
            if not keep.size:
                return out
            index, t, f, levels, lo, hi = (a[keep] for a in (index, t, f, levels, lo, hi))
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            mid = newton = 0.5 * (lo + hi)
            if sweep < _NEWTON_MAX_ITER:
                with np.errstate(divide="ignore", invalid="ignore"):
                    newton = t - f / self.rate(t)
            # t is one end of the bracket: a step onto the other end would
            # oscillate between the two, so it bisects like any step outside
            inside = (newton > lo) & (newton < hi)
            going = ~((newton == t) | (mid == lo) | (mid == hi))
            t = np.where(inside, newton, mid)[going]
            index, levels, lo, hi = index[going], levels[going], lo[going], hi[going]
            out[index] = t
            sweep += 1


def _strictify(epochs: np.ndarray, bounds=None) -> np.ndarray:
    """Perturb exact ties so epochs are strictly increasing (jitter < 1e-12).

    ``bounds`` splits ``epochs`` into replications, replication r holding
    epochs[bounds[r]:bounds[r + 1]]; each is fixed up on its own, and a drop
    onto a replication's first epoch is no tie.  None means one replication.
    """
    bounds = np.array([0, len(epochs)]) if bounds is None else np.asarray(bounds)
    ties = np.flatnonzero(np.diff(epochs) <= 0) + 1
    k = np.searchsorted(bounds, ties, side="right")
    inner = bounds[k - 1] != ties
    if not inner.any():
        return epochs
    out = epochs.copy()
    for i, stop in zip(ties[inner], bounds[k[inner]]):
        # a fix-up can tie with the next epoch, so carry it forward
        while i < stop and out[i] <= out[i - 1]:
            out[i] = out[i - 1] + 1e-13 * (1.0 + out[i - 1])
            i += 1
    return out


def _interarrival_moments(law: ServiceModel) -> Moments:
    m = law.moments()
    if not math.isfinite(m.mean) or m.mean <= 0:
        raise ValueError("interarrival law needs a positive finite mean")
    return m


@dataclass(frozen=True)
class ArrivalModel:
    """A_n(t) = R(n * abar(t)): ``interarrival`` is the law of R's gaps
    (rescaled to mean 1) and ``rate_fn`` gives abar(t) = int_0^t rate."""
    interarrival: ServiceModel
    rate_fn: RateFunction
    ca2: float = field(init=False)
    _mean: float = field(init=False, repr=False)

    def __post_init__(self):
        m = _interarrival_moments(self.interarrival)
        object.__setattr__(self, "ca2", m.scv)
        object.__setattr__(self, "_mean", m.mean)

    @classmethod
    def poisson(cls, rate: float) -> "ArrivalModel":
        """Poisson stream: exponential interarrivals at a constant rate."""
        return cls(Exponential(1.0), RateFunction("constant", a=rate))

    @classmethod
    def nhpp(cls, rate_fn: RateFunction) -> "ArrivalModel":
        """Nonhomogeneous Poisson stream: exponential interarrivals under rate_fn."""
        return cls(Exponential(1.0), rate_fn)

    @classmethod
    def renewal(cls, interarrival: ServiceModel) -> "ArrivalModel":
        """Renewal stream with interarrival law ``interarrival``: rate 1/mean."""
        mean = _interarrival_moments(interarrival).mean
        return cls(interarrival, RateFunction("constant", a=1.0 / mean))

    def cumulative_rate(self, t):
        if np.any(np.asarray(t, dtype=float) < 0):
            raise ValueError("cumulative rate undefined for t < 0")
        return self.rate_fn.cumulative(t)

    def rate(self, t):
        return self.rate_fn.rate(t)

    def draw_block_epochs(self, n: int, horizon: float, words) -> list[np.ndarray]:
        """Arrival epochs of a block of replications of the n-th system on
        [0, horizon], one array per row of seed words (shape (R, 4)), each
        nondecreasing: an atom of the interarrival law, or roundoff, can
        repeat an epoch.  :func:`_strictify` breaks such ties.

        A row's stream draws R's interarrivals, rescaled to mean 1, in
        batches; each batch is summed on from the last level, until a level
        passes n abar(horizon), and the levels below it are inverted.  The
        first batches of all rows are drawn into one array, scaled and
        summed in place, and almost always pass that level.  A row whose
        batch ends short of it re-seats its stream and draws again, batch by
        batch.  Each row's levels are inverted on their own, since the
        sinusoidal inverse sizes its table by the level count.
        """
        if n < 1:
            raise ValueError("scale n must be >= 1")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        n, horizon = int(n), float(horizon)
        total = n * self.rate_fn.cumulative(horizon)
        batch = max(int(total * 1.1 + 6.0 * math.sqrt(total + 1.0)), 16)
        levels = np.empty((len(words), batch))
        for row, w in zip(levels, words):
            row[:] = self.interarrival.sample(seated(w), size=batch)
        levels /= self._mean
        np.cumsum(levels, axis=1, out=levels)
        # the levels of a row rise, so those <= total are a prefix of it
        kept = np.count_nonzero(levels <= total, axis=1)
        levels /= n
        epochs = []
        for row, m, w in zip(levels, kept.tolist(), words):
            if m == batch:
                gen, chunks, pos = seated(w), [], 0.0
                while pos <= total:
                    draws = self.interarrival.sample(gen, size=batch)
                    chunks.append(pos + np.cumsum(np.asarray(draws, dtype=float) / self._mean))
                    pos = chunks[-1][-1]
                row = np.concatenate(chunks)
                m = np.count_nonzero(row <= total)
                row /= n
            epochs.append(self.rate_fn.invert_cumulative(row[:m], horizon))
        return epochs
