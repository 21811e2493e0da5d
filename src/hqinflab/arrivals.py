"""The arrival stream of the n-th system: one model for every spec kind.

Every stream here has the form A_n(t) = R(n * abar(t)), where R is a
stationary renewal process of rate 1 and abar(t) is a cumulative base rate
(arrivals per unit of the scale parameter n).  The limits of Pang & Whitt
need only the fluid limit abar(t) and the FCLT limit sqrt(c_a^2) B(abar(t)),
with c_a^2 the squared coefficient of variation of R's interarrivals.
Poisson streams (exponential interarrivals at a constant rate),
nonhomogeneous Poisson streams (exponential interarrivals under a rate
function) and plain renewal streams (any interarrival law at the constant
rate 1/mean) are all special cases.  Rate functions are restricted to a
declarative catalog (constant, linear, sinusoidal) so the cumulative rate
is exact in closed form.  Its inverse is exact for constant and linear rates
and accurate to roundoff for sinusoidal ones, by safeguarded Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import seated
from .service import (Exponential, Moments, ServiceModel, _as_array_or_scalar, _spec_number,
                      service_from_spec)

__all__ = ["RateFunction", "ArrivalModel", "arrival_from_spec"]

# Sweeps after which the sinusoidal inverse stops taking Newton steps and only
# bisects.  Newton needs about 3 from its table start; levels next to a zero
# of the rate, where it converges only linearly, about 15.
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class RateFunction:
    """lambda(t) = a + b*t (linear) or a + b*sin(c*t + d) (sinusoidal).

    Constant rates are the linear form with b = 0.  The rate must stay
    nonnegative on [0, inf); for the sinusoidal form that means a >= |b|.
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
        if self.form == "linear" and (self.a < 0 or self.b < 0 or self.a + self.b == 0):
            raise ValueError("linear rate must be nonnegative and nondegenerate")
        if self.form == "sinusoidal" and (self.a <= 0 or self.a < abs(self.b)):
            raise ValueError("sinusoidal rate requires a >= |b| > 0 to stay nonnegative")
        if self.form == "sinusoidal" and self.c == 0:
            raise ValueError("sinusoidal rate requires a frequency c != 0")

    def rate(self, t):
        if self.form == "sinusoidal":
            return _as_array_or_scalar(t, lambda v: self.a + self.b * np.sin(self.c * v + self.d))
        return _as_array_or_scalar(t, lambda v: self.a + self._slope * v)

    def cumulative(self, t):
        if self.form == "sinusoidal":
            # (b/c)(cos d - cos(ct + d)) as a product of sines: no cancellation near t = 0
            return _as_array_or_scalar(t, lambda v: self.a * v + 2.0 * (self.b / self.c)
                                       * np.sin(0.5 * self.c * v) * np.sin(0.5 * self.c * v + self.d))
        return _as_array_or_scalar(t, lambda v: self.a * v + 0.5 * self._slope * v * v)

    @property
    def _slope(self) -> float:
        """b of the linear form; a constant rate has none, whatever b holds."""
        return 0.0 if self.form == "constant" else self.b

    @property
    def constant_rate(self) -> float | None:
        if self.form == "constant" or (self.form == "linear" and self.b == 0.0):
            return self.a
        if self.form == "sinusoidal" and self.b == 0.0:
            return self.a
        return None

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

        Each level starts from linear interpolation in a table of
        cumulative(t) (64 nodes per radian of phase), whose two neighbouring
        nodes bracket its root.  Every iterate shrinks the closed bracket
        [lo, hi]; a Newton step that leaves it (or a zero rate) bisects
        instead, and so does every step after ``_NEWTON_MAX_ITER`` sweeps,
        which bounds the loop.  A level stops once |cumulative(t) - L| <=
        4 ulp(L), its Newton step no longer moves t, or its bracket cannot
        shrink.
        """
        nodes = np.linspace(0.0, horizon, int(min(64.0 * abs(self.c) * horizon, levels.size)) + 2)
        table = np.maximum.accumulate(self.cumulative(nodes))
        k = np.clip(np.searchsorted(table, levels, side="right") - 1, 0, nodes.size - 2)
        lo, hi = nodes[k], nodes[k + 1]
        t = np.interp(levels, table, nodes)
        tol = 4.0 * np.spacing(levels)
        active = np.arange(levels.size)
        sweep = 0
        while active.size:
            ta = t[active]
            f = self.cumulative(ta) - levels[active]
            lo_a = np.where(f < 0.0, ta, lo[active])
            hi_a = np.where(f > 0.0, ta, hi[active])
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = ta - f / self.rate(ta)
            mid = 0.5 * (lo_a + hi_a)
            done = (np.abs(f) <= tol[active]) | (newton == ta) | (mid == lo_a) | (mid == hi_a)
            # ta is one end of the bracket: a step onto the other end would
            # oscillate between the two, so it bisects like any step outside
            inside = (newton > lo_a) & (newton < hi_a) & (sweep < _NEWTON_MAX_ITER)
            t[active] = np.where(done, ta, np.where(inside, newton, mid))
            lo[active], hi[active] = lo_a, hi_a
            active = active[~done]
            sweep += 1
        return t


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
    def renewal(cls, law: ServiceModel) -> "ArrivalModel":
        """Renewal stream with interarrival law ``law``: rate 1/mean."""
        return cls(law, RateFunction("constant", a=1.0 / _interarrival_moments(law).mean))

    def cumulative_rate(self, t):
        if np.any(np.asarray(t, dtype=float) < 0):
            raise ValueError("cumulative rate undefined for t < 0")
        return self.rate_fn.cumulative(t)

    def rate(self, t):
        return self.rate_fn.rate(t)

    @property
    def constant_rate(self) -> float | None:
        """lambda when abar(t) = lambda * t, else None."""
        return self.rate_fn.constant_rate

    def _first_batch(self, n: int, horizon: float) -> tuple[float, int]:
        """n abar(horizon), the level the epochs fill, and the size of the
        first batch of interarrivals, which almost always passes it."""
        if n < 1:
            raise ValueError("scale n must be >= 1")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        total = int(n) * self.rate_fn.cumulative(float(horizon))
        return total, max(int(total * 1.1 + 6.0 * math.sqrt(total + 1.0)), 16)

    def draw_epochs(self, n: int, horizon: float, rng: np.random.Generator) -> np.ndarray:
        """Arrival epochs of the n-th system on [0, horizon], nondecreasing:
        an atom of the interarrival law, or roundoff, can repeat an epoch.
        :func:`_strictify` breaks such ties."""
        total, batch = self._first_batch(n, horizon)
        n, horizon = int(n), float(horizon)
        chunks = []
        pos = 0.0
        while pos <= total:
            # normalized to mean 1: the driving stream must have rate 1
            draws = np.asarray(self.interarrival.sample(rng, size=batch), dtype=float) / self._mean
            cum = pos + np.cumsum(draws)
            chunks.append(cum)
            pos = cum[-1]
        levels = np.concatenate(chunks)
        levels = levels[levels <= total]
        return self.rate_fn.invert_cumulative(levels / n, horizon)

    def draw_block_epochs(self, n: int, horizon: float, words) -> list[np.ndarray]:
        """Arrival epochs of a block of replications of the n-th system, one
        array per row of seed words (shape (R, 4)): those that
        :meth:`draw_epochs` draws from a generator seated on the row's words.

        The first batches of all rows are drawn into one array, scaled and
        summed in place.  A row whose batch ends short of the horizon's level
        is drawn again on its own; its levels, like every row's, are
        inverted on their own, since the sinusoidal inverse sizes its table
        by the level count.
        """
        total, batch = self._first_batch(n, horizon)
        n, horizon = int(n), float(horizon)
        levels = np.empty((len(words), batch))
        for row, w in zip(levels, words):
            row[:] = self.interarrival.sample(seated(w), size=batch)
        levels /= self._mean
        np.cumsum(levels, axis=1, out=levels)
        # the levels of a row rise, so those <= total are a prefix of it
        kept = np.count_nonzero(levels <= total, axis=1)
        levels /= n
        return [self.draw_epochs(n, horizon, seated(w)) if m == batch
                else self.rate_fn.invert_cumulative(row[:m], horizon)
                for row, m, w in zip(levels, kept.tolist(), words)]


def _rate_fn_from_spec(spec: dict, where: str) -> RateFunction:
    if not isinstance(spec, dict) or "form" not in spec:
        raise ValueError(f"{where}: expected a mapping with a 'form' key")
    allowed = {"form", "a", "b", "c", "d"}
    extra = set(spec) - allowed
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)}")
    params = {k: _spec_number(f"{where}.{k}", v) for k, v in spec.items() if k != "form"}
    try:
        return RateFunction(form=spec["form"], **params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def arrival_from_spec(spec: dict, where: str = "arrival") -> ArrivalModel:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{where}: expected a mapping with a 'kind' key")
    kind = spec["kind"]
    keys = {
        "poisson": {"rate"},
        "nhpp": {"rate_fn"},
        "renewal": {"interarrival"},
        "time_changed_renewal": {"interarrival", "rate_fn"},
    }
    if kind not in keys:
        raise ValueError(f"{where}: unknown arrival kind {kind!r} (known: {sorted(keys)})")
    extra = set(spec) - keys[kind] - {"kind"}
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)} for kind {kind!r}")
    missing = keys[kind] - set(spec)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)} for kind {kind!r}")
    if kind == "poisson":
        rate = _spec_number(f"{where}.rate", spec["rate"])
        if rate <= 0:
            raise ValueError(f"{where}.rate: rate must be positive, got {rate!r}")
        return ArrivalModel.poisson(rate)
    if kind == "nhpp":
        return ArrivalModel.nhpp(_rate_fn_from_spec(spec["rate_fn"], where + ".rate_fn"))
    if kind == "renewal":
        return ArrivalModel.renewal(service_from_spec(spec["interarrival"], where + ".interarrival"))
    return ArrivalModel(service_from_spec(spec["interarrival"], where + ".interarrival"),
                        _rate_fn_from_spec(spec["rate_fn"], where + ".rate_fn"))
