"""Small statistics helpers for the validation harness.

``sample_var``, ``skew_kurtosis`` and ``correlation`` reduce over the
replication axis, per point, from a centred copy: the sample points-last and
contiguous (so each point's sums run pairwise, as over a 1-D sample) less
each point's mean.  ``Centred`` makes that copy once for a field with several
statistics; they take it in place of the values and only read it, and never
write into a caller's array.  Powers are products in one scratch array
(``np.power`` by 3 or 4 costs ten times as much).  Variance and correlation
keep the bits of ``np.var`` and of centring per call; skewness and kurtosis
stay within 1e-13 of the ``**`` formulas (``tests/test_stats.py``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Centred", "sample_var", "skew_kurtosis", "correlation", "ks_distance",
           "ks_critical_value"]


class Centred:
    """``values`` centred once: ``c`` is a points-last copy, never the
    caller's memory, less each point's sample mean."""

    __slots__ = ("c",)

    def __init__(self, values: np.ndarray):
        v = np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=float), 0, -1))
        # centred in place unless the points-last form is the caller's memory
        own = not np.may_share_memory(v, values)
        self.c = np.subtract(v, v.mean(axis=-1, keepdims=True), out=v if own else None)


def _centred(values) -> np.ndarray:
    return (values if isinstance(values, Centred) else Centred(values)).c


def sample_var(values: np.ndarray | Centred) -> np.ndarray:
    """Unbiased sample variance over the replication axis 0, per point."""
    c = _centred(values)
    return np.sum(c * c, axis=-1) / (c.shape[-1] - 1)


def skew_kurtosis(values: np.ndarray | Centred) -> tuple[np.ndarray, np.ndarray]:
    """(sample skewness, excess kurtosis) over the replication axis 0, per
    point; (0, 0) where the sample does not vary."""
    c = _centred(values)
    power = c * c
    m2 = power.mean(axis=-1)
    power *= c
    m3 = power.mean(axis=-1)
    power *= c
    m4 = power.mean(axis=-1)
    flat = m2 == 0
    m2 = np.where(flat, 1.0, m2)
    return (np.where(flat, 0.0, m3 / m2**1.5),
            np.where(flat, 0.0, m4 / m2**2 - 3.0))


def correlation(a: np.ndarray | Centred, b: np.ndarray | Centred) -> np.ndarray:
    """Pearson correlation over the replication axis 0, per point; 0 where
    either side does not vary."""
    ca, cb = _centred(a), _centred(b)
    saa, sbb = np.sum(ca * ca, axis=-1), np.sum(cb * cb, axis=-1)
    flat = (saa == 0) | (sbb == 0)
    scale = np.sqrt(np.where(flat, 1.0, saa)) * np.sqrt(np.where(flat, 1.0, sbb))
    return np.where(flat, 0.0, np.clip(np.sum(ca * cb, axis=-1) / scale, -1.0, 1.0))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a (possibly mixed) c.d.f. callable.

    Compares right values and left limits at every distinct sample point, so
    ties and atoms of F are handled exactly (the plain order-statistic
    formula assumes a continuous F and no ties).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    # where each distinct value starts: the samples below it (np.unique
    # imports numpy.ma on first use)
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    uniq = xs[first]
    f_right = np.asarray(cdf(uniq), dtype=float)
    f_left = np.asarray(cdf(np.nextafter(uniq, -np.inf)), dtype=float)
    emp_right = np.append(first[1:], n) / n
    emp_left = first / n
    return float(max(np.max(np.abs(emp_right - f_right)),
                     np.max(np.abs(emp_left - f_left))))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """DKW/asymptotic critical value c(alpha)/sqrt(n)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
