"""Small statistics helpers for the validation harness."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sample_var", "skew_kurtosis", "correlation", "ks_distance",
           "ks_critical_value"]


def _points_last(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """``values`` with the replication ``axis`` last and contiguous, so that
    each point's sums run over its own sample as over a 1-D one (pairwise)."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=float), axis, -1))


def sample_var(values: np.ndarray, axis=0) -> np.ndarray:
    """Unbiased sample variance over the replication ``axis``, per point."""
    return np.var(_points_last(values, axis), axis=-1, ddof=1)


def skew_kurtosis(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sample skewness, excess kurtosis) over the replication axis 0, per
    point; (0, 0) where the sample does not vary."""
    v = _points_last(values)
    c = v - v.mean(axis=-1, keepdims=True)
    m2 = np.mean(c**2, axis=-1)
    flat = m2 == 0
    m2 = np.where(flat, 1.0, m2)
    return (np.where(flat, 0.0, np.mean(c**3, axis=-1) / m2**1.5),
            np.where(flat, 0.0, np.mean(c**4, axis=-1) / m2**2 - 3.0))


def correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation over the replication axis 0, per point; 0 where
    either side does not vary."""
    ca, cb = (v - v.mean(axis=-1, keepdims=True) for v in (_points_last(a), _points_last(b)))
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
