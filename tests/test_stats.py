"""The array statistics against their 1-D definitions, point by point.

The array forms reduce over the replication axis of an (R, T, Y) array; the
references below loop over the grid points and apply the textbook formula to
each 1-D sample x[:, i, j].  The two sum the same R terms, possibly in
another order (``np.corrcoef`` goes through a BLAS dot product), so they may
differ by a few R * eps of the largest term: under 1e-13 of a statistic's
largest magnitude at R = 300.  The bound used is 1e-12 of that magnitude.
The injected defects at the end each move a statistic by more than 1e-3 of
it, so the bound separates them from roundoff by nine orders.

The statistics' contract is tested too: they never write into their inputs,
a shared ``Centred`` copy included; that copy gives the same bits as the raw
values; skewness and kurtosis, with powers formed as products, stay within
1e-13 of the ``**`` formulas; and ``skew_kurtosis`` allocates at most two
copies of its input.
"""

import tracemalloc

import numpy as np
import pytest

from hqinflab.service import Exponential, FiniteAtoms
from hqinflab.stats import Centred, correlation, ks_distance, sample_var, skew_kurtosis

BOUND = 1e-12
R, T, Y = 300, 3, 4
CONSTANT = [(0, 0), (2, 1)]          # columns of x that do not vary
CONSTANT_B = [(1, 3)]                # a column of b that does not vary


def _sample():
    rng = np.random.default_rng(7)
    x = rng.exponential(size=(R, T, Y)) * np.arange(1, Y + 1) + np.arange(T)[:, None]
    x[:, 0, 0] = 3.0
    x[:, 2, 1] = 0.0
    b = 0.5 * x + rng.standard_normal((R, T, Y))
    b[:, 1, 3] = -2.0
    return x, b


def _per_point(stat, *arrays):
    return np.array([[stat(*(a[:, i, j] for a in arrays)) for j in range(Y)]
                     for i in range(T)])


def _var_1d(v):
    return np.sum((v - np.sum(v) / len(v)) ** 2) / (len(v) - 1)


def _skew_kurt_1d(v):
    c = v - np.sum(v) / len(v)
    m2 = np.sum(c**2) / len(v)
    if m2 == 0:
        return 0.0, 0.0
    return np.sum(c**3) / len(v) / m2**1.5, np.sum(c**4) / len(v) / m2**2 - 3.0


def _corr_1d(a, b):
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    return np.corrcoef(a, b)[0, 1]


def _worst(var, skew_kurt, corr) -> float:
    """The largest disagreement of the three array statistics with the
    loops, relative to each statistic's largest magnitude; a NaN counts as
    an infinite one."""
    x, b = _sample()
    pairs = [(var(x), _per_point(_var_1d, x)),
             (np.stack(skew_kurt(x), axis=-1), _per_point(_skew_kurt_1d, x)),
             (corr(x, b), _per_point(_corr_1d, x, b))]
    return max(float(np.max(np.nan_to_num(np.abs(got - want), nan=np.inf)))
               / np.max(np.abs(want)) for got, want in pairs)


def test_array_statistics_match_the_1d_definitions():
    assert _worst(sample_var, skew_kurtosis, correlation) <= BOUND


def test_degenerate_columns():
    x, b = _sample()
    skew, kurt = skew_kurtosis(x)
    corr = correlation(x, b)
    for ij in CONSTANT:
        assert (sample_var(x)[ij], skew[ij], kurt[ij], corr[ij]) == (0.0, 0.0, 0.0, 0.0)
    for ij in CONSTANT_B:
        assert corr[ij] == 0.0 and correlation(b, x)[ij] == 0.0
    live = np.ones((T, Y), dtype=bool)
    live[tuple(np.transpose(CONSTANT + CONSTANT_B))] = False
    assert np.all(np.abs(corr[live]) > 0.1) and np.all(skew[live] != 0.0)


def test_layout_changes_nothing():
    # each point's sums run over its own sample, whatever the memory layout
    x, b = _sample()
    assert np.array_equal(sample_var(np.moveaxis(np.moveaxis(x, 0, 1).copy(), 1, 0)),
                          sample_var(x))
    assert np.array_equal(sample_var(np.asfortranarray(x)), sample_var(x))
    assert float(sample_var(x[:, 1, 1])) == sample_var(x)[1, 1]
    assert float(correlation(x[:, 1, 1], b[:, 1, 1])) == correlation(x, b)[1, 1]
    assert tuple(map(float, skew_kurtosis(x[:, 1, 1]))) == (
        skew_kurtosis(x)[0][1, 1], skew_kurtosis(x)[1][1, 1])


# inputs whose points-last form is the caller's own memory (1-D, and an
# (R, T, Y) view of a contiguous (T, Y, R) array), and one it copies
LAYOUTS = {"1-D": lambda v: v[:, 1, 1].copy(),
           "points-last": lambda v: np.moveaxis(np.moveaxis(v, 0, -1).copy(), -1, 0),
           "replications-first": lambda v: v.copy()}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS)
def test_inputs_are_left_unchanged(layout):
    x, b = map(layout, _sample())
    cx, cb = Centred(x), Centred(b)
    arrays = (x, b, cx.c, cb.c)
    kept = [a.copy() for a in arrays]
    for values, other in ((x, b), (cx, cb), (cx, b)):
        sample_var(values)
        skew_kurtosis(values)
        correlation(values, other)
    assert all(np.array_equal(a, k) for a, k in zip(arrays, kept))
    assert not np.shares_memory(cx.c, x) and not np.shares_memory(cb.c, b)


def test_a_centred_copy_gives_the_same_bits():
    x, b = _sample()
    cx, cb = Centred(x), Centred(b)
    assert np.array_equal(sample_var(cx), sample_var(x))
    assert all(map(np.array_equal, skew_kurtosis(cx), skew_kurtosis(x)))
    assert np.array_equal(correlation(cx, cb), correlation(x, b))
    assert np.array_equal(correlation(cx, b), correlation(x, b))
    # and the variance is numpy's own, summed points-last
    assert np.array_equal(sample_var(x), np.var(np.moveaxis(x, 0, -1).copy(), axis=-1, ddof=1))


def test_skew_kurtosis_match_the_power_formulas():
    v = np.random.default_rng(11).standard_t(5, size=(6000, 8, 6))
    c = np.moveaxis(v, 0, -1).copy()
    c -= c.mean(axis=-1, keepdims=True)
    m2 = np.mean(c**2, axis=-1)
    skew, kurt = skew_kurtosis(v)
    assert np.max(np.abs(skew - np.mean(c**3, axis=-1) / m2**1.5)) <= 1e-13
    assert np.max(np.abs(kurt - (np.mean(c**4, axis=-1) / m2**2 - 3.0))) <= 1e-13


def test_skew_kurtosis_allocates_two_input_sizes():
    # the points-last copy, centred in place, and one scratch array for the
    # powers; the per-point sums and results, under 64 arrays of one
    # replication's size, are small beside them (a power temporary more
    # would add a whole input size)
    x = np.random.default_rng(3).standard_normal((6000, 8, 6))
    tracemalloc.start()
    try:
        skew_kurtosis(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * x.nbytes + 64 * x[0].nbytes


def _uncentred_skew_kurtosis(values):
    m2 = np.mean(values**2, axis=0)
    return np.mean(values**3, axis=0) / m2**1.5, np.mean(values**4, axis=0) / m2**2 - 3.0


def _uncentred_correlation(a, b):
    return np.sum(a * b, axis=0) / np.sqrt(np.sum(a * a, axis=0) * np.sum(b * b, axis=0))


@pytest.mark.parametrize("defect", [
    {"var": lambda v: np.var(v, axis=0, ddof=0)},
    {"var": lambda v: np.mean(v**2, axis=0) * R / (R - 1)},
    {"skew_kurt": _uncentred_skew_kurtosis},
    {"corr": _uncentred_correlation},
], ids=["var_ddof0", "var_uncentred", "skew_kurt_uncentred", "corr_uncentred"])
def test_injected_defects_exceed_the_bound(defect):
    stats = {"var": sample_var, "skew_kurt": skew_kurtosis, "corr": correlation, **defect}
    with np.errstate(invalid="ignore", divide="ignore"):
        assert _worst(stats["var"], stats["skew_kurt"], stats["corr"]) > 1e-3


def _ks_1d(samples, cdf):
    """sup |F_n - F| over right values and left limits at each distinct
    sample point, by a loop."""
    xs, n, worst = sorted(samples), len(samples), 0.0
    for x in set(xs):
        below, upto = sum(v < x for v in xs), sum(v <= x for v in xs)
        worst = max(worst, abs(upto / n - cdf(x)),
                    abs(below / n - cdf(float(np.nextafter(x, -np.inf)))))
    return worst


@pytest.mark.parametrize("law", [Exponential(1.0), FiniteAtoms(((0.5, 0.3), (1.5, 0.7)))],
                         ids=["Exponential", "FiniteAtoms"])
def test_ks_distance_with_ties(law):
    rng = np.random.default_rng(3)
    for samples in ([2.0], [2.0, 2.0, 1.0], rng.integers(0, 9, 200) / 4.0,
                    rng.permutation(np.repeat([0.5, 1.5, 3.0], [5, 1, 4]))):
        assert ks_distance(samples, law.cdf) == pytest.approx(_ks_1d(samples, law.cdf),
                                                              rel=0.0, abs=1e-15)
