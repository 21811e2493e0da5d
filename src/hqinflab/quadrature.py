"""Adaptive Simpson quadrature for bounded, piecewise-smooth integrands.

All fluid and variance surfaces in this package reduce to one-dimensional
integrals of bounded integrands built from service-time c.d.f.s against an
absolutely continuous arrival measure.  Those integrands are smooth except at
a known finite set of kink/jump locations, so the integrator accepts explicit
breakpoints and subdivides there before going adaptive.
"""

from __future__ import annotations

from typing import Callable, Iterable

DEFAULT_TOL = 1e-8
MAX_INTERVALS = 10**6


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
             m: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, budget):
    """Classic bisecting Simpson with Richardson correction.

    `budget` is a one-element list holding the remaining interval count; when
    exhausted the current estimate is accepted.
    """
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or budget[0] <= 0:
        return left + right + delta / 15.0
    budget[0] -= 2
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, budget)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, budget))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = DEFAULT_TOL,
              breakpoints: Iterable[float] = (),
              max_intervals: int = MAX_INTERVALS) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Interior ``breakpoints`` split the domain first so discontinuities and
    kinks of the integrand sit on panel boundaries.
    """
    if b < a:
        raise ValueError(f"integration bounds reversed: [{a}, {b}]")
    if b == a:
        return 0.0
    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    edges = [a] + cuts + [b]
    budget = [max_intervals]
    total = 0.0
    npanels = len(edges) - 1
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo = f(lo)
        fhi = f(hi)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        whole = _simpson(f, lo, flo, hi, fhi, mid, fmid)
        total += _adaptive(f, lo, flo, hi, fhi, mid, fmid, whole,
                           tol / npanels, budget)
    return total

