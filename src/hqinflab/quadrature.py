"""Composite Gauss-Legendre quadrature over many intervals at once.

All fluid and variance surfaces in this package reduce to one-dimensional
integrals of bounded integrands built from service-time c.d.f.s against an
absolutely continuous arrival measure.  Those integrands are smooth except at
known kink/jump locations, which differ from one (t, y) point to the next, so
every interval ("row") carries its own breakpoints.  All rows are refined
together: each piece between consecutive breakpoints gets m equal panels of a
fixed 8-point rule, and m doubles until no row moves by more than ``TOL``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["integrate", "TOL", "MAX_PANELS"]

TOL = 1e-8
MAX_PANELS = 256            # per piece; a jump not listed as a breakpoint hits it
# the 8-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(8)
# gives it (written out: importing numpy.polynomial costs every process ~0.8 MB)
_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                   -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                   0.7966664774136267, 0.9602898564975362])
_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b, breakpoints=()):
    """int_a^b f(s) ds for every row of the broadcast of ``a``, ``b`` and the
    leading axes of ``breakpoints``, to absolute error ``TOL``.

    ``breakpoints`` has shape ``rows + (K,)`` (or ``(K,)``, shared by all
    rows); the ones inside a row's interval become panel edges, the others
    give zero-width panels.  ``f`` is called once per refinement with the
    abscissae of every row as one array of shape ``rows + (nodes,)``.  The
    estimate with 2m panels is returned once it is within ``TOL`` of the one
    with m panels on every row; a float for scalar rows.
    """
    cuts = np.asarray(breakpoints, dtype=float)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), cuts.shape[:-1])
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)[..., None]
    b = np.broadcast_to(np.asarray(b, dtype=float), shape)[..., None]
    if np.any(b < a):
        raise ValueError("integration bounds reversed: some row has b < a")
    cuts = np.broadcast_to(cuts, shape + cuts.shape[-1:])
    edges = np.sort(np.concatenate((a, np.clip(cuts, a, b), b), axis=-1), axis=-1)
    widths = np.diff(edges)                                     # rows + (pieces,)

    def rule(m: int) -> np.ndarray:
        h = (widths / m)[..., None]                             # rows + (pieces, 1)
        left = edges[..., :-1, None] + h * np.arange(m)         # rows + (pieces, m)
        x = left[..., None] + (0.5 * h)[..., None] * (_NODES + 1.0)
        flat = x.reshape(shape + (-1,))
        fx = np.broadcast_to(f(flat), flat.shape).reshape(x.shape)
        return np.sum(0.5 * h[..., 0] * (fx @ _WEIGHTS).sum(axis=-1), axis=-1)

    m = 1
    prev = rule(m)
    while True:
        m *= 2
        cur = rule(m)
        change = np.abs(cur - prev)
        if not change.size or change.max() <= TOL:
            return float(cur) if cur.ndim == 0 else cur
        if m >= MAX_PANELS:
            worst = np.unravel_index(np.argmax(change), shape)
            raise ValueError(
                f"integrate: row {tuple(map(int, worst))} over [{a[worst][0]}, "
                f"{b[worst][0]}] still moved by {change[worst]:.3e} at {m} panels "
                "per piece (a jump or kink missing from the breakpoints?)")
        prev = cur
