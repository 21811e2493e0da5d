"""Direct simulation of the Gaussian limit processes on grids.

Every count the engine evaluates is a window (t, length, y): the arrivals in
(t - length, t] still in service at t + y.  The residual count, the elapsed
count and the Markov innovation (Pang & Whitt 2010, QUESTA 65) are columns
of one window set:

  Qr(t, y)         = (t, t, y)
  Qe(t, y)         = (t, y, 0)          (y clamped to t)
  Z(t1, t2, y)     = (t2, t2 - t1, y)

The limit of a window count is assembled pathwise from three independent
noise sources, with shift v = t + y and start u = t - length:

  X1 = int_u^t F^c(v - s) dA-hat(s)                         (arrival noise)
  X2 = -int int_{u < s <= t} 1(s + x <= v) dU(abar_c(s), F_c(x))
                                                            (service sampling)
  X3 = int_u^t F_c^c(v - s) dS^c(abar(s))
       + sum_i int_u^t 1(x_i > v - s) dS_i(abar(s))         (splitting)

with A-hat = sqrt(c_a^2) B(abar(.)), U a standard Kiefer process driven by a
Brownian sheet (Krichagina & Puhalskii 1997, QUESTA 25), and (S^c, S_1, ...,
S_m) a correlated Brownian motion with the multinomial splitting covariance.

One set of nodes carries all three sources: [0, t_max] is cut at every
window end and start, and at each window's shift minus a law breakpoint
inside it (the cuts ``LimitInputs.int_abar`` makes); each piece
gets ceil(k len / t_max) Gauss-Legendre nodes s_n of mass mu_n = w_n
rate(s_n), so each component's exact covariance is a Gauss rule for the
limit's.  Each probe's t1 is a piece end, and Qr(t2, y) and Qr(t1, y + t2 -
t1) share the shift t2 + y, so the Markov decomposition holds pathwise, up
to rounding:

  Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y).

Each component is linear in independent standard normals, X = Z @ M, with
M fixed (rows, G) weights on the G output columns: one row per node for X1,
per cell of the service sheet for X2 (node n is one strip of the sheet, cut
at the levels F_c(v - s_n) of the windows covering it) and per (node,
category) increment of the splitting motion for X3.  The law of X depends
on M only through M^T M, so the engine samples X = Z' @ R, with R the
triangle of M = QR, each row signed so that its diagonal entry is
nonnegative, and Z' of shape (P, min(rows, G)): the same law from G normals
per path.  R = Q^T M keeps every linear relation among M's columns up to
rounding, the Markov identity with it, and diag(R^T R) is the component's
exact variance at refinement k.

With the residual workload, Wr(t, y) = int_y^xmax Qr(t, x) dx by the
trapezoid rule over x-columns Qr(t, x), folded into the weights before the
factorization, so G counts the output columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import Grid
from .limits import LimitInputs

__all__ = ["assemble_limit_bundle", "LimitPathBundle"]

_TOL = 1e-9
_STACK_ROWS = 4096   # weight rows stacked under the triangle before each QR


# -- evaluation plan ------------------------------------------------------------

def _dedupe(values: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.concatenate(([True], np.diff(values) > 1e-12))
    return values[keep]


def _factor(blocks, width: int) -> np.ndarray:
    """R with R^T R = M^T M, for the (rows, width) weights M given as row
    blocks: M itself when rows <= width, else the (width, width) triangle of
    M = QR, each row's sign set so that its diagonal entry is nonnegative.
    Blocks are stacked under the triangle so far, and the stack is
    refactored, the QR of [R; M_b], whenever ``_STACK_ROWS`` rows came in."""
    r, stack, rows = np.zeros((0, width)), [], 0
    for block in blocks:
        stack.append(block)
        rows += len(block)
        if rows >= _STACK_ROWS:
            r, stack, rows = np.linalg.qr(np.concatenate([r] + stack), mode="r"), [], 0
    m = np.concatenate([r] + stack)
    if len(m) <= width and not len(r):
        return m
    r = np.linalg.qr(m, mode="r")
    return r * np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None]


def _gauss_legendre(m: int):
    """The m-point Gauss-Legendre rule on [-1, 1] by Golub & Welsch (1969):
    the Jacobi matrix's eigenvalues, and twice the squared first components
    of its eigenvectors (importing numpy.polynomial costs ~0.8 MB)."""
    i = np.arange(1.0, m)
    b = i / np.sqrt(4.0 * i * i - 1.0)
    x, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    return x, 2.0 * v[0] ** 2


class _LimitEngine:
    """Shared nodes, window columns, and per-component samplers.

    Window column g is (t[g], length[g], y[g]), with shift ``v[g]`` = t[g] +
    y[g].  The columns are, in order: Qr on the grid product, Qr(t2, y) and
    Qr(t1, y + t2 - t1) for each Markov probe (together ``rp``), Qe on the
    grid product (``ep``), each probe's innovation Z (``zp``), and with an
    ``xgrid`` the x-columns Qr(t, x) for t on the grid.  ``s0`` holds the
    nodes, ``mu`` their masses, and ``covers[n, g]`` marks node n as inside
    window g.  ``fold`` maps window columns to output columns: the same
    columns up to the x-columns, which it replaces by Wr on the grid product
    (``wp``).  Each component records its weight rows in ``weight_rows``,
    its normals per path in ``drawn`` and its exact variance per output
    column in ``exact_var``.
    """

    def __init__(self, inputs: LimitInputs, grid: Grid, k: int, n_paths: int,
                 xgrid=None, markov_probes=()):
        if k < 1:
            raise ValueError("refinement k must be >= 1")
        self.inputs = inputs
        self.n_paths = int(n_paths)
        self.dec = inputs.decomposition
        t_max = float(grid.t[-1])
        self.probes = [tuple(map(float, p)) for p in markov_probes]
        for t1, t2, _y in self.probes:
            if not (0.0 <= t1 <= t2 <= t_max + _TOL):
                raise ValueError(f"markov probe ({t1}, {t2}) outside [0, t_max]")

        T, Y = grid.shape
        gt, gy = np.repeat(grid.t, Y), np.tile(grid.y, T)
        t1, t2, py = np.reshape(np.asarray(self.probes, dtype=float), (-1, 3)).T
        xgrid = np.zeros(0) if xgrid is None else np.asarray(xgrid, dtype=float)
        xt, xy = np.repeat(grid.t, len(xgrid)), np.tile(xgrid, T)
        r_t = np.concatenate((gt, t2, t1))
        r_y = np.concatenate((gy, py, py + (t2 - t1)))
        self.t = np.concatenate((r_t, gt, t2, xt))
        self.length = np.concatenate((r_t, np.minimum(gy, gt), t2 - t1, xt))
        self.y = np.concatenate((r_y, np.zeros(T * Y), py, xy))
        self.v = self.t + self.y
        n_r, n = len(r_t), len(r_t) + T * Y + len(t2)
        self.rp = np.arange(n_r)
        self.ep = np.arange(n_r, n_r + T * Y)
        self.zp = np.arange(n_r + T * Y, n)
        self.wp = np.arange(n, n + T * Y) if len(xgrid) else np.arange(0)
        self.fold = np.eye(len(self.t), n + len(self.wp))
        if len(xgrid):
            # x node i's trapezoid weight in Wr(t, y_m) = int_{y_m}^xmax Qr(t, x) dx
            i, m = np.arange(len(xgrid))[:, None], np.searchsorted(xgrid, grid.y - _TOL)
            dx = np.diff(xgrid)
            wr = 0.5 * (np.append(dx, 0.0)[:, None] * (i >= m) + np.append(0.0, dx)[:, None] * (i > m))
            self.fold[n:, n:] = np.kron(np.eye(T), wr)
        self.drawn, self.weight_rows, self.exact_var = {}, {}, {}

        # pieces: the cuts of the module docstring; ceil(k len / t_max) nodes each
        start = self.t - self.length
        kinks = self.v[:, None] - np.asarray(inputs.service.breakpoints(), dtype=float)
        inside = (kinks > start[:, None]) & (kinks < self.t[:, None])
        cuts = _dedupe(np.concatenate((self.t, start, kinks[inside])))
        lo, hi = cuts[:-1], cuts[1:]
        count = np.maximum(np.ceil(k * (hi - lo) / t_max - _TOL), 1.0).astype(int)
        rules = {m: _gauss_legendre(m) for m in set(count.tolist())}
        x, w = (np.concatenate([np.zeros(0)] + [rules[m][i] for m in count]) for i in (0, 1))
        half = np.repeat(0.5 * (hi - lo), count)
        self.s0 = np.repeat(0.5 * (lo + hi), count) + half * x    # the nodes
        self.mu = half * w * inputs.rate(self.s0)                  # their masses
        self.covers = (self.s0[:, None] > start[None, :]) & (self.s0[:, None] < self.t[None, :])

    # -- plumbing ---------------------------------------------------------

    def _normals(self, rng, shape):
        return rng.standard_normal(shape)

    def _sample(self, rng, name: str, blocks) -> np.ndarray:
        """A (P, G) draw of Z @ M, for the weights M given as row blocks on
        the output columns, as Z' @ R with R = ``_factor(blocks)``.  Records
        M's rows, R's rows (normals per path) and diag(R^T R)."""
        sizes = []                                # M's rows, counted as they pass
        r = _factor((sizes.append(len(b)) or b for b in blocks), self.fold.shape[1])
        self.weight_rows[name], self.drawn[name] = sum(sizes), len(r)
        self.exact_var[name] = np.einsum("ij,ij->j", r, r)
        return self._normals(rng, (self.n_paths, len(r))) @ r

    def _at_nodes(self, f) -> np.ndarray:
        """(J, windows): f(v[g] - s_n) where window g covers node n, else 0."""
        return np.where(self.covers, f(self.v - self.s0[:, None]), 0.0)

    # -- arrival-noise component -------------------------------------------

    def arrival_component(self, rng) -> np.ndarray:
        """X1 on every output column, shape (P, G): one normal per node, of
        variance c_a^2 mu_n, times F^c at each covering window's shift."""
        w = self._at_nodes(self.inputs.service.sf)
        w *= np.sqrt(self.inputs.ca2 * self.mu)[:, None]
        return self._sample(rng, "X1", [w @ self.fold])

    # -- service-sampling component ------------------------------------------

    def _service_weights(self):
        """X2's weights on the output columns, in chunks of whole strips.

        Node j is a strip of mass p_c mu_j of one shared sheet, cut at its
        levels u_0 < ... < u_{L-1} = 1: the distinct F_c(v - s_j) of the
        windows covering it, and 1.  Window g gets minus the Kiefer slice
        V_j(x) = W_j(x) - x W_j(1) at its level u_{pos_g}.  With one normal
        per level and scale_l = sqrt((u_l - u_{l-1}) p_c mu_j),

          M[l, g] = -scale_l (1[l <= pos_g] - u_{pos_g})   (0 off the window).

        With K[p] the sum of the ``fold`` rows of the windows at level p, row
        l is -scale_l (sum_{p >= l} K[p] - u^T K).  One sort numbers the
        levels of all strips.  Per chunk, one bincount adds the fold's
        nonzeros into K in window order, as ``np.add.at`` would, each strip's
        levels top first and zero-padded to the chunk's longest strip, so one
        cumsum forms every reverse sum.  Chunks end where ``_factor``
        refactors: it factors the stacks of a strip-by-strip build.
        """
        rows, cols = np.nonzero(self.covers)      # strip by strip
        J, G = len(self.s0), self.fold.shape[1]
        # each strip's levels and 1, by sort and compare (np.unique imports
        # numpy.ma): ``at`` is each window's level row, ``u`` each row's level
        keys = np.append(self.dec.continuous_part.cdf(self.v[cols] - self.s0[rows]), np.ones(J))
        strip = np.append(rows, np.arange(J))
        order = np.lexsort((keys, strip))
        strip, keys = strip[order], keys[order]
        new = np.append(True, (strip[1:] != strip[:-1]) | (keys[1:] != keys[:-1]))
        at = np.empty(len(keys), dtype=np.intp)
        at[order] = np.cumsum(new) - 1
        at, u, ends = at[:len(rows)], keys[new], np.searchsorted(strip[new], np.arange(J + 1))
        cut = np.searchsorted(rows, np.arange(J + 1))
        del keys, strip, order, new, rows          # a generator keeps its locals
        fr, fc = np.nonzero(self.fold)            # fold rows as runs of nonzeros
        fv, run = self.fold[fr, fc], np.searchsorted(fr, np.arange(len(self.fold) + 1))

        def chunk(a, b):
            lo, size = ends[a], np.diff(ends[a:b + 1])
            of, width = np.repeat(np.arange(b - a), size), int(size.max())   # row's strip
            # each row's cell in (strip, width): its strip's levels top first
            cell = of * width + np.repeat(ends[a + 1:b + 1] - lo, size) - 1 - np.arange(len(of))
            e, c = at[cut[a]:cut[b]] - lo, cols[cut[a]:cut[b]]
            n = run[c + 1] - run[c]               # the covering windows' fold nonzeros
            nz = np.arange(n.sum()) + np.repeat(run[c] - np.cumsum(n) + n, n)
            k = np.bincount(np.repeat(cell[e], n) * G + fc[nz], fv[nz],
                            minlength=(b - a) * width * G).reshape(b - a, width, G)
            np.cumsum(k, axis=1, out=k)
            k -= np.bincount(np.repeat(of[e], n) * G + fc[nz], np.repeat(u[lo + e], n) * fv[nz],
                             minlength=(b - a) * G).reshape(b - a, 1, G)
            w, du = k.reshape(-1, G)[cell], np.diff(u[lo:ends[b]], prepend=0.0)
            du[ends[a:b] - lo] = u[ends[a:b]]
            w *= -np.sqrt(np.maximum(du * self.dec.p_c * self.mu[a + of], 0.0))[:, None]
            return w

        a = 0
        while a < J:
            b = min(int(np.searchsorted(ends, ends[a] + _STACK_ROWS)), J)
            yield chunk(a, b)
            a = b

    def service_component(self, rng) -> np.ndarray:
        """X2 on every output column, shape (P, G); no draw when p_c = 0."""
        return self._sample(rng, "X2", self._service_weights() if self.dec.p_c > 0.0 else ())

    # -- splitting component ---------------------------------------------------

    def _split_weights(self):
        """X3's weights on the output columns, one row per (node n, category
        c) normal.  Category a's value at node n is F_c^c(v - s_n) for the
        continuous part and 1(x_i > v - s_n) for atom i, on the windows that
        cover the node; row (n, c) is sqrt(mu_n) sum_a root[a, c] times
        category a's values, with root root^T = diag(p) - p p^T, the
        multinomial splitting covariance of the categories (continuous,
        atom_1, ..., atom_m) with probabilities p."""
        dec = self.dec
        cont = dec.continuous_part.sf if dec.p_c > 0.0 else np.zeros_like
        values = [self._at_nodes(f) @ self.fold
                  for f in [cont] + [partial(np.greater, loc) for loc, _ in dec.atoms]]
        p = np.array([dec.p_c] + [dec.p_d * m for _, m in dec.atoms])
        w = np.einsum("ac,ang->ncg", (np.eye(len(p)) - p[:, None]) * np.sqrt(p), values)
        w *= np.sqrt(self.mu)[:, None, None]
        yield w.reshape(-1, w.shape[2])

    def split_component(self, rng) -> np.ndarray:
        """X3 on every output column, shape (P, G); no draw when p_d = 0."""
        return self._sample(rng, "X3", self._split_weights() if self.dec.p_d > 0.0 else ())


# -- full bundle -------------------------------------------------------------------

@dataclass
class LimitPathBundle:
    """Limit paths of shape (P, T, Y) by name; for each Markov probe, in
    probe order and keyed by its (t1, t2, y) as floats, the columns (Qr(t2,
    y), Qr(t1, y + t2 - t1), Z(t1, t2, y)), which ``limit_path_validation``
    gates last; and the engine's size and exact law: its J nodes, G output
    columns, the weight rows and normals per path of each component, and
    the exact variance on the grid of each component and of Wr.  Each of
    X1, X2 and X3 is its own array on
    the grid; Qr, Qe, Wr and the Markov columns are views of one (P, G)
    total, so writing into one writes into the others."""
    paths: dict[str, np.ndarray]
    markov: dict
    engine: dict


def assemble_limit_bundle(inputs: LimitInputs, grid: Grid, k: int,
                          rng: np.random.Generator, n_paths: int = 1,
                          workload: bool = False, markov_probes=()) -> LimitPathBundle:
    """Simulate the joint limit on the grid: the three components, Qr, Qe,
    and (when asked) the residual workload Wr and the Markov probe columns.

    Independent substreams drive the arrival noise, the service sheet and
    the splitting noise.
    """
    xgrid = None
    if workload:
        inputs.require_finite_mean("limit workload paths")
        # step 1/8 up to F^c = 1e-2, then each step 1.05 times the last, up
        # to F^c = 1e-12
        svc, end = inputs.service, inputs.service.sf_quantile(1e-12)
        xgrid = list(np.arange(np.ceil(8.0 * svc.sf_quantile(1e-2)) + 1.0) / 8.0)
        while xgrid[-1] < end:
            xgrid.append(xgrid[-1] + 1.05 * (xgrid[-1] - xgrid[-2]))
        xgrid = _dedupe(np.append(xgrid, grid.y[grid.y <= xgrid[-1]]))
    eng = _LimitEngine(inputs, grid, k, n_paths, xgrid=xgrid, markov_probes=markov_probes)
    T, Y = grid.shape

    def on_grid(cols: np.ndarray) -> np.ndarray:
        return cols[..., :T * Y].reshape(cols.shape[:-1] + (T, Y))

    # one component at a time: its grid block is kept as its own array, and
    # it is added into the total in place, as x1 + x2 + x3 adds (x2 + x1 is
    # x1 + x2).  X2 goes first, so that no path array is held beside its
    # weight build, the largest transient on fine grids
    r_a, r_s, r_sp = rng.spawn(3)
    total = eng.service_component(r_s)
    paths = {"X2": on_grid(total).copy()}
    for name, draw, r in (("X1", eng.arrival_component, r_a),
                          ("X3", eng.split_component, r_sp)):
        x = draw(r)
        paths[name] = on_grid(x).copy()
        total += x
        del x                                  # before the next draw

    paths["Qr"], paths["Qe"] = on_grid(total), on_grid(total[:, eng.ep[0]:])
    if workload:
        paths["Wr"] = on_grid(total[:, eng.wp[0]:])

    n_p = len(eng.probes)
    lhs, shifted = eng.rp[len(eng.rp) - 2 * n_p:].reshape(2, n_p)
    markov = {probe: (total[:, a], total[:, b], total[:, g])
              for probe, a, b, g in zip(eng.probes, lhs, shifted, eng.zp)}
    # by component name, though X2 was drawn first
    var = dict(sorted(eng.exact_var.items()))
    exact = {name: on_grid(v) for name, v in var.items()}
    if workload:
        exact["Wr"] = sum(v[eng.wp] for v in var.values()).reshape(T, Y)
    engine = {"J": len(eng.s0), "G": total.shape[1],
              "weight_rows": dict(sorted(eng.weight_rows.items())),
              "normals_per_path": dict(sorted(eng.drawn.items())), "exact_var": exact}
    return LimitPathBundle(paths=paths, markov=markov, engine=engine)

