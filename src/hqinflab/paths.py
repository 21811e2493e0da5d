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
       + sum_i [S_i(abar(t)) - S_i(abar(t - clip(x_i - y, 0, length)))]
                                                            (splitting)

with A-hat = sqrt(c_a^2) B(abar(.)), U a standard Kiefer process driven by a
Brownian sheet (Krichagina & Puhalskii 1997, QUESTA 25), and (S^c, S_1, ...,
S_m) a correlated Brownian motion with the multinomial splitting covariance.
One global partition of [0, t_max] (refinement k, with every window end and
start snapped in) carries all three sources.  Qr(t2, y) and Qr(t1, y + t2 -
t1) share the shift t2 + y and every component is a sum over partition
intervals, so the Markov decomposition holds pathwise, up to rounding:

  Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y).

Each component is linear in independent standard normals, X = Z @ M, with
M fixed (rows, G) weights on the G output columns.  Its rows are the
partition intervals for X1, the cells of the service sheet for X2 (interval
j is one strip of the sheet, cut at the levels F_c(v - s_j) of the windows
covering it) and the (time step, category) increments of the splitting
motion for X3.  The law of X depends on M only through M^T M, so the engine
samples X = Z' @ R, with R the triangle of the thin QR factorization M = QR
and Z' of shape (P, min(rows, G)): the same Gaussian law from G normals per
path.  R = Q^T M keeps every linear relation among M's columns up to
rounding, the Markov identity with it, and diag(R^T R) is the component's
exact variance at partition k.

With the residual workload, Wr(t, y) = int_y^xmax Qr(t, x) dx by the
trapezoid rule over x-columns Qr(t, x).  That combination is folded into the
weights before the factorization, so G counts the output columns only.

The bundle holds each path array once.  The components are drawn one at a
time, each kept on the grid only, as its own (P, T, Y) array, and added in
place into one (P, G) total; Qr, Qe, Wr and the Markov columns are views of
that total.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    M = QR.  Blocks are stacked under the triangle so far, and the stack is
    refactored, the QR of [R; M_b], whenever ``_STACK_ROWS`` rows came in."""
    r, stack, rows = np.zeros((0, width)), [], 0
    for block in blocks:
        stack.append(block)
        rows += len(block)
        if rows >= _STACK_ROWS:
            r, stack, rows = np.linalg.qr(np.concatenate([r] + stack), mode="r"), [], 0
    m = np.concatenate([r] + stack)
    return np.linalg.qr(m, mode="r") if len(m) > width else m


class _LimitEngine:
    """Shared partition, window columns, and per-component samplers.

    Window column g is (t[g], length[g], y[g]).  The columns are, in order:
    Qr on the grid product, Qr(t2, y) and Qr(t1, y + t2 - t1) for each Markov
    probe (together ``rp``), Qe on the grid product (``ep``), each probe's
    innovation Z (``zp``), and with an ``xgrid`` the x-columns Qr(t, x) for
    t on the grid.  ``covers[j, g]`` marks partition interval j as inside
    window g.  ``fold`` maps window columns to output columns: the same
    columns up to the x-columns, which it replaces by Wr on the grid product
    (``wp``).  Each component passes its weights on the output columns to
    ``_factor`` as row blocks, X2's built for all strips by one sort and one
    scatter per chunk (``_service_weights``), and records their rows in
    ``weight_rows``, its normals per path in ``drawn`` and its exact
    variance per output column in ``exact_var``.
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
        self.drawn: dict[str, int] = {}
        self.weight_rows: dict[str, int] = {}
        self.exact_var: dict[str, np.ndarray] = {}

        start = self.t - self.length
        base = np.linspace(0.0, t_max, k + 1)
        part = _dedupe(np.concatenate((base, self.t, start[start > 0.0])))
        self.s0 = part[:-1]           # left endpoints
        self.s1 = part[1:]            # right endpoints
        self.ds = self.s1 - self.s0
        self.partition = part
        self.dabar = np.diff(inputs.abar(part))
        self.covers = ((self.s1[:, None] <= self.t[None, :] + _TOL)
                       & (self.s0[:, None] >= start[None, :] - _TOL))

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

    def _weights(self, integrated_sf) -> np.ndarray:
        """(J, windows) interval averages of F^c(t + y - s) over each covered
        interval, for Ito-style sums."""
        w = np.zeros(self.covers.shape)
        rows, cols = np.nonzero(self.covers)
        shift = self.t[cols] + self.y[cols]
        w[rows, cols] = (integrated_sf(shift - self.s0[rows])
                         - integrated_sf(shift - self.s1[rows])) / self.ds[rows]
        return w

    # -- arrival-noise component -------------------------------------------

    def arrival_component(self, rng) -> np.ndarray:
        """X1 on every output column, shape (P, G): one normal per partition
        interval, of variance c_a^2 dabar_j, times the interval weights."""
        w = self._weights(self.inputs.service.integrated_sf)
        w *= np.sqrt(np.maximum(self.inputs.ca2 * self.dabar, 0.0))[:, None]
        return self._sample(rng, "X1", [w @ self.fold])

    # -- service-sampling component ------------------------------------------

    def _service_weights(self):
        """X2's weights on the output columns, in chunks of whole strips.

        Interval j is the strip (abar_c(s_{j-1}), abar_c(s_j)] of one shared
        sheet, cut at its levels u_0 < ... < u_{L-1} = 1: the distinct
        F_c(t + y - s_j) of the windows covering it, and 1.  Window g gets
        minus the Kiefer slice V_j(x) = W_j(x) - x W_j(1) at its level
        u_{pos_g}.  With one normal per level and scale_l = sqrt((u_l -
        u_{l-1}) dabar_c[j]),

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
        J, G = len(self.ds), self.fold.shape[1]
        # each strip's levels and 1, by sort and compare (np.unique imports
        # numpy.ma): ``at`` is each window's level row, ``u`` each row's level
        keys = np.append(self.dec.continuous_part.cdf(
            self.t[cols] + self.y[cols] - self.s1[rows]), np.ones(J))
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
            w *= -np.sqrt(np.maximum(du * self.dec.p_c * self.dabar[a + of], 0.0))[:, None]
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
        """X3's weights on the output columns, one row per (time step u,
        category c) normal: on the time grid of the partition and the atom
        window starts, category a moves by sqrt(dabar_u) sum_c root[a, c]
        Z[u, c] over step u.  Atom i counts its motion over (t - clip(x_i - y,
        0, length), t], S^c enters through the Ito-style sum over the
        partition intervals, so each row is the sum of its increments through
        ``root``, read at the window ends."""
        dec = self.dec
        starts = [self.t - np.clip(loc - self.y, 0.0, self.length) for loc, _ in dec.atoms]
        tgrid = _dedupe(np.concatenate([self.partition] + starts))
        dab = np.diff(self.inputs.abar(tgrid), prepend=0.0)

        def through(times: np.ndarray) -> np.ndarray:
            """(U, len(times)): 1 where step u lies in the path up to a time."""
            idx = np.clip(np.searchsorted(tgrid, times - _TOL), 0, len(tgrid) - 1)
            return (np.arange(len(tgrid))[:, None] <= idx[None, :]).astype(float)

        ends = np.zeros((len(tgrid), len(starts) + 1, self.fold.shape[1]))
        if dec.p_c > 0.0:
            ends[:, 0] = np.diff(through(self.partition), axis=1) @ (
                self._weights(dec.continuous_part.integrated_sf) @ self.fold)
        for i, start in enumerate(starts):
            ends[:, i + 1] = (through(self.t) - through(start)) @ self.fold
        # categories (continuous, atom_1, ..., atom_m) with probabilities p:
        # root root^T = diag(p) - p p^T, the multinomial splitting covariance
        p = np.array([dec.p_c] + [dec.p_d * m for _, m in dec.atoms])
        w = np.einsum("ac,uag->ucg", (np.eye(len(p)) - p[:, None]) * np.sqrt(p), ends)
        w *= np.sqrt(np.maximum(dab, 0.0))[:, None, None]
        yield w.reshape(-1, w.shape[2])

    def split_component(self, rng) -> np.ndarray:
        """X3 on every output column, shape (P, G); no draw when p_d = 0."""
        return self._sample(rng, "X3", self._split_weights() if self.dec.p_d > 0.0 else ())


# -- full bundle -------------------------------------------------------------------

@dataclass
class LimitPathBundle:
    """Limit paths of shape (P, T, Y) by name; for each Markov probe, keyed
    by its (t1, t2, y) as floats, the columns (Qr(t2, y), Qr(t1, y + t2 -
    t1), Z(t1, t2, y)), which ``markov_check`` gates; and the engine's size
    and exact law: its J intervals, G output columns, the weight rows and
    normals per path of each component, and the exact variance on the grid
    of each component and of Wr.  Each of X1, X2 and X3 is its own array on
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
        xmax = inputs.service.sf_quantile(1e-6)
        dense = np.linspace(0.0, xmax, max(int(8 * xmax), 40) + 1)
        xgrid = _dedupe(np.concatenate((dense, grid.y[grid.y <= xmax])))
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
    engine = {"J": len(eng.ds), "G": total.shape[1],
              "weight_rows": dict(sorted(eng.weight_rows.items())),
              "normals_per_path": dict(sorted(eng.drawn.items())), "exact_var": exact}
    return LimitPathBundle(paths=paths, markov=markov, engine=engine)

