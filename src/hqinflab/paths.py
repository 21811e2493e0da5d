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
Brownian sheet, and (S^c, S_1, ..., S_m) a correlated Brownian motion with
the multinomial splitting covariance.  One global partition of [0, t_max]
(refinement k, with every window end and start snapped in) carries all three
sources, so a single draw of the underlying noise drives every column of a
path.  Qr(t2, y) and Qr(t1, y + t2 - t1) share the shift t2 + y and every
component is a sum over partition intervals, so the Markov decomposition
holds pathwise, up to rounding:

  Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y).

This service sheet is the package's only Brownian sheet.  It is simulated
by independent rectangle increments of variance equal to the rectangle
area; the Kiefer bridge is read off as U(s, x) = W(s, x) - x W(s, 1).
Partition interval j is one strip of the sheet, cut at the levels
F_c(v - s_j) of the windows covering it, one normal per cell.  X2 is linear
in these normals, so the whole field is one matrix product

  X2 = Z @ M,

with Z the (P, cells) normals and M the fixed (cells, columns) weights of
the Kiefer bridge (Krichagina & Puhalskii 1997, QUESTA 25).  The engine
forms it a block of strips at a time: a block of few cells as a dense
product, a strip of many cells as a cumulative sum and a gather, so the work
stays linear in the cells and the covered (strip, column) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid
from .limits import LimitInputs
from .stats import correlation

__all__ = [
    "assemble_limit_bundle",
    "markov_decomposition_check",
    "LimitPathBundle",
    "MarkovCheckResult",
]

_TOL = 1e-9
_BLOCK_NORMALS = 2**18   # normals per block of the service sheet (2 MB)
_DENSE_LEVELS = 32       # levels per path up to which a block is one matmul


# -- evaluation plan ------------------------------------------------------------

def _dedupe(values: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.concatenate(([True], np.diff(values) > 1e-12))
    return values[keep]


class _LimitEngine:
    """Shared partition, window columns, and per-component samplers.

    Column g is the window (t[g], length[g], y[g]).  The columns are, in
    order: Qr on the grid product, Qr on the extra (t, y) pairs, Qr(t2, y)
    and Qr(t1, y + t2 - t1) for each Markov probe (together ``rp``), Qe on
    the grid product (``ep``), and each probe's innovation Z (``zp``).
    ``covers[j, g]`` marks partition interval j as inside window g.
    """

    def __init__(self, inputs: LimitInputs, grid: Grid, k: int, n_paths: int,
                 extra_r_pairs=(), markov_probes=()):
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
        xt, xy = np.reshape(np.asarray(extra_r_pairs, dtype=float), (-1, 2)).T
        t1, t2, py = np.reshape(np.asarray(self.probes, dtype=float), (-1, 3)).T
        r_t = np.concatenate((gt, xt, t2, t1))
        r_y = np.concatenate((gy, xy, py, py + (t2 - t1)))
        self.t = np.concatenate((r_t, gt, t2))
        self.length = np.concatenate((r_t, np.minimum(gy, gt), t2 - t1))
        self.y = np.concatenate((r_y, np.zeros(T * Y), py))
        n_r = len(r_t)
        self.rp = np.arange(n_r)
        self.ep = np.arange(n_r, n_r + T * Y)
        self.zp = np.arange(n_r + T * Y, len(self.t))

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

    def _weights(self, integrated_sf) -> np.ndarray:
        """(J, G) interval averages of F^c(t + y - s) over each covered
        interval, for Ito-style sums."""
        w = np.zeros(self.covers.shape)
        rows, cols = np.nonzero(self.covers)
        shift = self.t[cols] + self.y[cols]
        w[rows, cols] = (integrated_sf(shift - self.s0[rows])
                         - integrated_sf(shift - self.s1[rows])) / self.ds[rows]
        return w

    # -- arrival-noise component -------------------------------------------

    def arrival_component(self, rng) -> np.ndarray:
        """X1 on every column, shape (P, G)."""
        dA = self._normals(rng, (self.n_paths, len(self.ds)))
        dA *= np.sqrt(np.maximum(self.inputs.ca2 * self.dabar, 0.0))[None, :]
        return dA @ self._weights(self.inputs.service.integrated_sf)

    # -- service-sampling component ------------------------------------------

    def _sheet_levels(self):
        """The levels of the service sheet, one normal per path each: for each
        interval j in turn, the distinct F_c(t + y - s_j) of the windows
        covering it, and 1, ascending.

        Returns ``start`` (interval j owns levels start[j]:start[j + 1]), each
        level's interval, index within it, value and scale, and the (J, G)
        arrays ``pos`` (pos_g, -1 off the window) and ``lev`` (u_{pos_g}, 0
        off it).
        """
        J, G = self.covers.shape
        rows, cols = np.nonzero(self.covers)
        level = np.asarray(self.dec.continuous_part.cdf(
            self.t[cols] + self.y[cols] - self.s1[rows]), dtype=float)
        # the distinct (row, level) pairs, sorted, by sort and compare
        # (np.unique imports numpy.ma on first use); nonzero sorts the rows
        covered = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]   # each gets level 1
        key_row = np.concatenate((rows, covered))
        key_lev = np.concatenate((level, np.ones(len(covered))))
        order = np.lexsort((key_lev, key_row))
        key_row, key_lev = key_row[order], key_lev[order]
        new = np.concatenate(([True], (key_row[1:] != key_row[:-1])
                              | (key_lev[1:] != key_lev[:-1])))
        lev_row, u = key_row[new], key_lev[new]
        inv = np.empty(len(order), dtype=np.intp)
        inv[order] = np.cumsum(new) - 1        # each pair's index in (lev_row, u)
        start = np.concatenate(([0], np.cumsum(np.bincount(lev_row, minlength=J))))
        lev_idx = np.arange(len(u)) - start[lev_row]
        below = np.concatenate(([0.0], u[:-1]))
        below[lev_idx == 0] = 0.0
        scale = np.sqrt(np.maximum((u - below) * (self.dec.p_c * self.dabar)[lev_row], 0.0))
        pos = np.full((J, G), -1)
        pos[rows, cols] = inv[:len(rows)] - start[rows]
        lev = np.zeros((J, G))
        lev[rows, cols] = level
        return start, lev_row, lev_idx, u, scale, pos, lev

    def service_component(self, rng) -> np.ndarray:
        """X2 on every column, shape (P, G): the matrix product Z @ M.

        Interval j is the strip (abar_c(s_{j-1}), abar_c(s_j)] of one shared
        sheet, cut at its levels u_0 < ... < u_{L-1} = 1; column g gets minus
        the Kiefer slice V_j(x) = W_j(x) - x W_j(1) at its level u_{pos_g}.
        With one normal Z_l per level and scale_l = sqrt((u_l - u_{l-1})
        dabar_c[j]),

          M[l, g] = -scale_l (1[l <= pos_g] - u_{pos_g})   (0 off the window).

        The normals are drawn in interval order, (P, L_j) at a time.  Whole
        intervals are grouped into blocks of at most ``_BLOCK_NORMALS``
        normals and ``_DENSE_LEVELS`` levels per path; such a block adds
        Z_b @ M_b to the span of columns its windows touch.  An interval with
        more levels is a block of its own and applies M without forming it:
        W_j is the cumulative sum of scale * Z, and each covering column
        gathers -V_j at its level.  A dense block costs P L_b per column of
        its span, the gather P (L_j + A_j) for A_j covering columns.
        """
        P, G = self.n_paths, len(self.t)
        if self.dec.p_c == 0.0:
            return np.zeros((P, G))
        x2 = np.zeros((G, P))                     # one row per column
        start, lev_row, lev_idx, u, scale, pos, lev = self._sheet_levels()
        budget = min(max(_BLOCK_NORMALS // P, 1), _DENSE_LEVELS)   # levels per block
        j0 = 0
        while j0 < len(self.ds):
            j1 = max(int(np.searchsorted(start, start[j0] + budget, "right")) - 1, j0 + 1)
            a, b = start[j0], start[j1]
            # interval j's (P, L_j) normals follow those of the intervals before it
            draw = self._normals(rng, (P * (b - a),))
            if b - a > _DENSE_LEVELS:             # one interval, L_j levels
                w = np.ascontiguousarray(draw.reshape(P, -1).T)    # (L_j, P)
                w *= scale[a:b, None]
                np.cumsum(w, axis=0, out=w)
                w -= u[a:b, None] * w[-1]
                act = np.flatnonzero(pos[j0] >= 0)
                x2[act] -= w[pos[j0, act]]
            else:
                z = np.concatenate([cut.reshape(P, -1) for cut in
                                    np.split(draw, P * (start[j0 + 1:j1] - a))], axis=1)
                # not empty: every interval lies in the window of Qr(t_max, y)
                span = np.nonzero(self.covers[j0:j1].any(axis=0))[0]
                lo, hi = span[0], span[-1] + 1
                jr, li = lev_row[a:b], lev_idx[a:b]
                m = -scale[a:b, None] * ((li[:, None] <= pos[jr, lo:hi]) - lev[jr, lo:hi])
                x2[lo:hi] += m.T @ z.T
            j0 = j1
        return np.ascontiguousarray(x2.T)

    # -- splitting component ---------------------------------------------------

    def _split_cov_root(self) -> np.ndarray:
        """Square root of the (m+1)-dim multinomial splitting covariance for
        categories (continuous, atom_1, ..., atom_m)."""
        evals, evecs = np.linalg.eigh(self.dec.split_covariance())
        if evals.min() < -1e-10:
            raise ValueError(f"splitting covariance not PSD: min eigenvalue {evals.min()}")
        return evecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]

    def split_component(self, rng) -> np.ndarray:
        """X3 on every column, shape (P, G)."""
        P = self.n_paths
        x3 = np.zeros((P, len(self.t)))
        dec = self.dec
        if dec.p_d == 0.0:
            # pure continuous service: no splitting noise at all
            return x3
        # atom i counts S_i over (t - clip(x_i - y, 0, length), t]
        starts = [self.t - np.clip(loc - self.y, 0.0, self.length) for loc, _ in dec.atoms]
        tgrid = _dedupe(np.concatenate([self.partition] + starts))
        dab = np.diff(self.inputs.abar(tgrid), prepend=0.0)
        root = self._split_cov_root()
        z = self._normals(rng, (P, len(tgrid), len(starts) + 1))
        z *= np.sqrt(np.maximum(dab, 0.0))[None, :, None]
        paths = z @ root.T                        # (P, U, m+1); col 0 = S^c
        del z
        np.cumsum(paths, axis=1, out=paths)

        def at(times: np.ndarray, comp: int) -> np.ndarray:
            idx = np.clip(np.searchsorted(tgrid, times - _TOL), 0, len(tgrid) - 1)
            return paths[:, idx, comp]

        # Ito-style term driven by S^c against the continuous-part survival
        if dec.p_c > 0.0:
            x3 += np.diff(at(self.partition, 0), axis=1) @ self._weights(
                dec.continuous_part.integrated_sf)
        for i, start in enumerate(starts):
            x3 += at(self.t, i + 1) - at(start, i + 1)
        return x3


# -- full bundle -------------------------------------------------------------------

@dataclass
class LimitPathBundle:
    """Limit paths of shape (P, T, Y) by name, and for each Markov probe the
    columns (Qr(t2, y), Qr(t1, y + t2 - t1), Z(t1, t2, y))."""
    paths: dict[str, np.ndarray]
    markov: dict


@dataclass(frozen=True)
class MarkovCheckResult:
    residual_max: float
    correlation: float


def assemble_limit_bundle(inputs: LimitInputs, grid: Grid, k: int,
                          rng: np.random.Generator, n_paths: int = 1,
                          workload: bool = False, markov_probes=()) -> LimitPathBundle:
    """Simulate the joint limit on the grid: the three components, Qr, Qe,
    and (when asked) the residual workload Wr and the Markov probe columns.

    Independent substreams drive the arrival noise, the service sheet and
    the splitting noise.
    """
    extra = ()
    if workload:
        inputs.require_finite_mean("limit workload paths")
        xmax = inputs.service.sf_quantile(1e-6)
        dense = np.linspace(0.0, xmax, max(int(8 * xmax), 40) + 1)
        xgrid = _dedupe(np.concatenate((dense, grid.y[grid.y <= xmax])))
        extra = [(t, x) for t in grid.t for x in xgrid]
    eng = _LimitEngine(inputs, grid, k, n_paths, extra_r_pairs=extra,
                       markov_probes=markov_probes)
    r_a, r_s, r_sp = rng.spawn(3)
    x1 = eng.arrival_component(r_a)
    x2 = eng.service_component(r_s)
    x3 = eng.split_component(r_sp)
    total = x1 + x2 + x3

    T, Y = grid.shape
    P = n_paths

    def on_grid(cols: np.ndarray) -> np.ndarray:
        return cols[:, :T * Y].reshape(P, T, Y)

    paths = {"X1": on_grid(x1), "X2": on_grid(x2), "X3": on_grid(x3),
             "Qr": on_grid(total), "Qe": total[:, eng.ep].reshape(P, T, Y)}
    if workload:
        X = len(xgrid)
        qr_x = total[:, T * Y:T * Y + T * X].reshape(P, T, X)
        trap = 0.5 * (qr_x[:, :, 1:] + qr_x[:, :, :-1]) * np.diff(xgrid)[None, None, :]
        rev = np.concatenate((np.zeros((P, T, 1)), np.cumsum(trap[:, :, ::-1], axis=2)), axis=2)[:, :, ::-1]
        wr = np.zeros((P, T, Y))
        inside = grid.y <= xgrid[-1]
        wr[:, :, inside] = rev[:, :, np.searchsorted(xgrid, grid.y[inside] - _TOL)]
        paths["Wr"] = wr

    n_p = len(eng.probes)
    lhs, shifted = eng.rp[len(eng.rp) - 2 * n_p:].reshape(2, n_p)
    markov = {probe: (total[:, a], total[:, b], total[:, g])
              for probe, a, b, g in zip(eng.probes, lhs, shifted, eng.zp)}
    return LimitPathBundle(paths=paths, markov=markov)


def markov_decomposition_check(bundle: LimitPathBundle, t1: float, t2: float,
                               y: float) -> MarkovCheckResult:
    """Pathwise residual of Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y) and
    the sample correlation between the two right-hand terms."""
    probe = (float(t1), float(t2), float(y))
    if probe not in bundle.markov:
        raise ValueError(
            f"markov probe {probe} was not registered when the bundle was "
            "assembled (off-grid evaluation would require interpolation)")
    lhs, shifted, z = bundle.markov[probe]
    residual = np.max(np.abs(lhs - shifted - z))
    return MarkovCheckResult(residual_max=float(residual),
                             correlation=float(correlation(shifted, z)))
