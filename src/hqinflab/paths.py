"""Direct simulation of the Gaussian limit processes on grids.

The residual-count limit is assembled pathwise from three independent noise
sources:

  X1(t,y) = int_0^t F^c(t+y-s) dA-hat(s)          (arrival noise)
  X2(t,y) = -int int 1(s+x <= t+y) dU(abar_c(s), F_c(x))   (service sampling)
  X3(t,y) = int_0^t F_c^c(t+y-s) dS^c(abar(s))
            + sum_i [S_i(abar(t)) - S_i(abar(t - (x_i - y)^+))]   (splitting)

with A-hat = sqrt(c_a^2) B(abar(.)), U a standard Kiefer process driven by a
Brownian sheet, and (S^c, S_1, ..., S_m) a correlated Brownian motion with
the multinomial splitting covariance.  One global partition of [0, t_max]
(refinement k, with every grid time and every t - y snapped in) carries all
three sources, so a single draw of the underlying noise drives every (t, y)
evaluation of a path.  That makes the counting identities and the Markov
decomposition hold pathwise, exactly as they do in the continuum:

  X(t2, y) = X(t1, y + t2 - t1) + Z(t1, t2, y),

with Z built from the noise on (t1, t2] only.

The sheet itself is simulated by independent rectangle increments of
variance equal to the rectangle area; the Kiefer bridge is read off as
U(s, x) = W(s, x) - x W(s, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid
from .limits import LimitInputs

__all__ = [
    "SheetSample",
    "sample_sheet",
    "assemble_limit_bundle",
    "markov_decomposition_check",
    "LimitPathBundle",
    "MarkovCheckResult",
]

_TOL = 1e-9


# -- Brownian sheet / Kiefer process on explicit level grids -------------------

@dataclass(frozen=True)
class SheetSample:
    """Brownian-sheet values on a product grid of levels.

    ``cum[p, i, j]`` is W at (s_levels[i], x_levels[j]) for path p, built as
    the cumulative sum of independent cell increments with variance equal to
    the cell area (cells anchored at the implicit zero levels).
    """
    s_levels: np.ndarray
    x_levels: np.ndarray
    cum: np.ndarray

    def kiefer(self, s_level: float, x_level: float) -> np.ndarray:
        """U(s, x) = W(s, x) - x W(s, 1) at grid levels (per path)."""
        i = _level_index(self.s_levels, s_level, "s")
        j = _level_index(self.x_levels, x_level, "x")
        return self.cum[:, i, j] - x_level * self.cum[:, i, -1]


def _level_index(levels: np.ndarray, value: float, name: str) -> int:
    idx = int(np.searchsorted(levels, value))
    for cand in (idx - 1, idx, idx + 1):
        if 0 <= cand < len(levels) and abs(levels[cand] - value) <= _TOL:
            return cand
    raise ValueError(f"{name}-level {value} is not on the sampled grid")


def sample_sheet(s_levels, x_levels, rng: np.random.Generator,
                 n_paths: int = 1) -> SheetSample:
    """Sample ``n_paths`` independent Brownian sheets on the level grid."""
    s = np.asarray(s_levels, dtype=float)
    x = np.asarray(x_levels, dtype=float)
    if np.any(np.diff(s) <= 0) or np.any(s <= 0):
        raise ValueError("s-levels must be positive and strictly increasing")
    if np.any(np.diff(x) <= 0) or np.any(x <= 0) or np.any(x > 1.0):
        raise ValueError("x-levels must lie in (0, 1] and be strictly increasing")
    if x[-1] != 1.0:
        x = np.append(x, 1.0)
    ds = np.diff(np.concatenate(([0.0], s)))
    dx = np.diff(np.concatenate(([0.0], x)))
    cells = rng.standard_normal((n_paths, len(s), len(x)))
    cells *= np.sqrt(ds[:, None] * dx[None, :])
    cum = np.cumsum(np.cumsum(cells, axis=1), axis=2)
    return SheetSample(s_levels=s, x_levels=x, cum=cum)


# -- evaluation plan ------------------------------------------------------------

@dataclass
class _Pairs:
    t: np.ndarray
    y: np.ndarray

    @property
    def size(self):
        return len(self.t)


def _dedupe(values: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.concatenate(([True], np.diff(values) > 1e-12))
    return values[keep]


class _LimitEngine:
    """Shared partition, evaluation pairs, and per-component samplers."""

    def __init__(self, inputs: LimitInputs, grid: Grid, k: int, n_paths: int,
                 extra_r_pairs=(), markov_probes=()):
        if k < 1:
            raise ValueError("refinement k must be >= 1")
        self.inputs = inputs
        self.grid = grid
        self.n_paths = int(n_paths)
        self.dec = inputs.decomposition
        t_max = float(grid.t[-1])
        self.t_max = t_max

        snap = set(np.asarray(grid.t, dtype=float))
        for t in grid.t:
            for y in grid.y:
                if 0.0 < t - y:
                    snap.add(float(t - y))
        self.probes = [tuple(map(float, p)) for p in markov_probes]
        for t1, t2, _y in self.probes:
            if not (0.0 <= t1 <= t2 <= t_max + _TOL):
                raise ValueError(f"markov probe ({t1}, {t2}) outside [0, t_max]")
            snap.add(t1)
            snap.add(t2)
        base = np.linspace(0.0, t_max, k + 1)
        part = _dedupe(np.concatenate((base, np.fromiter(snap, dtype=float))))
        if part[0] > 0.0:
            part = np.concatenate(([0.0], part))
        self.s0 = part[:-1]           # left endpoints
        self.s1 = part[1:]            # right endpoints
        self.ds = self.s1 - self.s0
        self.partition = part
        self.dabar = np.diff(inputs.abar(part))

        # r-pairs: grid product, an internal y=0 column, extras, probe pairs
        r_t = [np.repeat(grid.t, len(grid.y)), grid.t]
        r_y = [np.tile(grid.y, len(grid.t)), np.zeros(len(grid.t))]
        for (t, y) in extra_r_pairs:
            r_t.append([float(t)])
            r_y.append([float(y)])
        for (t1, t2, y) in self.probes:
            r_t.append([t2, t1])
            r_y.append([y, y + (t2 - t1)])
        self.rp = _Pairs(np.concatenate(r_t), np.concatenate(r_y))
        self._r_index = {}
        for g in range(self.rp.size):
            self._r_index.setdefault((round(self.rp.t[g], 12), round(self.rp.y[g], 12)), g)
        # e-pairs: grid product with y clamped to t
        e_t = np.repeat(grid.t, len(grid.y))
        e_y = np.minimum(np.tile(grid.y, len(grid.t)), e_t)
        self.ep = _Pairs(e_t, e_y)

    # -- plumbing ---------------------------------------------------------

    def r_pair_index(self, t: float, y: float) -> int:
        key = (round(float(t), 12), round(float(y), 12))
        if key not in self._r_index:
            raise ValueError(f"evaluation pair (t={t}, y={y}) was not registered")
        return self._r_index[key]

    def _normals(self, rng, shape):
        return rng.standard_normal(shape)

    def _weights(self, integrated_sf, pairs: _Pairs, elapsed: bool) -> np.ndarray:
        """(J, G) interval-averaged integrand weights for Ito-style sums."""
        J = len(self.s0)
        G = pairs.size
        w = np.zeros((J, G))
        inside = self.s1[:, None] <= pairs.t[None, :] + _TOL
        if elapsed:
            inside &= self.s0[:, None] >= (pairs.t - pairs.y)[None, :] - _TOL
            shift = pairs.t[None, :]
        else:
            shift = (pairs.t + pairs.y)[None, :]
        rows, cols = np.nonzero(inside)
        if len(rows):
            a0 = shift[0, cols] - self.s0[rows]
            a1 = shift[0, cols] - self.s1[rows]
            w[rows, cols] = (integrated_sf(a0) - integrated_sf(a1)) / self.ds[rows]
        return w

    # -- arrival-noise component -------------------------------------------

    def arrival_component(self, rng) -> dict[str, np.ndarray]:
        """X1 on the r- and e-pairs plus the arrival limit path itself."""
        ca2 = self.inputs.ca2
        dA = self._normals(rng, (self.n_paths, len(self.ds)))
        dA *= np.sqrt(np.maximum(ca2 * self.dabar, 0.0))[None, :]
        sf_int = self.inputs.service.integrated_sf
        w_r = self._weights(sf_int, self.rp, elapsed=False)
        w_e = self._weights(sf_int, self.ep, elapsed=True)
        ahat = np.concatenate(
            (np.zeros((self.n_paths, 1)), np.cumsum(dA, axis=1)), axis=1)
        return {"dA": dA, "X1r": dA @ w_r, "X1e": dA @ w_e, "Ahat_part": ahat,
                "w1r": w_r}

    # -- service-sampling component ------------------------------------------

    def service_component(self, rng) -> dict[str, np.ndarray]:
        """X2 accumulated interval by interval from one shared sheet.

        Interval j contributes -V_j(F_c(t+y-s_j)) to every active pair, where
        V_j is the Kiefer slice W_j(x) - x W_j(1) of the sheet over
        (abar_c(s_{j-1}), abar_c(s_j)].
        """
        P = self.n_paths
        x2r = np.zeros((P, self.rp.size))
        x2e = np.zeros((P, self.ep.size))
        z2 = {p: np.zeros(P) for p in self.probes}
        if self.dec.p_c == 0.0:
            return {"X2r": x2r, "X2e": x2e, "Z2": z2}
        cont = self.dec.continuous_part
        dabar_c = self.dec.p_c * self.dabar
        cdf = cont.cdf
        for j in range(len(self.s0)):
            sj = self.s1[j]
            act_r = np.nonzero(self.rp.t >= sj - _TOL)[0]
            act_e = np.nonzero((self.ep.t >= sj - _TOL)
                               & (self.ep.t - self.ep.y <= self.s0[j] + _TOL))[0]
            probe_ids = [p for p in self.probes
                         if p[0] + _TOL < sj <= p[1] + _TOL]
            if len(act_r) == 0 and len(act_e) == 0 and not probe_ids:
                continue
            lv_r = np.asarray(cdf(self.rp.t[act_r] + self.rp.y[act_r] - sj), dtype=float)
            lv_e = np.asarray(cdf(self.ep.t[act_e] - sj), dtype=float)
            lv_p = np.asarray([cdf(p[1] + p[2] - sj) for p in probe_ids], dtype=float)
            levels = np.concatenate((lv_r, lv_e, lv_p, [1.0]))
            uniq = np.unique(levels)
            gaps = np.diff(np.concatenate(([0.0], uniq)))
            incr = self._normals(rng, (P, len(uniq)))
            incr *= np.sqrt(np.maximum(gaps * dabar_c[j], 0.0))[None, :]
            w_path = np.cumsum(incr, axis=1)
            v_path = w_path - uniq[None, :] * w_path[:, -1:]
            pos = np.searchsorted(uniq, levels[:-1])
            nr = len(act_r)
            ne = len(act_e)
            if nr:
                x2r[:, act_r] -= v_path[:, pos[:nr]]
            if ne:
                x2e[:, act_e] -= v_path[:, pos[nr:nr + ne]]
            for pi, probe in enumerate(probe_ids):
                z2[probe] -= v_path[:, pos[nr + ne + pi]]
        return {"X2r": x2r, "X2e": x2e, "Z2": z2}

    # -- splitting component ---------------------------------------------------

    def _split_cov_root(self) -> np.ndarray:
        """Square root of the (m+1)-dim multinomial splitting covariance for
        categories (continuous, atom_1, ..., atom_m)."""
        evals, evecs = np.linalg.eigh(self.dec.split_covariance())
        if evals.min() < -1e-10:
            raise ValueError(f"splitting covariance not PSD: min eigenvalue {evals.min()}")
        return evecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]

    def split_component(self, rng) -> dict:
        P = self.n_paths
        x3r = np.zeros((P, self.rp.size))
        x3e = np.zeros((P, self.ep.size))
        z3 = {p: np.zeros(P) for p in self.probes}
        dec = self.dec
        if dec.p_d == 0.0:
            # pure continuous service: no splitting noise at all
            return {"X3r": x3r, "X3e": x3e, "Z3": z3}
        atoms = dec.atoms
        m = len(atoms)
        # time points: partition plus every atom-shift evaluation time
        times = set(self.partition.tolist())
        shifts_r = np.zeros((m, self.rp.size))
        shifts_e = np.zeros((m, self.ep.size))
        for i, (loc, _) in enumerate(atoms):
            shifts_r[i] = np.maximum(self.rp.t - np.maximum(loc - self.rp.y, 0.0), 0.0)
            shifts_e[i] = np.maximum(self.ep.t - np.minimum(loc, self.ep.y), 0.0)
            times.update(shifts_r[i].tolist())
            times.update(shifts_e[i].tolist())
            for (t1, t2, y) in self.probes:
                times.add(max(t1 - max(loc - y, 0.0), 0.0))
                times.add(max(t2 - max(loc - y, 0.0), 0.0))
        tgrid = _dedupe(np.fromiter(times, dtype=float))
        dab = np.diff(np.concatenate(([0.0], self.inputs.abar(tgrid))))
        root = self._split_cov_root()
        z = self._normals(rng, (P, len(tgrid), m + 1))
        z *= np.sqrt(np.maximum(dab, 0.0))[None, :, None]
        paths = np.cumsum(z @ root.T, axis=1)     # (P, U, m+1); col 0 = S^c
        if tgrid[0] > 0.0:
            tgrid_full = np.concatenate(([0.0], tgrid))
            paths = np.concatenate((np.zeros((P, 1, m + 1)), paths), axis=1)
        else:
            tgrid_full = tgrid

        def at(times_needed: np.ndarray, comp: int) -> np.ndarray:
            idx = np.searchsorted(tgrid_full, np.asarray(times_needed) - _TOL, side="left")
            idx = np.clip(idx, 0, len(tgrid_full) - 1)
            return paths[:, idx, comp]

        # Ito-style term driven by S^c against the continuous-part survival
        if dec.p_c > 0.0:
            sc_at_part = at(self.partition, 0)
            d_sc = np.diff(sc_at_part, axis=1)
            w3r = self._weights(dec.continuous_part.integrated_sf, self.rp, elapsed=False)
            w3e = self._weights(dec.continuous_part.integrated_sf, self.ep, elapsed=True)
            x3r += d_sc @ w3r
            x3e += d_sc @ w3e
            for probe in self.probes:
                t1, t2, y = probe
                inside = (self.s0 >= t1 - _TOL) & (self.s1 <= t2 + _TOL)
                g = self.r_pair_index(t2, y)
                z3[probe] += d_sc[:, inside] @ w3r[inside, g]
        # atom increment terms
        for i in range(m):
            s_end_r = at(self.rp.t, i + 1)
            x3r += s_end_r - at(shifts_r[i], i + 1)
            s_end_e = at(self.ep.t, i + 1)
            x3e += s_end_e - at(shifts_e[i], i + 1)
            loc = atoms[i][0]
            for probe in self.probes:
                t1, t2, y = probe
                sh = max(loc - y, 0.0)
                z3[probe] += (at(np.array([t2]), i + 1)[:, 0]
                              - at(np.array([t1]), i + 1)[:, 0]
                              - at(np.array([max(t2 - sh, 0.0)]), i + 1)[:, 0]
                              + at(np.array([max(t1 - sh, 0.0)]), i + 1)[:, 0])
        return {"X3r": x3r, "X3e": x3e, "Z3": z3}


def _reshape(engine: _LimitEngine, flat: np.ndarray) -> np.ndarray:
    T, Y = engine.grid.shape
    return flat[:, :T * Y].reshape(engine.n_paths, T, Y)


# -- full bundle -------------------------------------------------------------------

@dataclass
class LimitPathBundle:
    grid: Grid
    paths: dict[str, np.ndarray]
    seed_info: str
    n_paths: int
    k: int
    markov: dict = field(default_factory=dict)
    workload_xgrid: np.ndarray | None = None


@dataclass(frozen=True)
class MarkovCheckResult:
    residual_max: float
    correlation: float
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray


def assemble_limit_bundle(inputs: LimitInputs, grid: Grid, k: int,
                          rng: np.random.Generator, n_paths: int = 1,
                          workload: bool = False, markov_probes=(),
                          seed_info: str = "") -> LimitPathBundle:
    """Simulate the joint limit: components, counts, departures, workload,
    and (when configured) the initial-condition and total fields.

    Independent substreams drive the arrival noise, the service sheet, the
    splitting noise, the workload input noise, and the initial conditions.
    """
    extra = []
    xgrid = None
    if workload:
        lam = inputs.require_standard("limit workload paths")
        inputs.require_finite_mean("limit workload paths")
        xmax = inputs.service.sf_quantile(1e-6)
        dense = np.linspace(0.0, xmax, max(int(8 * xmax), 40) + 1)
        xgrid = _dedupe(np.concatenate((dense, grid.y[grid.y <= xmax])))
        if xgrid[0] > 0.0:
            xgrid = np.concatenate(([0.0], xgrid))
        extra = [(t, x) for t in grid.t for x in xgrid]
    eng = _LimitEngine(inputs, grid, k, n_paths, extra_r_pairs=extra, markov_probes=markov_probes)
    r_a, r_s, r_sp, r_w, r_i = rng.spawn(5)
    a = eng.arrival_component(r_a)
    s = eng.service_component(r_s)
    sp = eng.split_component(r_sp)

    qr_flat = a["X1r"] + s["X2r"] + sp["X3r"]
    qe_flat = a["X1e"] + s["X2e"] + sp["X3e"]
    T, Y = grid.shape
    P = n_paths
    paths: dict[str, np.ndarray] = {
        "X1": _reshape(eng, a["X1r"]),
        "X2": _reshape(eng, s["X2r"]),
        "X3": _reshape(eng, sp["X3r"]),
        "Qr": _reshape(eng, qr_flat),
        "Qe": qe_flat.reshape(P, T, Y),
    }
    qt_cols = [eng.r_pair_index(t, 0.0) for t in grid.t]
    paths["Qt"] = qr_flat[:, qt_cols]
    part_idx = np.searchsorted(eng.partition, np.asarray(grid.t) - _TOL)
    paths["Ahat"] = a["Ahat_part"][:, part_idx]
    paths["D"] = paths["Ahat"] - paths["Qt"]

    if workload:
        cols = np.array([[eng.r_pair_index(t, x) for x in xgrid] for t in grid.t])
        qr_x = qr_flat[:, cols]                       # (P, T, X)
        dx = np.diff(xgrid)
        trap = 0.5 * (qr_x[:, :, 1:] + qr_x[:, :, :-1]) * dx[None, None, :]
        rev = np.concatenate((np.zeros((P, T, 1)), np.cumsum(trap[:, :, ::-1], axis=2)), axis=2)[:, :, ::-1]
        wr = np.zeros((P, T, Y))
        for jy, y in enumerate(grid.y):
            if y > xgrid[-1]:
                continue
            jx = int(np.searchsorted(xgrid, y - _TOL))
            wr[:, :, jy] = rev[:, :, jx]
        paths["Wr"] = wr
        paths["Wt"] = rev[:, :, 0]
        mom = inputs.service.moments()
        dt = np.diff(np.concatenate(([0.0], grid.t)))
        bs = np.cumsum(
            eng._normals(r_w, (P, T)) * np.sqrt(np.maximum(dt, 0.0))[None, :], axis=1)
        paths["I"] = math.sqrt(lam * mom.scv) * bs + mom.mean * paths["Ahat"]
        paths["C"] = paths["I"] - paths["Wt"]
        eng_xgrid = xgrid
    else:
        eng_xgrid = None

    if inputs.init is not None:
        init = inputs.init
        y_evals = _dedupe(np.concatenate(
            (grid.y, (grid.t[:, None] + grid.y[None, :]).ravel())))
        u_levels = np.asarray(init.residual.cdf(y_evals), dtype=float)
        uniq = np.unique(np.concatenate((u_levels, [1.0])))
        gaps = np.diff(np.concatenate(([0.0], uniq)))
        incr = eng._normals(r_i, (P, len(uniq))) * np.sqrt(gaps)[None, :]
        bm = np.cumsum(incr, axis=1)
        bridge = bm - uniq[None, :] * bm[:, -1:]
        pos = np.searchsorted(uniq, u_levels)
        qit = math.sqrt(init.var_qit) * eng._normals(r_i, (P,))
        bterm = math.sqrt(init.qbar_it) * bridge[:, pos]

        def qir_at(vals: np.ndarray) -> np.ndarray:
            sel = np.searchsorted(y_evals, np.asarray(vals) - _TOL)
            sel = np.clip(sel, 0, len(y_evals) - 1)
            fic = 1.0 - u_levels[sel]
            return fic[None, :] * qit[:, None] + bterm[:, sel]

        paths["Qit"] = qit
        paths["Qir"] = qir_at(grid.y)
        shift = (grid.t[:, None] + grid.y[None, :]).ravel()
        paths["QTr"] = paths["Qr"] + qir_at(shift).reshape(P, T, Y)

    bundle = LimitPathBundle(grid=grid, paths=paths, seed_info=seed_info,
                             n_paths=n_paths, k=k, workload_xgrid=eng_xgrid)
    for probe in eng.probes:
        t1, t2, y = probe
        lhs = qr_flat[:, eng.r_pair_index(t2, y)]
        shifted = qr_flat[:, eng.r_pair_index(t1, y + (t2 - t1))]
        # Z1 from the arrival increments over (t1, t2]
        inside = (eng.s0 >= t1 - _TOL) & (eng.s1 <= t2 + _TOL)
        g2 = eng.r_pair_index(t2, y)
        z1 = a["dA"][:, inside] @ a["w1r"][inside, g2]
        z2 = s["Z2"][probe]
        z3 = sp["Z3"][probe]
        bundle.markov[probe] = {
            "lhs": lhs, "shifted": shifted, "z1": z1, "z2": z2, "z3": z3,
        }
    return bundle


def markov_decomposition_check(bundle: LimitPathBundle, t1: float, t2: float,
                               y: float) -> MarkovCheckResult:
    """Pathwise residual of Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y) and
    the sample correlation between the two right-hand terms."""
    probe = (float(t1), float(t2), float(y))
    if probe not in bundle.markov:
        raise ValueError(
            f"markov probe {probe} was not registered when the bundle was "
            "assembled (off-grid evaluation would require interpolation)")
    rec = bundle.markov[probe]
    z = rec["z1"] + rec["z2"] + rec["z3"]
    residual = np.max(np.abs(rec["lhs"] - rec["shifted"] - z))
    if np.std(rec["shifted"]) > 0 and np.std(z) > 0:
        corr = float(np.corrcoef(rec["shifted"], z)[0, 1])
    else:
        corr = 0.0
    return MarkovCheckResult(residual_max=float(residual), correlation=corr,
                             z1=rec["z1"], z2=rec["z2"], z3=rec["z3"])
