"""Config-driven validation experiments and their reports.

Each runner simulates (or samples limit paths), compares against the analytic
surfaces, and returns an :class:`ExperimentReport` whose verdict is the AND of
its per-point pass flags.  Replications use one substream each, keyed by
(master_seed, experiment, n, replication, component), so reports are
reproducible bit-for-bit and replication order cannot matter.  Traces are
simulated and evaluated in blocks of replications (see
:func:`simulate.block_size`); the block sizes, the thread count and the
process pool change no replication's values.  Each Monte Carlo report records
in ``extras["simulation"]``, per n, the replications, blocks and arrivals
simulated and the seconds spent drawing and evaluating them, summed over the
blocks.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import limits as lim
from . import paths as lp
from .config import EXPERIMENTS, ExperimentConfig
from .fields import Grid, TwoParamField, write_csv
from .rng import substream, substream_children
from .scaling import decompose_hatQr
from .service import Exponential
from .simulate import (block_size, eval_empirical_distributions, eval_queue_fields,
                       eval_workload_fields, simulate)
from .stats import correlation, sample_var, skew_kurtosis

__all__ = ["PointStat", "ExperimentReport", "run_experiment", "emit",
           "run_fwlln", "run_fclt_variance", "run_age_distribution",
           "run_poisson_property", "run_limit_path_validation",
           "run_markov_check", "run_workload", "analytic_surfaces"]


@dataclass
class PointStat:
    label: str
    t: float
    y: float
    estimate: float
    target: float
    tol: float
    tol_kind: str            # "abs" | "rel"
    passed: bool

    @property
    def abs_err(self) -> float:
        return abs(self.estimate - self.target)


def _abs_point(label, t, y, est, target, tol) -> PointStat:
    return PointStat(label, float(t), float(y), float(est), float(target),
                     float(tol), "abs", bool(abs(est - target) <= tol))


def _rel_point(label, t, y, est, target, tol) -> PointStat:
    ok = abs(est - target) <= tol * abs(target)
    return PointStat(label, float(t), float(y), float(est), float(target),
                     float(tol), "rel", bool(ok))


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    points: list[PointStat] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    plotdata: dict = field(default_factory=dict)   # name -> list of row dicts
    config_echo: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    @property
    def verdict(self) -> bool:
        return all(p.passed for p in self.points)

    def add(self, point: PointStat):
        self.points.append(point)

    def surface_rows(self, name: str, grid: Grid, values: np.ndarray, label: str):
        rows = self.plotdata.setdefault(name, [])
        for i, t in enumerate(grid.t):
            for j, y in enumerate(grid.y):
                rows.append({"label": label, "t": float(t), "y": float(y),
                             "value": float(values[i, j])})


def _map_replications(worker, n_reps: int, threads: int, block: int):
    """Run ``worker`` on blocks of ``block`` consecutive replications.

    A worker returns (rows, stats): a dict of arrays with one row per
    replication, and its block's simulation stats.  Returns the rows of all
    blocks joined in replication order, and the summed stats.
    """
    blocks = [range(lo, min(lo + block, n_reps)) for lo in range(0, n_reps, block)]
    if threads <= 1:
        parts = [worker(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(blocks) // (8 * threads))
            parts = list(pool.map(worker, blocks, chunksize=chunk))
    rows = {k: np.concatenate([p[0][k] for p in parts]) for k in parts[0][0]}
    stats = {"replications": n_reps, "blocks": len(blocks),
             **{k: sum(p[1][k] for p in parts) for k in parts[0][1]}}
    return rows, stats


def _replications(worker, cfg: ExperimentConfig, n: int, threads: int,
                  init=None):
    """``_map_replications`` over cfg.replications traces at scale n, in
    blocks sized by :func:`block_size`."""
    block = block_size(cfg.arrival, n, cfg.horizon, cfg.grid, init)
    return _map_replications(worker, cfg.replications, threads, block)


# -- replication workers (module level so they pickle for the process pool) ----

class _Block:
    """One block of replications at scale n, drawn from the replications'
    own "trace" substreams, with the time spent drawing and evaluating."""

    def __init__(self, cfg: ExperimentConfig, n: int, reps: range, init=None):
        start = time.perf_counter()
        streams = [substream_children(cfg.master_seed, cfg.experiment, n, r, "trace",
                                      count=2 if init is None else 3) for r in reps]
        self.trace = simulate(cfg.arrival, cfg.service, n, cfg.horizon, streams, init=init)
        self.drawn = time.perf_counter()
        self.draw_s = self.drawn - start

    def stats(self) -> dict:
        """Arrivals simulated, and seconds spent drawing and evaluating."""
        return {"customers": len(self.trace.arrivals), "draw_s": self.draw_s,
                "eval_s": time.perf_counter() - self.drawn}


def _fwlln_block(cfg: ExperimentConfig, n: int, want_workload: bool, reps: range):
    blk = _Block(cfg, n, reps, cfg.init_sim)
    q = eval_queue_fields(blk.trace, cfg.grid)
    out = {"Qr": q["Qr"].values / n, "Qe": q["Qe"].values / n}
    if want_workload:
        w = eval_workload_fields(blk.trace, cfg.grid)
        out["Wt"] = w["Wt"].values / n
    return out, blk.stats()


def _fclt_block(cfg: ExperimentConfig, n: int, fluid_qr_vals, fluid_qe_vals,
                decomposable: bool, reps: range):
    blk = _Block(cfg, n, reps)
    q = eval_queue_fields(blk.trace, cfg.grid)
    sq = math.sqrt(n)
    qhat_r = sq * (q["Qr"].values / n - fluid_qr_vals)
    qhat_e = sq * (q["Qe"].values / n - fluid_qe_vals)
    out = {"Qr": qhat_r, "Qe": qhat_e}
    if decomposable:
        centering = TwoParamField(cfg.grid, fluid_qr_vals, "fluid_qr")
        parts = [decompose_hatQr(blk.trace.replication(r), cfg.grid, centering)
                 for r in range(len(reps))]
        out["X1"] = np.stack([x1.values for x1, _ in parts])
        out["X2"] = np.stack([x2.values for _, x2 in parts])
        out["addl"] = np.max(np.abs(out["X1"] + out["X2"] - qhat_r), axis=(1, 2))
    return out, blk.stats()


def _age_block(cfg: ExperimentConfig, n: int, fe_targets, reps: range):
    blk = _Block(cfg, n, reps)
    emp = eval_empirical_distributions(blk.trace, cfg.grid)
    fe_last = emp["Fe"].values[:, -1]          # at t = t_max
    return {"sup": np.max(np.abs(fe_last - fe_targets), axis=1)}, blk.stats()


def _poisson_block(cfg: ExperimentConfig, n: int, frc_vals, reps: range):
    blk = _Block(cfg, n, reps)
    q = eval_queue_fields(blk.trace, cfg.grid)
    qt = q["Qt"].values.astype(int)
    p = np.clip(frc_vals, 0.0, 1.0)
    qtilde = [substream(cfg.master_seed, cfg.experiment, n, r, "bernoulli")
              .binomial(qt[i][:, None], p) for i, r in enumerate(reps)]
    return {"Qr": q["Qr"].values, "Qtilde": np.asarray(qtilde, dtype=float)}, blk.stats()


def _workload_block(cfg: ExperimentConfig, n: int, reps: range):
    blk = _Block(cfg, n, reps)
    w = eval_workload_fields(blk.trace, cfg.grid)
    return {"Wt": w["Wt"].values / n}, blk.stats()


# -- runners --------------------------------------------------------------------

def _inputs(cfg: ExperimentConfig) -> lim.LimitInputs:
    return lim.LimitInputs.from_models(cfg.arrival, cfg.service, init=cfg.init_limits)


def run_fwlln(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Mean of LLN-scaled fields vs the fluid surfaces, per n, with a
    monotone-error check across n."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    tol = cfg.tolerances["fluid_abs"]
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr")
    fq_e = lim.surface(inputs, cfg.grid, "fluid_qe")
    want_workload = cfg.workload and cfg.arrival.constant_rate is not None \
        and math.isfinite(cfg.service.moments().mean)
    wt_fluid = None
    if want_workload:
        wt_fluid = lim.fluid_workload(inputs, cfg.grid.t, 0.0)
    rep_out.surface_rows("fluid", cfg.grid, fq_r.values, "fluid_qr")
    rep_out.surface_rows("fluid", cfg.grid, fq_e.values, "fluid_qe")

    sup_errors = {}
    simulation = rep_out.extras.setdefault("simulation", {})
    for n in cfg.n_list:
        results, simulation[str(n)] = _replications(
            partial(_fwlln_block, cfg, n, want_workload), cfg, n, threads, cfg.init_sim)
        mean_qr = np.mean(results["Qr"], axis=0)
        mean_qe = np.mean(results["Qe"], axis=0)
        err_qr = np.abs(mean_qr - fq_r.values)
        err_qe = np.abs(mean_qe - fq_e.values)
        sup_errors[n] = float(max(err_qr.max(), err_qe.max()))
        i_sup = np.unravel_index(np.argmax(err_qr), err_qr.shape)
        rep_out.add(_abs_point(f"sup|mean Qr/n - fluid| n={n}",
                               cfg.grid.t[i_sup[0]], cfg.grid.y[i_sup[1]],
                               mean_qr[i_sup], fq_r.values[i_sup], tol))
        j_sup = np.unravel_index(np.argmax(err_qe), err_qe.shape)
        rep_out.add(_abs_point(f"sup|mean Qe/n - fluid| n={n}",
                               cfg.grid.t[j_sup[0]], cfg.grid.y[j_sup[1]],
                               mean_qe[j_sup], fq_e.values[j_sup], tol))
        rep_out.surface_rows(f"mean_n{n}", cfg.grid, mean_qr, f"mean_Qr_n{n}")
        if want_workload:
            mean_wt = np.mean(results["Wt"], axis=0)
            werr = np.abs(mean_wt - wt_fluid)
            jw = int(np.argmax(werr))
            rep_out.add(_abs_point(f"sup|mean Wt/n - fluid| n={n}",
                                   cfg.grid.t[jw], 0.0, mean_wt[jw], wt_fluid[jw],
                                   cfg.tolerances["workload_abs"]))
    rep_out.extras["sup_errors"] = {str(n): e for n, e in sup_errors.items()}
    if len(cfg.n_list) >= 2:
        n_lo, n_hi = min(cfg.n_list), max(cfg.n_list)
        rep_out.add(PointStat(f"sup-error decreasing: n={n_hi} vs n={n_lo}",
                              0.0, 0.0, sup_errors[n_hi], sup_errors[n_lo],
                              0.0, "abs", bool(sup_errors[n_hi] < sup_errors[n_lo])))
    return rep_out


def run_fclt_variance(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Sample variance of CLT-scaled fields vs the analytic variance surfaces,
    plus the exact two-term decomposition when the service law is continuous."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    tols = cfg.tolerances
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr").values
    fq_e = lim.surface(inputs, cfg.grid, "fluid_qe").values
    v_r = lim.surface(inputs, cfg.grid, "var_qr").values
    v_e = lim.surface(inputs, cfg.grid, "var_qe").values
    rep_out.surface_rows("analytic_var", cfg.grid, v_r, "var_qr")
    rep_out.surface_rows("analytic_var", cfg.grid, v_e, "var_qe")
    decomposable = inputs.decomposition.p_d == 0.0
    comp = None
    if decomposable:
        comp = lim.var_components(inputs, *np.meshgrid(cfg.grid.t, cfg.grid.y, indexing="ij"))

    simulation = rep_out.extras.setdefault("simulation", {})
    for n in cfg.n_list:
        results, simulation[str(n)] = _replications(
            partial(_fclt_block, cfg, n, fq_r, fq_e, decomposable), cfg, n, threads)
        qr = results["Qr"]
        qe = results["Qe"]
        var_qr_mc = sample_var(qr, axis=0)
        var_qe_mc = sample_var(qe, axis=0)
        for i, t in enumerate(cfg.grid.t):
            for j, y in enumerate(cfg.grid.y):
                if v_r[i, j] > 1e-10:
                    rep_out.add(_rel_point(f"Var Qr-hat n={n}", t, y,
                                           var_qr_mc[i, j], v_r[i, j],
                                           tols["variance_rel"]))
                if v_e[i, j] > 1e-10:
                    rep_out.add(_rel_point(f"Var Qe-hat n={n}", t, y,
                                           var_qe_mc[i, j], v_e[i, j],
                                           tols["variance_rel_loose"]))
        if decomposable:
            addl = float(np.max(results["addl"]))
            rep_out.add(_abs_point(f"max|X1+X2-Qr-hat| n={n}", 0.0, 0.0,
                                   addl, 0.0, tols["identity_abs"]))
            x1 = results["X1"]
            x2 = results["X2"]
            vx1 = sample_var(x1, axis=0)
            vx2 = sample_var(x2, axis=0)
            for i, t in enumerate(cfg.grid.t):
                for j, y in enumerate(cfg.grid.y):
                    if comp.arrival[i, j] > 1e-10:
                        rep_out.add(_rel_point(f"Var X1 n={n}", t, y, vx1[i, j],
                                               comp.arrival[i, j], tols["variance_rel_loose"]))
                    if comp.service[i, j] > 1e-10:
                        rep_out.add(_rel_point(f"Var X2 n={n}", t, y, vx2[i, j],
                                               comp.service[i, j], tols["variance_rel_loose"]))
        qt = qr[:, :, 0] if cfg.grid.y[0] == 0.0 else None
        if qt is not None:
            moments = [skew_kurtosis(qt[:, i]) for i in range(len(cfg.grid.t))]
            rep_out.extras[f"qt_skew_kurt_n{n}"] = [
                {"t": float(t), "skew": s, "excess_kurtosis": k}
                for t, (s, k) in zip(cfg.grid.t, moments)]
        rep_out.surface_rows(f"mc_var_n{n}", cfg.grid, var_qr_mc, f"mc_var_qr_n{n}")
    return rep_out


def run_age_distribution(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Empirical age distribution at the last grid time vs the
    stationary-excess c.d.f., across independent seeds."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    lam = cfg.arrival.constant_rate
    if lam is None:
        raise ValueError("age-distribution experiment needs standard-case arrivals")
    fe_targets = cfg.service.stationary_excess_cdf(cfg.grid.y)
    n = cfg.n_list[-1]
    results, stats = _replications(partial(_age_block, cfg, n, fe_targets), cfg, n, threads)
    rep_out.extras["simulation"] = {str(n): stats}
    sups = results["sup"]
    tol = cfg.tolerances["ks_abs"]
    frac = float(np.mean([s < tol for s in sups]))
    rep_out.extras["per_seed_sup"] = [float(s) for s in sups]
    rep_out.add(PointStat(f"fraction of seeds with sup|Fe_n - Fe| < {tol}",
                          float(cfg.grid.t[-1]), 0.0, frac,
                          cfg.tolerances["age_pass_fraction"], 0.0, "abs",
                          bool(frac >= cfg.tolerances["age_pass_fraction"])))
    rows = rep_out.plotdata.setdefault("age", [])
    for y, fe in zip(cfg.grid.y, fe_targets):
        rows.append({"label": "stationary_excess", "t": float(cfg.grid.t[-1]),
                     "y": float(y), "value": float(fe)})
    return rep_out


def run_poisson_property(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Poisson dispersion (variance = mean) of the unscaled counts, and the
    Bernoulli-thinning resample whose variance must match."""
    if not isinstance(cfg.arrival.interarrival, Exponential):
        raise ValueError("poisson_property requires Poisson arrivals (exponential interarrivals)")
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr").values
    qt_fluid = lim.fluid_qt(inputs, cfg.grid.t)
    with np.errstate(invalid="ignore", divide="ignore"):
        frc = np.where(qt_fluid[:, None] > 0, fq_r / qt_fluid[:, None], 0.0)
    n = cfg.n_list[-1]
    results, stats = _replications(partial(_poisson_block, cfg, n, frc), cfg, n, threads)
    rep_out.extras["simulation"] = {str(n): stats}
    qr = results["Qr"]
    qtilde = results["Qtilde"]
    mean_qr = qr.mean(axis=0)
    var_qr_mc = sample_var(qr, axis=0)
    var_qtilde = sample_var(qtilde, axis=0)
    for i, t in enumerate(cfg.grid.t):
        for j, y in enumerate(cfg.grid.y):
            if n * fq_r[i, j] < 5.0:
                continue   # skip near-empty points (t=0 etc.)
            rep_out.add(_abs_point("dispersion |var/mean - 1|", t, y,
                                   var_qr_mc[i, j] / mean_qr[i, j], 1.0,
                                   cfg.tolerances["dispersion_abs"]))
            rep_out.add(_rel_point("Var resampled vs Var Qr", t, y,
                                   var_qtilde[i, j], var_qr_mc[i, j],
                                   cfg.tolerances["variance_rel_loose"]))
    return rep_out


def run_limit_path_validation(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Monte-Carlo moments of the simulated limit processes vs the analytic
    surfaces, Kiefer covariance checks, increment mean squares, component
    independence, and marginal normality."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    tols = cfg.tolerances
    n_paths = cfg.replications
    grid = cfg.grid
    bundle = lp.assemble_limit_bundle(
        inputs, grid, cfg.k, substream(cfg.master_seed, cfg.experiment, "bundle"),
        n_paths=n_paths, workload=cfg.workload)
    qr = bundle.paths["Qr"]
    qe = bundle.paths["Qe"]
    v_r = lim.surface(inputs, grid, "var_qr").values
    v_e = lim.surface(inputs, grid, "var_qe").values
    summary_rows = rep_out.plotdata.setdefault("limit_summary", [])
    for i, t in enumerate(grid.t):
        for j, y in enumerate(grid.y):
            target = float(v_r[i, j])
            est = float(sample_var(qr[:, i, j]))
            summary_rows.append({"label": "Qr", "t": float(t), "y": float(y),
                                 "mc_mean": float(qr[:, i, j].mean()),
                                 "mc_var": est, "analytic_var": target})
            if target > 1e-10:
                rep_out.add(_rel_point("Var limit Qr", t, y, est, target,
                                       tols["variance_rel"]))
                sk, ku = skew_kurtosis(qr[:, i, j])
                rep_out.add(_abs_point("skew limit Qr", t, y, sk, 0.0, tols["skew_abs"]))
                rep_out.add(_abs_point("kurtosis limit Qr", t, y, ku, 0.0, tols["kurt_abs"]))
            target_e = float(v_e[i, j])
            if target_e > 1e-10:
                rep_out.add(_rel_point("Var limit Qe", t, y,
                                       float(sample_var(qe[:, i, j])), target_e,
                                       tols["variance_rel_loose"]))
            comps = [("X1", bundle.paths["X1"][:, i, j]),
                     ("X2", bundle.paths["X2"][:, i, j]),
                     ("X3", bundle.paths["X3"][:, i, j])]
            live = [(nm, v) for nm, v in comps if v.std() > 1e-12]
            for a in range(len(live)):
                for b in range(a + 1, len(live)):
                    rho = correlation(live[a][1], live[b][1])
                    rep_out.add(_abs_point(
                        f"corr {live[a][0]}-{live[b][0]}", t, y, rho, 0.0,
                        tols["corr_abs"]))
    if cfg.workload:
        wr = bundle.paths["Wr"]
        v_w = lim.surface(inputs, grid, "var_w").values
        for i, t in enumerate(grid.t):
            for j, y in enumerate(grid.y):
                target = float(v_w[i, j])
                if target > 1e-8:
                    rep_out.add(_rel_point("Var limit Wr", t, y,
                                           float(sample_var(wr[:, i, j])), target,
                                           tols["variance_rel_loose"]))
    # Kiefer process checks on a dedicated sheet
    sheet = lp.sample_sheet([1.0], [0.3, 0.5, 0.6, 1.0],
                            substream(cfg.master_seed, cfg.experiment, "sheet"),
                            n_paths=n_paths)
    u5 = sheet.kiefer(1.0, 0.5)
    u3 = sheet.kiefer(1.0, 0.3)
    u6 = sheet.kiefer(1.0, 0.6)
    rep_out.add(_rel_point("Var Kiefer U(1,0.5)", 1.0, 0.5,
                           float(sample_var(u5)), 0.25, tols["variance_rel"]))
    rep_out.add(_rel_point("Cov Kiefer U(1,0.3),U(1,0.6)", 1.0, 0.3,
                           float(np.cov(u3, u6)[0, 1]), 0.3 - 0.3 * 0.6,
                           tols["variance_rel_loose"]))
    # mean-square increment of the service-noise component
    probe = cfg.increment_probe
    if probe is None and len(grid.y) >= 2:
        t_mid = float(grid.t[len(grid.t) // 2])
        probe = (t_mid, float(grid.y[0]), t_mid, float(grid.y[1]))
    if probe is not None and inputs.decomposition.p_c > 0.0:
        t0, y0, t1, y1 = probe
        i0, j0 = _grid_index(grid, t0, y0)
        i1, j1 = _grid_index(grid, t1, y1)
        x2 = bundle.paths["X2"]
        diff = x2[:, i0, j0] - x2[:, i1, j1]
        target = lim.cov_x2_increment(inputs, t0, y0, t1, y1)
        if target > 1e-10:
            rep_out.add(_rel_point("X2 increment mean-square", t1, y1,
                                   float(np.mean(diff**2)), target,
                                   tols["variance_rel_loose"]))
    return rep_out


def _grid_index(grid: Grid, t: float, y: float) -> tuple[int, int]:
    i = int(np.argmin(np.abs(grid.t - t)))
    j = int(np.argmin(np.abs(grid.y - y)))
    if abs(grid.t[i] - t) > 1e-9 or abs(grid.y[j] - y) > 1e-9:
        raise ValueError(f"({t}, {y}) is not a grid point")
    return i, j


def run_markov_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Pathwise Markov decomposition residual and the independence of the
    shifted state from the innovation term."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    probes = cfg.markov_probes
    if not probes:
        probes = ((float(cfg.grid.t[0]), float(cfg.grid.t[-1]), float(cfg.grid.y[0])),)
    bundle = lp.assemble_limit_bundle(
        inputs, cfg.grid, cfg.k,
        substream(cfg.master_seed, cfg.experiment, "bundle"),
        n_paths=cfg.replications, markov_probes=probes)
    for probe in probes:
        t1, t2, y = probe
        chk = lp.markov_decomposition_check(bundle, t1, t2, y)
        rep_out.add(_abs_point(f"markov residual (t1={t1}, t2={t2})", t2, y,
                               chk.residual_max, 0.0,
                               cfg.tolerances["identity_abs"]))
        rep_out.add(_abs_point(f"corr shifted-state vs innovation (t1={t1}, t2={t2})",
                               t2, y, chk.correlation, 0.0,
                               cfg.tolerances["corr_abs"]))
    return rep_out


def run_workload(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Mean total workload vs the fluid value, and the steady-state fluid
    workload quadrature vs its closed form."""
    rep_out = ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                               config_echo=cfg.echo)
    inputs = _inputs(cfg)
    n = cfg.n_list[-1]
    results, stats = _replications(partial(_workload_block, cfg, n), cfg, n, threads)
    rep_out.extras["simulation"] = {str(n): stats}
    mean_wt = np.mean(results["Wt"], axis=0)
    t_last = float(cfg.grid.t[-1])
    fluid = lim.fluid_workload(inputs, t_last, 0.0)
    rep_out.add(_abs_point(f"mean Wt/n at t={t_last} n={n}", t_last, 0.0,
                           mean_wt[-1], fluid, cfg.tolerances["workload_abs"]))
    steady_quad, steady_exact = lim.fluid_workload_steady(inputs)
    rep_out.add(_abs_point("steady-state workload quadrature vs closed form",
                           0.0, 0.0, steady_quad, steady_exact,
                           cfg.tolerances["analytic_abs"]))
    return rep_out


# each experiment named in config.EXPERIMENTS runs as run_<name>
_RUNNERS = {name: globals()[f"run_{name}"] for name in EXPERIMENTS}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    report = _RUNNERS[cfg.experiment](cfg, threads=threads)
    report.runtime_s = time.perf_counter() - start
    return report


def analytic_surfaces(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """The analytic surfaces for the configured models on the config grid."""
    inputs = _inputs(cfg)
    out = {
        "fluid_qr": lim.surface(inputs, cfg.grid, "fluid_qr").values,
        "fluid_qe": lim.surface(inputs, cfg.grid, "fluid_qe").values,
        "var_qr": lim.surface(inputs, cfg.grid, "var_qr").values,
        "var_qe": lim.surface(inputs, cfg.grid, "var_qe").values,
    }
    if cfg.arrival.constant_rate is not None and math.isfinite(cfg.service.moments().mean):
        out["fluid_wr"] = lim.surface(inputs, cfg.grid, "fluid_wr").values
        if cfg.workload:
            out["var_w"] = lim.surface(inputs, cfg.grid, "var_w").values
    if cfg.init_limits is not None:
        out["var_total"] = lim.surface(inputs, cfg.grid, "var_total").values
        out["fluid_total"] = lim.surface(inputs, cfg.grid, "fluid_total").values
    return out


# -- emission -------------------------------------------------------------------

def emit(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.json, summary.csv and plotdata/*.csv.

    summary.csv and plotdata are byte-deterministic for a fixed
    (config, master_seed); report.json additionally records the wall-clock
    runtime and the simulation timings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    payload = {
        "experiment": report.experiment,
        "seed": report.seed,
        "verdict": "pass" if report.verdict else "fail",
        "points": [dict(asdict(p), abs_err=p.abs_err) for p in report.points],
        "extras": report.extras,
        "config": report.config_echo,
        "runtime_s": report.runtime_s,
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                      default=float) + "\n")
    written.append(report_path)

    written.append(write_csv(
        out / "summary.csv",
        ("label", "t", "y", "estimate", "target", "abs_err", "tol", "tol_kind", "passed"),
        ((p.label.replace(",", ";"), p.t, p.y, p.estimate, p.target, p.abs_err,
          p.tol, p.tol_kind, "1" if p.passed else "0") for p in report.points)))
    for name, rows in sorted(report.plotdata.items()):
        cols = list(rows[0])
        written.append(write_csv(out / "plotdata" / f"{name}.csv", cols,
                                 ([row[c] for c in cols] for row in rows)))
    return written
