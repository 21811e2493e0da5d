"""Config-driven validation experiments and their reports.

Each runner simulates (or samples limit paths), compares against the analytic
surfaces, and returns an :class:`ExperimentReport` whose verdict is the AND of
its per-point pass flags.  Replications use one substream each, keyed by
(master_seed, experiment, n, replication, component), so reports are
reproducible bit-for-bit and replication order cannot matter; the seed words
of every replication's streams at scale n are derived in one call.  Traces are
simulated and evaluated in blocks of replications (see
:func:`simulate.block_size`); the block sizes, the thread count and the
process pool change no replication's values.  No runner simulates initial
customers, so :func:`run_experiment` refuses a config with ``init``.

Every report starts in :func:`_report` (experiment, seed, config echo), and
:func:`_replications` records in ``extras["simulation"]``, per n, the
replications, blocks and arrivals simulated and the seconds spent drawing and
evaluating them, summed over the blocks.  Gates over the grid go through
:func:`_grid_points`: grid point by grid point, t-major, and at each point
gate by gate in the order listed.  ``summary.csv`` keeps the points in the
order they are added:

- fwlln, per n: sup|mean Qr/n - fluid|, sup|mean Qe/n - fluid| and, with
  ``workload``, sup|mean Wt/n - fluid|; then the sup-error decrease across n;
- fclt_variance, per n: the grid of Var Qr-hat and Var Qe-hat; then, for a
  continuous service law, max|X1+X2-Qr-hat| and the grid of Var X1 and Var X2;
- age_distribution: the fraction of seeds that pass;
- poisson_property: the grid of dispersion and resampled variance;
- limit_path_validation: the grid of Var, skew and kurtosis of Qr, Var Qe and
  the correlations X1-X2, X1-X3, X2-X3; with ``workload``, the grid of Var
  Wr; the two Kiefer checks; the X2 increment;
- markov_check, per probe: the residual and the innovation correlation;
- workload: mean Wt/n, then the steady-state quadrature.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import limits as lim
from . import paths as lp
from .config import EXPERIMENTS, ExperimentConfig
from .fields import Grid, TwoParamField, write_csv
from .rng import seated, seed_words, substream
from .scaling import decompose_hatQr
from .service import Exponential
from .simulate import block_size, eval_empirical_distributions, eval_fields, simulate
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


def _report(cfg: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(experiment=cfg.experiment, seed=cfg.master_seed,
                            config_echo=cfg.echo)


def _grid_points(report: ExperimentReport, grid: Grid, *gates):
    """Add a point per grid point and gate, grid point by grid point (t
    outer), then gate by gate.  A gate is (point maker, label, estimates,
    targets, tol, live mask); estimates, targets and the mask broadcast to
    the grid, and a gate adds no point where its mask is false."""
    gates = [(make, label, *np.broadcast_arrays(est, target, live), tol)
             for make, label, est, target, tol, live in gates]
    for i, t in enumerate(grid.t):
        for j, y in enumerate(grid.y):
            for make, label, est, target, live, tol in gates:
                if live[i, j]:
                    report.add(make(label, t, y, est[i, j], target[i, j], tol))


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
        # imported here: it pulls in multiprocessing and logging, which a
        # single-process run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(blocks) // (8 * threads))
            parts = list(pool.map(worker, blocks, chunksize=chunk))
    rows = {k: np.concatenate([p[0][k] for p in parts]) for k in parts[0][0]}
    stats = {"replications": n_reps, "blocks": len(blocks),
             **{k: sum(p[1][k] for p in parts) for k in parts[0][1]}}
    return rows, stats


def _replications(report: ExperimentReport, evaluate, cfg: ExperimentConfig,
                  n: int, threads: int) -> dict:
    """Rows of ``evaluate`` over cfg.replications traces at scale n, in blocks
    sized by :func:`block_size`; their simulation stats go to
    ``report.extras["simulation"][str(n)]``."""
    block = block_size(cfg.arrival, n, cfg.horizon, cfg.grid)
    words = seed_words(cfg.master_seed,
                       [(cfg.experiment, n, r, "trace") for r in range(cfg.replications)], 2)
    rows, stats = _map_replications(partial(_block, evaluate, cfg, n, words),
                                    cfg.replications, threads, block)
    report.extras.setdefault("simulation", {})[str(n)] = stats
    return rows


# -- replication workers (module level so they pickle for the process pool) ----

def _block(evaluate, cfg: ExperimentConfig, n: int, words: np.ndarray, reps: range):
    """Draw one block of replications at scale n from the replications' own
    "trace" substreams, whose seed words are ``words[reps]``, and return
    ``evaluate(trace, reps)`` with the arrivals simulated and the seconds
    spent drawing and evaluating."""
    start = time.perf_counter()
    trace = simulate(cfg.arrival, cfg.service, n, cfg.horizon, words[reps.start:reps.stop])
    drawn = time.perf_counter()
    rows = evaluate(trace, reps)
    return rows, {"customers": len(trace.arrivals), "draw_s": drawn - start,
                  "eval_s": time.perf_counter() - drawn}


def _fwlln_fields(cfg: ExperimentConfig, trace, reps: range):
    names = ("Qr", "Qe", "Wt") if cfg.workload else ("Qr", "Qe")
    return {name: f.values / trace.n for name, f in eval_fields(trace, cfg.grid, names).items()}


def _fclt_fields(cfg: ExperimentConfig, fluid_qr: TwoParamField, fluid_qe: TwoParamField,
                 decomposable: bool, trace, reps: range):
    q = eval_fields(trace, cfg.grid, ("Qr", "Qe"))
    n = trace.n
    sq = math.sqrt(n)
    qhat_r = sq * (q["Qr"].values / n - fluid_qr.values)
    qhat_e = sq * (q["Qe"].values / n - fluid_qe.values)
    out = {"Qr": qhat_r, "Qe": qhat_e}
    if decomposable:
        x1, x2 = decompose_hatQr(trace, cfg.grid, fluid_qr)
        out["X1"], out["X2"] = x1.values, x2.values
    return out


def _age_fields(cfg: ExperimentConfig, fe_targets, trace, reps: range):
    fe_last = eval_empirical_distributions(trace, cfg.grid)["Fe"].values[:, -1]  # t = t_max
    return {"sup": np.max(np.abs(fe_last - fe_targets), axis=1)}


def _poisson_fields(cfg: ExperimentConfig, frc_vals, trace, reps: range):
    q = eval_fields(trace, cfg.grid, ("Qr", "Qt"))
    qt = q["Qt"].values.astype(int)
    p = np.clip(frc_vals, 0.0, 1.0)
    words = seed_words(cfg.master_seed, [(cfg.experiment, trace.n, r, "bernoulli") for r in reps])
    qtilde = [seated(w).binomial(q[:, None], p) for q, w in zip(qt, words.tolist())]
    return {"Qr": q["Qr"].values, "Qtilde": np.asarray(qtilde, dtype=float)}


def _workload_fields(cfg: ExperimentConfig, trace, reps: range):
    return {"Wt": eval_fields(trace, cfg.grid, ("Wt",))["Wt"].values / trace.n}


# -- runners --------------------------------------------------------------------

def _inputs(cfg: ExperimentConfig) -> lim.LimitInputs:
    return lim.LimitInputs.from_models(cfg.arrival, cfg.service, init=cfg.init)


def run_fwlln(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Mean of LLN-scaled fields vs the fluid surfaces, per n, with a
    monotone-error check across n."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    grid = cfg.grid
    tol = cfg.tolerances["fluid_abs"]
    fluid = {"Qr": lim.surface(inputs, grid, "fluid_qr").values,
             "Qe": lim.surface(inputs, grid, "fluid_qe").values}
    report.surface_rows("fluid", grid, fluid["Qr"], "fluid_qr")
    report.surface_rows("fluid", grid, fluid["Qe"], "fluid_qe")
    if cfg.workload:
        wt_fluid = lim.fluid_workload(inputs, grid.t, 0.0)

    sup_errors = {}
    for n in cfg.n_list:
        results = _replications(report, partial(_fwlln_fields, cfg), cfg, n, threads)
        means = {name: np.mean(results[name], axis=0) for name in fluid}
        sup_errors[n] = 0.0
        for name, mean in means.items():
            err = np.abs(mean - fluid[name])
            sup_errors[n] = max(sup_errors[n], float(err.max()))
            i, j = np.unravel_index(np.argmax(err), err.shape)
            report.add(_abs_point(f"sup|mean {name}/n - fluid| n={n}", grid.t[i], grid.y[j],
                                  mean[i, j], fluid[name][i, j], tol))
        report.surface_rows(f"mean_n{n}", grid, means["Qr"], f"mean_Qr_n{n}")
        if cfg.workload:
            mean_wt = np.mean(results["Wt"], axis=0)
            jw = int(np.argmax(np.abs(mean_wt - wt_fluid)))
            report.add(_abs_point(f"sup|mean Wt/n - fluid| n={n}", grid.t[jw], 0.0,
                                  mean_wt[jw], wt_fluid[jw], cfg.tolerances["workload_abs"]))
    report.extras["sup_errors"] = {str(n): e for n, e in sup_errors.items()}
    if len(cfg.n_list) >= 2:
        n_lo, n_hi = min(cfg.n_list), max(cfg.n_list)
        report.add(PointStat(f"sup-error decreasing: n={n_hi} vs n={n_lo}",
                             0.0, 0.0, sup_errors[n_hi], sup_errors[n_lo],
                             0.0, "abs", bool(sup_errors[n_hi] < sup_errors[n_lo])))
    return report


def run_fclt_variance(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Sample variance of CLT-scaled fields vs the analytic variance surfaces,
    plus the exact two-term decomposition when the service law is continuous."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    tols = cfg.tolerances
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr")
    fq_e = lim.surface(inputs, cfg.grid, "fluid_qe")
    v_r = lim.surface(inputs, cfg.grid, "var_qr").values
    v_e = lim.surface(inputs, cfg.grid, "var_qe").values
    report.surface_rows("analytic_var", cfg.grid, v_r, "var_qr")
    report.surface_rows("analytic_var", cfg.grid, v_e, "var_qe")
    decomposable = inputs.decomposition.p_d == 0.0
    if decomposable:
        comp = lim.var_components(inputs, *np.meshgrid(cfg.grid.t, cfg.grid.y, indexing="ij"))

    for n in cfg.n_list:
        results = _replications(report, partial(_fclt_fields, cfg, fq_r, fq_e, decomposable),
                                cfg, n, threads)
        qr = results["Qr"]
        var_qr_mc = sample_var(qr)
        _grid_points(report, cfg.grid,
                     (_rel_point, f"Var Qr-hat n={n}", var_qr_mc, v_r,
                      tols["variance_rel"], v_r > 1e-10),
                     (_rel_point, f"Var Qe-hat n={n}", sample_var(results["Qe"]), v_e,
                      tols["variance_rel_loose"], v_e > 1e-10))
        if decomposable:
            report.add(_abs_point(f"max|X1+X2-Qr-hat| n={n}", 0.0, 0.0,
                                  np.max(np.abs(results["X1"] + results["X2"] - qr)), 0.0,
                                  tols["identity_abs"]))
            _grid_points(report, cfg.grid,
                         (_rel_point, f"Var X1 n={n}", sample_var(results["X1"]),
                          comp.arrival, tols["variance_rel_loose"], comp.arrival > 1e-10),
                         (_rel_point, f"Var X2 n={n}", sample_var(results["X2"]),
                          comp.service, tols["variance_rel_loose"], comp.service > 1e-10))
        if cfg.grid.y[0] == 0.0:
            report.extras[f"qt_skew_kurt_n{n}"] = [
                {"t": float(t), "skew": float(s), "excess_kurtosis": float(k)}
                for t, s, k in zip(cfg.grid.t, *skew_kurtosis(qr[:, :, 0]))]
        report.surface_rows(f"mc_var_n{n}", cfg.grid, var_qr_mc, f"mc_var_qr_n{n}")
    return report


def run_age_distribution(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Empirical age distribution at the last grid time vs the
    stationary-excess c.d.f., across independent seeds."""
    report = _report(cfg)
    if cfg.arrival.constant_rate is None:
        raise ValueError("age-distribution experiment needs standard-case arrivals")
    fe_targets = cfg.service.stationary_excess_cdf(cfg.grid.y)
    n = cfg.n_list[-1]
    sups = _replications(report, partial(_age_fields, cfg, fe_targets), cfg, n, threads)["sup"]
    tol = cfg.tolerances["ks_abs"]
    frac = float(np.mean([s < tol for s in sups]))
    report.extras["per_seed_sup"] = [float(s) for s in sups]
    report.add(PointStat(f"fraction of seeds with sup|Fe_n - Fe| < {tol}",
                         float(cfg.grid.t[-1]), 0.0, frac,
                         cfg.tolerances["age_pass_fraction"], 0.0, "abs",
                         bool(frac >= cfg.tolerances["age_pass_fraction"])))
    report.plotdata["age"] = [{"label": "stationary_excess", "t": float(cfg.grid.t[-1]),
                               "y": float(y), "value": float(fe)}
                              for y, fe in zip(cfg.grid.y, fe_targets)]
    return report


def run_poisson_property(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Poisson dispersion (variance = mean) of the unscaled counts, and the
    Bernoulli-thinning resample whose variance must match."""
    if not isinstance(cfg.arrival.interarrival, Exponential):
        raise ValueError("poisson_property requires Poisson arrivals (exponential interarrivals)")
    report = _report(cfg)
    inputs = _inputs(cfg)
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr").values
    qt_fluid = lim.fluid_qt(inputs, cfg.grid.t)
    with np.errstate(invalid="ignore", divide="ignore"):
        frc = np.where(qt_fluid[:, None] > 0, fq_r / qt_fluid[:, None], 0.0)
    n = cfg.n_list[-1]
    results = _replications(report, partial(_poisson_fields, cfg, frc), cfg, n, threads)
    qr = results["Qr"]
    var_qr_mc = sample_var(qr)
    with np.errstate(invalid="ignore", divide="ignore"):
        dispersion = var_qr_mc / qr.mean(axis=0)
    live = n * fq_r >= 5.0      # skip near-empty points (t=0 etc.)
    _grid_points(report, cfg.grid,
                 (_abs_point, "dispersion |var/mean - 1|", dispersion, 1.0,
                  cfg.tolerances["dispersion_abs"], live),
                 (_rel_point, "Var resampled vs Var Qr", sample_var(results["Qtilde"]),
                  var_qr_mc, cfg.tolerances["variance_rel_loose"], live))
    return report


def run_limit_path_validation(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Monte-Carlo moments of the simulated limit processes vs the analytic
    surfaces, Kiefer covariance checks, increment mean squares, component
    independence, and marginal normality."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    tols = cfg.tolerances
    n_paths = cfg.replications
    grid = cfg.grid
    bundle = lp.assemble_limit_bundle(
        inputs, grid, cfg.k, substream(cfg.master_seed, cfg.experiment, "bundle"),
        n_paths=n_paths, workload=cfg.workload)
    qr = bundle.paths["Qr"]
    v_r = lim.surface(inputs, grid, "var_qr").values
    v_e = lim.surface(inputs, grid, "var_qe").values
    var_qr = sample_var(qr)
    mean_qr = qr.mean(axis=0)
    report.plotdata["limit_summary"] = [
        {"label": "Qr", "t": float(t), "y": float(y), "mc_mean": float(mean_qr[i, j]),
         "mc_var": float(var_qr[i, j]), "analytic_var": float(v_r[i, j])}
        for i, t in enumerate(grid.t) for j, y in enumerate(grid.y)]
    live_r = v_r > 1e-10
    skew, kurt = skew_kurtosis(qr)
    # a component whose paths do not vary at a point has no correlation to gate
    comps = [(name, bundle.paths[name], np.std(bundle.paths[name], axis=0) > 1e-12)
             for name in ("X1", "X2", "X3")]
    corrs = [(_abs_point, f"corr {a}-{b}", correlation(xa, xb), 0.0,
              tols["corr_abs"], live_a & live_b)
             for (a, xa, live_a), (b, xb, live_b) in itertools.combinations(comps, 2)]
    _grid_points(report, grid,
                 (_rel_point, "Var limit Qr", var_qr, v_r, tols["variance_rel"], live_r),
                 (_abs_point, "skew limit Qr", skew, 0.0, tols["skew_abs"], live_r),
                 (_abs_point, "kurtosis limit Qr", kurt, 0.0, tols["kurt_abs"], live_r),
                 (_rel_point, "Var limit Qe", sample_var(bundle.paths["Qe"]), v_e,
                  tols["variance_rel_loose"], v_e > 1e-10),
                 *corrs)
    if cfg.workload:
        v_w = lim.surface(inputs, grid, "var_w").values
        _grid_points(report, grid,
                     (_rel_point, "Var limit Wr", sample_var(bundle.paths["Wr"]),
                      v_w, tols["variance_rel_loose"], v_w > 1e-8))
    # the Kiefer process U(1, x) = W(1, x) - x W(1, 1), with the Brownian
    # sheet's W(1, .) drawn by independent increments at the levels x
    levels = np.array([0.3, 0.5, 0.6, 1.0])
    z = substream(cfg.master_seed, cfg.experiment, "sheet").standard_normal((n_paths, 4))
    w = np.cumsum(z * np.sqrt(np.diff(levels, prepend=0.0)), axis=1)
    u3, u5, u6, _ = (w - levels * w[:, -1:]).T
    report.add(_rel_point("Var Kiefer U(1,0.5)", 1.0, 0.5,
                          float(sample_var(u5)), 0.25, tols["variance_rel"]))
    report.add(_rel_point("Cov Kiefer U(1,0.3),U(1,0.6)", 1.0, 0.3,
                          float(np.cov(u3, u6)[0, 1]), 0.3 - 0.3 * 0.6,
                          tols["variance_rel_loose"]))
    # mean-square increment of the service-noise component
    probe = cfg.increment_probe
    if probe is None and len(grid.y) >= 2:
        t_mid = float(grid.t[len(grid.t) // 2])
        probe = (t_mid, float(grid.y[0]), t_mid, float(grid.y[1]))
    if probe is not None and inputs.decomposition.p_c > 0.0:
        t0, y0, t1, y1 = probe
        (i0, j0), (i1, j1) = grid.index(t0, y0), grid.index(t1, y1)
        x2 = bundle.paths["X2"]
        diff = x2[:, i0, j0] - x2[:, i1, j1]
        target = lim.cov_x2_increment(inputs, t0, y0, t1, y1)
        if target > 1e-10:
            report.add(_rel_point("X2 increment mean-square", t1, y1,
                                  float(np.mean(diff**2)), target,
                                  tols["variance_rel_loose"]))
    return report


def run_markov_check(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Pathwise Markov decomposition residual and the independence of the
    shifted state from the innovation term."""
    report = _report(cfg)
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
        report.add(_abs_point(f"markov residual (t1={t1}, t2={t2})", t2, y,
                              chk.residual_max, 0.0,
                              cfg.tolerances["identity_abs"]))
        report.add(_abs_point(f"corr shifted-state vs innovation (t1={t1}, t2={t2})",
                              t2, y, chk.correlation, 0.0,
                              cfg.tolerances["corr_abs"]))
    return report


def run_workload(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Mean total workload vs the fluid value, and the steady-state fluid
    workload quadrature vs its closed form."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    n = cfg.n_list[-1]
    mean_wt = np.mean(_replications(report, partial(_workload_fields, cfg), cfg, n,
                                    threads)["Wt"], axis=0)
    t_last = float(cfg.grid.t[-1])
    fluid = lim.fluid_workload(inputs, t_last, 0.0)
    report.add(_abs_point(f"mean Wt/n at t={t_last} n={n}", t_last, 0.0,
                          mean_wt[-1], fluid, cfg.tolerances["workload_abs"]))
    steady_quad, steady_exact = lim.fluid_workload_steady(inputs)
    report.add(_abs_point("steady-state workload quadrature vs closed form",
                          0.0, 0.0, steady_quad, steady_exact,
                          cfg.tolerances["analytic_abs"]))
    return report


# each experiment named in config.EXPERIMENTS runs as run_<name>
_RUNNERS = {name: globals()[f"run_{name}"] for name in EXPERIMENTS}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    if cfg.init is not None:
        raise ValueError("config error at init: no experiment simulates initial customers; "
                         "only 'hqinflab surfaces' reads init")
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
    if cfg.init is not None:
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
