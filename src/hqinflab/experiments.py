"""Config-driven validation experiments and their reports.

Each runner simulates (or samples limit paths), compares against the analytic
surfaces, and returns an :class:`ExperimentReport` whose verdict is the AND of
its per-point pass flags.  Replications use one substream each, keyed by
(master_seed, experiment, n, replication, component), so reports are
reproducible bit-for-bit and replication order cannot matter; the seed words
of every replication's streams at scale n are derived in one call.  One
worker, :func:`_block`, draws each block of traces (see
:func:`simulate.block_size`) and evaluates the fields its runner names in one
pass, as count rows; each trace runner reduces the joined rows: the means of
rows/n, the variances of sqrt(n) (rows/n - q), the age sup (:func:`_age_sup`)
or the dispersion.  The block sizes, the thread count and the process pool
change no replication's values.  No runner simulates initial customers, so
:func:`check_runnable`, which :func:`run_experiment` calls before any work,
refuses a config with ``init``.

Every report starts in :func:`_report` (experiment, seed, config echo), and
:func:`_replications` records in ``extras["simulation"]``, per n, the
replications, blocks and arrivals simulated and the seconds spent drawing and
evaluating them, summed over the blocks; ``limit_path_validation`` records in
``extras["limit_engine"]`` the engine's J nodes, G columns, weight rows
and normals per path of each component, and worst exact variance bias.
Gates over the grid go through :func:`_grid_points`: grid point by grid
point, t-major, and at each point gate by gate in the order listed.
``summary.csv`` keeps the points in the order they are added:

- fwlln, per n: sup|mean Qr/n - fluid|, sup|mean Qe/n - fluid| and, with
  ``workload``, sup|mean Wt/n - fluid|; then the sup-error decrease across n;
- fclt_variance, per n: the grid of Var Qr-hat and Var Qe-hat; then, for a
  continuous service law, max|X1+X2-Qr-hat| and the grid of Var X1 and Var X2;
- age_distribution: the fraction of seeds that pass;
- poisson_property: the grid of dispersion and resampled variance;
- limit_path_validation: the grid of Var, skew and kurtosis of Qr, Var Qe and
  the correlations X1-X2, X1-X3, X2-X3; with ``workload``, the grid of Var
  Wr; the two Kiefer checks; the X2 increment; last, per ``markov`` probe,
  the Markov residual and the innovation correlation.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import limits as lim
from . import paths as lp
from .config import EXPERIMENTS, ExperimentConfig
from .fields import Grid, write_csv
from .rng import seated, seed_words, substream
from .scaling import decompose_hatQr
from .simulate import block_size, eval_fields, simulate
from .stats import Centred, correlation, sample_var, skew_kurtosis

__all__ = ["PointStat", "ExperimentReport", "check_runnable", "run_experiment", "emit",
           "analytic_surfaces"]


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


@cache
def _allocator_policy() -> None:
    """Keep freed heap memory in the process; runs once per process.

    By default glibc maps a block above its mmap threshold (128 KiB at
    start, raised only to the largest such block freed so far) on its own
    and unmaps it when it is freed, and it trims the top of the heap once
    more than its trim threshold is free there.  Either way the next numpy
    temporary of that size faults its pages in afresh.  A cold
    ``mc_large_n`` run (a fresh process, ``resource.getrusage`` around
    ``run_experiment`` and ``emit``, x86-64 Linux, glibc 2.36) took 42.6k
    minor faults and 0.08-0.15 s of system time that way, 19.4k of the
    faults in the sinusoidal inverse alone; with this policy, 1.4k faults
    and at most 0.02 s.  The mmap threshold is set to 32 MiB, glibc's own
    ceiling for its dynamic threshold, and the trim threshold to twice
    that, the ratio its dynamic rule keeps.  A silent no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def _map_replications(worker, n_reps: int, threads: int, block: int):
    """Run ``worker`` on blocks of ``block`` consecutive replications.

    A worker returns (rows, stats): a dict of arrays with one row per
    replication, and its block's simulation stats.  Returns the rows of all
    blocks joined in replication order, and the summed stats.
    """
    blocks = [range(lo, min(lo + block, n_reps)) for lo in range(0, n_reps, block)]
    workers = min(threads, len(blocks))     # a pool starts all its workers at once
    if workers <= 1:
        parts = [worker(b) for b in blocks]
    else:
        # imported here: it pulls in multiprocessing and logging, which a
        # single-process run never needs
        from concurrent.futures import ProcessPoolExecutor
        # a worker started by spawn or forkserver has the default policy
        with ProcessPoolExecutor(max_workers=workers, initializer=_allocator_policy) as pool:
            chunk = max(1, len(blocks) // (8 * workers))
            parts = list(pool.map(worker, blocks, chunksize=chunk))
    rows = {k: np.concatenate([p[0][k] for p in parts]) for k in parts[0][0]}
    stats = {"replications": n_reps, "blocks": len(blocks),
             **{k: sum(p[1][k] for p in parts) for k in parts[0][1]}}
    return rows, stats


def _replications(report: ExperimentReport, cfg: ExperimentConfig, n: int, threads: int,
                  names: tuple[str, ...], fluid_qr=None, frc=None) -> dict:
    """The count rows of cfg.replications traces at scale n, drawn by
    :func:`_block` in blocks sized by :func:`block_size` and joined in
    replication order for the runner to reduce; their simulation stats go to
    ``report.extras["simulation"][str(n)]``."""
    block = block_size(cfg.arrival, n, cfg.horizon, cfg.grid)
    words = seed_words(cfg.master_seed,
                       [(cfg.experiment, n, r, "trace") for r in range(cfg.replications)], 2)
    rows, stats = _map_replications(
        partial(_block, cfg, n, words, names, fluid_qr=fluid_qr, frc=frc),
        cfg.replications, threads, block)
    report.extras.setdefault("simulation", {})[str(n)] = stats
    return rows


# -- the replication worker (module level so that it pickles for the process pool) --

def _block(cfg: ExperimentConfig, n: int, words: np.ndarray, names: tuple[str, ...],
           reps: range, fluid_qr: np.ndarray | None = None, frc: np.ndarray | None = None):
    """The one replication worker: draw one block of replications at scale n
    from their own "trace" substreams, seeded by ``words[reps]``, and
    evaluate it in one pass.  Returns the count rows of the fields ``names``
    (copies: a view would keep the block's histogram alive), plus X1 and X2
    of hat Qr centred on ``fluid_qr`` and the Binomial(Qt, ``frc``) resample
    Qtilde from the "bernoulli" substreams when given; and with them the
    arrivals simulated and the seconds spent drawing and evaluating."""
    start = time.perf_counter()
    trace = simulate(cfg.arrival, cfg.service, n, cfg.horizon, words[reps.start:reps.stop])
    drawn = time.perf_counter()
    rows = {name: f.copy() for name, f in eval_fields(trace, cfg.grid, names).items()}
    if fluid_qr is not None:
        rows["X1"], rows["X2"] = decompose_hatQr(trace, cfg.grid, fluid_qr)
    if frc is not None:
        bernoulli = seed_words(cfg.master_seed, [(cfg.experiment, n, r, "bernoulli") for r in reps])
        rows["Qtilde"] = np.array([seated(w).binomial(qt[:, None], frc) for qt, w
                                   in zip(rows["Qt"].astype(int), bernoulli.tolist())], float)
    return rows, {"customers": len(trace.arrivals), "draw_s": drawn - start,
                  "eval_s": time.perf_counter() - drawn}


def _age_sup(qe: np.ndarray, qt: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per replication, sup over y of |Fe - targets| for the empirical age
    c.d.f. Fe = Qe / Qt at the last grid time, 0 in an empty system."""
    qt = qt[:, -1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        fe_last = np.where(qt > 0, qe[:, -1] / qt, 0.0)
    return np.max(np.abs(fe_last - targets), axis=1)


# -- runners --------------------------------------------------------------------

def _inputs(cfg: ExperimentConfig) -> lim.LimitInputs:
    return lim.LimitInputs(cfg.arrival, cfg.service, init=cfg.init)


def run_fwlln(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Mean of LLN-scaled fields vs the fluid surfaces, per n, with a
    monotone-error check across n."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    grid = cfg.grid
    tol = cfg.tolerances["fluid_abs"]
    fluid = {"Qr": lim.surface(inputs, grid, "fluid_qr"),
             "Qe": lim.surface(inputs, grid, "fluid_qe")}
    report.surface_rows("fluid", grid, fluid["Qr"], "fluid_qr")
    report.surface_rows("fluid", grid, fluid["Qe"], "fluid_qe")
    if cfg.workload:
        wt_fluid = lim.fluid_workload(inputs, grid.t, 0.0)

    names = ("Qr", "Qe", "Wt") if cfg.workload else ("Qr", "Qe")
    sup_errors = {}
    for n in cfg.n_list:
        rows = _replications(report, cfg, n, threads, names)
        means = {name: np.mean(rows[name] / n, axis=0) for name in names}
        sup_errors[n] = 0.0
        for name, target in fluid.items():
            err = np.abs(means[name] - target)
            sup_errors[n] = max(sup_errors[n], float(err.max()))
            i, j = np.unravel_index(np.argmax(err), err.shape)
            report.add(_abs_point(f"sup|mean {name}/n - fluid| n={n}", grid.t[i], grid.y[j],
                                  means[name][i, j], target[i, j], tol))
        report.surface_rows(f"mean_n{n}", grid, means["Qr"], f"mean_Qr_n{n}")
        if cfg.workload:
            mean_wt = means["Wt"]
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
    v_r = lim.surface(inputs, cfg.grid, "var_qr")
    v_e = lim.surface(inputs, cfg.grid, "var_qe")
    report.surface_rows("analytic_var", cfg.grid, v_r, "var_qr")
    report.surface_rows("analytic_var", cfg.grid, v_e, "var_qe")
    decomposable = inputs.decomposition.p_d == 0.0
    if decomposable:
        comp = lim.var_components(inputs, *np.meshgrid(cfg.grid.t, cfg.grid.y, indexing="ij"))

    for n in cfg.n_list:
        rows = _replications(report, cfg, n, threads, ("Qr", "Qe"),
                             fluid_qr=fq_r if decomposable else None)
        qr, qe = (math.sqrt(n) * (rows[name] / n - q) for name, q in (("Qr", fq_r), ("Qe", fq_e)))
        var_qr_mc = sample_var(qr)
        _grid_points(report, cfg.grid,
                     (_rel_point, f"Var Qr-hat n={n}", var_qr_mc, v_r,
                      tols["variance_rel"], v_r > 1e-10),
                     (_rel_point, f"Var Qe-hat n={n}", sample_var(qe), v_e,
                      tols["variance_rel_loose"], v_e > 1e-10))
        if decomposable:
            report.add(_abs_point(f"max|X1+X2-Qr-hat| n={n}", 0.0, 0.0,
                                  np.max(np.abs(rows["X1"] + rows["X2"] - qr)), 0.0,
                                  tols["identity_abs"]))
            _grid_points(report, cfg.grid,
                         (_rel_point, f"Var X1 n={n}", sample_var(rows["X1"]),
                          comp.arrival, tols["variance_rel_loose"], comp.arrival > 1e-10),
                         (_rel_point, f"Var X2 n={n}", sample_var(rows["X2"]),
                          comp.service, tols["variance_rel_loose"], comp.service > 1e-10))
        if cfg.grid.y[0] == 0.0:
            report.extras[f"qt_skew_kurt_n{n}"] = [
                {"t": float(t), "skew": float(s), "excess_kurtosis": float(k)}
                for t, s, k in zip(cfg.grid.t, *skew_kurtosis(qr[:, :, 0]))]
        report.surface_rows(f"mc_var_n{n}", cfg.grid, var_qr_mc, f"mc_var_qr_n{n}")
    return report


def run_age_distribution(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Empirical age distribution at the last grid time t vs its fluid
    limit qe(t, y^t) / qr(t, 0), the fraction of the customers present at t
    that arrived in (t - y, t], across independent seeds."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    t_last = float(cfg.grid.t[-1])
    fe_targets = (lim.fluid_qe(inputs, t_last, np.minimum(cfg.grid.y, t_last))
                  / lim.fluid_qr(inputs, t_last, 0.0))
    rows = _replications(report, cfg, cfg.n_list[-1], threads, ("Qe", "Qt"))
    sups = _age_sup(rows["Qe"], rows["Qt"], fe_targets)
    tol = cfg.tolerances["ks_abs"]
    frac = float(np.mean([s < tol for s in sups]))
    report.extras["per_seed_sup"] = [float(s) for s in sups]
    report.add(PointStat(f"fraction of seeds with sup|Fe_n - Fe| < {tol}",
                         t_last, 0.0, frac,
                         cfg.tolerances["age_pass_fraction"], 0.0, "abs",
                         bool(frac >= cfg.tolerances["age_pass_fraction"])))
    report.plotdata["age"] = [{"label": "fluid_age_fraction", "t": t_last,
                               "y": float(y), "value": float(fe)}
                              for y, fe in zip(cfg.grid.y, fe_targets)]
    return report


def run_poisson_property(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Poisson dispersion (variance = mean) of the unscaled counts, and the
    Bernoulli-thinning resample whose variance must match."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    fq_r = lim.surface(inputs, cfg.grid, "fluid_qr")
    qt_fluid = lim.fluid_qr(inputs, cfg.grid.t, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        frc = np.clip(np.where(qt_fluid[:, None] > 0, fq_r / qt_fluid[:, None], 0.0), 0.0, 1.0)
    n = cfg.n_list[-1]
    rows = _replications(report, cfg, n, threads, ("Qr", "Qt"), frc=frc)
    qr = rows["Qr"]
    var_qr_mc = sample_var(qr)
    with np.errstate(invalid="ignore", divide="ignore"):
        dispersion = var_qr_mc / qr.mean(axis=0)
    live = n * fq_r >= 5.0      # skip near-empty points (t=0 etc.)
    _grid_points(report, cfg.grid,
                 (_abs_point, "dispersion |var/mean - 1|", dispersion, 1.0,
                  cfg.tolerances["dispersion_abs"], live),
                 (_rel_point, "Var resampled vs Var Qr", sample_var(rows["Qtilde"]),
                  var_qr_mc, cfg.tolerances["variance_rel_loose"], live))
    return report


def run_limit_path_validation(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Monte-Carlo moments of the simulated limit processes vs the analytic
    surfaces, Kiefer covariance checks, increment mean squares, component
    independence, and marginal normality.  Then per Markov probe (t1, t2,
    y), in the config's order: the pathwise residual of the Markov
    decomposition Qr(t2, y) = Qr(t1, y + t2 - t1) + Z(t1, t2, y), and the
    sample correlation of the shifted state Qr(t1, y + t2 - t1) with the
    innovation Z, whose independence the limit implies."""
    report = _report(cfg)
    inputs = _inputs(cfg)
    tols = cfg.tolerances
    n_paths = cfg.replications
    grid = cfg.grid
    bundle = lp.assemble_limit_bundle(
        inputs, grid, cfg.k, substream(cfg.master_seed, cfg.experiment, "bundle"),
        n_paths=n_paths, workload=cfg.workload, markov_probes=cfg.markov_probes)
    # the mean-square increment of the service-noise component, at the
    # middle grid time between the first two y values: read before X2 goes,
    # added last
    increment = []
    if len(grid.y) >= 2 and inputs.decomposition.p_c > 0.0:
        i = len(grid.t) // 2
        t, y0, y1 = float(grid.t[i]), float(grid.y[0]), float(grid.y[1])
        target = lim.cov_x2_increment(inputs, t, y0, y1)
        if target > 1e-10:
            x2 = bundle.paths["X2"][:, i]
            increment.append(_rel_point("X2 increment mean-square", t, y1,
                                        float(np.mean((x2[:, 0] - x2[:, 1])**2)), target,
                                        tols["variance_rel_loose"]))
            del x2
    qr = bundle.paths["Qr"]
    v_r = lim.surface(inputs, grid, "var_qr")
    v_e = lim.surface(inputs, grid, "var_qe")
    # one centred copy per field serves all of its statistics, and goes once
    # they are taken; each component leaves the bundle as its copy is made,
    # so at most one component is held beside its copy
    centred_qr = Centred(qr)
    var_qr = sample_var(centred_qr)
    skew, kurt = skew_kurtosis(centred_qr)
    del centred_qr
    var_qe = sample_var(bundle.paths["Qe"])
    mean_qr = qr.mean(axis=0)
    report.plotdata["limit_summary"] = [
        {"label": "Qr", "t": float(t), "y": float(y), "mc_mean": float(mean_qr[i, j]),
         "mc_var": float(var_qr[i, j]), "analytic_var": float(v_r[i, j])}
        for i, t in enumerate(grid.t) for j, y in enumerate(grid.y)]
    live_r = v_r > 1e-10
    # a component whose paths do not vary at a point (standard deviation at
    # most 1e-12) has no correlation to gate
    comps = [(name, Centred(bundle.paths.pop(name))) for name in ("X1", "X2", "X3")]
    comps = [(name, c, sample_var(c) > 1e-24) for name, c in comps]
    corrs = [(_abs_point, f"corr {a}-{b}", correlation(xa, xb), 0.0,
              tols["corr_abs"], live_a & live_b)
             for (a, xa, live_a), (b, xb, live_b) in itertools.combinations(comps, 2)]
    del comps
    _grid_points(report, grid,
                 (_rel_point, "Var limit Qr", var_qr, v_r, tols["variance_rel"], live_r),
                 (_abs_point, "skew limit Qr", skew, 0.0, tols["skew_abs"], live_r),
                 (_abs_point, "kurtosis limit Qr", kurt, 0.0, tols["kurt_abs"], live_r),
                 (_rel_point, "Var limit Qe", var_qe, v_e,
                  tols["variance_rel_loose"], v_e > 1e-10),
                 *corrs)
    # the engine's exact variances at refinement k against the limit's: the
    # quadrature bias of its nodes, with no Monte Carlo
    parts = lim.var_components(inputs, grid.t[:, None], grid.y[None, :])
    targets = {"X1": parts.arrival, "X2": parts.service, "X3": parts.splitting}
    if cfg.workload:
        v_w = lim.surface(inputs, grid, "var_w")
        targets["Wr"] = v_w
        _grid_points(report, grid,
                     (_rel_point, "Var limit Wr", sample_var(bundle.paths["Wr"]),
                      v_w, tols["variance_rel_loose"], v_w > 1e-8))
    bias = {}
    for name, target in targets.items():
        live = target > 1e-10
        exact = bundle.engine["exact_var"][name][live]
        bias[name] = float(np.max(np.abs(exact / target[live] - 1.0), initial=0.0))
    report.extras["limit_engine"] = {"J": bundle.engine["J"], "G": bundle.engine["G"],
                                     "weight_rows": bundle.engine["weight_rows"],
                                     "normals_per_path": bundle.engine["normals_per_path"],
                                     "worst_exact_rel_bias": bias}
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
    for point in increment:
        report.add(point)
    for (t1, t2, y), (lhs, shifted, z) in bundle.markov.items():
        report.add(_abs_point(f"markov residual (t1={t1}, t2={t2})", t2, y,
                              np.max(np.abs(lhs - shifted - z)), 0.0, tols["identity_abs"]))
        report.add(_abs_point(f"corr shifted-state vs innovation (t1={t1}, t2={t2})",
                              t2, y, correlation(shifted, z), 0.0, tols["corr_abs"]))
    return report


# each experiment named in config.EXPERIMENTS runs as run_<name>
_RUNNERS = {name: globals()[f"run_{name}"] for name in EXPERIMENTS}


def check_runnable(cfg: ExperimentConfig) -> None:
    """Refuse a config that no runner can run: one with ``init``."""
    if cfg.init is not None:
        raise ValueError("config error at init: no experiment simulates initial customers; "
                         "only 'hqinflab surfaces' reads init")


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    _allocator_policy()
    check_runnable(cfg)
    start = time.perf_counter()
    report = _RUNNERS[cfg.experiment](cfg, threads=threads)
    report.runtime_s = time.perf_counter() - start
    return report


def analytic_surfaces(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """The analytic surfaces for the configured models on the config grid."""
    inputs = _inputs(cfg)
    names = ["fluid_qr", "fluid_qe", "var_qr", "var_qe"]
    if math.isfinite(cfg.service.moments().mean):
        names.append("fluid_wr")
    if cfg.workload:
        names.append("var_w")
    if cfg.init is not None:
        names += ["var_total", "fluid_total"]
    return {name: lim.surface(inputs, cfg.grid, name) for name in names}


# -- emission -------------------------------------------------------------------

def emit(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.json, summary.csv and plotdata/*.csv.

    summary.csv and plotdata are byte-deterministic for a fixed (config,
    master_seed) and BLAS setting; across BLAS settings limit experiments
    agree to roundoff, not byte for byte (duplicate Qe columns, y >= t, make
    their factor rank-deficient).  report.json adds runtime and timings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    payload = {
        "experiment": report.experiment,
        "seed": report.seed,
        "verdict": "pass" if report.verdict else "fail",
        "points": [dict(vars(p), abs_err=p.abs_err) for p in report.points],
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
