"""The acceptance battery: ten statistical/exactness criteria, each a
self-contained check returning a pass/fail verdict with detail lines.

These are the library's exit criteria.  ``hqinflab selftest`` runs them all,
as does tests/test_acceptance.py.  The criteria that run an experiment gate
with the bounds of ``config.DEFAULT_TOLERANCES``, overridden per criterion
where a case needs its own (criterion 4's renewal and mixture cases); the
analytic and exact checks state their bounds here.  The Monte-Carlo checks use
fixed substreams so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits as lim
from .arrivals import ArrivalModel
from .config import config_from_dict
from .experiments import run_experiment
from .fields import Grid
from .rng import substream
from .scaling import decompose_hatQr
from .service import Exponential, FiniteAtoms, HyperExponential, Mixture
from .simulate import (CountLaw, InitialConditions, eval_initial_fields,
                       eval_queue_fields, eval_workload_fields, simulate)
from .stats import sample_var

__all__ = ["CriterionResult", "run_all", "CRITERIA", "DEFAULT_SEED"]

DEFAULT_SEED = 161803


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.index}: {self.name}"


def _check(lines, ok, text):
    lines.append(f"  {'ok  ' if ok else 'FAIL'} {text}")
    return ok


def _mix_service():
    return Mixture(0.5, Exponential(1.0), FiniteAtoms(((1.0, 1.0),)))


def _run(seed: int, experiment: str, t, y, **keys):
    """Run ``experiment`` on the grid t x y, with Poisson(1) arrivals and
    Exp(1) service unless ``keys`` sets them (or any other config key)."""
    return run_experiment(config_from_dict({
        "arrival": {"kind": "poisson", "rate": 1.0},
        "service": {"kind": "exponential", "rate": 1.0},
        "grid": {"t": t, "y": y}, "experiment": experiment, "master_seed": seed,
        **keys}))


def _points(report, prefix: str, **at):
    """The report's points whose label starts with ``prefix``, at the t and y
    given in ``at``."""
    return [p for p in report.points if p.label.startswith(prefix)
            and all(getattr(p, key) == value for key, value in at.items())]


# -- criterion 1: exact identities ------------------------------------------------

def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Per-replication counting/work identities and the two-term split, all
    at 1e-9; mixture c.d.f. reconstruction at 1e-10."""
    lines = []
    ok = True
    grid = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0])
    cases = [
        ("M/exp", ArrivalModel.poisson(1.0), Exponential(1.0)),
        ("M/mixture", ArrivalModel.poisson(1.0), _mix_service()),
        ("renewal-H2/exp2", ArrivalModel.renewal(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))),
         Exponential(2.0)),
    ]
    for rep in range(5):
        for name, arrival, service in cases:
            rng = substream(seed, "criterion1", rep, name)
            trace = simulate(arrival, service, n=50, horizon=2.0, rng=rng)
            q = eval_queue_fields(trace, grid)
            w = eval_workload_fields(trace, grid)
            a_t = trace.count_arrivals(grid.t)
            ok &= np.max(np.abs(a_t - q["Qt"].values - q["D"].values)) <= 1e-9
            ok &= np.max(np.abs(w["I"].values - w["Wt"].values - w["C"].values)) <= 1e-9
            ok &= np.max(np.abs(q["Qt"].values - q["Qr"].values[:, 0])) <= 1e-9
            # Qe(t, t) = Qt(t): evaluate on a one-off grid with y = t
            for i, t in enumerate(grid.t):
                g2 = Grid([t], [float(t)])
                qe_tt = eval_queue_fields(trace, g2)["Qe"].values[0, 0]
                ok &= abs(qe_tt - q["Qt"].values[i]) <= 1e-9
            # Qe(t,y) = Qt(t) - Qr(t-y, y) wherever t-y is on the grid (or 0)
            for i, t in enumerate(grid.t):
                for j, y in enumerate(grid.y):
                    if y > t:
                        continue
                    prev = t - y
                    if prev == 0.0:
                        qr_prev = 0.0
                    elif np.any(np.isclose(grid.t, prev)):
                        qr_prev = q["Qr"].values[int(np.argmin(np.abs(grid.t - prev))), j]
                    else:
                        continue
                    ok &= abs(q["Qe"].values[i, j]
                              - (q["Qt"].values[i] - qr_prev)) <= 1e-9
    _check(lines, ok, "flow/work/counting identities exact on 15 traces")
    passed = ok

    # two-term decomposition additivity (continuous service only)
    arrival, service = ArrivalModel.poisson(1.0), Exponential(1.0)
    inputs = lim.LimitInputs.from_models(arrival, service)
    fluid = lim.surface(inputs, grid, "fluid_qr")
    block = simulate(arrival, service, n=100, horizon=2.0,
                     rng=[substream(seed, "criterion1", "x12", rep).spawn(3) for rep in range(5)])
    x1, x2 = decompose_hatQr(block, grid, fluid)
    qhat = math.sqrt(block.n) * (eval_queue_fields(block, grid)["Qr"].values / block.n
                                 - fluid.values)
    worst = float(np.max(np.abs(x1.values + x2.values - qhat)))
    passed &= _check(lines, worst <= 1e-9, f"X1 + X2 = Qr-hat, worst residual {worst:.2e}")

    mix = _mix_service()
    dec = mix.decompose()
    xs = np.linspace(0.0, 10.0, 1000)
    recon = dec.p_c * np.asarray(dec.continuous_part.cdf(xs)) \
        + dec.p_d * np.asarray([dec.atomic_cdf(x) for x in xs])
    err = float(np.max(np.abs(np.asarray(mix.cdf(xs)) - recon)))
    passed &= _check(lines, err <= 1e-10, f"mixture reconstruction sup-error {err:.2e}")
    return CriterionResult(1, "exact identities", passed, lines)


# -- criterion 2: FWLLN -----------------------------------------------------------

def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Fluid convergence: sup-grid error < 0.05 at n=400 for three models,
    and strictly smaller error at n=1600 than at n=100."""
    lines = []
    passed = True
    cases = {
        "M/exp": {},
        "M/det": {"service": {"kind": "deterministic", "point": 1.0}},
        "nhpp/exp": {"arrival": {"kind": "nhpp",
                                 "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 0.5}}},
    }
    for name, keys in cases.items():
        report = _run(seed, "fwlln", [0.25, 0.5, 1.0, 1.5, 2.0], [0.0, 0.25, 0.5, 1.0, 2.0],
                      n_list=[100, 400, 1600], replications=200, **keys)
        passed &= _check(lines, report.verdict,
                         f"{name}: sup errors {report.extras['sup_errors']}")
    return CriterionResult(2, "FWLLN fluid convergence", passed, lines)


# -- criterion 3: Poisson collapse ---------------------------------------------------

def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """var_qr == fluid_qr at c_a^2 = 1 (1e-8) and Poisson dispersion of the
    unscaled counts at n=100."""
    lines = []
    passed = True
    t, y = np.meshgrid((0.5, 1.0, 1.5, 2.0), (0.0, 0.25, 0.5, 1.0), indexing="ij")
    for name, service in (("exp", Exponential(1.0)), ("mixture", _mix_service())):
        inputs = lim.LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        worst = float(np.max(np.abs(lim.var_qr(inputs, t, y) - lim.fluid_qr(inputs, t, y))))
        passed &= _check(lines, worst <= 1e-8,
                         f"analytic collapse ({name}): sup |var - fluid| = {worst:.2e}")
    report = _run(seed, "poisson_property", [1.0], [0.0, 0.5], n_list=[100],
                  replications=2000)
    disp = _points(report, "dispersion")
    passed &= _check(lines, all(p.passed for p in disp),
                     "dispersion |var/mean - 1| < 0.1: "
                     + ", ".join(f"{p.estimate - 1:+.3f}" for p in disp))
    passed &= _check(lines, report.verdict, "Bernoulli resample variance within 15%")
    return CriterionResult(3, "Poisson collapse (c_a^2 = 1)", passed, lines)


# -- criterion 4: FCLT variances ----------------------------------------------------

def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """CLT-scaled variances against the analytic targets for the M/exp,
    deterministic-renewal and mixture-service cases."""
    lines = []
    passed = True

    report = _run(seed, "fclt_variance", [1.0, 2.0], [0.0, 0.5], n_list=[100],
                  replications=2000)
    (qt2,) = _points(report, "Var Qr-hat n=100", t=2.0, y=0.0)
    target = 1.0 - math.exp(-2.0)
    passed &= _check(lines, qt2.passed and abs(qt2.target - target) < 1e-9,
                     f"M/exp: Var Qt-hat(2) = {qt2.estimate:.4f} vs {target:.6f} (10%)")
    ident = _points(report, "max|X1+X2")
    passed &= _check(lines, all(p.passed for p in ident),
                     f"per-replication X1+X2 identity <= 1e-9 (worst {max(p.estimate for p in ident):.1e})")
    passed &= _check(lines, report.verdict, "all M/exp variance points within tolerance")

    report_d = _run(seed, "fclt_variance", [8.0], [0.0], n_list=[400], replications=2000,
                    arrival={"kind": "renewal",
                             "interarrival": {"kind": "deterministic", "point": 1.0}},
                    tolerances={"variance_rel": 0.15, "variance_rel_loose": 0.15})
    (pt,) = _points(report_d, "Var Qr-hat n=400")
    passed &= _check(lines, report_d.verdict and abs(pt.target - 0.5) < 1e-3,
                     f"D-renewal/exp: Var Qt-hat(8) = {pt.estimate:.4f} vs {pt.target:.4f} (15%)")

    report_m = _run(seed, "fclt_variance", [2.0], [0.0, 0.25], n_list=[400], replications=2000,
                    service={"kind": "mixture", "weight": 0.5,
                             "continuous": {"kind": "exponential", "rate": 1.0},
                             "atoms": [[1.0, 1.0]]},
                    tolerances={"variance_rel": 0.15})
    pts = _points(report_m, "Var Qr-hat n=400")
    passed &= _check(lines, report_m.verdict,
                     "mixture service: " + ", ".join(
                         f"({p.t},{p.y}): {p.estimate:.3f}/{p.target:.3f}" for p in pts))
    return CriterionResult(4, "FCLT variances", passed, lines)


# -- criterion 5: variance additivity -------------------------------------------------

def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """sigma_1^2 + sigma_2^2 + sigma_3^2 = var_qr within 1e-6 on a 5x5 grid
    for three service families (the resolution of the component algebra)."""
    lines = []
    passed = True
    t, y = np.meshgrid((0.4, 0.8, 1.2, 1.6, 2.0), (0.0, 0.25, 0.5, 1.0, 1.5), indexing="ij")
    cases = [
        ("exp, Poisson arrivals", ArrivalModel.poisson(1.0), Exponential(1.0)),
        ("mixture, Poisson arrivals", ArrivalModel.poisson(1.0),
         Mixture(0.5, Exponential(1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))),
        ("hyperexp, Poisson arrivals", ArrivalModel.poisson(1.0),
         HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))),
        ("mixture, deterministic renewal (c_a^2 = 0)",
         ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))),
         Mixture(0.5, Exponential(1.0), FiniteAtoms(((1.0, 0.6), (2.0, 0.4))))),
    ]
    for name, arrival, service in cases:
        inputs = lim.LimitInputs.from_models(arrival, service)
        total = lim.var_components(inputs, t, y).total
        worst = float(np.max(np.abs(total - lim.var_qr(inputs, t, y))))
        passed &= _check(lines, worst <= 1e-6, f"{name}: sup |sum - var_qr| = {worst:.2e}")
    return CriterionResult(5, "variance additivity", passed, lines)


# -- criterion 6: age distribution -----------------------------------------------------

def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Empirical age c.d.f. at t=8 vs the stationary-excess c.d.f., 20 seeds,
    sup over the y-grid < 0.05 in at least 90% of them."""
    lines = []
    passed = True
    cases = [
        ("M/exp", {"kind": "exponential", "rate": 1.0}, [0.5, 1.0, 2.0, 3.0]),
        ("M/det", {"kind": "deterministic", "point": 1.0}, [0.2, 0.4, 0.6, 0.8]),
    ]
    for name, service, ygrid in cases:
        report = _run(seed, "age_distribution", [8.0], ygrid, service=service,
                      n_list=[400], replications=20)
        frac = report.points[0].estimate
        passed &= _check(lines, report.verdict,
                         f"{name}: pass fraction {frac:.2f} (need >= 0.90)")
    return CriterionResult(6, "age distribution vs stationary excess", passed, lines)


# -- criterion 7: workload ---------------------------------------------------------------

def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Mean scaled workload at t=8 within 0.07 of the fluid value, and the
    steady-state fluid workload reproduced to 1e-6 by quadrature."""
    lines = []
    passed = True
    report = _run(seed, "workload", [8.0], [0.0], n_list=[400], replications=200)
    mean_pt = report.points[0]
    passed &= _check(lines, mean_pt.passed,
                     f"mean Wt/n(8) = {mean_pt.estimate:.4f} vs fluid {mean_pt.target:.6f} (0.07)")
    for name, service, expect in (("exp", Exponential(1.0), 1.0),
                                  ("det", FiniteAtoms(((1.0, 1.0),)), 0.5)):
        inputs = lim.LimitInputs.from_models(ArrivalModel.poisson(1.0), service)
        quad, exact = lim.fluid_workload_steady(inputs)
        ok = abs(exact - expect) <= 1e-12 and abs(quad - exact) <= 1e-6
        passed &= _check(lines, ok,
                         f"steady workload ({name}): quadrature {quad:.8f} vs {exact}")
    return CriterionResult(7, "workload fluid limits", passed, lines)


# -- criterion 8: limit-path validation ---------------------------------------------------

def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """16000 simulated limit paths at k=200: variances, Kiefer covariances,
    increment mean-squares, component independence, marginal normality.

    The limit is exactly Gaussian, so the normality gates test only sampling
    noise: at 16000 paths each |skew| and |kurt| bound sits at about 5
    standard errors, and the gates hold at every seed, not only at
    DEFAULT_SEED."""
    lines = []
    report = _run(seed, "limit_path_validation", [0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0],
                  n_list=[1], replications=16000, k=200,
                  increment_probe=[1.0, 0.0, 1.0, 0.5])
    passed = True
    (var10,) = _points(report, "Var limit Qr", t=1.0, y=0.0)
    passed &= _check(lines, var10.passed,
                     f"Var Qr(1,0) = {var10.estimate:.4f} vs {var10.target:.6f} (10%)")
    for label in ("Var Kiefer U(1,0.5)", "Cov Kiefer U(1,0.3),U(1,0.6)",
                  "X2 increment mean-square"):
        (pt,) = _points(report, label)
        passed &= _check(lines, pt.passed, f"{label}: {pt.estimate:.4f} vs {pt.target:.4f}")
    corr = _points(report, "corr")
    worst_corr = max(abs(p.estimate) for p in corr)
    passed &= _check(lines, all(p.passed for p in corr),
                     f"component correlations: worst |rho| = {worst_corr:.4f} (< 0.06)")
    skews = _points(report, "skew")
    kurts = _points(report, "kurtosis")
    passed &= _check(lines, all(p.passed for p in skews + kurts),
                     f"normality: worst |skew| = {max(abs(p.estimate) for p in skews):.3f}, "
                     f"worst |kurt| = {max(abs(p.estimate) for p in kurts):.3f}")
    passed &= _check(lines, report.verdict, "all limit-path points pass")
    return CriterionResult(8, "limit-path validation", passed, lines)


# -- criterion 9: Markov decomposition ------------------------------------------------------

def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Pathwise residual of the Markov decomposition at the exact-identity
    bound, and independence of the shifted state from the innovation."""
    lines = []
    report = _run(seed, "markov_check", [0.5, 1.0], [0.0, 0.5], replications=4000, k=200,
                  markov=[[0.5, 1.0, 0.0]])
    (res,) = _points(report, "markov residual")
    (corr,) = _points(report, "corr")
    passed = _check(lines, res.passed,
                    f"residual {res.estimate:.2e} <= {res.tol:.0e} (exact identity)")
    passed &= _check(lines, corr.passed,
                     f"|corr(shifted state, innovation)| = {abs(corr.estimate):.4f} (< 0.06)")
    return CriterionResult(9, "Markov decomposition", passed, lines)


# -- criterion 10: initial conditions ---------------------------------------------------------

def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Var of the scaled initial-residual count at ln 2 with a fixed count
    (target 0.25, 10%), and the exact all-customer identity."""
    lines = []
    n = 10_000
    reps = 2000
    level = 1.0
    fi = Exponential(1.0)
    y = math.log(2.0)
    target = level * 0.5 * 0.5    # bridge variance F_i(y) F_i^c(y), no count noise
    vals = np.empty(reps)
    for r in range(reps):
        rng = substream(seed, "criterion10", r)
        resid = fi.sample(rng, size=n)
        qir = np.sum(resid > y)
        vals[r] = (qir - n * 0.5) / math.sqrt(n)
    est = float(sample_var(vals))
    passed = _check(lines, abs(est - target) <= 0.1 * target,
                    f"Var Qir-hat(ln 2) = {est:.4f} vs {target} (10%)")

    arrival, service = ArrivalModel.poisson(1.0), Exponential(1.0)
    init = InitialConditions(CountLaw("fixed", 1.0), fi)
    grid = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.0])
    worst = 0.0
    for r in range(5):
        trace = simulate(arrival, service, n=100, horizon=2.0,
                         rng=substream(seed, "criterion10", "total", r), init=init)
        fields = eval_initial_fields(trace, grid)
        ends = trace.arrivals + trace.services
        for i, t in enumerate(grid.t):
            for j, yv in enumerate(grid.y):
                brute = (np.sum(trace.initial_residuals > t + yv)
                         + np.sum((trace.arrivals <= t) & (ends > t + yv)))
                worst = max(worst, abs(fields["QTr"].values[i, j] - brute))
    passed &= _check(lines, worst <= 1e-9,
                     f"QTr = Qr + Qir(t+y) exact (worst {worst:.1e})")
    return CriterionResult(10, "initial conditions", passed, lines)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(seed: int = DEFAULT_SEED, only=None) -> list[CriterionResult]:
    results = []
    for idx in sorted(CRITERIA):
        if only and idx not in only:
            continue
        results.append(CRITERIA[idx](seed))
    return results
