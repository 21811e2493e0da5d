"""The acceptance battery: ten statistical/exactness criteria, each a
self-contained check returning a pass/fail verdict with detail lines.

These are the library's exit criteria.  ``hqinflab selftest`` runs them all,
as does tests/test_acceptance.py.  A criterion's verdict is the AND of the
verdicts of the experiment reports it runs and of its own analytic or exact
checks.  The reports gate with the bounds of ``config.DEFAULT_TOLERANCES``,
overridden per criterion where a case needs its own (criterion 4's renewal
and mixture cases); the criteria's own checks state their bounds here.  A
report gives one detail line per gate label (:func:`_gates`), an own check
one line.  The Monte-Carlo checks draw their traces in blocks from fixed
substreams, so runs are reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import limits as lim
from .arrivals import ArrivalModel
from .config import config_from_dict
from .experiments import ExperimentReport, PointStat, _allocator_policy, run_experiment
from .fields import Grid
from .rng import seed_words
from .scaling import decompose_hatQr, x1_integration_by_parts
from .service import Exponential, FiniteAtoms, HyperExponential, Mixture
from .simulate import CountLaw, InitialConditions, eval_fields, replication_sums, simulate
from .stats import sample_var

__all__ = ["CriterionResult", "run_all", "CRITERIA", "DEFAULT_SEED"]

DEFAULT_SEED = 161803


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    seconds: float | None = None     # wall time, as run_all measures it

    def summary(self) -> str:
        timed = "" if self.seconds is None else f" ({self.seconds:.2f} s)"
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.index}: {self.name}{timed}"


def _check(lines, ok, text):
    lines.append(f"  {'ok  ' if ok else 'FAIL'} {text}")
    return ok


def _load(point: PointStat) -> float:
    """The point's error against its bound: abs_err / tol, or
    abs_err / (tol |target|) for a rel tolerance; nan for a zero bound."""
    bound = point.tol * (abs(point.target) if point.tol_kind == "rel" else 1.0)
    return point.abs_err / bound if bound > 0 else math.nan


def _gates(lines, name: str, report: ExperimentReport) -> bool:
    """Write one line per gate label of ``report``, in the report's order:
    how many of its points pass, and the worst of them (a failing one first)
    against its bound.  Returns the report's verdict."""
    labels = {}
    for point in report.points:
        labels.setdefault(point.label, []).append(point)
    for label, points in labels.items():
        worst = max(points, key=lambda p: (not p.passed, _load(p)))
        load = _load(worst)
        _check(lines, all(p.passed for p in points),
               f"{name}: {label}: {sum(p.passed for p in points)}/{len(points)} pass; "
               f"worst at ({worst.t:g}, {worst.y:g}): {worst.estimate:.4g} vs {worst.target:.4g}"
               + ("" if math.isnan(load) else f" ({load:.2g} of tol)"))
    return report.verdict


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


# -- criterion 1: exact identities ------------------------------------------------

def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Per-replication counting/work identities and the two-term split, all
    at 1e-9; X1 against its integration-by-parts form at 1e-6; mixture
    c.d.f. reconstruction at 1e-10.

    The y axis holds every grid time, and every t - y with y <= t is 0 or a
    grid time, so Qe(t, t) = Qt(t) and Qe(t, y) = Qt(t) - Qr(t - y, y) compare
    entries of one evaluation.  A(t) and the input work I(t) are counted
    directly from the trace."""
    lines = []
    grid = Grid([0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0, 1.5, 2.0])
    times, cols = np.arange(len(grid.t)), np.arange(len(grid.y))
    diagonal = np.searchsorted(grid.y, grid.t)                    # y = t
    prev = grid.t[:, None] - grid.y                               # t - y
    prev_t = np.searchsorted(np.concatenate(([0.0], grid.t)), np.maximum(prev, 0.0))
    cases = [
        ("M/exp", ArrivalModel.poisson(1.0), Exponential(1.0)),
        ("M/mixture", ArrivalModel.poisson(1.0), _mix_service()),
        ("renewal-H2/exp2", ArrivalModel.renewal(HyperExponential((0.5, 0.5), (2.0, 2.0 / 3.0))),
         Exponential(2.0)),
    ]
    worst = 0.0
    for name, arrival, service in cases:
        block = simulate(arrival, service, n=50, horizon=2.0,
                         words=seed_words(seed, [("criterion1", rep, name) for rep in range(5)], 3))
        f = eval_fields(block, grid, ("Qr", "Qe", "Qt", "D", "Wt", "C"))
        qr, qe, qt = f["Qr"], f["Qe"], f["Qt"]
        arrived = block.arrivals[:, None] <= grid.t
        a_t = replication_sums(arrived, block.bounds)
        i_t = replication_sums(arrived * block.services[:, None], block.bounds)
        qr_prev = np.concatenate((np.zeros_like(qr[:, :1]), qr), axis=1)[:, prev_t, cols]
        residuals = (a_t - qt - f["D"],
                     i_t - f["Wt"] - f["C"],
                     qt - qr[:, :, 0],
                     qe[:, times, diagonal] - qt,
                     (qe - (qt[:, :, None] - qr_prev))[:, prev >= 0])
        worst = max(worst, *(float(np.max(np.abs(r))) for r in residuals))
    passed = _check(lines, worst <= 1e-9,
                    f"flow/work/counting identities on 15 traces, worst residual {worst:.2e}")

    # two-term decomposition additivity (continuous service only)
    arrival, service = ArrivalModel.poisson(1.0), Exponential(1.0)
    inputs = lim.LimitInputs(arrival, service)
    fluid = lim.surface(inputs, grid, "fluid_qr")
    block = simulate(arrival, service, n=100, horizon=2.0,
                     words=seed_words(seed, [("criterion1", "x12", rep) for rep in range(5)], 3))
    # decompose_hatQr recounts Qr on its own (ends > t + y), so this checks
    # the evaluator's counts against an independent count
    x1, x2 = decompose_hatQr(block, grid, fluid)
    qhat = math.sqrt(block.n) * (eval_fields(block, grid, ("Qr",))["Qr"] / block.n - fluid)
    worst = float(np.max(np.abs(x1 + x2 - qhat)))
    passed &= _check(lines, worst <= 1e-9, f"X1 + X2 = Qr-hat, worst residual {worst:.2e}")
    # X1's panel sums against the Stieltjes form, whose integral over the
    # arrival steps is exact and whose drift part reads the fluid surface
    parts = x1_integration_by_parts(block, grid, fluid, inputs.abar)
    worst = float(np.max(np.abs(x1 - parts)))
    passed &= _check(lines, worst <= 1e-6,
                     f"X1 against its integration-by-parts form, worst difference {worst:.2e}")

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
        passed &= _gates(lines, name, report)
    return CriterionResult(2, "FWLLN fluid convergence", passed, lines)


# -- criterion 3: Poisson collapse ---------------------------------------------------

def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """var_qr == fluid_qr at c_a^2 = 1 (1e-8) and Poisson dispersion of the
    unscaled counts at n=100."""
    lines = []
    passed = True
    t, y = np.meshgrid((0.5, 1.0, 1.5, 2.0), (0.0, 0.25, 0.5, 1.0), indexing="ij")
    for name, service in (("exp", Exponential(1.0)), ("mixture", _mix_service())):
        inputs = lim.LimitInputs(ArrivalModel.poisson(1.0), service)
        worst = float(np.max(np.abs(lim.var_qr(inputs, t, y) - lim.fluid_qr(inputs, t, y))))
        passed &= _check(lines, worst <= 1e-8,
                         f"analytic collapse ({name}): sup |var - fluid| = {worst:.2e}")
    report = _run(seed, "poisson_property", [1.0], [0.0, 0.5], n_list=[100],
                  replications=2000)
    passed &= _gates(lines, "M/exp", report)
    return CriterionResult(3, "Poisson collapse (c_a^2 = 1)", passed, lines)


# -- criterion 4: FCLT variances ----------------------------------------------------

def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """CLT-scaled variances against the analytic targets for the M/exp,
    deterministic-renewal and mixture-service cases, and two targets
    against their closed forms."""
    lines = []
    passed = True
    d_renewal = {"kind": "renewal", "interarrival": {"kind": "deterministic", "point": 1.0}}
    cases = {
        "M/exp": ([1.0, 2.0], [0.0, 0.5], {"n_list": [100]}),
        "D-renewal/exp": ([8.0], [0.0], {
            "n_list": [400], "arrival": d_renewal,
            "tolerances": {"variance_rel": 0.15, "variance_rel_loose": 0.15}}),
        "mixture service": ([2.0], [0.0, 0.25], {
            "n_list": [400], "service": {"kind": "mixture", "weight": 0.5,
                                         "continuous": {"kind": "exponential", "rate": 1.0},
                                         "atoms": [[1.0, 1.0]]},
            "tolerances": {"variance_rel": 0.15}}),
    }
    for name, (t, y, keys) in cases.items():
        report = _run(seed, "fclt_variance", t, y, replications=2000, **keys)
        passed &= _gates(lines, name, report)
    for name, arrival, t, exact, bound in (
            ("M/exp", ArrivalModel.poisson(1.0), 2.0, 1.0 - math.exp(-2.0), 1e-9),
            ("D-renewal/exp", ArrivalModel.renewal(FiniteAtoms(((1.0, 1.0),))), 8.0, 0.5, 1e-3)):
        target = lim.var_qr(lim.LimitInputs(arrival, Exponential(1.0)), t, 0.0)
        passed &= _check(lines, abs(target - exact) < bound,
                         f"{name}: var_qr({t:g}, 0) = {target:.9f} vs {exact:.9f} (< {bound:g})")
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
        inputs = lim.LimitInputs(arrival, service)
        total = lim.var_components(inputs, t, y).total
        worst = float(np.max(np.abs(total - lim.var_qr(inputs, t, y))))
        passed &= _check(lines, worst <= 1e-6, f"{name}: sup |sum - var_qr| = {worst:.2e}")
    return CriterionResult(5, "variance additivity", passed, lines)


# -- criterion 6: age distribution -----------------------------------------------------

def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Empirical age c.d.f. at t=8 vs its fluid limit qe(8, y) / qr(8, 0),
    20 seeds, sup over the y-grid < 0.05 in at least 90% of them."""
    lines = []
    passed = True
    cases = [
        ("M/exp", {"kind": "exponential", "rate": 1.0}, [0.5, 1.0, 2.0, 3.0]),
        ("M/det", {"kind": "deterministic", "point": 1.0}, [0.2, 0.4, 0.6, 0.8]),
    ]
    for name, service, ygrid in cases:
        report = _run(seed, "age_distribution", [8.0], ygrid, service=service,
                      n_list=[400], replications=20)
        passed &= _gates(lines, name, report)
    return CriterionResult(6, "age distribution vs fluid age fraction", passed, lines)


# -- criterion 7: workload ---------------------------------------------------------------

def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Mean scaled workload and fields against their fluid values (``fwlln``
    with ``workload``): M/exp at t=8, and on a grid under a sinusoidal NHPP
    with lognormal service; and the steady-state fluid workload reproduced to
    1e-6 by quadrature.  The M/exp grid has y = 1 beside y = 0, where Qe(t,
    0) and its fluid value are both 0."""
    lines = []
    report = _run(seed, "fwlln", [8.0], [0.0, 1.0], n_list=[400], replications=200,
                  workload=True)
    passed = _gates(lines, "M/exp", report)
    report = _run(seed, "fwlln", [1.0, 2.0, 4.0, 8.0], [0.0, 1.0], n_list=[400],
                  replications=200, workload=True,
                  arrival={"kind": "nhpp",
                           "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 0.5}},
                  service={"kind": "lognormal", "logmean": -0.5, "logsd": 1.0})
    passed &= _gates(lines, "nhpp/lognormal", report)
    for name, service, expect in (("exp", Exponential(1.0), 1.0),
                                  ("det", FiniteAtoms(((1.0, 1.0),)), 0.5)):
        inputs = lim.LimitInputs(ArrivalModel.poisson(1.0), service)
        quad, exact = lim.fluid_workload_steady(inputs, 1.0)
        ok = abs(exact - expect) <= 1e-12 and abs(quad - exact) <= 1e-6
        passed &= _check(lines, ok,
                         f"steady workload ({name}): quadrature {quad:.8f} vs {exact}")
    return CriterionResult(7, "workload fluid limits", passed, lines)


# -- criterion 8: limit-path validation ---------------------------------------------------

def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """16000 simulated limit paths at k=200: variances, Kiefer covariances,
    increment mean-squares, component independence, marginal normality.

    The limit is exactly Gaussian, so the normality gates test only sampling
    noise.  The bounds are fixed, so only at 16000 paths does each |skew|
    and |kurt| bound sit at about 5 standard errors (at 4000 paths, about
    2.5), and there the gates hold at every seed, not only at
    DEFAULT_SEED."""
    lines = []
    report = _run(seed, "limit_path_validation", [0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 1.0],
                  replications=16000, k=200)
    return CriterionResult(8, "limit-path validation", _gates(lines, "M/exp", report), lines)


# -- criterion 9: Markov decomposition ------------------------------------------------------

def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Pathwise residual of the Markov decomposition at the exact-identity
    bound, and independence of the shifted state from the innovation: the
    last two gates of limit-path validation with one Markov probe, on its
    own grid at criterion 8's 16000 paths, which its normality gates need
    too."""
    lines = []
    report = _run(seed, "limit_path_validation", [0.5, 1.0], [0.0, 0.5],
                  replications=16000, k=200, markov=[[0.5, 1.0, 0.0]])
    return CriterionResult(9, "Markov decomposition", _gates(lines, "M/exp", report), lines)


# -- criterion 10: initial conditions ---------------------------------------------------------

def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Var of the scaled initial-residual count Qir(ln 2) against the
    limit's var_qir (10%), for a fixed and a Poisson initial count, and the
    exact all-customer identity QTr = Qr + Qir(t + y).

    With Exp(1) residuals Qir(ln 2) is Binomial(n, 1/2) for the fixed count
    and Poisson(n/2) for the Poisson one, so both targets, 0.25 and 0.5, are
    exact at every n: n sets only the cost."""
    lines = []
    passed = True
    arrival, service = ArrivalModel.poisson(1.0), Exponential(1.0)
    n, y = 100, math.log(2.0)
    for kind in ("fixed", "poisson"):
        init = InitialConditions(CountLaw(kind, 1.0), Exponential(1.0))
        qir, target, _, _ = lim.initial_and_total_limits(
            lim.LimitInputs(arrival, service, init=init), 0.0, y)
        block = simulate(arrival, service, n, y,
                         seed_words(seed, [("criterion10", kind, r) for r in range(2000)], 3),
                         init=init)
        counts = eval_fields(block, Grid([y], [y]), ("Qir",))["Qir"][:, 0]
        est = float(sample_var((counts - n * qir) / math.sqrt(n)))
        passed &= _check(lines, abs(est - target) <= 0.1 * target,
                         f"{kind} count: Var Qir-hat(ln 2) = {est:.4f} vs {target:.4f} (10%)")

    grid = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.0])
    block = simulate(arrival, service, n, 2.0,
                     seed_words(seed, [("criterion10", "total", r) for r in range(5)], 3),
                     init=InitialConditions(CountLaw("fixed", 1.0), Exponential(1.0)))
    qir_shift = replication_sums(
        block.initial_residuals[:, None, None] > grid.t[:, None] + grid.y,
        np.concatenate(([0], np.cumsum(block.initial_counts))))
    f = eval_fields(block, grid, ("QTr", "Qr"))
    worst = float(np.max(np.abs(f["QTr"] - f["Qr"] - qir_shift)))
    passed &= _check(lines, worst <= 1e-9, f"QTr = Qr + Qir(t+y) exact (worst {worst:.1e})")
    return CriterionResult(10, "initial conditions", passed, lines)


CRITERIA = {index: globals()[f"criterion_{index}"] for index in range(1, 11)}


def run_all(seed: int = DEFAULT_SEED, only=None) -> list[CriterionResult]:
    """The criteria at ``seed``, all or those in ``only``, each timed.  The
    heap policy is set first: criterion 1 evaluates blocks before any run."""
    _allocator_policy()
    results = []
    for index in sorted(CRITERIA):
        if not only or index in only:
            start = time.perf_counter()
            results.append(CRITERIA[index](seed))
            results[-1].seconds = time.perf_counter() - start
    return results
