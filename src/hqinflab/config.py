"""Experiment configuration: YAML parsing with strict validation.

A config is a nested mapping with sections ``arrival``, ``service``,
optional ``init``, ``grid``, experiment selection and knobs.  Unknown keys
are rejected with the offending path so typos cannot silently change an
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .arrivals import ArrivalModel, arrival_from_spec
from .fields import Grid
from .service import ServiceModel, service_from_spec
from .simulate import CountLaw, InitialConditions

__all__ = ["ExperimentConfig", "parse_config", "config_from_dict",
           "DEFAULT_TOLERANCES", "EXPERIMENTS"]

EXPERIMENTS = (
    "fwlln",
    "fclt_variance",
    "age_distribution",
    "poisson_property",
    "limit_path_validation",
    "markov_check",
    "workload",
)

DEFAULT_TOLERANCES = {
    "fluid_abs": 0.05,          # |mean LLN field - fluid surface|
    "workload_abs": 0.07,       # |mean workload - fluid workload|
    "variance_rel": 0.10,       # sample variance vs analytic variance
    "variance_rel_loose": 0.15, # secondary variance targets
    "dispersion_abs": 0.10,     # |var/mean - 1| for the Poisson property
    "identity_abs": 1e-9,       # exact per-replication identities
    "analytic_abs": 1e-6,       # quadrature vs closed form
    "ks_abs": 0.05,             # sup-norm distance of empirical age c.d.f.
    "age_pass_fraction": 0.90,  # fraction of seeds that must pass
    "corr_abs": 0.06,           # independence proxies
    "skew_abs": 0.10,           # marginal normality
    "kurt_abs": 0.20,
}

_TOP_KEYS = {"arrival", "service", "init", "grid", "n_list", "replications",
             "k", "master_seed", "experiment", "tolerances", "markov",
             "workload", "increment_probe"}


@dataclass(frozen=True)
class ExperimentConfig:
    arrival: ArrivalModel
    service: ServiceModel
    grid: Grid
    experiment: str
    n_list: tuple[int, ...]
    replications: int
    k: int
    master_seed: int
    tolerances: dict
    init: InitialConditions | None
    markov_probes: tuple[tuple[float, float, float], ...]
    workload: bool
    increment_probe: tuple[float, float, float, float] | None
    echo: dict = field(repr=False, default_factory=dict)

    @property
    def horizon(self) -> float:
        return float(self.grid.t[-1])


def _fail(where: str, msg: str):
    raise ValueError(f"config error at {where}: {msg}")


def _int_key(where: str, value, lo: int) -> int:
    """An integer >= lo; bools and non-integral numbers are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        _fail(where, f"expected an integer, got {value!r}")
    if value < lo:
        _fail(where, f"must be >= {lo}, got {value!r}")
    return int(value)


def _float_key(where: str, value) -> float:
    """A finite number; bools, strings and None are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        _fail(where, f"expected a finite number, got {value!r}")
    return float(value)


def _float_list(where: str, values, size: int | None = None) -> list[float]:
    """A list of finite numbers, of ``size`` of them if given."""
    if not isinstance(values, (list, tuple)) or size not in (None, len(values)):
        _fail(where, f"expected a list of {size or 'finite'} numbers, got {values!r}")
    return [_float_key(f"{where}[{i}]", v) for i, v in enumerate(values)]


def _parse_init(spec: dict) -> InitialConditions:
    if not isinstance(spec, dict):
        _fail("init", f"expected {{count: ..., residual: ...}}, got {spec!r}")
    allowed = {"count", "residual"}
    extra = set(spec) - allowed
    if extra:
        _fail("init", f"unknown keys {sorted(extra)}")
    if "count" not in spec or "residual" not in spec:
        _fail("init", "needs both 'count' and 'residual'")
    cspec = spec["count"]
    if not isinstance(cspec, dict) or set(cspec) - {"kind", "level"}:
        _fail("init.count", "expected {kind: fixed|poisson, level: <float>}")
    try:
        law = CountLaw(kind=cspec.get("kind", "fixed"), level=float(cspec.get("level", 0.0)))
    except (TypeError, ValueError) as exc:
        _fail("init.count", str(exc))
    return InitialConditions(law, service_from_spec(spec["residual"], "init.residual"))


def config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        _fail(source, "top level must be a mapping")
    extra = set(raw) - _TOP_KEYS
    if extra:
        _fail(source, f"unknown top-level keys {sorted(extra)}")
    for req in ("arrival", "service", "grid", "experiment"):
        if req not in raw:
            _fail(source, f"missing required section {req!r}")

    arrival = arrival_from_spec(raw["arrival"])
    service = service_from_spec(raw["service"])

    gspec = raw["grid"]
    if not isinstance(gspec, dict) or set(gspec) - {"t", "y"}:
        _fail("grid", "expected {t: [...], y: [...]}")
    t_pts = _float_list("grid.t", gspec.get("t", ()))
    y_pts = _float_list("grid.y", gspec.get("y", ()))
    for name, pts in (("t", t_pts), ("y", y_pts)):
        if len(set(pts)) != len(pts):
            _fail(f"grid.{name}", "duplicate grid points")
    try:
        grid = Grid(sorted(t_pts), sorted(y_pts))
    except ValueError as exc:
        _fail("grid", str(exc))

    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        _fail("experiment", f"unknown experiment {experiment!r} (known: {list(EXPERIMENTS)})")

    n_list = raw.get("n_list", (400,))
    if not isinstance(n_list, (list, tuple)) or not n_list:
        _fail("n_list", "must be a nonempty list of integers >= 1")
    n_list = tuple(_int_key(f"n_list[{i}]", n, 1) for i, n in enumerate(n_list))
    if len(set(n_list)) != len(n_list):
        _fail("n_list", f"duplicate n in {list(n_list)}")
    replications = _int_key("replications", raw.get("replications", 200), 1)
    k = _int_key("k", raw.get("k", 200), 1)
    master_seed = _int_key("master_seed", raw.get("master_seed", 20100709), 0)

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = raw.get("tolerances")
    if overrides is not None and not isinstance(overrides, dict):
        _fail("tolerances", f"expected a mapping of tolerance names to numbers, got {overrides!r}")
    for key, val in (overrides or {}).items():
        if key not in DEFAULT_TOLERANCES:
            _fail("tolerances", f"unknown tolerance {key!r}")
        tolerances[key] = _float_key(f"tolerances.{key}", val)
        if val < 0:
            _fail(f"tolerances.{key}", f"expected a finite number >= 0, got {val!r}")

    workload = raw.get("workload", False)
    if not isinstance(workload, bool):
        _fail("workload", f"expected true or false, got {workload!r}")
    if workload and (arrival.constant_rate is None
                     or not math.isfinite(service.moments().mean)):
        _fail("workload", "workload fields need a constant arrival rate and a finite service mean")

    init = None if raw.get("init") is None else _parse_init(raw["init"])

    probes = []
    markov = raw.get("markov")
    if markov is not None and not isinstance(markov, (list, tuple)):
        _fail("markov", f"expected a list of [t1, t2, y] probes, got {markov!r}")
    for i, probe in enumerate(markov or ()):
        t1, t2, y = _float_list(f"markov[{i}]", probe, 3)
        if not (0.0 <= t1 <= t2 <= grid.t[-1]) or y < 0:
            _fail("markov", f"probe ({t1}, {t2}, {y}) out of range")
        probes.append((t1, t2, y))

    inc = raw.get("increment_probe")
    if inc is not None:
        t, y, t2, y2 = inc = tuple(_float_list("increment_probe", inc, 4))
        try:
            grid.index(t, y), grid.index(t2, y2)
        except ValueError as exc:
            _fail("increment_probe", str(exc))
        if t > t2 or y > y2:
            _fail("increment_probe", f"needs t <= t2 and y <= y2, got {list(inc)}")

    return ExperimentConfig(
        arrival=arrival, service=service, grid=grid, experiment=experiment,
        n_list=n_list, replications=replications, k=k, master_seed=master_seed,
        tolerances=tolerances, init=init,
        markov_probes=tuple(probes), workload=workload,
        increment_probe=inc, echo=raw)


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ValueError(f"malformed config {path}{at}: {exc}") from exc
    return config_from_dict(raw, source=str(path))
