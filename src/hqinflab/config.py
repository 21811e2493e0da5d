"""Experiment configuration: the config grammar, read with strict validation.

A config is a YAML mapping with these top-level keys (defaults in brackets):

- ``experiment``: one of :data:`EXPERIMENTS`; ``poisson_property`` needs
  exponential interarrivals, and every experiment takes any arrival rate;
- ``arrival``, ``service``: model sections, below;
- ``grid``: ``{t: [...], y: [...]}``, lists of distinct finite numbers;
- ``init`` [none]: ``{count: <count law>, residual: <service>}``, the
  customers present at time zero; read by the analytic surfaces only;
- ``n_list`` [[400]], ``replications`` [200], ``k`` [200]: integers >= 1;
  distinct n, one for ``age_distribution`` and ``poisson_property``; at
  least 2 replications where sample moments are gated (``fclt_variance``,
  ``poisson_property``, ``limit_path_validation``); the trace experiments
  read ``n_list`` and ``limit_path_validation`` refuses it; only
  ``limit_path_validation`` reads ``k``, about k Gauss-Legendre nodes of
  the limit engine over [0, t_max], at least one per piece, and any other
  experiment refuses it;
- ``master_seed`` [20100709]: an integer >= 0;
- ``tolerances`` [:data:`DEFAULT_TOLERANCES`]: overrides of some of them,
  each a finite number >= 0;
- ``markov`` [none]: a list of distinct [t1, t2, y] probes, 0 <= t1 <= t2
  <= the last grid time and y >= 0; only ``limit_path_validation`` reads
  it, and any other experiment refuses probes;
- ``workload`` [false]: also gate the workload, for any arrival rate (the
  mean of Wt in ``fwlln``, Var Wr in ``limit_path_validation``); needs a
  finite service mean, and any other experiment refuses it.

The first four are required.  A model section is a mapping whose tag
(``kind``, or ``form`` for a rate function) picks one of the kinds below;
each kind takes exactly the keys listed, all required but those in brackets:

- service: ``exponential`` (rate), ``deterministic`` (point), ``uniform``
  (a, b), ``lognormal`` (logmean, logsd), ``hyperexponential`` (weights,
  rates), ``finite_atoms`` (atoms: [[location, mass], ...]) and ``mixture``
  (weight, continuous: <service>, atoms);
- arrival: ``poisson`` (rate), ``nhpp`` (rate_fn), ``renewal``
  (interarrival: <service>) and ``time_changed_renewal`` (interarrival,
  rate_fn);
- rate_fn: ``constant`` (a), ``linear`` (a, b) and ``sinusoidal`` (a, b,
  [c = 1], [d = 0]);
- count law: ``fixed`` and ``poisson`` (level).

``init`` is a model section of one kind, without a tag.  Every key of a
model section that holds no nested section is a numeric leaf: a finite
number (not a bool, a string or None), or a list of them.  Unknown keys are
rejected so typos cannot silently change an experiment, and every error
reads ``config error at <key path>: ...``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import partial

import yaml

from .arrivals import ArrivalModel, RateFunction
from .fields import Grid
from .service import (Exponential, FiniteAtoms, HyperExponential, LogNormal, Mixture,
                      ServiceModel, Uniform)
from .simulate import CountLaw, InitialConditions

__all__ = ["ExperimentConfig", "parse_config", "config_from_dict", "read_section",
           "DEFAULT_TOLERANCES", "EXPERIMENTS"]

EXPERIMENTS = (
    "fwlln",
    "fclt_variance",
    "age_distribution",
    "poisson_property",
    "limit_path_validation",
)

DEFAULT_TOLERANCES = {
    "fluid_abs": 0.05,          # |mean LLN field - fluid surface|
    "workload_abs": 0.07,       # |mean workload - fluid workload|
    "variance_rel": 0.10,       # sample variance vs analytic variance
    "variance_rel_loose": 0.15, # secondary variance targets
    "dispersion_abs": 0.10,     # |var/mean - 1| for the Poisson property
    "identity_abs": 1e-9,       # exact per-replication identities
    "ks_abs": 0.05,             # sup-norm distance of empirical age c.d.f.
    "age_pass_fraction": 0.90,  # fraction of seeds that must pass
    "corr_abs": 0.06,           # independence proxies
    "skew_abs": 0.10,           # marginal normality
    "kurt_abs": 0.20,
}

_TOP_KEYS = {"arrival", "service", "init", "grid", "n_list", "replications",
             "k", "master_seed", "experiment", "tolerances", "markov",
             "workload"}


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
    echo: dict = field(repr=False, default_factory=dict)

    @property
    def horizon(self) -> float:
        return float(self.grid.t[-1])


def _fail(where: str, msg: str):
    raise ValueError(f"{where}: {msg}")


def _number(where: str, value) -> float:
    """A numeric leaf, as a float: a finite number, not a bool, a string or
    None."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        _fail(where, f"expected a finite number, got {value!r}")
    return float(value)


def _numbers(where: str, value):
    """A numeric leaf, or a (nested) list of them as a tuple; list entries
    are named ``where[i]``."""
    if isinstance(value, (list, tuple)):
        return tuple(_numbers(f"{where}[{i}]", v) for i, v in enumerate(value))
    return _number(where, value)


def _int_key(where: str, value, lo: int) -> int:
    """An integer >= lo; bools and non-integral numbers are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        _fail(where, f"expected an integer, got {value!r}")
    if value < lo:
        _fail(where, f"must be >= {lo}, got {value!r}")
    return int(value)


def _float_list(where: str, values, size: int | None = None) -> list[float]:
    """A list of finite numbers, of ``size`` of them if given."""
    if not isinstance(values, (list, tuple)) or size not in (None, len(values)):
        _fail(where, f"expected a list of {size or 'finite'} numbers, got {values!r}")
    return [_number(f"{where}[{i}]", v) for i, v in enumerate(values)]


# section -> (its tag: the key that names the kind, what the tag's value is
# called, {kind: (required keys, optional keys, builder)}); a section of one
# kind has no tag and the kind None.  The builder takes the keys, read, as
# keyword arguments.
_SECTIONS = {
    "service": ("kind", "distribution kind", {
        "exponential": ({"rate"}, set(), Exponential),
        "deterministic": ({"point"}, set(), lambda point: FiniteAtoms(((point, 1.0),))),
        "uniform": ({"a", "b"}, set(), Uniform),
        "lognormal": ({"logmean", "logsd"}, set(), LogNormal),
        "hyperexponential": ({"weights", "rates"}, set(), HyperExponential),
        "finite_atoms": ({"atoms"}, set(), FiniteAtoms),
        "mixture": ({"weight", "continuous", "atoms"}, set(),
                    lambda weight, continuous, atoms: Mixture(weight, continuous,
                                                              FiniteAtoms(atoms))),
    }),
    "arrival": ("kind", "arrival kind", {
        "poisson": ({"rate"}, set(), ArrivalModel.poisson),
        "nhpp": ({"rate_fn"}, set(), ArrivalModel.nhpp),
        "renewal": ({"interarrival"}, set(), ArrivalModel.renewal),
        "time_changed_renewal": ({"interarrival", "rate_fn"}, set(), ArrivalModel),
    }),
    "rate_fn": ("form", "rate-function form", {
        "constant": ({"a"}, set(), partial(RateFunction, "constant")),
        "linear": ({"a", "b"}, set(), partial(RateFunction, "linear")),
        "sinusoidal": ({"a", "b"}, {"c", "d"}, partial(RateFunction, "sinusoidal")),
    }),
    "count": ("kind", "count law", {
        "fixed": ({"level"}, set(), partial(CountLaw, "fixed")),
        "poisson": ({"level"}, set(), partial(CountLaw, "poisson")),
    }),
    "init": (None, None, {None: ({"count", "residual"}, set(), InitialConditions)}),
}

# key -> the section it holds; every other key of a section is a numeric leaf
_NESTED = {"continuous": "service", "interarrival": "service", "residual": "service",
           "rate_fn": "rate_fn", "count": "count"}


def read_section(section: str, spec, where: str | None = None):
    """The model that ``spec`` describes, read as the section named
    ``section``: its tag, unknown and missing keys, numeric leaves and nested
    sections are checked before the model is built.  Every error starts with
    the key path (``where``, by default the section's name) of the offending
    mapping or leaf."""
    where = where or section
    tag, noun, kinds = _SECTIONS[section]
    if not isinstance(spec, dict) or (tag and tag not in spec):
        _fail(where, f"expected a mapping{f' with a {tag!r} key' if tag else ''}, got {spec!r}")
    kind = spec[tag] if tag else None
    if not isinstance(kind, Hashable) or kind not in kinds:
        _fail(where, f"unknown {noun} {kind!r} (known: {sorted(kinds)})")
    required, optional, build = kinds[kind]
    of_kind = f" for {tag} {kind!r}" if tag else ""
    extra = set(spec) - required - optional - {tag}
    if extra:
        _fail(where, f"unknown keys {sorted(extra, key=str)}{of_kind}")
    missing = required - set(spec)
    if missing:
        _fail(where, f"missing keys {sorted(missing)}{of_kind}")
    params = {key: read_section(_NESTED[key], value, f"{where}.{key}") if key in _NESTED
              else _numbers(f"{where}.{key}", value)
              for key, value in spec.items() if key != tag}
    try:
        return build(**params)
    except (TypeError, ValueError) as exc:
        _fail(where, f"invalid parameters{of_kind}: {exc}")


def config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    """The checked config of a raw mapping; ``source`` names the mapping in
    errors about its top level."""
    try:
        return _config(raw, source)
    except ValueError as exc:
        raise ValueError(f"config error at {exc}") from exc


def _config(raw: dict, source: str) -> ExperimentConfig:
    if not isinstance(raw, dict):
        _fail(source, "top level must be a mapping")
    extra = set(raw) - _TOP_KEYS
    if extra:
        _fail(source, f"unknown top-level keys {sorted(extra, key=str)}")
    for req in ("arrival", "service", "grid", "experiment"):
        if req not in raw:
            _fail(source, f"missing required section {req!r}")

    arrival = read_section("arrival", raw["arrival"])
    service = read_section("service", raw["service"])

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
    if experiment == "poisson_property" and not isinstance(arrival.interarrival, Exponential):
        _fail("arrival", "poisson_property requires Poisson arrivals (exponential interarrivals)")

    # the one limit experiment reads k and no n; a trace experiment, n and no k
    limit = experiment == "limit_path_validation"
    if limit and "n_list" in raw:
        _fail("n_list", f"only the trace experiments read it, not {experiment}")
    if not limit and "k" in raw:
        _fail("k", f"only limit_path_validation reads it, not {experiment}")
    n_list = raw.get("n_list", (400,))
    if not isinstance(n_list, (list, tuple)) or not n_list:
        _fail("n_list", "must be a nonempty list of integers >= 1")
    n_list = tuple(_int_key(f"n_list[{i}]", n, 1) for i, n in enumerate(n_list))
    if len(set(n_list)) != len(n_list):
        _fail("n_list", f"duplicate n in {list(n_list)}")
    if len(n_list) > 1 and experiment in ("age_distribution", "poisson_property"):
        _fail("n_list", f"{experiment} reads one n, got {list(n_list)}")
    # these gate sample variances or correlations over the replications
    moments = experiment in ("fclt_variance", "poisson_property", "limit_path_validation")
    replications = _int_key("replications", raw.get("replications", 200), 2 if moments else 1)
    k = _int_key("k", raw.get("k", 200), 1)
    master_seed = _int_key("master_seed", raw.get("master_seed", 20100709), 0)

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = raw.get("tolerances")
    if overrides is not None and not isinstance(overrides, dict):
        _fail("tolerances", f"expected a mapping of tolerance names to numbers, got {overrides!r}")
    for key, val in (overrides or {}).items():
        if key not in DEFAULT_TOLERANCES:
            _fail("tolerances", f"unknown tolerance {key!r}")
        tolerances[key] = _number(f"tolerances.{key}", val)
        if val < 0:
            _fail(f"tolerances.{key}", f"expected a finite number >= 0, got {val!r}")

    workload = raw.get("workload", False)
    if not isinstance(workload, bool):
        _fail("workload", f"expected true or false, got {workload!r}")
    if workload and experiment not in ("fwlln", "limit_path_validation"):
        _fail("workload", f"only fwlln and limit_path_validation read it, not {experiment}")
    if workload and not math.isfinite(service.moments().mean):
        _fail("workload", "workload fields need a finite service mean")

    init = None if raw.get("init") is None else read_section("init", raw["init"])

    probes = []
    markov = raw.get("markov")
    if markov is not None and not isinstance(markov, (list, tuple)):
        _fail("markov", f"expected a list of [t1, t2, y] probes, got {markov!r}")
    for i, probe in enumerate(markov or ()):
        t1, t2, y = _float_list(f"markov[{i}]", probe, 3)
        if not (0.0 <= t1 <= t2 <= grid.t[-1]) or y < 0:
            _fail("markov", f"probe ({t1}, {t2}, {y}) out of range")
        if (t1, t2, y) in probes:
            _fail("markov", f"repeated probe ({t1}, {t2}, {y})")
        probes.append((t1, t2, y))
    if probes and not limit:
        _fail("markov", f"only limit_path_validation reads it, not {experiment}")

    return ExperimentConfig(
        arrival=arrival, service=service, grid=grid, experiment=experiment,
        n_list=n_list, replications=replications, k=k, master_seed=master_seed,
        tolerances=tolerances, init=init,
        markov_probes=tuple(probes), workload=workload, echo=raw)


def parse_config(path) -> ExperimentConfig:
    """The checked config of the YAML file ``path``.  A file that cannot be
    read or is not YAML fails like any config error, at the file's path."""
    try:
        with open(path, "rb") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ValueError(f"config error at {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ValueError(f"config error at {path}: malformed YAML{at}: {problem}") from exc
    return config_from_dict(raw, source=str(path))
