"""Outside-in tracer for hqinflab.

The tracer patches names of an imported ``hqinflab`` from the benchmark's own
process; nothing under ``src/`` knows it exists.  Each patch wraps a function
where callers look it up (a module attribute such as
``hqinflab.experiments.simulate``, or a class method such as
``LogNormal.cdf``) and records a span (name, start, end, parent) per entry
into the layer.  A call that arrives while a span of the same layer group is
already open runs untraced, so a layer's time is counted once: a
``Mixture.cdf`` calling ``LogNormal.cdf`` is one ``service.cdf`` span, and a
``var_qr`` evaluated by ``surface`` belongs to the ``limits.surface`` span.

Spans are kept in memory and written out once, after the run.  A layer's self
time is the duration of its spans minus the part of each interval that child
spans cover (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

#: Metric name -> unit, for every per-layer metric the traced run reports.
#: A ``<span>.self_s`` metric is the summed self time of spans named
#: ``<span>``; the others are counters (see :func:`install`).
LAYER_METRICS = {
    "arrivals.generate.self_s": "s",
    "arrivals.generate.calls": "count",
    "arrivals.epochs": "count",
    "service.cdf.self_s": "s",
    "service.cdf.calls": "count",
    "service.sample.self_s": "s",
    "simulate.simulate.self_s": "s",
    "simulate.eval_queue_fields.self_s": "s",
    "simulate.eval_workload_fields.self_s": "s",
    "simulate.customers": "count",
    "scaling.decompose_hatQr.self_s": "s",
    "scaling.decompose_hatQr.calls": "count",
    "limits.surface.self_s": "s",
    "limits.point_eval.self_s": "s",
    "limits.points": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrand_evals": "count",
    "paths.assemble_limit_bundle.self_s": "s",
    "paths.arrival_component.self_s": "s",
    "paths.service_component.self_s": "s",
    "paths.split_component.self_s": "s",
    "paths.sample_sheet.self_s": "s",
    "paths.normals": "count",
    "paths.J": "count",
    "paths.G": "count",
    "rng.substream.self_s": "s",
    "rng.substream.calls": "count",
    "experiments.run_experiment.self_s": "s",
    "experiments.emit.self_s": "s",
    "experiments.replications": "count",
    "experiments.points_passed": "count",
    "stats.self_s": "s",
    "config.parse.self_s": "s",
}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    its children's intervals that fall inside it.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with ``parent``
    the index of the parent span or ``None``.  Children may nest and may
    overlap one another; overlapping parts are subtracted once.
    """
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder and patcher.  One instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()   # open spans per layer group
        self._patches: list[tuple] = []    # (owner, attr, original)

    # -- recording -------------------------------------------------------

    def call(self, name: str, group: str, fn, args, kwargs, on_entry=None,
             on_exit=None):
        """Run ``fn`` inside a span, unless a ``group`` span is already open."""
        if self._depth[group]:
            return fn(*args, **kwargs)
        if on_entry is not None:
            args, kwargs = on_entry(args, kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self._depth[group] += 1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._depth[group] -= 1
            self._stack.pop()
        if on_exit is not None:
            on_exit(args, kwargs, result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as a span named ``name``."""
        return self.call(name, name, fn, args, kwargs)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str | None, group: str | None = None,
              on_entry=None, on_exit=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        With ``name=None`` the wrapper records no span and only runs the
        hooks (a counter).  Patches nothing when ``owner`` has no such
        attribute of its own.
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        tracer = self
        if name is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if on_entry is not None:
                    args, kwargs = on_entry(args, kwargs)
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(args, kwargs, result)
                return result
        else:
            grp = group or name

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(name, grp, original, args, kwargs,
                                   on_entry, on_exit)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[0]] += own
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS`; layers never entered read 0."""
        own = self.layer_self_s()
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s"):
                out[metric] = own.get(metric[:-len(".self_s")], 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]},
                      fh, separators=(",", ":"))
            fh.write("\n")


def _count(tracer: Tracer, metric: str, amount=1):
    """on_entry hook adding a fixed amount to a counter."""
    def hook(args, kwargs):
        tracer.counts[metric] += amount
        return args, kwargs
    return hook


def _wrap_integrand(tracer: Tracer):
    """on_entry hook for ``integrate(f, a, b, ...)``: count the call and
    every evaluation of ``f``."""
    counts = tracer.counts

    def hook(args, kwargs):
        counts["quadrature.integrate.calls"] += 1
        if args:
            f, rest = args[0], args[1:]
        else:
            f, rest = kwargs.pop("f"), ()

        def counted(x):
            counts["quadrature.integrand_evals"] += 1
            return f(x)
        return (counted,) + tuple(rest), kwargs
    return hook


_POINT_EVALS = ("fluid_qr", "fluid_qe", "fluid_qt", "fluid_age_residual",
                "fluid_workload", "fluid_workload_steady", "fluid_totals",
                "var_qr", "var_qe", "var_components", "var_workload",
                "cov_x2_increment", "initial_and_total_limits")


def install(tracer: Tracer) -> None:
    """Patch every traced name of an imported ``hqinflab``."""
    from hqinflab import arrivals, experiments, limits, paths, scaling, service

    c = tracer.counts

    # arrivals: the base-class generate() is the only generate
    def epochs(args, kwargs, result):
        c["arrivals.epochs"] += len(result)
    tracer.patch(arrivals.ArrivalModel, "generate", "arrivals.generate",
                 on_entry=_count(tracer, "arrivals.generate.calls"), on_exit=epochs)

    # service: every model class's own cdf/sample
    for cls in vars(service).values():
        if isinstance(cls, type) and issubclass(cls, service.ServiceModel):
            tracer.patch(cls, "cdf", "service.cdf",
                         on_entry=_count(tracer, "service.cdf.calls"))
            tracer.patch(cls, "sample", "service.sample")

    # simulate / scaling / rng / stats, where experiments looks them up
    def customers(args, kwargs, trace):
        c["simulate.customers"] += len(trace.arrivals)
    tracer.patch(experiments, "simulate", "simulate.simulate", on_exit=customers)
    tracer.patch(experiments, "eval_queue_fields", "simulate.eval_queue_fields")
    tracer.patch(experiments, "eval_workload_fields", "simulate.eval_workload_fields")
    tracer.patch(experiments, "decompose_hatQr", "scaling.decompose_hatQr",
                 on_entry=_count(tracer, "scaling.decompose_hatQr.calls"))
    tracer.patch(experiments, "substream", "rng.substream",
                 on_entry=_count(tracer, "rng.substream.calls"))
    for fn in ("sample_var", "skew_kurtosis", "correlation"):
        tracer.patch(experiments, fn, "stats")

    def replications(args, kwargs):
        c["experiments.replications"] += int(args[1])
        return args, kwargs
    tracer.patch(experiments, "_map_replications", None, on_entry=replications)

    # limits: surface and the scalar point evaluations made outside it
    def surface_points(args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        c["limits.points"] += len(grid.t) * len(grid.y)
        return args, kwargs
    tracer.patch(limits, "surface", "limits.surface", group="limits",
                 on_entry=surface_points)
    for fn in _POINT_EVALS:
        tracer.patch(limits, fn, "limits.point_eval", group="limits",
                     on_entry=_count(tracer, "limits.points"))

    # quadrature, under each name it is imported as
    for module in (limits, scaling, service):
        tracer.patch(module, "integrate", "quadrature.integrate",
                     on_entry=_wrap_integrand(tracer))

    # paths: the bundle, the sheet, and the engine's components
    tracer.patch(paths, "assemble_limit_bundle", "paths.assemble_limit_bundle")
    tracer.patch(paths, "sample_sheet", "paths.sample_sheet")
    engine = paths._LimitEngine
    for method in ("arrival_component", "service_component", "split_component"):
        tracer.patch(engine, method, f"paths.{method}")

    def normals(args, kwargs):
        shape = args[2] if len(args) > 2 else kwargs["shape"]
        n = 1
        for d in (shape if isinstance(shape, tuple) else (shape,)):
            n *= int(d)
        c["paths.normals"] += n
        return args, kwargs
    tracer.patch(engine, "_normals", None, on_entry=normals)

    def engine_size(args, kwargs, _result):
        eng = args[0]
        c["paths.J"] += len(eng.s0)
        c["paths.G"] += eng.rp.size + eng.ep.size
    tracer.patch(engine, "__init__", None, on_exit=engine_size)
