import concurrent.futures
import ctypes
import dataclasses
import inspect
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import hqinflab
from hqinflab import cli, experiments, simulate
from hqinflab import limits as lim
from hqinflab import paths as lp
from hqinflab.arrivals import ArrivalModel
from hqinflab.config import EXPERIMENTS, config_from_dict, parse_config
from hqinflab.fields import Grid
from hqinflab.experiments import run_experiment
from hqinflab.rng import seed_words, substream
from hqinflab.scaling import decompose_hatQr
from hqinflab.service import Exponential
from hqinflab.simulate import CountLaw, InitialConditions
from hqinflab.stats import correlation, sample_var, skew_kurtosis

from oracles import simpson

H2 = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]}
NHPP = {"kind": "nhpp", "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 0.5}}

TINY = {
    "experiment": "fwlln",
    "arrival": {"kind": "poisson", "rate": 1.0},
    "service": {"kind": "exponential", "rate": 1.0},
    "grid": {"t": [0.5, 1.0], "y": [0.0, 0.5]},
    "n_list": [20, 40],
    "replications": 12,
    "workload": True,
}
INIT = {"count": {"kind": "fixed", "level": 1.0}, "residual": {"kind": "exponential", "rate": 1.0}}


def tiny(experiment):
    """TINY for ``experiment``, with TINY's last n alone where the
    experiment reads one n, and no n_list where it reads none."""
    raw = {**TINY, "experiment": experiment}
    if experiment == "limit_path_validation":
        del raw["n_list"]
    elif experiment in ("age_distribution", "poisson_property"):
        raw["n_list"] = [40]
    return raw


def write_config(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestRunners:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_has_its_runner(self, name):
        assert experiments._RUNNERS[name] is getattr(experiments, f"run_{name}")

    def test_no_runner_without_a_config_name(self):
        assert list(experiments._RUNNERS) == list(EXPERIMENTS)

    def test_init_is_refused_before_any_work(self, monkeypatch):
        # no runner simulates initial customers; none is reached
        cfg = config_from_dict({**TINY, "init": INIT})
        monkeypatch.setattr(experiments, "_RUNNERS", {})
        with pytest.raises(ValueError, match="^config error at init: "):
            run_experiment(cfg)


@pytest.fixture
def libc(monkeypatch):
    """The (parameter, value) pairs the allocator policy passes to a fake
    C library's ``mallopt``, with the policy's once-per-process cache
    cleared before and after the test."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    experiments._allocator_policy.cache_clear()
    yield calls
    experiments._allocator_policy.cache_clear()


class TestAllocatorPolicy:
    # glibc's M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB
    POLICY = [(-3, 32 << 20), (-1, 64 << 20)]

    def test_runs_once_per_process(self, libc):
        experiments._allocator_policy()
        experiments._allocator_policy()
        assert libc == self.POLICY

    def test_run_experiment_sets_it_before_the_runner(self, libc, monkeypatch):
        seen = []

        def runner(cfg, threads):
            seen.append(list(libc))
            return experiments.ExperimentReport("fwlln", 0)
        monkeypatch.setattr(experiments, "_RUNNERS", {"fwlln": runner})
        run_experiment(config_from_dict(TINY))
        assert seen == [self.POLICY]

    @pytest.mark.parametrize("library", ["unloadable", "without_mallopt"])
    def test_silent_without_mallopt(self, library, libc, monkeypatch):
        def cdll(name):
            if library == "unloadable":
                raise OSError("no C library")
            return SimpleNamespace()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert experiments._allocator_policy() is None
        assert libc == []


class TestIntegerKeys:
    @pytest.mark.parametrize("key,value,where", [
        ("k", 2.7, "k"),
        ("n_list", [400.9], "n_list[0]"),
        ("replications", True, "replications"),
        ("master_seed", -1, "master_seed"),
    ])
    def test_rejected_at_parse_time(self, key, value, where):
        # k in the one experiment that reads it
        raw = tiny("limit_path_validation") if key == "k" else TINY
        with pytest.raises(ValueError, match="config error at " + re.escape(where)):
            config_from_dict({**raw, key: value})

    def test_integral_values_accepted(self):
        cfg = config_from_dict({**tiny("limit_path_validation"), "k": 3.0, "master_seed": 0})
        assert (cfg.k, cfg.master_seed) == (3, 0)
        assert config_from_dict({**TINY, "n_list": [20.0, 40]}).n_list == (20, 40)


class TestKeyChecks:
    @pytest.mark.parametrize("key,value,where", [
        ("n_list", [20, 20], "n_list"),
        ("tolerances", [1, 2], "tolerances"),
        ("tolerances", {"variance_rel": "abc"}, "tolerances.variance_rel"),
        ("tolerances", {"variance_rel": -1}, "tolerances.variance_rel"),
        ("tolerances", {"variance_rel": float("nan")}, "tolerances.variance_rel"),
        ("tolerances", {"analytic_abs": 1e-6}, "tolerances"),
        ("workload", "false", "workload"),
    ], ids=["repeated_n", "tolerances_list",
            "tolerance_string", "tolerance_negative", "tolerance_nan", "tolerance_unknown",
            "workload_string"])
    def test_rejected_at_parse_time(self, key, value, where):
        with pytest.raises(ValueError, match="config error at " + re.escape(where) + ":"):
            config_from_dict({**TINY, key: value})

    @pytest.mark.parametrize("key,value,where", [
        ("service", {"kind": "lognormal", "logmean": 0, "logsd": 40}, "service"),
        ("service", {"kind": "lognormal", "logmean": 0, "logsd": 27}, "service"),
        ("markov", [[0.5, "x", 0.0]], "markov[0][1]"),
        ("markov", [[0.5, None, 0.0]], "markov[0][1]"),
        ("markov", 5, "markov"),
        ("markov", 0, "markov"),
        ("init", 5, "init"),
        ("arrival", {"kind": "poisson", "rate": "x"}, "arrival.rate"),
        ("arrival", {"kind": "poisson", "rate": None}, "arrival.rate"),
        ("grid", {"t": [1.0, None], "y": [0.0]}, "grid.t[1]"),
        ("grid", {"t": 5, "y": [0.0]}, "grid.t"),
    ], ids=["lognormal_mean_overflow", "lognormal_scv_overflow_with_workload",
            "markov_string", "markov_null", "markov_scalar", "markov_zero", "init_scalar",
            "rate_string", "rate_null",
            "grid_null", "grid_scalar"])
    def test_malformed_value_names_its_key(self, key, value, where):
        with pytest.raises(ValueError, match=f"^(config error at )?{re.escape(where)}: "):
            config_from_dict({**TINY, key: value})

    @pytest.mark.parametrize("experiment", ["fclt_variance", "age_distribution",
                                            "poisson_property"])
    def test_workload_refused_where_nothing_reads_it(self, experiment):
        message = ("config error at workload: only fwlln and limit_path_validation read it, "
                   f"not {experiment}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(tiny(experiment))
        assert not config_from_dict({**tiny(experiment), "workload": False}).workload

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS
                                            if e != "limit_path_validation"])
    def test_markov_refused_where_nothing_reads_it(self, experiment):
        message = f"config error at markov: only limit_path_validation reads it, not {experiment}"
        raw = {**tiny(experiment), "workload": False}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**raw, "markov": [[0.5, 1.0, 0.0]]})
        assert config_from_dict({**raw, "markov": []}).markov_probes == ()

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS
                                            if e != "limit_path_validation"])
    def test_k_refused_where_nothing_reads_it(self, experiment):
        # k refines the limit engine, which no trace experiment runs
        message = f"config error at k: only limit_path_validation reads it, not {experiment}"
        raw = {**tiny(experiment), "workload": False}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**raw, "k": 20})
        assert config_from_dict({**tiny("limit_path_validation"), "k": 20}).k == 20

    def test_n_list_refused_where_nothing_reads_it(self):
        # the limit experiment samples the limit itself, at no scale n
        message = ("config error at n_list: only the trace experiments read it, "
                   "not limit_path_validation")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**TINY, "experiment": "limit_path_validation"})
        assert config_from_dict(TINY).n_list == (20, 40)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_one_replication_refused_where_a_sample_moment_is_gated(self, experiment):
        # one replication gives no sample variance, and a correlation of 0
        raw = {**tiny(experiment), "workload": False, "replications": 1}
        if experiment in ("fwlln", "age_distribution"):
            assert config_from_dict(raw).replications == 1
        else:
            message = "config error at replications: must be >= 2, got 1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                config_from_dict(raw)
            assert config_from_dict({**raw, "replications": 2}).replications == 2

    @pytest.mark.parametrize("experiment", ["age_distribution", "poisson_property"])
    def test_one_n_experiments_refuse_a_longer_n_list(self, experiment):
        # each reads one n: a second would be dropped silently
        message = f"config error at n_list: {experiment} reads one n, got [20, 40]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**TINY, "experiment": experiment, "workload": False})
        assert config_from_dict({**tiny(experiment), "workload": False}).n_list == (40,)

    def test_repeated_markov_probe_refused(self):
        # gated once per probe, a repeated one would be gated twice
        message = "config error at markov: repeated probe (0.5, 1.0, 0.0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**tiny("limit_path_validation"),
                              "markov": [[0.5, 1.0, 0.0], [0.5, 1, 0]]})

    def test_workload_is_a_field_flag_not_an_experiment(self):
        # fwlln with workload: true gates the mean of Wt/n
        message = ("config error at experiment: unknown experiment 'workload' "
                   f"(known: {list(EXPERIMENTS)})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({**TINY, "experiment": "workload"})

    @pytest.mark.parametrize("experiment", ["fwlln", "limit_path_validation"])
    def test_workload_fields_accept_a_time_varying_rate(self, experiment):
        cfg = config_from_dict({**tiny(experiment), "arrival": NHPP})
        assert cfg.workload and cfg.arrival.rate_fn.constant_rate is None

    def test_valid_values_accepted(self):
        cfg = config_from_dict({**TINY, "tolerances": {"variance_rel": 0, "fluid_abs": 0.1}})
        assert (cfg.tolerances["variance_rel"], cfg.tolerances["fluid_abs"]) == (0.0, 0.1)


class TestInvalidParameters:
    @pytest.mark.parametrize("section,where", [
        ({"service": {"kind": "exponential", "rate": -1}}, "service"),
        ({"service": {"kind": "mixture", "weight": 0.5, "atoms": [[1.0, 1.0]],
                      "continuous": {"kind": "lognormal", "logmean": 0.0, "logsd": -1}}},
         "service.continuous"),
        ({"arrival": {"kind": "renewal", "interarrival": {"kind": "deterministic", "point": 0}}},
         "arrival.interarrival"),
        ({"arrival": {"kind": "nhpp", "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 2.0}}},
         "arrival.rate_fn"),
        ({"init": {"count": {"kind": "bogus", "level": 1.0},
                   "residual": {"kind": "exponential", "rate": 1.0}}}, "init.count"),
        ({"service": {"kind": "finite_atoms", "atoms": [[1.0, 0.25], [2.0, 0.25]]}}, "service"),
        ({"service": {"kind": "uniform", "a": "x", "b": 2.0}}, "service.a"),
        ({"service": {"kind": "exponential", "rate": float("nan")}}, "service.rate"),
        ({"service": {"kind": "exponential", "rate": True}}, "service.rate"),
        ({"service": {"kind": "exponential", "rate": "2"}}, "service.rate"),
        ({"service": {"kind": "uniform", "a": 0.0, "b": float("inf")}}, "service.b"),
        ({"service": {"kind": "finite_atoms", "atoms": [[float("nan"), 1.0]]}},
         "service.atoms[0][0]"),
        ({"service": {"kind": "hyperexponential", "weights": [0.5, float("nan")],
                      "rates": [1.0, 2.0]}}, "service.weights[1]"),
        ({"service": {"kind": "mixture", "weight": 0.5, "atoms": [[1.0, 1.0]],
                      "continuous": {"kind": "exponential", "rate": float("inf")}}},
         "service.continuous.rate"),
        ({"arrival": {"kind": "poisson", "rate": True}}, "arrival.rate"),
        ({"arrival": {"kind": "nhpp", "rate_fn": {"form": "constant", "a": float("nan")}}},
         "arrival.rate_fn.a"),
        ({"arrival": {"kind": "nhpp", "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 0.5,
                                                   "c": 0}}}, "arrival.rate_fn"),
        ({"arrival": {"kind": "renewal",
                      "interarrival": {"kind": "deterministic", "point": float("inf")}}},
         "arrival.interarrival.point"),
        ({"init": {"count": {"kind": "fixed", "level": float("inf")},
                   "residual": {"kind": "exponential", "rate": 1.0}}}, "init.count.level"),
    ], ids=["rate", "logsd", "point", "sinusoid", "count_kind", "atom_masses", "uniform_a",
            "rate_nan", "rate_bool", "rate_string", "uniform_b_inf", "atom_nan",
            "weight_nan", "continuous_rate_inf", "poisson_rate_bool", "rate_fn_nan",
            "sinusoid_c_zero", "point_inf", "init_level_inf"])
    def test_error_names_the_key_path(self, section, where):
        with pytest.raises(ValueError, match=f"^(config error at )?{re.escape(where)}: "):
            config_from_dict({**TINY, **section})


# every kind of every model section: where TINY holds it, its tag, the kind
# and its required keys
GRAMMAR = [
    ("service", "kind", "exponential", ["rate"]),
    ("service", "kind", "deterministic", ["point"]),
    ("service", "kind", "uniform", ["a", "b"]),
    ("service", "kind", "lognormal", ["logmean", "logsd"]),
    ("service", "kind", "hyperexponential", ["weights", "rates"]),
    ("service", "kind", "finite_atoms", ["atoms"]),
    ("service", "kind", "mixture", ["weight", "continuous", "atoms"]),
    ("arrival", "kind", "poisson", ["rate"]),
    ("arrival", "kind", "nhpp", ["rate_fn"]),
    ("arrival", "kind", "renewal", ["interarrival"]),
    ("arrival", "kind", "time_changed_renewal", ["interarrival", "rate_fn"]),
    ("arrival.rate_fn", "form", "constant", ["a"]),
    ("arrival.rate_fn", "form", "linear", ["a", "b"]),
    ("arrival.rate_fn", "form", "sinusoidal", ["a", "b"]),
    ("init.count", "kind", "fixed", ["level"]),
    ("init.count", "kind", "poisson", ["level"]),
    ("init", None, None, ["count", "residual"]),
]
# the section around a nested one
OUTER = {"arrival": {"kind": "nhpp"}, "init": INIT}


def placed(path, spec):
    """TINY with ``spec`` as the section at the key path ``path``."""
    top, _, inner = path.partition(".")
    return {**TINY, top: {**OUTER[top], inner: spec} if inner else spec}


def _key_cases():
    """One unknown key, and each missing required key, of every kind."""
    for path, tag, kind, keys in GRAMMAR:
        spec = {**({tag: kind} if tag else {}), **dict.fromkeys(keys, 1.0)}
        of_kind = f" for {tag} {kind!r}" if tag else ""
        yield pytest.param(path, {**spec, "bogus": 1.0}, f"unknown keys ['bogus']{of_kind}",
                           id=f"{path}-{kind}-bogus")
        for key in keys:
            yield pytest.param(path, {k: v for k, v in spec.items() if k != key},
                               f"missing keys [{key!r}]{of_kind}", id=f"{path}-{kind}-no-{key}")


class TestGrammar:
    @pytest.mark.parametrize("path,spec,message", _key_cases())
    def test_unknown_and_missing_keys_name_their_section(self, path, spec, message):
        with pytest.raises(ValueError, match=f"^config error at {re.escape(path)}: "
                                             f"{re.escape(message)}$"):
            config_from_dict(placed(path, spec))

    @pytest.mark.parametrize("path,spec,message", [
        ("service", 5, "expected a mapping with a 'kind' key, got 5"),
        ("arrival", {"rate": 1.0}, "expected a mapping with a 'kind' key, got {'rate': 1.0}"),
        ("arrival.rate_fn", {"a": 1.0}, "expected a mapping with a 'form' key, got {'a': 1.0}"),
        ("init.count", [1.0], "expected a mapping with a 'kind' key, got [1.0]"),
        ("init", "x", "expected a mapping, got 'x'"),
        ("service", {"kind": "pareto"}, "unknown distribution kind 'pareto' (known: "),
        ("arrival", {"kind": "map"}, "unknown arrival kind 'map' (known: "),
        ("arrival.rate_fn", {"form": "step"}, "unknown rate-function form 'step' (known: "),
        ("init.count", {"kind": "binomial"}, "unknown count law 'binomial' (known: "),
        ("service", {"kind": ["exponential"]}, "unknown distribution kind ['exponential']"),
    ], ids=["service_scalar", "arrival_untagged", "rate_fn_untagged", "count_list",
            "init_string", "service_kind", "arrival_kind", "rate_fn_form", "count_kind",
            "kind_list"])
    def test_section_needs_a_mapping_and_a_known_tag(self, path, spec, message):
        with pytest.raises(ValueError, match=f"^config error at {re.escape(path)}: "
                                             f"{re.escape(message)}"):
            config_from_dict(placed(path, spec))

    @pytest.mark.parametrize("raw,message", [
        ({**TINY, "increment_probe": [1.0, 0.0, 1.0, 0.5]},
         "unknown top-level keys ['increment_probe']"),
        *[({k: v for k, v in TINY.items() if k != section},
           f"missing required section {section!r}")
          for section in ("arrival", "service", "grid", "experiment")],
        ([TINY], "top level must be a mapping"),
    ], ids=["increment_probe", "no_arrival", "no_service", "no_grid", "no_experiment",
            "list"])
    def test_top_level(self, raw, message):
        with pytest.raises(ValueError, match=f"^config error at <dict>: {re.escape(message)}$"):
            config_from_dict(raw)

    @pytest.mark.parametrize("text,message", [
        ("experiment: fwlln\narrival: {kind: poisson, rate: [1.0\n",
         "malformed YAML at line 3, column 1: expected ',' or ']', but got '<stream end>'"),
        ("experiment: fwlln\n  arrival: x\n",
         "malformed YAML at line 2, column 10: mapping values are not allowed here"),
        (None, "No such file or directory"),
    ], ids=["unclosed_list", "bad_indent", "missing_file"])
    def test_parse_config_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValueError, match=f"^config error at {re.escape(str(path))}: "
                                             f"{re.escape(message)}$"):
            parse_config(path)


class TestCli:
    def test_run_summary_same_for_any_thread_count(self, tmp_path):
        config = write_config(tmp_path, TINY)
        summaries = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            cli.main(["run", "--config", str(config), "--out", str(out),
                      "--threads", threads])
            summaries.append((out / "summary.csv").read_bytes())
            assert sorted(p.name for p in (out / "plotdata").iterdir()) == [
                "fluid.csv", "mean_n20.csv", "mean_n40.csv"]
        assert summaries[0] == summaries[1]
        lines = summaries[0].decode().splitlines()
        assert lines[0] == "label,t,y,estimate,target,abs_err,tol,tol_kind,passed"
        assert len(lines) == 1 + 2 * 3 + 1    # per n: sup Qr, Qe, Wt; then the n check

    @pytest.mark.parametrize("flag,value,key", [("--reps", "0", "replications"),
                                                ("--seed", "-1", "master_seed")])
    def test_run_overrides_meet_the_config_checks(self, tmp_path, capsys, flag, value, key):
        config = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                      flag, value])
        assert stop.value.code == 2
        assert f"hqinflab run: error: config error at {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "surfaces"])
    @pytest.mark.parametrize("text,where,message", [
        (yaml.safe_dump({**TINY, "service": {"kind": "exponential", "rate": 1.0, "scale": 2}}),
         "service", "unknown keys ['scale'] for kind 'exponential'"),
        ("experiment: fwlln\narrival: {kind: poisson, rate: [1.0\n", "{path}",
         "malformed YAML at line 3, column 1: expected ',' or ']', but got '<stream end>'"),
        (None, "{path}", "No such file or directory"),
        (yaml.safe_dump({**TINY, "experiment": "workload"}), "experiment",
         f"unknown experiment 'workload' (known: {list(EXPERIMENTS)})"),
    ], ids=["bad_key", "malformed_yaml", "missing_file", "unknown_experiment"])
    def test_config_error_exits_2_in_one_line(self, tmp_path, capsys, command, text, where,
                                              message):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (f"hqinflab {command}: error: config error at "
                                        f"{where.format(path=path)}: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-2", "x"])
    def test_run_rejects_a_bad_thread_count(self, tmp_path, capsys, threads):
        config = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                      "--threads", threads])
        assert stop.value.code == 2
        assert (f"argument --threads: threads must be a positive integer, got '{threads}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_run_overrides_reach_the_report(self, tmp_path):
        config = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(config), "--out", str(out),
                  "--seed", "7", "--reps", "3"])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7
        assert (report["config"]["master_seed"], report["config"]["replications"]) == (7, 3)
        assert report["extras"]["simulation"]["20"]["replications"] == 3

    def test_selftest_subset(self, capsys):
        assert cli.main(["selftest", "--criteria", "1,5"]) == 0
        out = capsys.readouterr().out
        assert "criterion 1:" in out and "criterion 5:" in out
        # each summary line ends in the criterion's wall time
        assert re.search(r"\] criterion 1: .* \(\d+\.\d\d s\)\n", out)
        assert out.rstrip().endswith("selftest: PASS (2/2 criteria)")

    @pytest.mark.parametrize("criteria,bad", [("11", "'11'"), ("1,x", "'x'")])
    def test_selftest_rejects_unknown_criteria(self, capsys, criteria, bad):
        with pytest.raises(SystemExit) as stop:
            cli.main(["selftest", "--criteria", criteria])
        assert stop.value.code == 2
        assert f"unknown criteria [{bad}]" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_selftest_rejects_a_bad_seed(self, capsys, seed):
        with pytest.raises(SystemExit) as stop:
            cli.main(["selftest", "--seed", seed])
        assert stop.value.code == 2
        assert f"seed must be a nonnegative integer, got '{seed}'" in capsys.readouterr().err

    def test_run_refuses_init_in_one_line(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, {**TINY, "init": INIT})
        monkeypatch.setattr(experiments, "_RUNNERS", {})
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "hqinflab run: error: config error at init: no experiment simulates initial "
            "customers; only 'hqinflab surfaces' reads init")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_surfaces_read_init(self, tmp_path):
        config = write_config(tmp_path, {**TINY, "init": INIT})
        out = tmp_path / "surfaces"
        assert cli.main(["surfaces", "--config", str(config), "--out", str(out)]) == 0
        assert {"fluid_total.csv", "var_total.csv"} <= {p.name for p in out.iterdir()}

    def test_surfaces_schema(self, tmp_path):
        config = write_config(tmp_path, TINY)
        out = tmp_path / "surfaces"
        assert cli.main(["surfaces", "--config", str(config), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["fluid_qe.csv", "fluid_qr.csv", "fluid_wr.csv", "var_qe.csv",
                         "var_qr.csv", "var_w.csv"]
        for name in files:
            text = (out / name).read_bytes().decode()
            assert "\r" not in text
            lines = text.splitlines()
            assert lines[0] == "label,t,y,value"
            assert len(lines) == 1 + 2 * 2
            label, t, y, value = lines[1].split(",")
            assert (label, t, y) == (name[:-4], "0.5", "0")
            float(value)


class TestPoissonProperty:
    def poisson_property(self, arrival):
        return config_from_dict({**TINY, "experiment": "poisson_property", "workload": False,
                                 "arrival": arrival, "n_list": [40], "replications": 8})

    def test_accepts_exponential_renewal(self):
        cfg = self.poisson_property({"kind": "renewal",
                                     "interarrival": {"kind": "exponential", "rate": 2.0}})
        assert run_experiment(cfg).experiment == "poisson_property"

    def test_rejects_h2_renewal(self):
        with pytest.raises(ValueError, match="^config error at arrival: poisson_property requires"):
            self.poisson_property({"kind": "renewal", "interarrival": H2})

    def test_resampling_draws_the_same_rows_twice(self):
        # the scratch generator is re-seated before every draw
        cfg = self.poisson_property({"kind": "poisson", "rate": 1.0})
        words = seed_words(3, [("resample", r) for r in range(4)], 2)
        frc = np.full(cfg.grid.shape, 0.5)
        first, second = (experiments._block(cfg, 40, words, ("Qr", "Qt"), range(4), frc=frc)[0]
                         for _ in range(2))
        assert list(first) == ["Qr", "Qt", "Qtilde"] and first["Qtilde"].any()
        for name in first:
            assert np.array_equal(first[name], second[name])


class TestAgeDistribution:
    def test_nhpp_gate_and_its_fluid_target(self):
        # the target is qe(t, y ^ t) / qr(t, 0), the fluid fraction of the
        # customers present at t that arrived in (t - y, t]
        cfg = config_from_dict({**TINY, "experiment": "age_distribution", "workload": False,
                                "arrival": NHPP, "grid": {"t": [3.0], "y": [0.25, 1.0, 5.0]},
                                "n_list": [400], "replications": 20})
        report = run_experiment(cfg)

        def present(since):
            return simpson(lambda s: math.exp(s - 3.0) * (1.0 + 0.5 * math.sin(s)), since, 3.0)
        want = [present(2.75) / present(0.0), present(2.0) / present(0.0), 1.0]
        assert [row["value"] for row in report.plotdata["age"]] == pytest.approx(want, abs=1e-9)
        assert report.verdict, report.extras["per_seed_sup"]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


class TestBenchmarkWorkloads:
    # the benchmark worker parses each workload file with parse_config, then
    # sets its seed and replication count with dataclasses.replace
    @pytest.mark.parametrize("name,experiment,shape", [
        ("mc_small_n", "fwlln", (5, 5)),
        ("mc_large_n", "fclt_variance", (6, 5)),
        ("limit_paths", "limit_path_validation", (8, 6)),
    ])
    def test_config_contract(self, name, experiment, shape):
        cfg = parse_config(WORKLOADS / f"{name}.yaml")
        cfg = dataclasses.replace(cfg, master_seed=7,
                                  replications=max(4, round(cfg.replications * 0.01)))
        assert (cfg.experiment, cfg.grid.shape) == (experiment, shape)
        assert cfg.tolerances["identity_abs"] == 1e-9
        assert cfg.master_seed == 7 and cfg.replications >= 4

    def test_every_workload_is_checked(self):
        assert sorted(p.stem for p in WORKLOADS.glob("*.yaml")) == [
            "limit_paths", "mc_large_n", "mc_small_n"]


class TestBenchmarkHooks:
    # the benchmark worker counts its work by wrapping experiments.simulate,
    # and its tracer patches these names where experiments looks them up; a
    # name moved out of experiments would leave its metric reading 0
    @pytest.mark.parametrize("name", ["simulate", "decompose_hatQr", "substream",
                                      "sample_var", "skew_kurtosis", "correlation",
                                      "_map_replications"])
    def test_experiments_keeps_the_patched_names(self, name):
        assert callable(getattr(experiments, name))

    def test_map_replications_takes_the_replication_count_second(self):
        assert list(inspect.signature(experiments._map_replications).parameters)[1] == "n_reps"

    def test_the_worker_looks_up_simulate_and_decompose_in_experiments(self):
        globals_read = experiments._block.__code__.co_names
        assert {"simulate", "decompose_hatQr"} <= set(globals_read)
        assert experiments._block.__globals__ is vars(experiments)

    def test_the_engine_keeps_the_names_the_tracer_reads(self):
        # the tracer wraps these engine methods, skipping a missing one
        # silently, and reads s0, rp and ep after __init__, which raises only
        # in a traced run: s0 holds one entry per node, J of them
        engine = lp._LimitEngine
        for method in ("arrival_component", "service_component", "split_component"):
            assert callable(getattr(engine, method)), method
        assert list(inspect.signature(engine._normals).parameters) == ["self", "rng", "shape"]
        cfg = parse_config(WORKLOADS / "limit_paths.yaml")
        inputs = experiments._inputs(cfg)
        eng = engine(inputs, cfg.grid, cfg.k, n_paths=1)
        bundle = lp.assemble_limit_bundle(inputs, cfg.grid, cfg.k, substream(1, "hooks"))
        assert len(eng.s0) == bundle.engine["J"]
        assert eng.rp.size + eng.ep.size == 2 * cfg.grid.t.size * cfg.grid.y.size


FCLT = {
    "experiment": "fclt_variance",
    "arrival": {"kind": "poisson", "rate": 1.0},
    "service": {"kind": "exponential", "rate": 1.0},
    "grid": {"t": [0.5, 1.0], "y": [0.0, 0.5]},
    "n_list": [30],
    "replications": 10,
}


def _points(report):
    return [(p.label, p.t, p.y, p.estimate) for p in report.points]


def spy_histograms(monkeypatch, current):
    """Record what the field evaluator bins and builds for the trace that
    ``current()`` returns: the customers of each binning, and per histogram
    its weight ("count", the "ends" or "other") and its cells per
    replication."""
    calls, binned = [], []
    original_bincount, original_bin = np.bincount, simulate._Layout.bin

    def spy(x, weights=None, minlength=0):
        if sys._getframe(1).f_globals["__name__"] == simulate.__name__:
            trace = current()
            if weights is None:
                kind = "count"
            else:
                kind = ("ends" if np.array_equal(weights, trace.arrivals + trace.services)
                        else "other")
            calls.append((kind, minlength // trace.replications))
        return original_bincount(x, weights=weights, minlength=minlength)

    def binning(layout, tau, end):
        binned.append(len(tau))
        return original_bin(layout, tau, end)
    monkeypatch.setattr(np, "bincount", spy)
    monkeypatch.setattr(simulate._Layout, "bin", binning)
    return calls, binned


class TestBlocks:
    @pytest.mark.parametrize("raw,label", [(TINY, "Wt"), (FCLT, "Var X2")],
                             ids=["fwlln", "fclt_variance"])
    def test_block_size_and_thread_count_change_nothing(self, raw, label, monkeypatch):
        cfg = config_from_dict(raw)
        runs = {}
        for budget in (1, 10**9):          # one replication per block; all in one
            monkeypatch.setattr(simulate, "_BLOCK_BUDGET", budget)
            for threads in (1, 2):
                report = run_experiment(cfg, threads=threads)
                blocks = {s["blocks"] for s in report.extras["simulation"].values()}
                assert blocks == ({cfg.replications} if budget == 1 else {1})
                runs[budget, threads] = report
        reference = runs[1, 1]
        assert any(label in p.label for p in reference.points)
        for report in runs.values():
            for (name, t, y, est), (_, t0, y0, est0) in zip(_points(report), _points(reference)):
                assert (t, y) == (t0, y0)
                if "Wt" in name:
                    assert est == pytest.approx(est0, rel=1e-13)
                else:
                    assert est == est0, name
            assert report.plotdata == reference.plotdata

    @pytest.mark.parametrize("experiment,workload", [
        ("fwlln", True), ("fwlln", False), ("fclt_variance", False),
        ("age_distribution", False), ("poisson_property", False)])
    def test_one_block_builds_each_histogram_once(self, experiment, workload, monkeypatch):
        # per block drawn by _block, the customers are binned once; the
        # residual histogram is counted once and weighted by the ends only
        # with workload; the elapsed one is
        # counted only where Qe is read; nothing is weighted by the services,
        # which no trace gate reads.  On this grid the two histograms differ
        # in size, so the sizes tell them apart.  decompose_hatQr's own
        # recount (fclt_variance) is not a field histogram.
        cfg = config_from_dict({**tiny(experiment), "workload": workload,
                                "grid": {"t": [0.5, 1.0, 2.0], "y": [0.0, 0.5, 1.5]}})
        layout = simulate._layout(cfg.grid)
        residual, elapsed = math.prod(layout.residual_shape), math.prod(layout.elapsed_shape)
        assert residual != elapsed
        traces, original_simulate = [], experiments.simulate

        def drawing(*args, **kwargs):
            traces.append(original_simulate(*args, **kwargs))
            return traces[-1]
        monkeypatch.setattr(experiments, "simulate", drawing)
        calls, binned = spy_histograms(monkeypatch, lambda: traces[-1])
        report = run_experiment(cfg)
        blocks = sum(s["blocks"] for s in report.extras["simulation"].values())
        assert blocks == len(traces) >= 1
        assert binned == [len(trace.arrivals) for trace in traces]
        per_block = ([("count", residual)] + [("ends", residual)] * workload
                     + [("count", elapsed)] * (experiment != "poisson_property"))
        assert sorted(calls) == sorted(per_block * blocks)

    def test_initial_fields_bin_the_arrivals_only_for_qtr(self, monkeypatch):
        # QTr adds the initial customers' histogram to the arrivals' count
        # histogram that Qr reads, so ("QTr", "Qr") bins and counts the
        # arrivals once; Qir alone bins no arrival
        grid = Grid([0.5, 1.0, 2.0], [0.0, 0.5, 1.5])
        init = InitialConditions(CountLaw("fixed", 1.0), Exponential(1.0))
        trace = simulate.simulate(ArrivalModel.poisson(1.0), Exponential(1.0), 20, 2.0,
                                  seed_words(3, [("qtr", r) for r in range(4)], 3), init=init)
        residual = math.prod(simulate._layout(grid).residual_shape)
        initial = math.prod(simulate._layout(Grid([0.0], grid.y)).residual_shape)
        assert residual != initial
        calls, binned = spy_histograms(monkeypatch, lambda: trace)
        simulate.eval_fields(trace, grid, ("QTr", "Qr"))
        assert binned == [len(trace.arrivals), len(trace.initial_residuals)]
        assert calls == [("count", residual)] * 2
        del calls[:], binned[:]
        simulate.eval_fields(trace, grid, ("Qir",))
        assert (binned, calls) == ([len(trace.initial_residuals)], [("count", initial)])

    def test_pool_starts_no_more_workers_than_blocks(self, monkeypatch):
        # a pool starts all of its workers at once, busy or not; a stub
        # executor records the count and runs the blocks in this process
        started = []

        class Pool:
            def __init__(self, max_workers, initializer):
                # a worker sets the run's allocator policy, whatever its start method
                assert initializer is experiments._allocator_policy
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks, chunksize):
                return map(fn, blocks)

        def worker(reps):
            return {"r": np.array(reps, dtype=float)}, {"customers": len(reps)}

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for threads, n_reps, block, workers in [(8, 6, 2, [3]), (2, 6, 2, [2]), (3, 7, 2, [3]),
                                                (8, 3, 4, []), (1, 6, 2, [])]:
            started.clear()
            rows, stats = experiments._map_replications(worker, n_reps, threads, block)
            assert started == workers
            assert rows["r"].tolist() == list(range(n_reps))
            assert stats == {"replications": n_reps, "blocks": -(-n_reps // block),
                             "customers": n_reps}

    def test_importing_experiments_leaves_out_the_pool_and_numpy_random(self):
        # both load on first use; importing them costs every run's set-up
        src = str(Path(hqinflab.__file__).resolve().parents[1])
        code = ("import sys, hqinflab.experiments; "
                "print([m in sys.modules for m in ('concurrent.futures', 'numpy.random')])")
        out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[False, False]"

    def test_simulation_diagnostics(self, monkeypatch):
        cfg = config_from_dict(TINY)
        customers = []
        original = experiments.simulate

        def counting(*args, **kwargs):
            trace = original(*args, **kwargs)
            customers.append(len(trace.arrivals))
            return trace
        monkeypatch.setattr(experiments, "simulate", counting)
        report = run_experiment(cfg)
        stats = report.extras["simulation"]
        assert sorted(stats) == ["20", "40"]
        for n in cfg.n_list:
            size = simulate.block_size(cfg.arrival, n, cfg.horizon, cfg.grid)
            assert stats[str(n)]["replications"] == cfg.replications
            assert stats[str(n)]["blocks"] == -(-cfg.replications // size)
            assert stats[str(n)]["draw_s"] >= 0.0 and stats[str(n)]["eval_s"] >= 0.0
        assert sum(s["customers"] for s in stats.values()) == sum(customers)


MIX = {"kind": "mixture", "weight": 0.5, "continuous": {"kind": "exponential", "rate": 1.0},
       "atoms": [[1.0, 1.0]]}
GATES = {
    "arrival": {"kind": "poisson", "rate": 1.0},
    "service": {"kind": "exponential", "rate": 1.0},
    "grid": {"t": [0.5, 1.0], "y": [0.0, 2.0]},
    "replications": 8,
}
# per pinned case, the keys it sets over GATES, its experiment (the case's
# name unless given) among them
GATE_KEYS = {
    "fwlln": {"n_list": [20, 40], "workload": True},
    "fclt_variance": {"n_list": [20]},
    "age_distribution": {"n_list": [20]},
    "poisson_property": {"n_list": [40]},
    "limit_path_validation": {"service": MIX, "workload": True, "k": 20},
}
GATE_KEYS["limit_path_validation_markov"] = {
    **GATE_KEYS["limit_path_validation"], "experiment": "limit_path_validation",
    "markov": [[0.5, 1.0, 0.0], [0.5, 1.0, 0.5]]}
# (label, t, y, tol_kind, tol) of every point, in summary.csv order; the sup
# points of fwlln sit where this seed's error peaks
PINNED_GATES = {
    "fwlln": [
        ("sup|mean Qr/n - fluid| n=20", 1.0, 0.0, "abs", 0.05),
        ("sup|mean Qe/n - fluid| n=20", 1.0, 2.0, "abs", 0.05),
        ("sup|mean Wt/n - fluid| n=20", 1.0, 0.0, "abs", 0.07),
        ("sup|mean Qr/n - fluid| n=40", 0.5, 0.0, "abs", 0.05),
        ("sup|mean Qe/n - fluid| n=40", 0.5, 2.0, "abs", 0.05),
        ("sup|mean Wt/n - fluid| n=40", 1.0, 0.0, "abs", 0.07),
        ("sup-error decreasing: n=40 vs n=20", 0.0, 0.0, "abs", 0.0),
    ],
    "fclt_variance": [
        ("Var Qr-hat n=20", 0.5, 0.0, "rel", 0.1),
        ("Var Qr-hat n=20", 0.5, 2.0, "rel", 0.1),
        ("Var Qe-hat n=20", 0.5, 2.0, "rel", 0.15),
        ("Var Qr-hat n=20", 1.0, 0.0, "rel", 0.1),
        ("Var Qr-hat n=20", 1.0, 2.0, "rel", 0.1),
        ("Var Qe-hat n=20", 1.0, 2.0, "rel", 0.15),
        ("max|X1+X2-Qr-hat| n=20", 0.0, 0.0, "abs", 1e-09),
        ("Var X1 n=20", 0.5, 0.0, "rel", 0.15),
        ("Var X2 n=20", 0.5, 0.0, "rel", 0.15),
        ("Var X1 n=20", 0.5, 2.0, "rel", 0.15),
        ("Var X2 n=20", 0.5, 2.0, "rel", 0.15),
        ("Var X1 n=20", 1.0, 0.0, "rel", 0.15),
        ("Var X2 n=20", 1.0, 0.0, "rel", 0.15),
        ("Var X1 n=20", 1.0, 2.0, "rel", 0.15),
        ("Var X2 n=20", 1.0, 2.0, "rel", 0.15),
    ],
    "age_distribution": [
        ("fraction of seeds with sup|Fe_n - Fe| < 0.05", 1.0, 0.0, "abs", 0.0),
    ],
    "poisson_property": [
        ("dispersion |var/mean - 1|", 0.5, 0.0, "abs", 0.1),
        ("Var resampled vs Var Qr", 0.5, 0.0, "rel", 0.15),
        ("dispersion |var/mean - 1|", 1.0, 0.0, "abs", 0.1),
        ("Var resampled vs Var Qr", 1.0, 0.0, "rel", 0.15),
    ],
    "limit_path_validation": [
        ("Var limit Qr", 0.5, 0.0, "rel", 0.1),
        ("skew limit Qr", 0.5, 0.0, "abs", 0.1),
        ("kurtosis limit Qr", 0.5, 0.0, "abs", 0.2),
        ("corr X1-X2", 0.5, 0.0, "abs", 0.06),
        ("corr X1-X3", 0.5, 0.0, "abs", 0.06),
        ("corr X2-X3", 0.5, 0.0, "abs", 0.06),
        ("Var limit Qr", 0.5, 2.0, "rel", 0.1),
        ("skew limit Qr", 0.5, 2.0, "abs", 0.1),
        ("kurtosis limit Qr", 0.5, 2.0, "abs", 0.2),
        ("Var limit Qe", 0.5, 2.0, "rel", 0.15),
        ("corr X1-X2", 0.5, 2.0, "abs", 0.06),
        ("corr X1-X3", 0.5, 2.0, "abs", 0.06),
        ("corr X2-X3", 0.5, 2.0, "abs", 0.06),
        ("Var limit Qr", 1.0, 0.0, "rel", 0.1),
        ("skew limit Qr", 1.0, 0.0, "abs", 0.1),
        ("kurtosis limit Qr", 1.0, 0.0, "abs", 0.2),
        ("corr X1-X2", 1.0, 0.0, "abs", 0.06),
        ("corr X1-X3", 1.0, 0.0, "abs", 0.06),
        ("corr X2-X3", 1.0, 0.0, "abs", 0.06),
        ("Var limit Qr", 1.0, 2.0, "rel", 0.1),
        ("skew limit Qr", 1.0, 2.0, "abs", 0.1),
        ("kurtosis limit Qr", 1.0, 2.0, "abs", 0.2),
        ("Var limit Qe", 1.0, 2.0, "rel", 0.15),
        ("corr X1-X2", 1.0, 2.0, "abs", 0.06),
        ("corr X1-X3", 1.0, 2.0, "abs", 0.06),
        ("corr X2-X3", 1.0, 2.0, "abs", 0.06),
        ("Var limit Wr", 0.5, 0.0, "rel", 0.15),
        ("Var limit Wr", 0.5, 2.0, "rel", 0.15),
        ("Var limit Wr", 1.0, 0.0, "rel", 0.15),
        ("Var limit Wr", 1.0, 2.0, "rel", 0.15),
        ("Var Kiefer U(1,0.5)", 1.0, 0.5, "rel", 0.1),
        ("Cov Kiefer U(1,0.3),U(1,0.6)", 1.0, 0.3, "rel", 0.15),
        ("X2 increment mean-square", 1.0, 2.0, "rel", 0.15),
    ],
}
# the same gates, then per probe its Markov residual and innovation correlation
PINNED_GATES["limit_path_validation_markov"] = [
    *PINNED_GATES["limit_path_validation"],
    ("markov residual (t1=0.5, t2=1.0)", 1.0, 0.0, "abs", 1e-09),
    ("corr shifted-state vs innovation (t1=0.5, t2=1.0)", 1.0, 0.0, "abs", 0.06),
    ("markov residual (t1=0.5, t2=1.0)", 1.0, 0.5, "abs", 1e-09),
    ("corr shifted-state vs innovation (t1=0.5, t2=1.0)", 1.0, 0.5, "abs", 0.06),
]


class TestNonFinitePoints:
    """A non-finite estimate or target never passes its gate; no field
    container refuses it on the way in."""

    @pytest.mark.parametrize("make", [experiments._abs_point, experiments._rel_point],
                             ids=["abs", "rel"])
    @pytest.mark.parametrize("est,target", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
                                            (np.inf, 1.0), (np.inf, np.inf)])
    def test_point_fails_and_so_does_the_verdict(self, make, est, target):
        report = experiments.ExperimentReport("fwlln", 0)
        report.add(make("finite", 1.0, 0.0, 1.0, 1.0, 0.5))
        report.add(make("non-finite", 1.0, 0.0, est, target, 0.5))
        assert [p.passed for p in report.points] == [True, False]
        assert report.verdict is False

    def test_grid_points_fail_where_a_value_is_nan(self):
        grid = Grid([1.0, 2.0], [0.0, 0.5])
        est, target = np.ones(grid.shape), np.ones(grid.shape)
        est[0, 1] = target[1, 0] = np.nan
        report = experiments.ExperimentReport("fwlln", 0)
        experiments._grid_points(report, grid,
                                 (experiments._abs_point, "abs", est, target, 0.5, True),
                                 (experiments._rel_point, "rel", est, target, 0.5, True))
        assert len(report.points) == 8
        assert [(p.label, p.t, p.y) for p in report.points if not p.passed] == [
            ("abs", 1.0, 0.5), ("rel", 1.0, 0.5), ("abs", 2.0, 0.0), ("rel", 2.0, 0.0)]
        assert report.verdict is False


class TestGateOrder:
    def test_every_experiment_and_no_other_is_pinned(self):
        assert set(PINNED_GATES) == set(GATE_KEYS)
        assert {keys.get("experiment", name) for name, keys in GATE_KEYS.items()} \
            == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", PINNED_GATES)
    def test_points_keep_their_gates_and_order(self, name):
        cfg = config_from_dict({**GATES, "experiment": name, **GATE_KEYS[name]})
        report = run_experiment(cfg)
        assert [(p.label, p.t, p.y, p.tol_kind, p.tol) for p in report.points] \
            == PINNED_GATES[name]


class TestLimitEngineDiagnostics:
    def test_report_json_carries_the_engine_size_and_exact_bias(self, tmp_path):
        # 40 nodes for 12 output columns (Qr, Qe and Wr on a 2 x 2 grid):
        # 40, 4260 and 80 weight rows (the x-columns' levels make the sheet
        # cells many; two splitting categories), 12 normals per path for
        # each component.  The x-columns' cuts at the atom split [0, 1] into
        # eight pieces of 1/8; at k = 40 their 5 Gauss nodes each integrate
        # the components' exponential integrands to roundoff (at k = 20, 3
        # nodes each read 1e-10 to 1.3e-9).  Wr misses var_w by under 0.5%,
        # the x-columns' trapezoid rule
        cfg = config_from_dict({**GATES, "experiment": "limit_path_validation",
                                **GATE_KEYS["limit_path_validation"], "k": 40})
        report = run_experiment(cfg)
        eng = report.extras["limit_engine"]
        assert (eng["J"], eng["G"]) == (40, 12)
        assert eng["weight_rows"] == {"X1": 40, "X2": 4260, "X3": 80}
        assert eng["normals_per_path"] == {"X1": 12, "X2": 12, "X3": 12}
        bias = eng["worst_exact_rel_bias"]
        assert max(bias["X1"], bias["X2"], bias["X3"]) < 1e-12 and bias["Wr"] < 5e-3, bias
        experiments.emit(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["extras"]["limit_engine"] == eng


class TestLimitPathStatistics:
    """The runner centres each path field once and shares the copy among
    that field's statistics, reads the X2 increment before it drops the
    components, and drops each component once its copy exists; its points
    are still the statistics of the raw paths, bit for bit."""

    @pytest.mark.parametrize("atoms", [True, False], ids=["mixture", "lognormal"])
    def test_points_are_the_statistics_of_the_bundle(self, atoms):
        # the limit_paths model at P = 2000, k = 50, on its grid plus t = 0,
        # where no component varies; without atoms X3 varies nowhere
        cfg = parse_config(WORKLOADS / "limit_paths.yaml")
        cfg = dataclasses.replace(
            cfg, replications=2000, k=50,
            service=cfg.service if atoms else cfg.service.continuous,
            grid=Grid((0.0, *cfg.grid.t), cfg.grid.y))
        report = run_experiment(cfg)
        paths = lp.assemble_limit_bundle(
            experiments._inputs(cfg), cfg.grid, cfg.k,
            substream(cfg.master_seed, cfg.experiment, "bundle"),
            n_paths=cfg.replications, workload=cfg.workload).paths
        skew, kurt = skew_kurtosis(paths["Qr"])
        want = {"Var limit Qr": sample_var(paths["Qr"]), "skew limit Qr": skew,
                "kurtosis limit Qr": kurt, "Var limit Qe": sample_var(paths["Qe"])}
        # the X2 increment at the middle grid time, between y[0] and y[1]
        i, x2 = len(cfg.grid.t) // 2, paths["X2"]
        want["X2 increment mean-square"] = np.full(cfg.grid.shape, np.nan)
        want["X2 increment mean-square"][i, 1] = np.mean((x2[:, i, 0] - x2[:, i, 1])**2)
        live = {name: np.std(paths[name], axis=0) > 1e-12 for name in ("X1", "X2", "X3")}
        for a, b in itertools.combinations(live, 2):
            want[f"corr {a}-{b}"] = correlation(paths[a], paths[b])
        index = {(float(t), float(y)): (i, j) for i, t in enumerate(cfg.grid.t)
                 for j, y in enumerate(cfg.grid.y)}
        seen = {label: set() for label in want}
        for p in report.points:
            if p.label in want:
                ij = index[p.t, p.y]
                assert p.estimate == want[p.label][ij], (p.label, ij)
                seen[p.label].add(ij)
        assert len(report.points) > sum(map(len, seen.values())) > 0
        for a, b in itertools.combinations(live, 2):
            assert seen[f"corr {a}-{b}"] == {(int(i), int(j))
                                             for i, j in np.argwhere(live[a] & live[b])}
        assert not live["X1"][0].any() and live["X3"].any() == atoms
        assert seen["X2 increment mean-square"] == {(i, 1)}
        assert report.points[-1].label == "X2 increment mean-square"


def test_limit_runner_peaks_below_four_and_a_half_path_arrays():
    # the limit_paths model at P = 4000, k = 50 holds a (P, G) total, the
    # three components' grid blocks (each half its width) and, while one is
    # drawn, its (P, G) draw and normals: about 4.06 (P, G) float arrays.
    # A second copy of the total, or each component held on all G columns or
    # beside its centred copy, would pass 4.5.  A first run at P = 4 takes
    # the first-call imports and caches out of the reading
    cfg = dataclasses.replace(parse_config(WORKLOADS / "limit_paths.yaml"),
                              replications=4000, k=50)
    experiments.run_limit_path_validation(dataclasses.replace(cfg, replications=4))
    tracemalloc.start()
    try:
        report = experiments.run_limit_path_validation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (cfg.replications * report.extras["limit_engine"]["G"] * 8)
    assert arrays < 4.5, arrays


TRACE_STATS = {
    "arrival": {"kind": "poisson", "rate": 1.0},
    "service": {"kind": "lognormal", "logmean": -0.5, "logsd": 1.0},
    "grid": {"t": [0.5, 1.0, 2.0], "y": [0.0, 0.5, 1.5]},
    "n_list": [20, 40],
    "replications": 24,
}


class TestTraceStatistics:
    """Each trace runner reduces the count rows that its blocks return; its
    points are still the statistics of the raw counts of one block of all
    the replications, bit for bit."""

    @staticmethod
    def counts(cfg, n, names):
        """The trace and the named fields of every replication at scale n,
        drawn as one block on their "trace" seed words."""
        words = seed_words(cfg.master_seed, [(cfg.experiment, n, r, "trace")
                                             for r in range(cfg.replications)], 2)
        trace = simulate.simulate(cfg.arrival, cfg.service, n, cfg.horizon, words)
        return trace, simulate.eval_fields(trace, cfg.grid, names)

    @pytest.mark.parametrize("experiment", ["fwlln", "fclt_variance", "age_distribution",
                                            "poisson_property"])
    def test_points_are_the_statistics_of_the_counts(self, experiment, monkeypatch):
        # age_distribution and poisson_property read one n, TRACE_STATS' last
        one_n = {"n_list": [40]} if experiment in ("age_distribution", "poisson_property") else {}
        cfg = config_from_dict({**TRACE_STATS, "experiment": experiment,
                                "workload": experiment == "fwlln", **one_n})
        # 5 replications a block on this grid: blocks of 5, 5, 5, 5 and 4
        monkeypatch.setattr(simulate, "_BLOCK_BUDGET", 5 * 104)
        report = run_experiment(cfg)
        assert {s["blocks"] for s in report.extras["simulation"].values()} == {5}
        inputs, grid = experiments._inputs(cfg), cfg.grid
        fluid_qr, fluid_qe = (lim.surface(inputs, grid, name) for name in ("fluid_qr", "fluid_qe"))
        want = {}
        if experiment == "fwlln":
            sups = []
            for n in cfg.n_list:
                _, q = self.counts(cfg, n, ("Qr", "Qe", "Wt"))
                for name, fluid in (("Qr", fluid_qr), ("Qe", fluid_qe)):
                    mean = np.mean(q[name] / n, axis=0)
                    i, j = np.unravel_index(np.argmax(np.abs(mean - fluid)), grid.shape)
                    sups.append((f"sup|mean {name}/n - fluid| n={n}", grid.t[i], grid.y[j],
                                 mean[i, j]))
                mean = np.mean(q["Wt"] / n, axis=0)
                i = np.argmax(np.abs(mean - lim.fluid_workload(inputs, grid.t, 0.0)))
                sups.append((f"sup|mean Wt/n - fluid| n={n}", grid.t[i], 0.0, mean[i]))
            assert _points(report)[:-1] == sups
        elif experiment == "fclt_variance":
            for n in cfg.n_list:
                trace, q = self.counts(cfg, n, ("Qr", "Qe"))
                x1, x2 = decompose_hatQr(trace, grid, fluid_qr)
                want.update({
                    f"Var Qr-hat n={n}": sample_var(math.sqrt(n) * (q["Qr"] / n - fluid_qr)),
                    f"Var Qe-hat n={n}": sample_var(math.sqrt(n) * (q["Qe"] / n - fluid_qe)),
                    f"Var X1 n={n}": sample_var(x1), f"Var X2 n={n}": sample_var(x2)})
        elif experiment == "poisson_property":
            _, q = self.counts(cfg, cfg.n_list[-1], ("Qr",))
            want["dispersion |var/mean - 1|"] = sample_var(q["Qr"]) / q["Qr"].mean(axis=0)
        else:
            _, q = self.counts(cfg, cfg.n_list[-1], ("Qe", "Qt"))
            targets = np.array([row["value"] for row in report.plotdata["age"]])
            qt = q["Qt"][:, -1:]
            fe = np.where(qt > 0, q["Qe"][:, -1] / np.maximum(qt, 1.0), 0.0)
            assert report.extras["per_seed_sup"] == np.max(np.abs(fe - targets), axis=1).tolist()
        index = {(float(t), float(y)): (i, j) for i, t in enumerate(grid.t)
                 for j, y in enumerate(grid.y)}
        seen = {label: 0 for label in want}
        for p in report.points:
            if p.label in want:
                assert p.estimate == want[p.label][index[p.t, p.y]], (p.label, p.t, p.y)
                seen[p.label] += 1
        assert all(seen.values()), seen


class TestEmit:
    def test_report_json_matches_the_asdict_form(self, tmp_path, monkeypatch):
        # emit builds each point's dict from vars(); dataclasses.asdict, the
        # deep-copying form, writes the same bytes
        cfg = config_from_dict({**GATES, "experiment": "limit_path_validation",
                                **GATE_KEYS["limit_path_validation"]})
        report = run_experiment(cfg)
        experiments.emit(report, tmp_path / "vars")
        monkeypatch.setattr(experiments, "vars", dataclasses.asdict, raising=False)
        experiments.emit(report, tmp_path / "asdict")
        got, want = ((tmp_path / form / "report.json").read_bytes() for form in ("vars", "asdict"))
        assert got == want and b'"abs_err"' in got
