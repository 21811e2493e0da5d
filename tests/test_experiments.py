import json
import re

import pytest
import yaml

from hqinflab import cli, experiments, simulate
from hqinflab.config import EXPERIMENTS, config_from_dict
from hqinflab.experiments import run_experiment

H2 = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]}

TINY = {
    "experiment": "fwlln",
    "arrival": {"kind": "poisson", "rate": 1.0},
    "service": {"kind": "exponential", "rate": 1.0},
    "grid": {"t": [0.5, 1.0], "y": [0.0, 0.5]},
    "n_list": [20, 40],
    "replications": 12,
    "workload": True,
}


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


class TestIntegerKeys:
    @pytest.mark.parametrize("key,value,where", [
        ("k", 2.7, "k"),
        ("n_list", [400.9], "n_list[0]"),
        ("replications", True, "replications"),
        ("master_seed", -1, "master_seed"),
    ])
    def test_rejected_at_parse_time(self, key, value, where):
        with pytest.raises(ValueError, match="config error at " + re.escape(where)):
            config_from_dict({**TINY, key: value})

    def test_integral_values_accepted(self):
        cfg = config_from_dict({**TINY, "k": 3.0, "master_seed": 0})
        assert (cfg.k, cfg.master_seed, cfg.n_list) == (3, 0, (20, 40))


class TestKeyChecks:
    @pytest.mark.parametrize("key,value,where", [
        ("n_list", [20, 20], "n_list"),
        ("increment_probe", [0.7, 0.0, 1.0, 0.5], "increment_probe"),
        ("increment_probe", [1.0, 0.5, 1.0, 0.0], "increment_probe"),
        ("tolerances", [1, 2], "tolerances"),
        ("tolerances", {"variance_rel": "abc"}, "tolerances.variance_rel"),
        ("tolerances", {"variance_rel": -1}, "tolerances.variance_rel"),
        ("tolerances", {"variance_rel": float("nan")}, "tolerances.variance_rel"),
        ("workload", "false", "workload"),
        ("arrival", {"kind": "nhpp", "rate_fn": {"form": "sinusoidal", "a": 1.0, "b": 0.5}},
         "workload"),
    ], ids=["repeated_n", "probe_off_grid", "probe_reversed", "tolerances_list",
            "tolerance_string", "tolerance_negative", "tolerance_nan", "workload_string",
            "workload_nhpp"])
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

    def test_valid_values_accepted(self):
        cfg = config_from_dict({**TINY, "increment_probe": [0.5, 0.0, 1.0, 0.5],
                                "tolerances": {"variance_rel": 0, "fluid_abs": 0.1}})
        assert cfg.increment_probe == (0.5, 0.0, 1.0, 0.5)
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
        ({"service": {"kind": "uniform", "a": "x", "b": 2.0}}, "service"),
    ], ids=["rate", "logsd", "point", "sinusoid", "count_kind", "atom_masses", "uniform_a"])
    def test_error_names_the_key_path(self, section, where):
        with pytest.raises(ValueError, match=f"^(config error at )?{re.escape(where)}: "):
            config_from_dict({**TINY, **section})


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
    def test_run_overrides_meet_the_config_checks(self, tmp_path, flag, value, key):
        config = write_config(tmp_path, TINY)
        with pytest.raises(ValueError, match="config error at " + key):
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                      flag, value])

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
        return config_from_dict({**TINY, "experiment": "poisson_property",
                                 "arrival": arrival, "n_list": [40], "replications": 8})

    def test_accepts_exponential_renewal(self):
        cfg = self.poisson_property({"kind": "renewal",
                                     "interarrival": {"kind": "exponential", "rate": 2.0}})
        assert run_experiment(cfg).experiment == "poisson_property"

    def test_rejects_h2_renewal(self):
        cfg = self.poisson_property({"kind": "renewal", "interarrival": H2})
        with pytest.raises(ValueError, match="poisson_property requires"):
            run_experiment(cfg)


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
            size = simulate.block_size(cfg.arrival, n, cfg.horizon, cfg.grid, cfg.init)
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
    "n_list": [20],
    "replications": 8,
    "k": 20,
}
GATE_KEYS = {
    "fwlln": {"n_list": [20, 40], "workload": True},
    "poisson_property": {"n_list": [40]},
    "limit_path_validation": {"service": MIX, "workload": True},
    "markov_check": {"markov": [[0.5, 1.0, 0.0], [0.5, 1.0, 0.5]]},
}
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
    "markov_check": [
        ("markov residual (t1=0.5, t2=1.0)", 1.0, 0.0, "abs", 1e-09),
        ("corr shifted-state vs innovation (t1=0.5, t2=1.0)", 1.0, 0.0, "abs", 0.06),
        ("markov residual (t1=0.5, t2=1.0)", 1.0, 0.5, "abs", 1e-09),
        ("corr shifted-state vs innovation (t1=0.5, t2=1.0)", 1.0, 0.5, "abs", 0.06),
    ],
    "workload": [
        ("mean Wt/n at t=1.0 n=20", 1.0, 0.0, "abs", 0.07),
        ("steady-state workload quadrature vs closed form", 0.0, 0.0, "abs", 1e-06),
    ],
}


class TestGateOrder:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_points_keep_their_gates_and_order(self, name):
        cfg = config_from_dict({**GATES, "experiment": name, **GATE_KEYS.get(name, {})})
        report = run_experiment(cfg)
        assert [(p.label, p.t, p.y, p.tol_kind, p.tol) for p in report.points] \
            == PINNED_GATES[name]
