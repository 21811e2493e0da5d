import re

import pytest
import yaml

from hqinflab import cli, experiments
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
