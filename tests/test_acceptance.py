"""The acceptance battery at its pinned seed: every criterion passes."""

import pytest

from hqinflab import acceptance, limits
from hqinflab.acceptance import CRITERIA, DEFAULT_SEED, _gates
from hqinflab.experiments import ExperimentReport, PointStat
from hqinflab.simulate import CountLaw, InitialConditions


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion_passes(index):
    result = CRITERIA[index](DEFAULT_SEED)
    assert type(result.passed) is bool
    assert result.passed, "\n".join([result.summary(), *result.lines])


@pytest.mark.parametrize("seed", [9, 10, 12])
def test_limit_path_validation_at_other_seeds(seed):
    # seeds at which 4000 paths false-failed the normality gates
    result = CRITERIA[8](seed)
    assert result.passed, "\n".join([result.summary(), *result.lines])


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("index", [1, 10])
def test_block_criteria_at_other_seeds(index, seed):
    # size: the statistical gates of criterion 10 sit at about 3 standard
    # errors, so they hold at every seed here, not only at DEFAULT_SEED
    result = CRITERIA[index](seed)
    assert result.passed, "\n".join([result.summary(), *result.lines])


def test_gates_name_a_failing_label():
    report = ExperimentReport("fclt_variance", 1, points=[
        PointStat("Var Qr-hat n=100", 1.0, 0.0, 0.70, 0.63, 0.1, "rel", False),
        PointStat("Var Qr-hat n=100", 2.0, 0.0, 0.86, 0.86, 0.1, "rel", True),
        PointStat("max|X1+X2-Qr-hat| n=100", 0.0, 0.0, 2e-15, 0.0, 1e-9, "abs", True),
    ])
    lines = []
    assert _gates(lines, "M/exp", report) is False
    assert len(lines) == 2
    assert lines[0].startswith("  FAIL M/exp: Var Qr-hat n=100: 1/2 pass; worst at (1, 0)")
    assert lines[0].endswith("(1.1 of tol)")
    assert lines[1].startswith("  ok   M/exp: max|X1+X2-Qr-hat| n=100: 1/1 pass")


def test_initial_conditions_miss_a_dropped_count_noise(monkeypatch):
    # power: without the count-noise term the Poisson count's target falls
    # from 0.5 to the fixed count's 0.25, and the gate must fail
    full = limits.initial_and_total_limits

    def without_count_noise(inputs, t, y):
        inputs.init = InitialConditions(CountLaw("fixed", inputs.init.count.level),
                                        inputs.init.residual)
        return full(inputs, t, y)

    monkeypatch.setattr(limits, "initial_and_total_limits", without_count_noise)
    result = CRITERIA[10](DEFAULT_SEED)
    assert result.passed is False
    fixed, poisson, identity = result.lines
    assert fixed.startswith("  ok   fixed count")
    assert poisson.startswith("  FAIL poisson count")
    assert identity.startswith("  ok ")


def test_identities_catch_an_evaluator_that_miscounts_qr(monkeypatch):
    # power: decompose_hatQr recounts Qr on its own, so X1 + X2 = Qr-hat
    # fails when the evaluator's Qr is off by one customer
    full = acceptance.eval_fields

    def one_too_many(trace, grid, names):
        fields = full(trace, grid, names)
        fields["Qr"][...] += 1.0
        return fields

    monkeypatch.setattr(acceptance, "eval_fields", one_too_many)
    result = CRITERIA[1](DEFAULT_SEED)
    assert result.passed is False
    (line,) = [line for line in result.lines if "X1 + X2 = Qr-hat" in line]
    assert line.startswith("  FAIL")


def test_identities_catch_x1_off_its_integration_by_parts_form(monkeypatch):
    # power: moving 1e-5 from X2 to X1 keeps X1 + X2 = Qr-hat, and only the
    # integration-by-parts form of X1 sees it
    full = acceptance.decompose_hatQr

    def shifted(trace, grid, fluid):
        x1, x2 = full(trace, grid, fluid)
        return x1 + 1e-5, x2 - 1e-5

    monkeypatch.setattr(acceptance, "decompose_hatQr", shifted)
    result = CRITERIA[1](DEFAULT_SEED)
    assert result.passed is False
    lines = {line[7:].split(",")[0]: line[:6] for line in result.lines}
    assert lines["X1 + X2 = Qr-hat"] == "  ok  "
    assert lines["X1 against its integration-by-parts form"] == "  FAIL"
