"""The acceptance battery at its pinned seed: every criterion passes."""

import pytest

from hqinflab.acceptance import CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion_passes(index):
    result = CRITERIA[index](DEFAULT_SEED)
    assert result.passed, "\n".join([result.summary(), *result.lines])


@pytest.mark.parametrize("seed", [9, 10, 12])
def test_limit_path_validation_at_other_seeds(seed):
    # seeds at which 4000 paths false-failed the normality gates
    result = CRITERIA[8](seed)
    assert result.passed, "\n".join([result.summary(), *result.lines])
