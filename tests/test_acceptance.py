"""The acceptance battery at its pinned seed: every criterion passes."""

import pytest

from hqinflab.acceptance import CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion_passes(index):
    result = CRITERIA[index](DEFAULT_SEED)
    assert result.passed, "\n".join([result.summary(), *result.lines])
