"""Every check of every ``quatlef verify`` suite passes."""

import pytest

from quatlef import lefschetz, verify


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_passes(suite, verified):
    verified(suite)


def test_decomposition_grid_levels_are_small_and_pass_the_torsion_condition():
    grid = verify.decomposition_grid()
    assert len(grid) == 144
    assert max(inp.level.norm() for inp in grid) <= 50
    assert all(lefschetz.check_torsion_necessary(inp.level) for inp in grid)
