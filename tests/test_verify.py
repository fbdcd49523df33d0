"""Every check of every ``quatlef verify`` suite passes, each reported as
the subtest ``<suite>/<check>``."""

import pytest

from quatlef import lefschetz, verify


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_passes(suite, suite_checks, subtests):
    checks = suite_checks(suite)
    names = [name for name, _ok, _detail in checks]
    assert checks and len(set(names)) == len(names), names
    for name, ok, detail in checks:
        with subtests.test(f"{suite}/{name}"):
            assert ok, detail


def test_decomposition_grid_levels_are_small_and_pass_the_torsion_condition():
    grid = verify.decomposition_grid()
    assert len(grid) == 144
    assert max(inp.level.norm() for inp in grid) <= 50
    assert all(lefschetz.check_torsion_necessary(inp.level) for inp in grid)
