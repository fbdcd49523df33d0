"""The ``quatlef verify`` catalogue as the one statement of each oracle fact.

A test whose assertion is a verify check names that check through the
``verified`` fixture instead of restating its inputs and literals. Each
suite runs at most once per test session.
"""

import functools

import pytest

from quatlef import verify


@functools.cache
def _suite_checks(suite: str) -> list[verify.Check]:
    return verify.SUITES[suite]()


@pytest.fixture(scope="session")
def verified():
    def check(suite: str, *names: str) -> None:
        """Assert that the named checks of a suite, or all of them, pass."""
        checks = _suite_checks(suite)
        known = {name for name, _ok, _detail in checks}
        missing = sorted(set(names) - known)
        assert checks and not missing, f"suite {suite} has no checks {missing}"
        wanted = set(names) or known
        failed = [(name, detail) for name, ok, detail in checks if name in wanted and not ok]
        assert failed == []

    return check
