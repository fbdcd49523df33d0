"""The ``quatlef verify`` catalogue as the one statement of each oracle fact.

``tests/test_verify.py`` reports every check of every suite as a subtest
named ``<suite>/<check>``. A test whose assertion is a verify check names
that check through the ``verified`` fixture instead of restating its
inputs and literals. Each suite runs at most once per test session.
"""

import functools

import pytest

from quatlef import verify


@functools.cache
def _suite_checks(suite: str) -> list[verify.Check]:
    return verify.SUITES[suite]()


@pytest.fixture(scope="session")
def suite_checks():
    """The checks of a suite, run once per session."""
    return _suite_checks


@pytest.fixture(scope="session")
def verified():
    def check(suite: str, *names: str) -> None:
        """Assert that the named checks of a suite pass."""
        checks = _suite_checks(suite)
        known = {name for name, _ok, _detail in checks}
        missing = sorted(set(names) - known)
        assert names and not missing, f"suite {suite} has no checks {missing}"
        failed = [(name, detail) for name, ok, detail in checks if name in names and not ok]
        assert failed == []

    return check
