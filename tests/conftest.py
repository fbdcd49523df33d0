"""The ``quatlef verify`` catalogue as the one statement of each oracle fact.

``tests/test_verify.py`` reports every check of every suite as a subtest
named ``<suite>/<check>``; no other test restates a check's inputs and
literals. The CLI's output is pinned the same way, once, by the golden
corpus in ``tests/golden/corpus.json``. Each suite runs at most once per
test session.
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
