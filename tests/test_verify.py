"""Every check of every ``quatlef verify`` suite passes."""

import pytest

from quatlef import verify


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_passes(suite, verified):
    verified(suite)
