"""Shared test fixtures."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def ambient_precision_untouched():
    """Fail any test after which mp.prec differs from before it ran.

    The library and the CLI never set the ambient mpmath precision, so a
    change here is a leak that would reach every later test.
    """
    before = mp.prec
    yield
    after = mp.prec
    if after != before:
        mp.prec = before
        pytest.fail(f"mp.prec changed from {before} to {after}")
