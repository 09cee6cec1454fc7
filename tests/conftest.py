"""Fixtures shared by the whole suite."""

from unittest import mock

import pytest

from repro.engine import catalog


@pytest.fixture(autouse=True)
def fresh_memo():
    """Run each test against an empty memo of held images and results
    (``catalog._memo``).  The memo is process-wide: without this, a
    result an earlier test held would answer a later test's run
    without simulating or deriving it, and the counts that test pins
    would depend on test order."""
    with mock.patch.object(catalog, "_memo", catalog.ShapeMemo(
            catalog.HELD_BYTES_BUDGET)) as memo:
        yield memo
