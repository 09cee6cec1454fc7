"""Fixtures shared by the whole suite."""

from unittest import mock

import pytest
from hypothesis import settings

from repro.engine import catalog

#: ``--hypothesis-profile=ci``: a deep, reproducible run of the
#: property tests it selects (CI runs the DRAM walk and cache filter
#: differentials under it).
settings.register_profile("ci", max_examples=2000, derandomize=True,
                          deadline=None)


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
