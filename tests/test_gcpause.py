"""The one collector pause (``repro.core.gcpause``).

The cyclic collector is process-wide, so nested and concurrent pauses
must share it: it stays off until the last pause exits, and comes back
only if it was on when the first one entered.
"""

import gc
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.gcpause import collector_paused
from repro.obs.critpath import CritpathError, build_critpath


@pytest.fixture(autouse=True)
def collector_on():
    gc.enable()
    yield
    gc.enable()


def test_nested_pauses_hold_until_the_outermost_exits():
    with collector_paused:
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_threads_hold_until_both_exit():
    """Whichever thread leaves first must not turn the collector back
    on under the other (two serve workers can simulate at once)."""
    entered, release_first, first_left = (threading.Event(),
                                          threading.Event(),
                                          threading.Event())

    def first():
        with collector_paused:
            entered.set()
            release_first.wait(10)
        first_left.set()

    thread = threading.Thread(target=first)
    thread.start()
    try:
        assert entered.wait(10)
        with collector_paused:
            release_first.set()
            assert first_left.wait(10)
            assert not gc.isenabled()
    finally:
        release_first.set()
        thread.join(10)
    assert not thread.is_alive()
    assert gc.isenabled()


def test_concurrent_pauses_lose_no_update():
    """More threads than cores entering and leaving at a short switch
    interval: the collector is off whenever a pause is held and on
    once all have left."""
    seen_on = []

    def churn():
        for _ in range(2000):
            with collector_paused:
                if gc.isenabled():
                    seen_on.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not seen_on
    assert gc.isenabled()


def test_a_caller_that_disabled_gc_finds_it_disabled():
    gc.disable()
    with collector_paused:
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_an_exception_restores_the_state_found():
    with pytest.raises(ValueError):
        with collector_paused:
            raise ValueError("inside")
    assert gc.isenabled()
    # A decorated entry point that raises.
    with pytest.raises(CritpathError, match="no event graph"):
        build_critpath(SimpleNamespace(name="bare", event_graph=None))
    assert gc.isenabled()
    gc.disable()
    with pytest.raises(CritpathError):
        build_critpath(SimpleNamespace(name="bare", event_graph=None))
    assert not gc.isenabled()
