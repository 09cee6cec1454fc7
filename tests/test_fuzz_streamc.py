"""Fuzzing the stream compiler + simulator with random programs.

Hypothesis draws random but well-formed stream programs (loads,
kernel chains over live streams, stores, host reads) from the gate's
own fuzz generator; every one must compile with valid dependencies,
simulate to completion without deadlock, and account for every
cycle.  This is the whole-system equivalent of the scheduler's
random-graph equivalence test.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.common import AppBundle
from repro.core import BoardConfig
from repro.engine import Session, SessionConfig
from repro.engine.gate import FuzzChooser, fuzz_program

_BOARDS = {
    "hardware": BoardConfig.hardware(),
    "isim": BoardConfig.isim(),
    "slow-host": BoardConfig.hardware(host_mips=0.5),
}


def _run(image, board):
    """One engine-mediated, in-process, uncached simulation."""
    with Session(config=SessionConfig(jobs=1, cache=False)) as session:
        return session.run_bundle(
            AppBundle(name=image.name, image=image), board=board)


class _Drawn(FuzzChooser):
    """The gate's fuzz chooser, drawing from Hypothesis."""

    def __init__(self, draw):
        self.draw = draw

    def integer(self, low, high):
        return self.draw(st.integers(low, high))

    def choice(self, options):
        return self.draw(st.sampled_from(options))

    def coin(self):
        return self.draw(st.booleans())


@st.composite
def random_program(draw):
    """The gate's fuzz generator (:func:`fuzz_program`), drawn."""
    return fuzz_program(_Drawn(draw))


class TestStreamFuzz:
    @settings(max_examples=25, deadline=None)
    @given(random_program(), st.sampled_from(sorted(_BOARDS)))
    def test_random_programs_complete_and_conserve(self, program,
                                                   board_name):
        image = program.build()
        image.validate()
        result = _run(image, _BOARDS[board_name])
        result.metrics.check_conservation(1e-3)
        assert result.cycles > 0
        # Every instruction was traced and finished.
        assert all(e.finished_at <= result.cycles + 1e-6
                   for e in result.trace)

    @settings(max_examples=10, deadline=None)
    @given(random_program())
    def test_isim_never_slower_than_hardware(self, program):
        image = program.build()
        cycles = {}
        for name in ("hardware", "isim"):
            cycles[name] = _run(image, _BOARDS[name]).cycles
        assert cycles["isim"] <= cycles["hardware"] * 1.02
