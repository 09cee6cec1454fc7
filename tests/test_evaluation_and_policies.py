"""Tests for the full-evaluation driver and DRAM page policies."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DramConfig, MachineConfig
from repro.evaluation import ARTIFACTS, SECTIONS, run_full_evaluation
from repro.memsys import MemorySystem, indexed, unit_stride
from repro.memsys.dram import DramModel
from repro.streamc.descriptors import DescriptorFile


class TestPagePolicy:
    def machine(self, policy):
        return replace(MachineConfig(),
                       dram=replace(DramConfig(), page_policy=policy))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(page_policy="adaptive")

    def test_closed_page_never_row_hits(self):
        model = DramModel(DramConfig(page_policy="closed"))
        stats = model.service(np.arange(1024))
        assert stats.row_hits == 0
        assert stats.row_misses == 1024

    def test_open_page_wins_on_streams(self):
        open_rate = MemorySystem(self.machine("open")).measure(
            unit_stride(8192)).rate_words_per_cycle
        closed_rate = MemorySystem(self.machine("closed")).measure(
            unit_stride(8192)).rate_words_per_cycle
        assert open_rate > 4 * closed_rate

    def test_closed_page_wins_on_random(self):
        """The textbook tradeoff: random misses skip the precharge."""
        pattern = indexed(8192, 4 * 1024 * 1024)
        open_rate = MemorySystem(self.machine("open")).measure(
            pattern).rate_words_per_cycle
        closed_rate = MemorySystem(self.machine("closed")).measure(
            pattern).rate_words_per_cycle
        assert closed_rate > open_rate


#: The committed tables every artifact section must reproduce.
RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestEvaluationDriver:
    def test_section_registry_complete(self):
        """One section per paper artifact, each committed once, plus
        the paper-target table."""
        expected = {"table1", "table2", "table3", "table4", "table5",
                    "table6", "figure6", "figure7", "figure8",
                    "figure9", "figure10", "figure11", "figure12",
                    "figure13", "figure14", "power"}
        assert set(ARTIFACTS) == expected
        assert list(SECTIONS) == [*ARTIFACTS, "targets"]
        assert len(set(ARTIFACTS.values())) == len(ARTIFACTS)
        for stem in ARTIFACTS.values():
            assert (RESULTS_DIR / f"{stem}.txt").is_file(), stem

    def test_sections_print_the_committed_tables(self):
        """The sections without a length sweep, byte for byte against
        ``benchmarks/results`` (the benchmark suite checks the rest)."""
        cheap = ["table2", "table3", "table4", "table5", "table6",
                 "figure6", "figure11", "figure12", "figure13", "power"]
        texts = run_full_evaluation(sections=cheap)
        for name in cheap:
            committed = RESULTS_DIR / f"{ARTIFACTS[name]}.txt"
            assert texts[name] + "\n" == committed.read_text(), name

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections"):
            run_full_evaluation(sections=["table99"])

    def test_subset_runs(self):
        texts = run_full_evaluation(sections=["table2", "figure6"])
        assert set(texts) == {"table2", "figure6"}
        assert "conv7x7" in texts["table2"]
        assert "gromacs" in texts["figure6"]


class TestDescriptorFileProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=120),
           st.integers(1, 6))
    def test_matches_reference_lru(self, references, slots):
        """DescriptorFile behaves exactly like a reference LRU."""
        sdrs = DescriptorFile("SDR", slots)
        model: list[int] = []          # MRU at the end
        expected_writes = 0
        for value in references:
            if value in model:
                model.remove(value)
            else:
                expected_writes += 1
                if len(model) == slots:
                    model.pop(0)
            model.append(value)
            sdrs.reference(value)
        assert sdrs.writes == expected_writes
        assert sdrs.references == len(references)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
    def test_single_slot_file_writes_on_every_change(self, values):
        sdrs = DescriptorFile("SDR", 1)
        for value in values:
            sdrs.reference(value)
        changes = 1 + sum(1 for a, b in zip(values, values[1:])
                          if a != b)
        assert sdrs.writes == changes
