"""Tests for the analysis layer: breakdowns, reporting, power study,
and the static verifier (``repro lint``)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    AnalysisError,
    REPORT_SCHEMA,
    Severity,
    kernel_breakdown,
    lint_catalog,
    lint_image,
    lint_kernel,
    measure_kernel,
    power_efficiency_comparison,
)
from repro.analysis.breakdown import (
    APPLICATION_STREAM_ELEMENTS,
    application_overhead,
)
from repro.analysis.power_compare import (
    PAPER_IMAGINE_PJ,
    PAPER_IMAGINE_PJ_NORMALIZED,
    imagine_pj_per_flop,
)
from repro.analysis.report import render_breakdown, render_table
from repro.kernels import KERNEL_LIBRARY
from repro.kernels.library import TABLE2_KERNELS
from repro.obs.profile import build_profile


def _run_bundle(bundle, **kwargs):
    """In-process, uncached engine run (the old ``run_app`` surface)."""
    from repro.engine.session import get_default_session

    return get_default_session().run_bundle(bundle, **kwargs)



class TestKernelBreakdown:
    def test_fractions_sum_to_one(self):
        for name in TABLE2_KERNELS:
            breakdown = kernel_breakdown(KERNEL_LIBRARY[name])
            assert sum(breakdown.values()) == pytest.approx(1.0)
            assert all(v >= 0 for v in breakdown.values())

    def test_rle_dominated_by_main_loop_overhead(self):
        """Fig. 6: RLE has the worst main-loop occupancy."""
        breakdown = kernel_breakdown(KERNEL_LIBRARY["rle"])
        assert (breakdown["kernel main loop overhead"]
                > breakdown["operations"])

    def test_conv7x7_operations_dominant(self):
        breakdown = kernel_breakdown(KERNEL_LIBRARY["conv7x7"])
        assert breakdown["operations"] > 0.4

    def test_short_streams_raise_non_main_loop_share(self):
        spec = KERNEL_LIBRARY["conv7x7"]
        short = kernel_breakdown(spec, stream_elements=64)
        long = kernel_breakdown(spec, stream_elements=8192)
        assert (short["kernel non-main loop overhead"]
                > long["kernel non-main loop overhead"])

    def test_average_near_paper_43_percent(self):
        """Paper: kernels sustain ~43% of peak on average."""
        values = [kernel_breakdown(KERNEL_LIBRARY[n])["operations"]
                  for n in TABLE2_KERNELS]
        average = sum(values) / len(values)
        assert 0.25 < average < 0.60

    def test_all_table2_lengths_defined(self):
        for name in TABLE2_KERNELS:
            assert name in APPLICATION_STREAM_ELEMENTS


class TestApplicationBreakdown:
    def test_from_run_result(self):
        from repro.apps import depth

        bundle = depth.build(height=24, width=64, disparities=4)
        result = _run_bundle(bundle)
        breakdown = build_profile(result)["figure11"]
        assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-3)
        assert 0 <= application_overhead(result) <= 1


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bbbb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_render_breakdown_percentages(self):
        text = render_breakdown(
            "B", {"x": {"ops": 0.25, "stall": 0.75}})
        assert "25.0%" in text
        assert "75.0%" in text


class TestPowerComparison:
    def test_imagine_near_paper_value(self):
        pj = imagine_pj_per_flop()
        assert pj == pytest.approx(PAPER_IMAGINE_PJ, rel=0.15)

    def test_normalized_beats_dsp_and_cpu(self):
        rows = {r.processor: r for r in power_efficiency_comparison()}
        imagine = rows["Imagine (normalized)"]
        assert imagine.pj_per_flop == pytest.approx(
            PAPER_IMAGINE_PJ_NORMALIZED, rel=0.15)
        # Paper: 3x-13x better than contemporary programmable parts.
        dsp = imagine.advantage_over(rows["TI C67x DSP (225 MHz)"])
        cpu = imagine.advantage_over(rows["Pentium M (1.2 GHz)"])
        assert 2.0 < dsp < 5.0
        assert 8.0 < cpu < 16.0


class TestTable2Rows:
    def test_units_assigned_correctly(self):
        float_kernels = {"house", "update2", "gromacs"}
        for name in TABLE2_KERNELS:
            row = measure_kernel(KERNEL_LIBRARY[name])
            expected = "GFLOPS" if name in float_kernels else "GOPS"
            assert row.rate_unit == expected


# ----------------------------------------------------------------------
# Static verifier.
# ----------------------------------------------------------------------

def small_image():
    """A tiny but complete stream-program image to seed defects into."""
    from repro.isa.kernel_ir import KernelBuilder
    from repro.streamc import StreamProgram
    from repro.streamc.program import KernelSpec

    b = KernelBuilder("double")
    x = b.stream_input("x")
    b.stream_output("o", b.op("fadd", x, x))
    spec = KernelSpec("double", b.build(),
                      lambda ins, p: [2 * ins[0]])
    program = StreamProgram("lintme")
    data = program.array("d", np.arange(256, dtype=float))
    out = program.alloc_array("o", 256)
    s = program.kernel1(spec, [program.load(data)])
    program.store(s, out)
    return program.build()


def rules_of(report):
    return {finding.rule for finding in report.findings}


class TestVerifierCleanCorpus:
    def test_catalog_has_zero_findings(self):
        """Every catalog app and library kernel passes every static
        rule -- the seed corpus is clean.  The bound model's advisor
        (BD/ADV, info severity) is the one expected voice: the paper
        apps really do leave overlap on the table (Figures 7-8)."""
        report = lint_catalog()
        assert report.clean
        assert all(f.severity is Severity.INFO
                   and f.rule.startswith(("ADV", "BD"))
                   for f in report.findings), report.render()
        assert set(report.coverage) == {"apps", "kernels"}
        assert len(report.coverage["kernels"]) >= len(KERNEL_LIBRARY)
        assert report.exit_code == 0

    def test_repo_scope_entry_points_clean(self):
        report = lint_catalog(apps=(), kernels=("vsum7",), repo=True)
        assert "repo.entrypoints" in report.passes
        assert not [f for f in report.findings if f.rule == "EP001"]

    def test_report_is_deterministic(self):
        first = lint_catalog().to_json()
        second = lint_catalog().to_json()
        assert first == second
        assert f'"schema": "{REPORT_SCHEMA}"' in first


class TestSeededDefects:
    def test_oversized_microcode_flagged(self):
        kernel = KERNEL_LIBRARY["vsum7"].compiled()
        bloated = dataclasses.replace(kernel, microcode_words=4096)
        report = lint_kernel(bloated)
        assert "MC008" in rules_of(report)
        assert report.exit_code == 1

    def test_double_booked_slot_flagged(self):
        import copy

        from repro.isa.vliw import Slot

        # The library memoizes compiled kernels; mutate a deep copy so
        # the seeded defect cannot leak into other tests.
        kernel = copy.deepcopy(KERNEL_LIBRARY["vsum7"].compiled())
        word = next(w for w in kernel.schedule if w.slots)
        slot = word.slots[0]
        word.slots.append(Slot(slot.fu, slot.unit, 999, slot.opcode))
        report = lint_kernel(kernel)
        assert "MC002" in rules_of(report)

    def test_overlapping_srf_allocations_flagged(self):
        from repro.streamc.compiler import SrfAllocationRecord

        image = small_image()
        assert image.srf_allocations, "expected real SRF records"
        record = image.srf_allocations[0]
        image.srf_allocations.append(SrfAllocationRecord(
            "s99:forged", record.start, record.words,
            record.allocated_at, record.freed_at))
        report = lint_image(image)
        assert "SP006" in rules_of(report)
        assert report.exit_code == 1

    def test_sdr_overflow_flagged(self):
        image = small_image()
        image.instructions[0].sdr = 99
        report = lint_image(image)
        assert "SP007" in rules_of(report)

    def test_dependency_cycle_flagged(self):
        image = small_image()
        image.instructions[0].deps = [1]
        image.instructions[1].deps = [0]
        report = lint_image(image)
        assert "SP003" in rules_of(report)

    def test_dangling_dependency_flagged(self):
        image = small_image()
        image.instructions[0].deps = [999]
        report = lint_image(image)
        assert "SP001" in rules_of(report)

    def test_forward_dependency_flagged(self):
        image = small_image()
        image.instructions[0].deps = [len(image.instructions) - 1]
        report = lint_image(image)
        assert "SP002" in rules_of(report)

    def test_clean_image_has_no_findings(self):
        # A toy image is *legal* (no errors/warnings); the bound
        # model's info-severity advisories are allowed to comment on
        # its (deliberately unoptimized) overlap structure.
        report = lint_image(small_image())
        assert report.clean
        assert not report.warnings, report.render()
        assert all(f.rule.startswith(("ADV", "BD"))
                   for f in report.findings), report.render()


class TestSessionPreflight:
    def test_strict_preflight_blocks_broken_image(self):
        from repro.apps.common import AppBundle
        from repro.engine import Session, SessionConfig

        image = small_image()
        image.instructions[0].sdr = 99
        bundle = AppBundle(name=image.name, image=image)
        with Session(config=SessionConfig(jobs=1, cache=False, preflight=True)) as session:
            with pytest.raises(AnalysisError) as excinfo:
                session.run_bundle(bundle, strict=True)
        assert any(f.rule == "SP007" for f in excinfo.value.findings)

    def test_strict_preflight_passes_clean_image(self):
        from repro.apps.common import AppBundle
        from repro.engine import Session, SessionConfig

        image = small_image()
        bundle = AppBundle(name=image.name, image=image)
        with Session(config=SessionConfig(jobs=1, cache=False, preflight=True)) as session:
            result = session.run_bundle(bundle, strict=True)
        assert result.cycles > 0

    def test_preflight_off_by_default(self):
        from repro.apps.common import AppBundle
        from repro.engine import Session, SessionConfig

        image = small_image()
        image.instructions[0].sdr = 99   # statically wrong, runs fine
        bundle = AppBundle(name=image.name, image=image)
        with Session(config=SessionConfig(jobs=1, cache=False)) as session:
            result = session.run_bundle(bundle, strict=True)
        assert result.cycles > 0


class TestEntryPointRule:
    def test_violation_detected(self, tmp_path):
        from repro.analysis.rules.entrypoints import scan

        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "rogue.py").write_text(
            "processor = Imagine" "Processor(board=board)\n")
        findings = scan(tmp_path)
        assert len(findings) == 1
        assert findings[0].rule == "EP001"
        assert findings[0].severity is Severity.ERROR
        assert "rogue.py" in findings[0].location

    def test_repository_is_clean(self):
        from repro.analysis.rules.entrypoints import scan

        assert scan() == []


class TestLintCli:
    def test_clean_catalog_exits_zero(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(["lint", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert report["counts"]["error"] == 0

    def test_render_mentions_passes(self, capsys):
        from repro.cli import main

        code = main(["lint"])
        captured = capsys.readouterr()
        assert code == 0
        assert "pass(es)" in captured.out

    @pytest.mark.parametrize("family", ["XYZ", "CX"])
    def test_unknown_family_is_rejected(self, family, capsys):
        from repro.cli import main

        code = main(["lint", "--select", "EP", family])
        captured = capsys.readouterr()
        assert code == 2
        assert family in captured.err
        assert "ADV BD EP MC SP" in captured.err
        assert "pass(es)" not in captured.out
