"""Static cycle bounds: soundness, tightness and advisor silence.

The bound model's contract (``docs/analysis.md``) is checked from
three directions: a hypothesis property fuzzes random stream programs
and asserts ``lower <= simulated <= upper`` on both boards and both
backends; the full 4x2 paper matrix must bracket with mean tightness
<= 1.5 and the static bottleneck must agree with the dynamic
critical-path binding on >= 6 of 8 cells; and the optimization
advisor must stay silent on every library kernel's synthetic probe
steady state (a probe has nothing to overlap, so any ADV finding
there is a false positive by construction).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import (
    BOUNDS_SCHEMA,
    compute_bounds,
    render_bounds,
    resources_match,
    validate_bounds_report,
)
from repro.analysis.lint import lint_catalog, lint_image
from repro.analysis.rules.consistency import probe_bundle
from repro.core import BoardConfig, MachineConfig
from repro.engine.gate import (
    GATE_BENCH_SCHEMA,
    GATE_SCHEMA,
    MAX_MEAN_TIGHTNESS,
    MIN_BOTTLENECK_MATCHES,
    run_gate,
    validate_gate_report,
)
from repro.engine.catalog import build_app
from repro.kernels import KERNEL_LIBRARY
from tests.test_fuzz_streamc import _BOARDS, _run, random_program

_BOARD_MODES = ("hardware", "isim")


def _board(mode):
    return (BoardConfig.hardware() if mode == "hardware"
            else BoardConfig.isim())


class TestBracketingProperty:
    @settings(max_examples=12, deadline=None)
    @given(random_program(), st.sampled_from(_BOARD_MODES))
    def test_bounds_bracket_fuzzed_programs(self, program, mode):
        image = program.build()
        image.validate()
        analysis = compute_bounds(image, board=_board(mode))
        assert analysis.lower_bound_cycles <= \
            analysis.upper_bound_cycles
        simulated = _run(image, _BOARDS[mode]).cycles
        assert analysis.brackets(simulated), (
            f"{mode}: lower {analysis.lower_bound_cycles:.0f} "
            f"sim {simulated:.0f} "
            f"upper {analysis.upper_bound_cycles:.0f}")
        assert analysis.tightness(simulated) >= 1.0 - 1e-9

    @settings(max_examples=6, deadline=None)
    @given(random_program())
    def test_report_is_deterministic_and_valid(self, program):
        image = program.build()
        first = compute_bounds(image, board=BoardConfig.hardware())
        second = compute_bounds(image, board=BoardConfig.hardware())
        assert first.to_json() == second.to_json()
        document = json.loads(first.to_json())
        validate_bounds_report(document)
        assert document["schema"] == BOUNDS_SCHEMA
        assert render_bounds(document)


class TestPaperMatrixGate:
    def test_matrix_brackets_and_attributes(self):
        report, entries = run_gate(fuzz=4, fuzz_seed=0)
        validate_gate_report(report)
        assert report["ok"], report
        assert report["schema"] == GATE_SCHEMA
        assert len(report["matrix"]) == 8
        assert report["matrix_bracket_failures"] == 0
        assert not report["fuzz"]["failures"]
        aggregate = report["aggregate"]
        assert aggregate["full_matrix"]
        assert aggregate["mean_tightness"] <= MAX_MEAN_TIGHTNESS
        assert (report["bottleneck_matches"]
                >= MIN_BOTTLENECK_MATCHES)
        # Every disagreement is surfaced as a discrepancy seed.
        mismatches = [c for c in report["matrix"]
                      if not c["bottleneck_match"]]
        assert len(report["discrepancy_seeds"]) == len(mismatches)
        assert len(entries) == len(report["matrix"]) + 1
        assert all(e["schema"] == GATE_BENCH_SCHEMA
                   for e in entries)
        assert entries[-1]["app"] == "MATRIX"
        assert entries[-1]["bottleneck_match"]

    def test_validator_rejects_tampered_report(self):
        report, _ = run_gate(apps=["depth"], boards=["isim"], fuzz=0)
        validate_gate_report(report)

        def sink_cycles(cell):
            cell["event_cycles"] = cell["lower"] - 1.0

        def flip_identical(cell):
            cell["identical"] = not cell["identical"]

        for tamper in (sink_cycles, flip_identical):
            tampered = json.loads(json.dumps(report))
            tamper(tampered["matrix"][0])
            try:
                validate_gate_report(tampered)
            except ValueError:
                pass
            else:
                raise AssertionError(
                    f"validator accepted a report after {tamper.__name__}")

    def test_gate_fails_on_one_cycle_backend_mismatch(
            self, monkeypatch, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.vector import VectorProcessor

        run = VectorProcessor.run

        def perturbed(self, image):
            result = run(self, image)
            result.metrics.total_cycles += 1
            return result

        monkeypatch.setattr(VectorProcessor, "run", perturbed)
        report, _ = run_gate(apps=["rtsl"], boards=["hardware"], fuzz=0)
        validate_gate_report(report)
        assert report["ok"] is False
        assert report["matrix"][0]["identical"] is False
        assert report["matrix_mismatches"] == 1
        out = tmp_path / "gate.json"
        assert cli_main(["gate", "--apps", "rtsl", "--boards",
                         "hardware", "--fuzz", "0",
                         "--out", str(out)]) == 1
        assert "MISMATCH" in capsys.readouterr().err
        assert json.loads(out.read_text())["ok"] is False

    def test_gate_fails_on_planted_upper_bound(
            self, monkeypatch, tmp_path, capsys):
        import dataclasses

        from repro.analysis import bounds
        from repro.cli import main as cli_main

        compute = bounds.compute_bounds

        def planted(image, **kwargs):
            analysis = compute(image, **kwargs)
            return dataclasses.replace(
                analysis,
                upper_bound_cycles=analysis.lower_bound_cycles)

        monkeypatch.setattr(bounds, "compute_bounds", planted)
        out = tmp_path / "gate.json"
        assert cli_main(["gate", "--apps", "rtsl", "--boards",
                         "hardware", "--fuzz", "0",
                         "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        validate_gate_report(report)
        cell = report["matrix"][0]
        assert cell["upper"] < cell["event_cycles"]
        assert cell["bracketed"] is False
        assert cell["identical"] is True
        assert report["ok"] is False
        assert "BRACKET FAILURE" in capsys.readouterr().err


class TestAdvisor:
    def test_adv_silent_on_probe_steady_states(self):
        machine = MachineConfig()
        for name in sorted(KERNEL_LIBRARY):
            bundle, _ = probe_bundle(
                KERNEL_LIBRARY[name].compiled(), machine.num_clusters)
            report = lint_image(bundle.image, machine=machine)
            adv = [f for f in report.findings
                   if f.rule.startswith("ADV")]
            assert not adv, (name, [str(f) for f in adv])

    def test_advisor_fires_on_paper_apps(self):
        # The paper apps do leave overlap on the table (Figures 7-8);
        # the advisor must find something actionable on each.
        for app in ("depth", "mpeg", "qrd", "rtsl"):
            image = build_app(app).image
            report = lint_image(image)
            rules = {f.rule for f in report.findings}
            assert any(r.startswith("ADV") for r in rules), (app,
                                                            rules)

    def test_bd002_microcode_pressure(self):
        image = build_app("depth").image
        total = sum(k.microcode_words
                    for k in image.kernels.values())
        machine = MachineConfig(microcode_store_words=total - 1)
        report = lint_image(image, machine=machine)
        assert "BD002" in {f.rule for f in report.findings}


class TestLintIntegration:
    def test_bounds_pass_registered_for_images(self):
        report = lint_image(build_app("depth").image)
        assert "image.bounds" in report.passes

    def test_select_families_scopes_passes(self):
        report = lint_catalog(apps=["depth"], kernels=[],
                              select={"BD", "ADV"})
        assert all(f.rule.startswith(("BD", "ADV"))
                   for f in report.findings)
        # Findings are ordered by (rule, location): stable for CI.
        keys = [f.sort_key() for f in report.sorted_findings()]
        assert keys == sorted(keys)

    def test_static_vs_dynamic_resources_match_helper(self):
        assert resources_match("ags", "ag1")
        assert resources_match("dram", "ags")
        assert resources_match("clusters", "srf")
        assert not resources_match("clusters", "host")
