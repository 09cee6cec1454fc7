"""Tests for the cycle-accounting profiler, differ and perf history.

Covers: exact cycle conservation of the profile report across all
four applications on both board models; agreement between the
profile's figure blocks and the analysis-layer breakdowns; the
profile differ on an identical pair and on a page-policy ablation;
the append-only perf-history store (dedup, corruption tolerance);
and the ``repro perf`` regression gate end to end.
"""

import json
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import depth, mpeg, qrd, rtsl
from repro.cli import main as cli_main
from repro.core import BoardConfig, MachineConfig
from repro.core.processor import InstructionTrace, TraceEvent
from repro.engine import Session, SessionConfig
from repro.engine.session import RunRequest
from repro.obs.diff import DIFF_SCHEMA, diff_profiles, render_diff
from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    append_history,
    history_entry,
    read_history,
)
from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.obs import profile as profiler
from repro.obs.profile import (
    PROFILE_SCHEMA,
    ProfileError,
    build_profile,
    kernel_catalog_profile,
    render_profile,
    validate_profile,
)


def _run_bundle(bundle, **kwargs):
    """In-process, uncached engine run (the old ``run_app`` surface)."""
    from repro.engine.session import get_default_session

    return get_default_session().run_bundle(bundle, **kwargs)


SMALL_BUILDS = {
    "DEPTH": lambda: depth.build(height=24, width=64, disparities=4),
    "MPEG": lambda: mpeg.build(height=48, width=128, frames=2),
    "QRD": lambda: qrd.build(rows=64, cols=32, block_columns=8),
    "RTSL": lambda: rtsl.build(triangles=60, width=64, height=48),
}

#: The same sizings as request overrides, for engine-path tests.
SMALL_SIZES = {
    "depth": {"height": 24, "width": 64, "disparities": 4},
    "rtsl": {"triangles": 60, "width": 64, "height": 48},
}

BOARDS = {"hardware": BoardConfig.hardware, "isim": BoardConfig.isim}


@pytest.fixture(scope="module")
def profile_matrix():
    """App x board -> (result, validated profile)."""
    matrix = {}
    for app, build in SMALL_BUILDS.items():
        for mode, board in BOARDS.items():
            result = _run_bundle(build(), board=board())
            matrix[app, mode] = (result, build_profile(result))
    return matrix


class TestConservation:
    def test_every_profile_validates(self, profile_matrix):
        for (app, mode), (_, profile) in profile_matrix.items():
            validate_profile(profile)
            assert profile["schema"] == PROFILE_SCHEMA
            assert profile["kind"] == "run"
            assert profile["program"] == app
            assert profile["board_mode"] == mode

    def test_components_cover_the_machine(self, profile_matrix):
        machine = MachineConfig()
        expected = ({"clusters", "host", "controller",
                     "microcontroller"}
                    | {f"ag{i}" for i in range(machine.num_ags)}
                    | {f"dram_ch{i}"
                       for i in range(machine.dram.channels)})
        for _, profile in profile_matrix.values():
            assert set(profile["components"]) == expected

    def test_busy_stall_idle_sum_exactly(self, profile_matrix):
        for (app, mode), (result, profile) in profile_matrix.items():
            total = profile["total_cycles"]
            assert total == result.metrics.total_cycles
            for name, comp in profile["components"].items():
                attributed = (comp["busy_total"] + comp["stall_total"]
                              + comp["idle"])
                assert attributed == pytest.approx(
                    total, abs=1e-6 * total), (app, mode, name)

    def test_cluster_idle_residual_is_bounded(self, profile_matrix):
        for (app, mode), (_, profile) in profile_matrix.items():
            clusters = profile["components"]["clusters"]
            assert clusters["idle"] >= -1e-3 * profile["total_cycles"]

    def test_figure11_matches_application_breakdown(
            self, profile_matrix):
        for result, profile in profile_matrix.values():
            fractions = result.metrics.cycle_fractions()
            assert list(profile["figure11"].items()) == [
                (category.value, fraction)
                for category, fraction in fractions.items()]

    def test_figure6_fractions_sum_to_one(self, profile_matrix):
        for _, profile in profile_matrix.values():
            assert profile["kernels"]
            for row in profile["figure6"].values():
                assert row["busy"] + row["stall"] == pytest.approx(1.0)

    def test_fu_occupancy_annotated_outside_tree(self, profile_matrix):
        (_, profile) = profile_matrix["DEPTH", "hardware"]
        occupancy = profile["components"]["clusters"][
            "fu_occupancy_cycles"]
        assert occupancy.get("add", 0) > 0
        # Occupancy overlaps across concurrent FUs, so it lives beside
        # the exclusive tree, not inside it.
        assert "fu_occupancy_cycles" not in profile["components"][
            "clusters"]["busy"]

    def test_stream_op_rollup_counts_trace(self, profile_matrix):
        result, profile = profile_matrix["DEPTH", "hardware"]
        assert sum(row["count"] for row in profile["stream_ops"]) == \
            len(result.trace)

    def test_render_profile_mentions_program(self, profile_matrix):
        _, profile = profile_matrix["MPEG", "isim"]
        text = render_profile(profile)
        assert text.startswith("profile of MPEG (isim):")
        assert "srf_starve" in text

    def test_kernel_catalog_profile_validates(self):
        catalog = kernel_catalog_profile()
        validate_profile(catalog)
        assert catalog["kind"] == "kernel-catalog"
        assert "dct8x8" in catalog["kernels"]

    def test_validator_rejects_fudged_totals(self, profile_matrix):
        _, profile = profile_matrix["QRD", "hardware"]
        doctored = json.loads(json.dumps(profile))
        doctored["components"]["clusters"]["busy_total"] += 1000.0
        with pytest.raises(ProfileError):
            validate_profile(doctored)
        with pytest.raises(ProfileError):
            validate_profile({"schema": "something-else"})


class TestDiff:
    def test_identical_profiles_have_no_significant_rows(
            self, profile_matrix):
        _, profile = profile_matrix["DEPTH", "hardware"]
        diff = diff_profiles(profile, profile)
        assert diff["schema"] == DIFF_SCHEMA
        assert diff["significant"] == []
        assert not diff["regression"]
        assert "no category moved" in render_diff(diff)

    def test_page_policy_ablation_moves_memory_stalls(self, tmp_path):
        from dataclasses import replace

        open_page = MachineConfig()
        closed = replace(open_page,
                         dram=replace(open_page.dram,
                                      page_policy="closed"))
        session = Session(config=SessionConfig(jobs=1, cache=False))
        try:
            diff = session.diff(
                RunRequest.for_app("rtsl", sizes=SMALL_SIZES["rtsl"]),
                RunRequest.for_app("rtsl", sizes=SMALL_SIZES["rtsl"],
                                   machine=closed))
        finally:
            session.close()
        assert diff["regression"]
        rows = {row["path"]: row for row in diff["categories"]}
        memory = rows["clusters.stall.memory"]
        assert memory["significant"]
        assert memory["delta"] > 0
        assert "clusters.stall.memory" in diff["significant"]

    def test_rejects_non_profile_documents(self, profile_matrix):
        _, profile = profile_matrix["DEPTH", "hardware"]
        with pytest.raises(ProfileError):
            diff_profiles(profile, {"schema": "nope"})
        with pytest.raises(ProfileError):
            diff_profiles(kernel_catalog_profile(), profile)


class TestHistory:
    def test_undigested_runs_are_unrecordable(self):
        result = _run_bundle(SMALL_BUILDS["DEPTH"](),
                         board=BoardConfig.hardware())
        assert history_entry(result) is None

    def test_session_appends_once_per_digest(self, tmp_path):
        path = tmp_path / "history.jsonl"
        session = Session(config=SessionConfig(
            jobs=1, cache=True,
            cache_dir=tmp_path / "cache", history=path))
        try:
            request = RunRequest.for_app("depth",
                                         sizes=SMALL_SIZES["depth"])
            session.run(request)
            assert len(read_history(path)) == 1
            session.run(request)  # warm repeat: no new line
            assert len(read_history(path)) == 1
            session.run(RunRequest.for_app(
                "depth", sizes=SMALL_SIZES["depth"],
                board=BoardConfig.isim()))
            entries = read_history(path)
        finally:
            session.close()
        assert len(entries) == 2
        assert {e["board_mode"] for e in entries} == {"hardware",
                                                     "isim"}
        for entry in entries:
            assert entry["cycles"] > 0
            assert entry["wall_time_s"] >= 0
            assert "stall_cycles" in entry

    def test_rerun_session_is_a_noop_append(self, tmp_path):
        path = tmp_path / "history.jsonl"
        request = RunRequest.for_app("depth",
                                     sizes=SMALL_SIZES["depth"])
        for _ in range(2):
            session = Session(config=SessionConfig(
                jobs=1, cache=True,
                cache_dir=tmp_path / "cache", history=path))
            try:
                session.run(request)
            finally:
                session.close()
        assert len(read_history(path)) == 1

    def test_hit_rows_replay_no_wall_clock(self, tmp_path):
        # A hit simulated nothing: its line must not carry the
        # original run's simulate time from the cached manifest.
        path = tmp_path / "history.jsonl"
        request = RunRequest.for_app("depth",
                                     sizes=SMALL_SIZES["depth"])
        with Session(config=SessionConfig(
                cache_dir=tmp_path / "cache")) as session:
            session.run(request)
        with Session(config=SessionConfig(
                cache_dir=tmp_path / "cache", history=path)) as session:
            hit = session.run(request)
        assert hit.manifest.wall_time_s > 0
        (entry,) = read_history(path)
        assert entry["cache"] == "hit"
        assert entry["wall_time_s"] is None
        assert '"wall_time_s": null' in path.read_text()

    def test_reader_skips_corrupt_and_alien_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = {"schema": "repro.perf-history/1", "digest": "d1",
                "program": "DEPTH", "cycles": 1.0}
        path.write_text("\n".join([
            "not json {", json.dumps({"schema": "other/1"}),
            json.dumps(good), ""]))
        entries = read_history(path)
        assert [e["digest"] for e in entries] == ["d1"]
        # append_history dedups against what is already on disk.
        assert append_history(path, [good]) == 0
        assert append_history(
            path, [dict(good, digest="d2")]) == 1
        assert len(read_history(path)) == 2


class TestPerfCli:
    def test_history_store_is_the_perf_default_only(self, monkeypatch):
        import repro.cli as cli

        seen = {}

        def record(args):
            seen[args.command] = args.history
            return 0

        for command in ("app", "profile", "critpath"):
            monkeypatch.setattr(cli, f"_cmd_{command}", record)
            assert cli_main([command, "rtsl"]) == 0
        assert seen == {"app": None, "profile": None, "critpath": None}

        class Stop(Exception):
            pass

        def stop(args):
            seen["perf"] = args.history
            raise Stop

        monkeypatch.setattr(cli, "_session", stop)
        with pytest.raises(Stop):
            cli_main(["perf", "--apps", "rtsl"])
        assert seen["perf"] == DEFAULT_HISTORY_PATH

    def test_perf_gate_passes_then_catches_regression(self, tmp_path):
        out = tmp_path / "BENCH_profile.json"
        history = tmp_path / "history.jsonl"
        argv = ["perf", "--apps", "depth", "--boards", "hardware",
                "--cache-dir", str(tmp_path / "cache"),
                "--history", str(history), "--out", str(out),
                "--critpath-out",
                str(tmp_path / "BENCH_critpath.json")]
        assert cli_main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench-profile/1"
        row = doc["apps"]["DEPTH"]["hardware"]
        assert row["cycles"] > 0
        assert len(read_history(history)) == 1

        # An identical baseline passes the gate...
        baseline = tmp_path / "baseline.json"
        baseline.write_text(out.read_text())
        assert cli_main(argv + ["--baseline", str(baseline)]) == 0
        # ...a 10% faster one flags this run as a regression.
        doc["apps"]["DEPTH"]["hardware"]["cycles"] = \
            row["cycles"] * 0.9
        baseline.write_text(json.dumps(doc))
        assert cli_main(argv + ["--baseline", str(baseline)]) == 1

    def test_profile_and_diff_cli_roundtrip(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert cli_main(["profile", "DEPTH", "--out", str(a),
                         "--cache-dir",
                         str(tmp_path / "cache")]) == 0
        document = json.loads(a.read_text())
        validate_profile(document)
        assert document["request_digest"]
        assert cli_main(["diff", str(a), str(a)]) == 0
        assert cli_main(["diff", str(a), str(a),
                         "--fail-on-regression"]) == 0
        capsys.readouterr()
        assert cli_main(["diff", str(a),
                         str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# The columnar instruction trace against per-event loops.
# ----------------------------------------------------------------------
#: Non-integral cycle times, so sums round and their order shows.
_CYCLES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                    allow_subnormal=False)


@st.composite
def traces(draw):
    """An instruction trace and the ``TraceEvent`` rows it holds:
    empty, one op, or repeats of a few ops."""
    palette = draw(st.lists(st.sampled_from(list(StreamOpType)),
                            min_size=1, max_size=3))
    ops = draw(st.lists(st.sampled_from(palette), max_size=30))
    instructions, events = [], []
    for index, op in enumerate(ops):
        resident = draw(_CYCLES)
        started = resident + draw(_CYCLES)
        finished = started + draw(_CYCLES)
        kernel = draw(st.sampled_from([None, "k1", "k2"]))
        instructions.append(StreamInstruction(op, kernel=kernel,
                                              tag=f"op{index}"))
        events.append(TraceEvent(index, op.value, f"op{index}", kernel,
                                 resident, started, finished))
    trace = InstructionTrace(
        instructions, [event.resident_at for event in events],
        [event.started_at for event in events],
        [event.finished_at for event in events])
    return trace, events


def _reference_stream_ops(events):
    """The per-event rollup the bincount passes replaced."""
    totals = {}
    for event in events:
        entry = totals.setdefault(event.op, {
            "count": 0, "cycles": 0.0, "queue_cycles": 0.0})
        entry["count"] += 1
        entry["cycles"] += event.duration
        entry["queue_cycles"] += event.queue_delay
    return [{
        "op": op,
        "count": int(totals[op]["count"]),
        "cycles": totals[op]["cycles"],
        "queue_cycles": totals[op]["queue_cycles"],
    } for op in sorted(totals)]


def _reference_dispatch_count(events):
    dispatched = {op.value for op in StreamOpType
                  if op.is_register_op or op.is_misc}
    return sum(1 for event in events if event.op in dispatched)


class TestColumnarTrace:
    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_rollups_match_the_per_event_loops(self, drawn):
        trace, events = drawn
        result = SimpleNamespace(trace=trace)
        assert repr(profiler._stream_op_rollup(result)) == repr(
            _reference_stream_ops(events))
        assert repr(profiler._dispatch_count(trace)) == repr(
            _reference_dispatch_count(events))

    @settings(max_examples=100, deadline=None)
    @given(traces())
    def test_rows_and_pickle_round_trip(self, drawn):
        trace, events = drawn
        assert len(trace) == len(events)
        assert list(trace) == events
        assert [trace[i] for i in range(len(trace))] == events
        assert trace[1:] == events[1:]
        if events:
            assert trace[-1] == events[-1]
        data = pickle.dumps(trace)
        assert b"TraceEvent" not in data
        assert trace.finished_at.tobytes() in data
        restored = pickle.loads(data)
        assert restored == trace
        assert list(restored) == events
