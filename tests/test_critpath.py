"""Critical-path extraction and what-if projection tests.

Covers: the ``repro.critpath-report/1`` document on all four
applications x both board models (conservation, profile bounds,
chain structure, determinism across independent simulations); the
what-if projector validated against real reruns for two scalings per
application; the scale-spec parser and machine/board realisation;
DAG invariants on Hypothesis-generated random stream programs
(reusing the fuzz generators); the differ's one-line verdict and
critical-path-move detection; and the ``repro critpath`` /
``repro whatif`` CLI surfaces including the perf gate's
``BENCH_critpath.json``.
"""

import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import depth, mpeg, qrd, rtsl
from repro.cli import main as cli_main
from repro.core import BoardConfig, MachineConfig
from repro.engine import Session, SessionConfig
from repro.engine.session import RunRequest
from repro.obs import critpath
from repro.obs.critpath import (
    CRITPATH_SCHEMA,
    EDGE_KERNEL_EXEC,
    EDGE_MEM_STREAM,
    EDGE_TYPES,
    KNOWN_SCALES,
    NODE_KINDS,
    WHATIF_SCHEMA,
    CritpathError,
    EventGraph,
    GraphEdge,
    GraphNode,
    build_critpath,
    build_whatif,
    critpath_summary,
    parse_scales,
    project_whatif,
    render_critpath,
    render_whatif,
    validate_critpath,
    whatif_configs,
)
from repro.obs.diff import diff_profiles, render_diff
from repro.obs.profile import build_profile
from tests.test_fuzz_streamc import _BOARDS, _run, random_program


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
    "mpeg": {"height": 48, "width": 128, "frames": 2},
    "qrd": {"rows": 64, "cols": 32, "block_columns": 8},
    "rtsl": {"triangles": 60, "width": 64, "height": 48},
}

BOARDS = {"hardware": BoardConfig.hardware, "isim": BoardConfig.isim}


@pytest.fixture(scope="module")
def critpath_matrix():
    """App x board -> (result, validated critpath report)."""
    matrix = {}
    for app, build in SMALL_BUILDS.items():
        for mode, board in BOARDS.items():
            result = _run_bundle(build(), board=board())
            matrix[app, mode] = (result, build_critpath(result))
    return matrix


class TestExtraction:
    def test_reports_validate(self, critpath_matrix):
        for (app, mode), (_, report) in critpath_matrix.items():
            validate_critpath(report)
            assert report["schema"] == CRITPATH_SCHEMA
            assert report["program"] == app
            assert report["board_mode"] == mode

    def test_conservation_is_exact(self, critpath_matrix):
        """The path telescopes through every wait: its length must
        equal the run's total cycles (the tentpole's acceptance
        bar)."""
        for (app, mode), (result, report) in critpath_matrix.items():
            total = result.metrics.total_cycles
            conservation = report["checks"]["conservation"]
            assert conservation["ok"], (app, mode)
            assert report["path_cycles"] == pytest.approx(
                total, abs=1e-6 * max(total, 1.0)), (app, mode)

    def test_profile_bounds_hold(self, critpath_matrix):
        """Critical cycles per leaf never exceed what the profiler
        attributed to that leaf."""
        for (app, mode), (_, report) in critpath_matrix.items():
            bounds = report["checks"]["profile_bounds"]
            assert bounds["ok"], (app, mode, bounds["violations"])
            assert bounds["checked"] > 0, (app, mode)

    def test_segments_chain_from_source_to_end(self, critpath_matrix):
        for (app, mode), (result, report) in critpath_matrix.items():
            segments = report["segments"]
            assert segments, (app, mode)
            assert segments[0]["src"]["kind"] == "source"
            assert segments[0]["src"]["t"] == 0.0
            assert segments[-1]["dst"]["kind"] == "end"
            assert segments[-1]["dst"]["t"] == pytest.approx(
                result.metrics.total_cycles)
            for before, after in zip(segments, segments[1:]):
                assert before["dst"]["id"] == after["src"]["id"]

    def test_leaves_sum_to_path_and_sort_by_weight(
            self, critpath_matrix):
        for (app, mode), (_, report) in critpath_matrix.items():
            leaves = report["critical_leaves"]
            assert sum(leaves.values()) == pytest.approx(
                report["path_cycles"],
                abs=1e-6 * max(report["path_cycles"], 1.0))
            cycles = list(leaves.values())
            assert cycles == sorted(cycles, reverse=True), (app, mode)

    def test_nothing_is_unattributed(self, critpath_matrix):
        for (app, mode), (result, report) in critpath_matrix.items():
            total = max(result.metrics.total_cycles, 1.0)
            assert report["unattributed_cycles"] <= 1e-6 * total, (
                app, mode)

    def test_top_resources_carry_share_and_slack(
            self, critpath_matrix):
        for (app, mode), (_, report) in critpath_matrix.items():
            top = report["top_resources"]
            assert 1 <= len(top) <= 3, (app, mode)
            for entry in top:
                assert 0.0 <= entry["share"] <= 1.0 + 1e-9
                assert entry["min_slack"] >= 0.0
                assert entry["resource"] in report["resources"]

    def test_summary_matches_full_report(self, critpath_matrix):
        for (result, report) in critpath_matrix.values():
            summary = critpath_summary(result)
            assert summary is not None
            assert summary["path_cycles"] == report["path_cycles"]
            assert (summary["binding_resource"]
                    == report["top_resources"][0]["resource"])

    def test_render_mentions_checks(self, critpath_matrix):
        _, report = critpath_matrix["DEPTH", "hardware"]
        text = render_critpath(report)
        assert "conservation: ok" in text
        assert "profile bounds: ok" in text


class TestDeterminism:
    def test_reports_are_bit_identical_across_runs(
            self, critpath_matrix):
        """An independent second simulation of the same request must
        produce the same critpath document, byte for byte."""
        for (app, mode), (_, report) in critpath_matrix.items():
            fresh = _run_bundle(SMALL_BUILDS[app](),
                            board=BOARDS[mode]())
            assert (json.dumps(build_critpath(fresh), sort_keys=True)
                    == json.dumps(report, sort_keys=True)), (app, mode)


@pytest.fixture(scope="module")
def qrd_result():
    with Session(config=SessionConfig(cache=False,
                                      backend="auto")) as session:
        return session.run(RunRequest.for_app("qrd",
                                              sizes=SMALL_SIZES["qrd"]))


def _unwalked(result):
    """``result`` with an equal event graph that has never been
    walked (a pickle round trip drops the memo)."""
    return dataclasses.replace(
        result, event_graph=pickle.loads(pickle.dumps(
            result.event_graph)))


class TestWalkMemo:
    """The critical-path walk runs once per event graph and is shared
    by every report built from it."""

    @pytest.fixture
    def walks(self, monkeypatch):
        from repro.obs import critpath

        calls = []
        walk = critpath._walk

        def counted(graph):
            calls.append(graph)
            return walk(graph)

        monkeypatch.setattr(critpath, "_walk", counted)
        return calls

    def test_every_consumer_shares_one_walk(self, qrd_result, walks,
                                            tmp_path):
        from types import SimpleNamespace

        from repro.obs.history import history_entry
        from repro.serve import ExperimentService, ServiceConfig

        result = _unwalked(qrd_result)
        profile = build_profile(result)
        report = build_critpath(result)
        summary = critpath_summary(result)
        entry = history_entry(result)
        service = ExperimentService(ServiceConfig(
            data_dir=str(tmp_path / "serve"), journal_fsync=False))
        artifact = service._build_artifact(
            None, SimpleNamespace(result=result), None)
        assert len(walks) == 1
        assert profile["critpath"] == summary == artifact["critpath"]
        assert summary["path_cycles"] == report["path_cycles"]
        assert entry["critpath_cycles"] == report["path_cycles"]

    def test_walk_never_reaches_a_pickle(self, qrd_result):
        result = _unwalked(qrd_result)
        before = pickle.dumps(result.event_graph)
        build_critpath(result)
        assert pickle.dumps(result.event_graph) == before

    def test_mutating_a_report_leaves_the_next_intact(self,
                                                      qrd_result):
        result = _unwalked(qrd_result)
        report = build_critpath(result)
        expected = json.dumps(report)
        report["segments"][0]["leaves"]["bogus"] = 1.0
        report["segments"].clear()
        for entry in report["resources"].values():
            entry["critical_cycles"] = -1.0
        report["top_resources"][0]["share"] = 2.0
        report["top_resources"].clear()
        report["critical_leaves"].clear()
        summary = critpath_summary(result)
        summary["top_resources"][0]["resource"] = "bogus"
        assert json.dumps(build_critpath(result)) == expected
        assert critpath_summary(result)["top_resources"][0][
            "resource"] != "bogus"

    def test_append_forces_a_new_walk(self, qrd_result, walks):
        result = _unwalked(qrd_result)
        before = critpath_summary(result)["path_cycles"]
        graph = result.event_graph
        end = graph.end
        node = graph.add_node("end", -1, end.t + 5.0)
        graph.add_edge(end.ident, node, "retire", 0.0)
        after = critpath_summary(result)
        assert len(walks) == 2
        assert after["path_cycles"] == pytest.approx(before + 5.0)
        assert after["unattributed_cycles"] >= 5.0


class TestWhatif:
    #: Two realisable scalings per application (acceptance bar).
    #: RTSL's second scaling is the AG count: its host scaling shifts
    #: the issue schedule enough that the recorded resource edges
    #: become pessimistic (a known replay limitation).
    SCALINGS = {
        "depth": ({"dram": 2.0}, {"host": 2.0}),
        "mpeg": ({"dram": 2.0}, {"host": 2.0}),
        "qrd": ({"dram": 2.0}, {"host": 2.0}),
        "rtsl": ({"dram": 2.0}, {"ags": 3.0}),
    }

    @pytest.mark.parametrize("app", sorted(SMALL_SIZES))
    def test_validated_projection_per_app(self, app):
        request = RunRequest(app=app, sizes=SMALL_SIZES[app])
        with Session(config=SessionConfig(jobs=1, cache=False)) as session:
            for scales in self.SCALINGS[app]:
                report = session.whatif(request, scales,
                                        validate=True)
                assert report["schema"] == WHATIF_SCHEMA
                assert report["validated"] is True
                assert report["prediction_error"] < 0.15, (
                    app, scales, report["prediction_error"])
                assert report["replay_fidelity"] == pytest.approx(
                    1.0, abs=1e-6)

    def test_clusters_is_predict_only(self, critpath_matrix):
        result, _ = critpath_matrix["MPEG", "hardware"]
        report = build_whatif(result, {"clusters": 2.0})
        assert report["validated"] is False
        assert report["predicted_cycles"] <= (
            report["baseline_cycles"] + 1e-6)
        with pytest.raises(CritpathError):
            whatif_configs(MachineConfig(), BoardConfig.hardware(),
                           {"clusters": 2.0})

    def test_render_whatif_states_validation(self, critpath_matrix):
        result, _ = critpath_matrix["DEPTH", "hardware"]
        text = render_whatif(build_whatif(result, {"dram": 2.0}))
        assert "not validated" in text

    def test_project_rejects_unknown_resource(self, critpath_matrix):
        result, _ = critpath_matrix["DEPTH", "hardware"]
        with pytest.raises(CritpathError):
            project_whatif(result.event_graph, {"warp": 9.0})


class TestScaleSpecs:
    def test_parse_scales_roundtrip(self):
        assert parse_scales("dram=2x,ags=3") == {
            "dram": 2.0, "ags": 3.0}
        assert parse_scales(" host = 1.5X ") == {"host": 1.5}

    @pytest.mark.parametrize("spec", [
        "", "dram", "dram=", "dram=abc", "dram=-1", "dram=0",
        "dram=inf", "warp=2x",
    ])
    def test_parse_scales_rejects(self, spec):
        with pytest.raises(CritpathError):
            parse_scales(spec)

    def test_whatif_configs_realise_scalings(self):
        machine, board = MachineConfig(), BoardConfig.hardware()
        scaled, _ = whatif_configs(machine, board, {"dram": 2.0})
        assert (scaled.dram.clock_ratio
                == machine.dram.clock_ratio // 2)
        scaled, _ = whatif_configs(machine, board, {"ags": 3.0})
        assert scaled.num_ags == 3
        _, faster = whatif_configs(machine, board, {"host": 2.0})
        assert faster.host_mips == pytest.approx(
            board.host_mips * 2.0)

    def test_whatif_configs_reject_unrealisable(self):
        machine, board = MachineConfig(), BoardConfig.hardware()
        with pytest.raises(CritpathError):
            whatif_configs(machine, board,
                           {"dram": machine.dram.clock_ratio * 2.0})
        with pytest.raises(CritpathError):
            whatif_configs(machine, board, {"ags": 2.5})


class TestGraphProperties:
    @settings(max_examples=10, deadline=None)
    @given(random_program(), st.sampled_from(sorted(_BOARDS)))
    def test_random_program_path_invariants(self, program,
                                            board_name):
        """On arbitrary well-formed stream programs the critical path
        is acyclic, starts at the host-issue origin, ends at the last
        retiring event, and its length equals the run's cycles."""
        image = program.build()
        result = _run(image, _BOARDS[board_name])
        graph = result.event_graph
        assert graph is not None
        # Acyclic by construction: every edge goes forward in id order.
        assert all(edge.src < edge.dst for edge in graph.edges)
        report = build_critpath(result)
        validate_critpath(report)
        segments = report["segments"]
        first, last = segments[0], segments[-1]
        assert first["src"]["kind"] == "source"
        assert first["src"]["t"] == 0.0
        assert last["dst"]["kind"] == "end"
        assert last["dst"]["t"] == pytest.approx(
            result.metrics.total_cycles)
        for before, after in zip(segments, segments[1:]):
            assert before["dst"]["id"] == after["src"]["id"]
        total = result.metrics.total_cycles
        assert report["path_cycles"] == pytest.approx(
            total, abs=1e-6 * max(total, 1.0))
        assert report["checks"]["conservation"]["ok"]


# ----------------------------------------------------------------------
# The columnar graph against the per-edge object algorithm it replaced.
# ----------------------------------------------------------------------
#: Small integer-ish values, so exact arrival-time ties are common.
_TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 8.0])
#: Node time steps: mostly zero, so many sources share a time.
_STEPS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _edge_detail(draw, type):
    if type == EDGE_KERNEL_EXEC and draw(st.booleans()):
        keys = draw(st.sets(st.sampled_from(
            ["operations", "main_loop_overhead", "non_main_loop",
             "stall", "microcode"])))
        return {"kernel": "k", **{key: draw(_TIMES) for key in keys}}
    if type == EDGE_MEM_STREAM:
        detail = {key: draw(_TIMES) for key in (
            "startup", "dram_cycles", "ag_cycles", "controller_cycles")}
        if draw(st.booleans()):
            detail["lane"] = draw(st.integers(0, 3))
        return detail
    return {}


@st.composite
def event_graphs(draw):
    """Random creation-ordered DAGs: every node but the source has an
    incoming edge, some edges are exact duplicates, and some are only
    recorded after every node exists (as retire edges are)."""
    graph = EventGraph(meta={
        "num_ags": float(draw(st.integers(1, 4))),
        "host_issue_cycles": draw(_TIMES),
    })
    graph.add_node("source", -1, 0.0, "start")
    size = draw(st.integers(1, 24))
    # A few edge types per graph, so equal type codes tie often.
    palette = draw(st.lists(st.sampled_from(EDGE_TYPES), min_size=1,
                            max_size=4))
    deferred = []
    t = 0.0
    for node in range(1, size + 1):
        t += draw(_STEPS)
        if node == size:
            graph.add_node("end", -1, t, "end")
        else:
            graph.add_node(draw(st.sampled_from(NODE_KINDS[1:4])),
                           draw(st.integers(0, 9)), t, f"op{node}")
        for _ in range(draw(st.integers(1, 3))):
            type = draw(st.sampled_from(palette))
            edge = (draw(st.integers(0, node - 1)), node, type,
                    draw(_TIMES), draw(_edge_detail(type)))
            copies = 2 if draw(st.integers(0, 4)) == 0 else 1
            if draw(st.booleans()):
                deferred.extend([edge] * copies)
            else:
                for _ in range(copies):
                    graph.add_edge(*edge[:4], **edge[4])
    for src, dst, type, weight, detail in deferred:
        graph.add_edge(src, dst, type, weight, **detail)
    if draw(st.booleans()):
        graph.meta["total_cycles"] = t
    return graph


#: The tie-break order of the object walk, most specific cause first.
_TIE_ORDER = (
    "kernel_exec", "mem_stream", "microcode_load", "host_op",
    "data_dep", "cluster_busy", "loader_busy", "ag_busy",
    "controller_issue", "resident", "host_dependency",
    "scoreboard_slot", "host_issue", "retire", "program_start")


def _reference_walk(graph):
    """The per-edge object walk the columnar one replaced: per node,
    ``max`` over its incoming edges (first wins a full tie), then
    one pass over every edge for slack."""
    nodes, edges = list(graph.nodes), list(graph.edges)
    incoming = [[] for _ in nodes]
    for index, edge in enumerate(edges):
        incoming[edge.dst].append(index)

    def choice_key(index):
        edge = edges[index]
        return (nodes[edge.src].t + edge.weight,
                -_TIE_ORDER.index(edge.type),
                nodes[edge.src].t, edge.src)

    path = []
    current = graph.end.ident
    while current != 0:
        best = max(incoming[current], key=choice_key)
        path.append(best)
        current = edges[best].src
    path.reverse()

    leaves, edge_types, memory_driver, elapsed_cycles = {}, {}, {}, []
    for index in path:
        edge = edges[index]
        elapsed = nodes[edge.dst].t - nodes[edge.src].t
        elapsed_cycles.append(elapsed)
        for leaf, cycles in critpath._edge_leaves(
                edge.type, edge.weight, edge.detail, elapsed).items():
            leaves[leaf] = leaves.get(leaf, 0.0) + cycles
        edge_types[edge.type] = edge_types.get(edge.type, 0.0) + elapsed
        if edge.type == EDGE_MEM_STREAM and elapsed > 0.0:
            detail = edge.detail
            startup = min(float(detail.get("startup", 0.0)), elapsed)
            drivers = (
                ("dram", float(detail.get("dram_cycles", 0.0))),
                ("ag", float(detail.get("ag_cycles", 0.0))),
                ("controller_port",
                 float(detail.get("controller_cycles", 0.0))))
            driver = max(drivers, key=lambda item: item[1])[0]
            memory_driver["startup"] = (
                memory_driver.get("startup", 0.0) + startup)
            memory_driver[driver] = (
                memory_driver.get(driver, 0.0) + elapsed - startup)

    on_path = set(path)
    slack, resource_edges = {}, {}
    for index, edge in enumerate(edges):
        resource = critpath._edge_resource(edge.type, edge.detail)
        if resource is None:
            continue
        local = 0.0
        if index not in on_path:
            local = nodes[edge.dst].t - (nodes[edge.src].t + edge.weight)
            if local < 0.0:
                local = 0.0
        if resource not in slack or local < slack[resource]:
            slack[resource] = local
        resource_edges[resource] = resource_edges.get(resource, 0) + 1

    by_component = {}
    for leaf, cycles in leaves.items():
        component = leaf.split(".", 1)[0]
        by_component[component] = by_component.get(component, 0.0) + cycles
    total = graph.end.t
    resources = {name: {
        "critical_cycles": by_component.get(name, 0.0),
        "share": (by_component.get(name, 0.0) / total
                  if total > 0 else 0.0),
        "min_slack": slack.get(name, 0.0),
        "edges": resource_edges.get(name, 0),
    } for name in sorted(set(by_component) | set(slack))}
    return critpath._Walk(
        path=path,
        path_cycles=sum(elapsed_cycles),
        leaves={key: leaves[key] for key in sorted(
            leaves, key=lambda key: (-leaves[key], key))},
        edge_types={key: edge_types[key] for key in sorted(
            edge_types, key=lambda key: (-edge_types[key], key))},
        memory_driver={key: memory_driver[key]
                       for key in sorted(memory_driver)},
        resources=resources,
        ranked=sorted(
            (name for name in resources if name != "unattributed"),
            key=lambda name: (-resources[name]["critical_cycles"],
                              name)),
    )


def _reference_weight(graph, scales, edge):
    """One edge's scaled weight as the per-edge projector computed
    it; ``None`` drops the edge."""
    num_ags = int(graph.meta.get("num_ags", 0))
    host_rate = float(graph.meta.get("host_issue_cycles", 0.0))
    dram = scales.get("dram", 1.0)
    microcode = scales.get("microcode", 1.0)
    w, detail = edge.weight, edge.detail
    if edge.type == critpath.EDGE_AG_BUSY:
        return None if scales.get("ags", 0.0) > num_ags > 0 else w
    if edge.type == critpath.EDGE_HOST_ISSUE:
        host = scales.get("host", 1.0)
        if host_rate > 0.0:
            pure = min(w, host_rate)
            return pure / host + (w - pure)
        return w / host
    if edge.type == critpath.EDGE_MICROCODE_LOAD:
        return w / microcode
    if edge.type == EDGE_KERNEL_EXEC:
        busy = (float(detail.get("operations", 0.0))
                + float(detail.get("main_loop_overhead", 0.0))
                + float(detail.get("non_main_loop", 0.0)))
        stall = float(detail.get("stall", 0.0))
        load = float(detail.get("microcode", 0.0))
        rest = max(w - (busy + stall + load), 0.0)
        return (busy / scales.get("clusters", 1.0)
                + stall / scales.get("srf", 1.0) + load / microcode
                + rest)
    if edge.type == EDGE_MEM_STREAM and dram != 1.0:
        startup = min(float(detail.get("startup", 0.0)), w)
        d = float(detail.get("dram_cycles", 0.0))
        a = float(detail.get("ag_cycles", 0.0))
        c = float(detail.get("controller_cycles", 0.0))
        base = max(d, a, c)
        if base <= 0.0:
            return w
        return startup + (w - startup) * max(d / dram, a, c / dram) / base
    return w


def _reference_replay(graph, weight):
    """Forward replay node by node over per-node incoming lists."""
    nodes, edges = list(graph.nodes), list(graph.edges)
    incoming = [[] for _ in nodes]
    for edge in edges:
        incoming[edge.dst].append(edge)
    times = [0.0] * len(nodes)
    for node in nodes:
        best = 0.0
        for edge in incoming[node.ident]:
            w = weight(edge)
            if w is not None and times[edge.src] + w > best:
                best = times[edge.src] + w
        times[node.ident] = best
    return times[-1]


_SCALES = st.dictionaries(
    st.sampled_from(KNOWN_SCALES),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), min_size=1)


class TestColumnarWalk:
    @settings(max_examples=200, deadline=None)
    @given(event_graphs())
    def test_walk_matches_the_object_walk(self, graph):
        walk, reference = critpath._walk(graph), _reference_walk(graph)
        assert walk.path == reference.path
        for name in ("path_cycles", "leaves", "edge_types",
                     "memory_driver", "resources", "ranked"):
            assert repr(getattr(walk, name)) == repr(
                getattr(reference, name)), name

    @settings(max_examples=200, deadline=None)
    @given(event_graphs())
    def test_segment_leaves_match_the_per_edge_split(self, graph):
        """Every segment's leaves are the name-sorted per-edge split of
        its edge, zero-valued present leaves included."""
        walk = critpath._walk(graph)
        segments = critpath._segments(graph, walk)
        assert len(segments) == len(walk.path)
        for segment, index in zip(segments, walk.path):
            edge = graph.edge(index)
            elapsed = graph.node_t[edge.dst] - graph.node_t[edge.src]
            leaves = critpath._edge_leaves(edge.type, edge.weight,
                                           edge.detail, elapsed)
            assert repr(segment["leaves"]) == repr(
                {leaf: leaves[leaf] for leaf in sorted(leaves)})
            assert (segment["src"]["id"], segment["dst"]["id"],
                    segment["type"], repr(segment["weight"]),
                    repr(segment["elapsed"])) == (
                edge.src, edge.dst, edge.type, repr(edge.weight),
                repr(elapsed))

    @pytest.mark.parametrize("app, sizes, board", [
        ("mpeg", {"frames": 2, "width": 192, "seed": 3}, "hardware"),
        ("rtsl", {"triangles": 160, "seed": 3}, "isim"),
    ])
    def test_recorded_graphs_match_the_object_walk(self, app, sizes,
                                                   board):
        """Recorded graphs round where the drawn ones do not: summing
        a resource's leaves in name order, or a leaf's cycles
        pairwise, changes the last bit of these runs' reports."""
        with Session(config=SessionConfig(cache=False,
                                          backend="auto")) as session:
            result = session.run(RunRequest.for_app(
                app, sizes=sizes, board=BOARDS[board]()))
        graph = result.event_graph
        walk, reference = critpath._walk(graph), _reference_walk(graph)
        assert walk.path == reference.path
        for name in ("path_cycles", "leaves", "edge_types",
                     "memory_driver", "resources", "ranked"):
            assert repr(getattr(walk, name)) == repr(
                getattr(reference, name)), name
        for segment, index in zip(critpath._segments(graph, walk),
                                  walk.path):
            edge = graph.edge(index)
            leaves = critpath._edge_leaves(edge.type, edge.weight,
                                           edge.detail, segment["elapsed"])
            assert repr(segment["leaves"]) == repr(
                {leaf: leaves[leaf] for leaf in sorted(leaves)})

    @settings(max_examples=200, deadline=None)
    @given(event_graphs(), _SCALES)
    def test_projection_matches_the_object_replay(self, graph, scales):
        projection = project_whatif(graph, scales)
        assert repr(projection["replay_cycles"]) == repr(
            _reference_replay(graph, lambda edge: edge.weight))
        assert repr(projection["scaled_replay_cycles"]) == repr(
            _reference_replay(graph, lambda edge: _reference_weight(
                graph, scales, edge)))


class TestEventGraph:
    def _graph(self):
        graph = EventGraph(meta={"num_ags": 2.0})
        graph.add_node("source", -1, 0.0, "start")
        graph.add_node("begin", 3, 1.5, "load")
        graph.add_node("end", -1, 4, "end")
        graph.add_edge(0, 1, "resident", 1.5)
        graph.add_edge(1, 2, "mem_stream", 2.5, lane=1, startup=0.5)
        graph.add_edge(0, 2, "retire", 0)
        return graph

    def test_views_return_what_was_recorded(self):
        graph = self._graph()
        assert list(graph.nodes) == [
            GraphNode(0, "source", -1, 0.0, "start"),
            GraphNode(1, "begin", 3, 1.5, "load"),
            GraphNode(2, "end", -1, 4.0, "end")]
        assert list(graph.edges) == [
            GraphEdge(0, 1, "resident", 1.5, {}),
            GraphEdge(1, 2, "mem_stream", 2.5,
                      {"lane": 1, "startup": 0.5}),
            GraphEdge(0, 2, "retire", 0.0, {})]
        assert graph.nodes[-1] == graph.end
        assert graph.edges[1:] == list(graph.edges)[1:]
        assert len(graph.nodes) == 3 and len(graph.edges) == 3
        assert type(graph.nodes[2].t) is float
        assert graph.edge_detail == {1: {"lane": 1, "startup": 0.5}}
        with pytest.raises(IndexError):
            graph.edges[3]

    def test_views_are_read_only(self):
        graph = self._graph()
        graph.edges[1].detail["lane"] = 9
        assert graph.edges[1].detail["lane"] == 1
        with pytest.raises(AttributeError):
            graph.nodes.append(graph.nodes[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.edges[0].weight = 9.0

    def test_add_edge_rejects_unknown_type_and_back_edge(self):
        graph = self._graph()
        with pytest.raises(CritpathError, match="unknown edge type"):
            graph.add_edge(0, 1, "teleport", 1.0)
        for src, dst in ((1, 1), (2, 1), (-1, 1), (0, 3)):
            with pytest.raises(CritpathError, match="creation order"):
                graph.add_edge(src, dst, "resident", 1.0)
        with pytest.raises(CritpathError, match="unknown node kind"):
            graph.add_node("halfway", 0, 1.0)
        assert len(graph.edges) == 3 and len(graph.nodes) == 3

    def test_pickle_is_raw_columns_and_stable_across_a_walk(self):
        graph = self._graph()
        before = pickle.dumps(graph)
        critpath_summary(SimpleNamespace(event_graph=graph))
        assert graph._walk_memo is not None
        assert pickle.dumps(graph) == before
        copy = pickle.loads(before)
        assert copy == graph and copy._walk_memo is None
        assert copy.node_t.typecode == "d"
        assert copy.edge_type.tobytes() == graph.edge_type.tobytes()
        # A walk holds no buffer of the columns: recording resumes.
        graph.add_node("end", -1, 5.0, "end")
        graph.add_edge(2, 3, "retire", 0.0)


class TestDiffIntegration:
    def test_identical_profiles_report_no_movement(
            self, critpath_matrix):
        result, _ = critpath_matrix["DEPTH", "hardware"]
        profile = build_profile(result)
        diff = diff_profiles(profile, profile)
        assert diff["worst_regression"] is None
        critical_path = diff["critical_path"]
        assert critical_path is not None
        assert critical_path["moved"] is False
        assert "critical path: unchanged" in render_diff(diff)

    def test_slow_host_names_the_regressing_leaf(
            self, critpath_matrix):
        result, _ = critpath_matrix["DEPTH", "hardware"]
        slow = _run_bundle(SMALL_BUILDS["DEPTH"](),
                       board=BoardConfig.hardware(host_mips=0.5))
        diff = diff_profiles(build_profile(result),
                             build_profile(slow))
        worst = diff["worst_regression"]
        assert worst is not None
        assert worst["delta"] > 0
        assert (".busy." in worst["path"]
                or ".stall." in worst["path"])
        text = render_diff(diff)
        assert "worst regression:" in text
        assert "critical path:" in text


class TestCli:
    def test_critpath_cli_writes_valid_report(self, tmp_path,
                                              capsys):
        out = tmp_path / "critpath.json"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert cli_main(["critpath", "depth",
                         "--out", str(out)] + cache) == 0
        assert "binding resource" in capsys.readouterr().out
        # Second invocation hits the result cache and prints JSON.
        assert cli_main(["critpath", "depth", "--json"] + cache) == 0
        printed = json.loads(capsys.readouterr().out)
        document = json.loads(out.read_text())
        for report in (printed, document):
            validate_critpath(report)
            assert report["checks"]["conservation"]["ok"]
        assert (json.dumps(printed, sort_keys=True)
                == json.dumps(document, sort_keys=True))

    def test_whatif_cli_predicts(self, tmp_path, capsys):
        assert cli_main(["whatif", "depth", "--scale", "dram=2x",
                         "--json", "--cache-dir",
                         str(tmp_path / "cache")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == WHATIF_SCHEMA
        assert report["validated"] is False
        assert report["predicted_speedup"] >= 1.0 - 1e-6

    def test_cli_rejects_bad_inputs(self, tmp_path):
        assert cli_main(["whatif", "depth",
                         "--scale", "warp=9x"]) == 2
        assert cli_main(["critpath", "doom"]) == 2

    def test_perf_gate_emits_bench_critpath(self, tmp_path):
        critpath_out = tmp_path / "BENCH_critpath.json"
        argv = ["perf", "--apps", "depth", "--boards", "hardware",
                "--cache-dir", str(tmp_path / "cache"),
                "--history", str(tmp_path / "history.jsonl"),
                "--out", str(tmp_path / "BENCH_profile.json"),
                "--critpath-out", str(critpath_out)]
        assert cli_main(argv) == 0
        document = json.loads(critpath_out.read_text())
        assert document["schema"] == "repro.bench-critpath/1"
        row = document["apps"]["DEPTH"]
        assert row["conservation_ok"] is True
        assert row["path_cycles"] > 0
        assert 1 <= len(row["binding_resources"]) <= 3
