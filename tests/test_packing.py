"""Packed result parts: a cache hit decodes only what its reports read.

The event graph's node labels and edge details, the kernel invocation
records and the instruction trace travel as bytes inside a result's
pickle (:mod:`repro.core.packing`).  These tests pin that the profile
and critical path of a disk hit or a held result decode none of them
(the stored walk holds every row a report prints), that each part
read later equals the live run's, that an append to an unpickled
graph keeps its shape exact, that concurrent first reads agree, and
that a warm ``repro profile`` imports no scipy.
"""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from repro.analysis import render_timeline
from repro.core.packing import undecoded
from repro.engine import RunRequest, Session, SessionConfig
from repro.obs.critpath import (
    build_critpath,
    build_whatif,
    critpath_summary,
)
from repro.obs.profile import build_profile

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Each app at its default size and at the first shape of the
#: benchmark's cold sweep.
SHAPES = {
    "depth": ({}, {"height": 24}),
    "mpeg": ({}, {"frames": 2, "height": 64}),
    "qrd": ({}, {"rows": 96, "cols": 48}),
    "rtsl": ({}, {"triangles": 240}),
}
CELLS = [(app, board, sizes) for app, shapes in SHAPES.items()
         for sizes in shapes for board in ("hardware", "isim")]


def _request(app, board, sizes):
    from repro.core.config import BoardConfig

    return RunRequest.for_app(app, sizes=sizes,
                              board=getattr(BoardConfig, board)())


def _parts(result):
    """What is still packed of ``result``, by part."""
    return (undecoded(result), undecoded(result.metrics),
            undecoded(result.event_graph))


#: The event graph's columns of Python objects.
GRAPH_PARTS = ("node_label", "edge_detail")
ALL_PACKED = (("trace",), ("kernel_invocations",), GRAPH_PARTS)


def _reports(result):
    """What a hit's reader touches: both reports, and what perfbench
    reads after its timed window."""
    reports = (json.dumps(build_profile(result), sort_keys=True),
               json.dumps(build_critpath(result), sort_keys=True))
    graph = result.event_graph
    assert (len(graph.nodes), len(graph.edges)) == graph.shape
    assert sum(result.instruction_histogram.values()) > 0
    return reports


@pytest.mark.parametrize("app,board,sizes", CELLS)
def test_a_disk_hit_decodes_no_part(tmp_path, app, board, sizes):
    """``session.run`` (which stamps the hit), both reports, the graph's
    views' lengths and shape and the histogram leave every part
    packed; read afterwards, each part equals the live run's, and so
    do a what-if projection and a timeline from the hit."""
    request = _request(app, board, sizes)
    config = SessionConfig(cache_dir=tmp_path)
    with Session(config=config) as session:
        live = session.run(request)
    with Session(config=config) as session:
        hit = session.run(request)
    assert hit.manifest.cache == "hit"
    assert _reports(hit) == _reports(live)
    assert _parts(hit) == ALL_PACKED

    assert render_timeline(hit) == render_timeline(live)
    scales = {"dram": 2.0}
    assert build_whatif(hit, scales) == build_whatif(live, scales)
    assert hit.event_graph.edge_detail == live.event_graph.edge_detail
    assert hit.event_graph == live.event_graph
    assert (hit.metrics.kernel_invocations
            == live.metrics.kernel_invocations)
    assert hit.trace == live.trace
    assert _parts(hit) == ((), (), ())


@pytest.mark.parametrize("app,sizes", [
    (app, sizes) for app in ("depth", "qrd") for sizes in SHAPES[app]])
def test_a_held_result_decodes_no_part(tmp_path, app, sizes):
    """A later seed of a seen DEPTH or QRD shape is served the held
    result: its delivery and reports decode nothing either."""
    with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        live = session.run(RunRequest.for_app(
            app, sizes={**sizes, "seed": 1}))
        held = session.run(RunRequest.for_app(
            app, sizes={**sizes, "seed": 2}))
    assert held.manifest.cache == "miss"
    assert held.manifest.request_digest != live.manifest.request_digest
    _reports(held)
    assert _parts(held) == ALL_PACKED
    assert held.trace == live.trace


def test_an_append_to_an_unpickled_graph_keeps_its_shape(tmp_path):
    """An unpickled graph's shape follows its appends: the stored walk
    no longer applies, so the next report walks the longer graph
    afresh."""
    request = RunRequest.for_app("depth", sizes={"height": 16,
                                                 "width": 64})
    config = SessionConfig(cache_dir=tmp_path)
    with Session(config=config) as session:
        session.run(request)
    with Session(config=config) as session:
        hit = session.run(request)
    graph = hit.event_graph
    nodes, edges = graph.shape
    before = critpath_summary(hit)["path_cycles"]
    assert undecoded(graph) == GRAPH_PARTS

    # A partial decode leaves the shape as it was.
    assert graph.node_label[-1] == "end"
    assert undecoded(graph) == ("edge_detail",)
    assert graph.shape == (nodes, edges)
    end = graph.end
    node = graph.add_node("end", -1, end.t + 5.0)
    assert graph.shape == (nodes + 1, edges)
    graph.add_edge(end.ident, node, "retire", 0.0)
    assert graph.shape == (nodes + 1, edges + 1)
    assert (len(graph.nodes), len(graph.edges)) == graph.shape
    report = build_critpath(hit)
    assert report["graph"] == {"nodes": nodes + 1, "edges": edges + 1}
    assert report["path_cycles"] == pytest.approx(before + 5.0)
    assert build_profile(hit)["critpath"]["path_cycles"] == \
        report["path_cycles"]

    again = pickle.loads(pickle.dumps(graph))
    assert undecoded(again) == GRAPH_PARTS
    assert again.shape == (nodes + 1, edges + 1)
    assert again == graph


@pytest.fixture(scope="module")
def small_result():
    request = RunRequest.for_app("depth", sizes={"height": 16,
                                                 "width": 64})
    with Session(config=SessionConfig(cache=False)) as session:
        return session.run(request)


def _part_bytes(result):
    """Each part's bytes in the pickle of ``result``."""
    return (result.__getstate__()["trace"],
            result.metrics.__getstate__()["kernel_invocations"],
            result.event_graph.__getstate__()["edge_detail"])


def test_undecoded_parts_pickle_through_unchanged(small_result):
    """Pickling a result passes the bytes of a part never decoded
    through as they are (the same object each time, also from a
    copy); a decoded part pickles to equal bytes, and an assigned
    part wins over its bytes."""
    parts = _part_bytes(small_result)
    packed = pickle.loads(pickle.dumps(small_result))
    assert _parts(packed) == ALL_PACKED
    assert _part_bytes(packed) == parts
    for again in (_part_bytes(packed), _part_bytes(copy.copy(packed))):
        assert all(new is old for new, old
                   in zip(again, _part_bytes(packed)))
    assert _parts(packed) == ALL_PACKED
    assert packed.metrics == small_result.metrics
    assert packed.trace == small_result.trace
    assert packed.event_graph == small_result.event_graph
    assert _parts(packed) == ((), (), ())
    assert _part_bytes(packed) == parts

    packed = pickle.loads(pickle.dumps(small_result))
    packed.metrics.kernel_invocations = []
    assert pickle.loads(pickle.dumps(packed)).metrics \
        .kernel_invocations == []


def test_graph_equality_compares_decoded_values(small_result):
    """A packed graph and a decoded graph of the same run are equal,
    either way round; a changed edge detail is not."""
    graph = small_result.event_graph
    packed = pickle.loads(pickle.dumps(graph))
    assert undecoded(packed) == GRAPH_PARTS
    assert packed == graph
    assert graph == pickle.loads(pickle.dumps(graph))

    changed = pickle.loads(pickle.dumps(graph))
    edge = next(iter(changed.edge_detail))
    changed.edge_detail[edge] = {**changed.edge_detail[edge], "x": 1}
    assert changed != graph


def test_concurrent_first_reads_agree(small_result):
    """Threads reading a packed part for the first time, all at once,
    get the same object, equal to the live run's, and none raises."""
    getters = {
        "trace": lambda result: result.trace,
        "kernel_invocations":
            lambda result: result.metrics.kernel_invocations,
        "edge_detail": lambda result: result.event_graph.edge_detail,
        "node_label": lambda result: result.event_graph.node_label,
    }
    expected = {name: get(small_result) for name, get in getters.items()}
    data = pickle.dumps(small_result)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            result = pickle.loads(data)
            readers = [name for name in getters for _ in range(3)]
            barrier = threading.Barrier(len(readers))
            seen: list = []
            errors: list = []

            def read(name):
                barrier.wait(timeout=30)
                try:
                    seen.append((name, getters[name](result)))
                except Exception as error:   # noqa: BLE001 - reported
                    errors.append(error)

            threads = [threading.Thread(target=read, args=(name,))
                       for name in readers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert len(seen) == len(readers)
            for name, value in seen:
                assert value == expected[name]
                assert value is getters[name](result)
    finally:
        sys.setswitchinterval(interval)


def test_warm_profile_imports_no_scipy(tmp_path):
    """A warm ``repro profile depth`` answers from the cache without
    importing scipy (only the DCT models need it)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               REPRO_CACHE_DIR=str(tmp_path))
    command = [sys.executable, "-X", "importtime", "-m", "repro",
               "profile", "depth"]
    cold = subprocess.run(command, env=env, capture_output=True,
                          text=True, check=True)
    warm = subprocess.run(command, env=env, capture_output=True,
                          text=True, check=True)
    assert warm.stdout == cold.stdout
    imported = [line.rpartition("|")[2].strip()
                for line in warm.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.engine.cache" in imported
    assert [name for name in imported
            if name.partition(".")[0] == "scipy"] == []
