"""Derive once, read many.

The engine derives a completed run's profile and critical-path walk
where the run executed (in process, or in the pool worker), stores
them with the result-cache entry, and a hit reads them back: no
profile fold and no walk on the warm path, and every report
byte-identical to the cold run's.  A graph the walk rejects, or a
graph that changed after the derivation, falls back to deriving on
demand.
"""

import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest

from repro.core import BoardConfig
from repro.engine import RunRequest, Session, SessionConfig
from repro.engine.cache import ResultCache
from repro.obs import critpath, profile
from repro.obs.critpath import CritpathError, build_critpath, critpath_summary
from repro.obs.history import history_entry
from repro.obs.profile import build_profile

SMALL_SIZES = {
    "depth": {"height": 24, "width": 64, "disparities": 4},
    "mpeg": {"height": 48, "width": 128, "frames": 2},
    "qrd": {"rows": 64, "cols": 32, "block_columns": 8},
    "rtsl": {"triangles": 60, "width": 64, "height": 48},
}

BOARDS = {"hardware": BoardConfig.hardware, "isim": BoardConfig.isim}

#: History fields that record the delivery, not the run.
DELIVERY_FIELDS = ("cache", "wall_time_s")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    from repro.serve import ExperimentService, ServiceConfig

    return ExperimentService(ServiceConfig(
        data_dir=str(tmp_path_factory.mktemp("serve")),
        journal_fsync=False))


def reports(result, service) -> dict[str, str]:
    """Every report read from a result, as JSON text."""
    entry = history_entry(result)
    for name in DELIVERY_FIELDS:
        entry.pop(name)
    return {name: json.dumps(document) for name, document in (
        ("profile", build_profile(result)),
        ("critpath", build_critpath(result)),
        ("summary", critpath_summary(result)),
        ("history", entry),
        ("artifact", service._build_artifact(
            None, SimpleNamespace(result=result), None)),
    )}


def refuse(*args, **kwargs):
    raise AssertionError("a cache hit derived its reports again")


@pytest.fixture
def counted(monkeypatch):
    """Calls of the walk and of the profile's component fold."""
    calls = {"walk": 0, "components": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(critpath, "_walk",
                        counting("walk", critpath._walk))
    monkeypatch.setattr(profile, "profile_components",
                        counting("components",
                                 profile.profile_components))
    return calls


@pytest.mark.parametrize("board", sorted(BOARDS))
@pytest.mark.parametrize("app", sorted(SMALL_SIZES))
def test_a_hit_derives_nothing(app, board, tmp_path, monkeypatch,
                               service):
    request = RunRequest.for_app(app, sizes=SMALL_SIZES[app],
                                 board=BOARDS[board]())
    config = SessionConfig(backend="auto", cache_dir=tmp_path)
    with Session(config=config) as session:
        cold = session.run(request)
    assert cold.manifest.cache == "miss"
    expected = reports(cold, service)

    for module, name in ((critpath, "_walk"),
                         (profile, "profile_components"),
                         (profile, "_kernel_rollup"),
                         (profile, "_stream_op_rollup")):
        monkeypatch.setattr(module, name, refuse)
    with Session(config=config) as session:
        hit = session.run(request)
    assert hit.manifest.cache == "hit"
    assert reports(hit, service) == expected


def test_each_read_is_a_fresh_copy(tmp_path):
    with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        result = session.run(RunRequest.for_app(
            "rtsl", sizes=SMALL_SIZES["rtsl"]))
    first = build_profile(result)
    expected = json.dumps(first)
    first["components"].clear()
    first["critpath"]["top_resources"].clear()
    assert json.dumps(build_profile(result)) == expected


def test_entry_bytes_do_not_depend_on_where_the_run_derived(
        tmp_path, monkeypatch):
    """A ``jobs=2`` miss derives in the pool worker, a ``jobs=1`` miss
    in process; both store the same derivations and the same entry.

    The manifest's wall-clock fields are pinned (pool workers fork
    after the patch).  The derivations are compared as stored; whole
    entries after one pickle round trip.  Unpickling interns
    instance-attribute names, which splits strings a fresh run
    shares, so an outcome that crossed from a worker has never
    pickled to the same bytes as the in-process one (at the parent
    commit too); one round trip brings both to that form.
    """
    from repro.core import vector
    from repro.obs import manifest

    monkeypatch.setattr(manifest, "time", SimpleNamespace(
        strftime=lambda fmt: "2026-01-01T00:00:00+0000"))
    monkeypatch.setattr(vector, "time", SimpleNamespace(
        perf_counter=lambda: 0.0))
    request = RunRequest.for_app("qrd", sizes=SMALL_SIZES["qrd"])
    outcomes = []
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        with Session(config=SessionConfig(
                jobs=jobs, backend="vector", cache_dir=root)) as session:
            handle = session.submit(request)
            assert handle.result().derived is not None
            assert handle.cache_status == "miss"
        entry = ResultCache(root)._object_path(handle.digest).read_bytes()
        outcomes.append(pickle.loads(entry.partition(b"\n")[2]))
    one, two = (outcome.result.derived for outcome in outcomes)
    assert one.__getstate__() == two.__getstate__()
    assert pickle.dumps(outcomes[0]) == pickle.dumps(outcomes[1])


def test_a_graph_the_walk_rejects_is_stored_underived(tmp_path,
                                                      monkeypatch):
    request = RunRequest.for_app("depth", sizes=SMALL_SIZES["depth"])
    config = SessionConfig(cache_dir=tmp_path)
    with Session(config=SessionConfig(cache=False)) as session:
        expected = json.dumps(build_critpath(session.run(request)))

    def reject(graph):
        raise CritpathError("the DAG is disconnected")

    monkeypatch.setattr(critpath, "_walk", reject)
    with Session(config=config) as session:
        handle = session.submit(request)
        cold = handle.result()
    assert handle.cache_status == "miss"
    assert cold.derived is None
    assert ResultCache(tmp_path)._object_path(handle.digest).exists()
    with Session(config=config) as session:
        hit = session.run(request)
    assert hit.manifest.cache == "hit" and hit.derived is None
    with pytest.raises(CritpathError):
        build_profile(hit)

    monkeypatch.undo()
    with Session(config=config) as session:
        hit = session.run(request)
    assert json.dumps(build_critpath(hit)) == expected


def test_a_changed_graph_is_derived_afresh(tmp_path, counted):
    with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        result = session.run(RunRequest.for_app(
            "qrd", sizes=SMALL_SIZES["qrd"]))
    assert counted == {"walk": 1, "components": 1}
    before = build_profile(result)
    build_critpath(result)
    assert counted == {"walk": 1, "components": 1}

    # Another graph: replace resets what was derived.
    other = dataclasses.replace(result, event_graph=pickle.loads(
        pickle.dumps(result.event_graph)))
    assert other.derived is None
    assert build_profile(other) == before
    assert counted == {"walk": 2, "components": 2}

    # A longer graph: the stored shape no longer matches.
    graph = result.event_graph
    end = graph.end
    node = graph.add_node("end", -1, end.t + 5.0)
    graph.add_edge(end.ident, node, "retire", 0.0)
    after = build_profile(result)
    assert counted == {"walk": 3, "components": 3}
    assert after["critpath"]["path_cycles"] == pytest.approx(
        before["critpath"]["path_cycles"] + 5.0)
    assert build_critpath(result)["path_cycles"] == after["critpath"][
        "path_cycles"]
    assert counted["walk"] == 3
