"""Stream programs compute data only when something reads it.

A program records its calls; kernel models run when a stream's data,
a runtime scalar or the image's outputs is read, or when a kernel
without a length declaration is called.  These tests pin what that
must not change (the compiled image, every value read) and what it
buys (an engine run of DEPTH or QRD runs no kernel model).  The
engine builds a playback program once per shape and process, and
simulates it once per board and strictness; the tests at the end pin
that a held image, and a held result, serve every data seed and keep
none of their data.
"""

import contextlib
import gc
import json
import pickle
import random
import sys
import tempfile
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.session as session_module
import repro.streamc.program as program_module
from repro.core import BoardConfig
from repro.engine import (RunRequest, Session, SessionConfig, catalog,
                          engine_counts)
from repro.engine.cache import PackedResult, ResultCache
from repro.engine.catalog import APP_NAMES, build_app
from repro.faults import BUILTIN_PLANS
from repro.isa.kernel_ir import KernelBuilder
from repro.kernels.conv import CONV7X7
from repro.kernels.update2 import UPDATE2
from repro.memsys.address_gen import expand_pattern
from repro.memsys.patterns import strided, unit_stride
from repro.obs import Tracer, critpath
from repro.obs.critpath import CritpathError, build_critpath
from repro.obs.metrics import counter_count
from repro.obs.profile import build_profile
from repro.streamc.program import (KernelSpec, StreamProgram,
                                   StreamProgramError, same_words)
from repro.streamc.record import RecordError, save_record
from tests.test_compiled_image import _instruction

#: perfbench's cold-sweep shapes (perfbench/mix.py), plus the default.
SHAPES = {
    "depth": ({}, {"height": 24}, {"height": 32, "width": 160},
              {"height": 16, "width": 320}),
    "mpeg": ({}, {"frames": 2, "height": 64}, {"frames": 2, "width": 192},
             {"height": 48}),
    "qrd": ({}, {"rows": 96, "cols": 48}, {"rows": 128, "cols": 36},
            {"rows": 64, "cols": 48}),
    "rtsl": ({}, {"triangles": 240}, {"triangles": 160},
             {"width": 128, "height": 96}),
}


def _canonical(image) -> str:
    """test_compiled_image's canonical form, minus the outputs."""
    return json.dumps({
        "instructions": [_instruction(i) for i in image.instructions],
        "srf": [[r.stream, r.start, r.words, r.allocated_at, r.freed_at]
                for r in image.srf_allocations],
        "descriptors": [image.sdr_writes, image.sdr_references,
                        image.mar_writes, image.mar_references,
                        image.ucr_writes],
    }, sort_keys=True)


def _eager(monkeypatch):
    """Evaluate every call as it is recorded."""
    record = StreamProgram._record

    def record_and_evaluate(self, call):
        record(self, call)
        self._pending.evaluate()

    monkeypatch.setattr(StreamProgram, "_record", record_and_evaluate)


@pytest.mark.parametrize("app", APP_NAMES)
def test_unevaluated_image_equals_evaluated(app, monkeypatch):
    for shape in SHAPES[app]:
        for seed in (1, 2, 3):
            lazy = build_app(app, **shape, seed=seed).image
            with monkeypatch.context() as patch:
                _eager(patch)
                eager = build_app(app, **shape, seed=seed).image
            assert _canonical(lazy) == _canonical(eager), (shape, seed)
            assert sorted(lazy.outputs) == sorted(eager.outputs)
            for name in lazy.outputs:
                assert np.array_equal(lazy.outputs[name],
                                      eager.outputs[name]), name


@pytest.fixture
def no_models(monkeypatch):
    """Count kernel-model executions (every one goes through _apply)."""
    calls = []
    apply = program_module._apply

    def counting_apply(spec, inputs, params):
        calls.append(spec.name)
        return apply(spec, inputs, params)

    monkeypatch.setattr(program_module, "_apply", counting_apply)
    return calls


@pytest.mark.parametrize("app,sizes", [
    ("depth", {"height": 16, "width": 64}),
    ("qrd", {"rows": 32, "cols": 16}),
])
def test_engine_run_executes_no_kernel_model(app, sizes, no_models):
    with Session(config=SessionConfig(jobs=1, cache=False)) as session:
        result = session.run(RunRequest(app=app, sizes=sizes))
    assert result.cycles > 0
    assert no_models == []


def test_reading_outputs_runs_the_models(no_models):
    bundle = build_app("depth", height=16, width=64)
    assert no_models == []
    bundle.image.outputs["depth"]
    assert "sad7x7" in no_models


@pytest.mark.parametrize("app,sizes,playback", [
    ("depth", {"height": 16, "width": 64}, True),
    ("qrd", {"rows": 32, "cols": 16}, True),
    ("mpeg", {"frames": 2, "height": 32, "width": 64}, False),
    ("rtsl", {"triangles": 40}, False),
])
def test_playback_is_data_independence(app, sizes, playback):
    image = build_app(app, **sizes).image
    assert image.playback is playback
    if playback:
        assert json.loads(save_record(image))["name"] == image.name
    else:
        with pytest.raises(RecordError, match="data-dependent"):
            save_record(image)


def _double_spec(output_words=same_words):
    b = KernelBuilder("double")
    x = b.stream_input("x")
    c = b.param("c")
    b.stream_output("o", b.op("fmul", x, c))
    return KernelSpec("double", b.build(),
                      lambda ins, p: [p.get("c", 2.0) * ins[0]],
                      output_words=output_words)


def test_wrong_declaration_raises_on_evaluation():
    program = StreamProgram("p")
    data = program.array("d", np.arange(16, dtype=float))
    out = program.alloc_array("o", 17)
    spec = _double_spec(lambda words, params: [words[0] + 1])
    stream = program.kernel1(spec, [program.load(data)])
    program.store(stream, out)
    image = program.build()
    assert image.playback
    with pytest.raises(StreamProgramError, match="declaration"):
        image.outputs["o"]


def test_declaration_rejects_bad_shapes_at_the_call():
    program = StreamProgram("p")
    row = program.load(program.array("d", np.zeros(8)))
    with pytest.raises(ValueError, match="7 row streams"):
        program.kernel(CONV7X7, [row] * 3)
    with pytest.raises(ValueError, match="divide into columns"):
        program.kernel(UPDATE2, [row, row], params={"columns": 3})


def test_call_time_checks_keep_their_messages():
    program = StreamProgram("p")
    data = program.array("d", np.zeros(8))
    with pytest.raises(StreamProgramError,
                       match="load from 'd' out of bounds"):
        program.load(data, start=4, words=8)
    stream = program.load(data, words=4)
    with pytest.raises(StreamProgramError,
                       match="store to 'd' out of bounds"):
        program.store(stream, data, start=6)
    with pytest.raises(StreamProgramError, match="pattern covers"):
        program.store(stream, data, pattern=unit_stride(3))


def test_runtime_scalars_compare_by_identity():
    program = StreamProgram("p")
    data = program.array("d", np.arange(8, dtype=float))
    aux = program.load(program.array("aux", [3.0, 3.0]))
    first, second = program.scalar(aux, 0), program.scalar(aux, 1)
    stream = program.load(data)
    spec = _double_spec()
    outputs = [program.kernel1(spec, [stream], params={"c": scalar})
               for scalar in (first, second, second)]
    image = program.build()
    # Equal values, distinct scalars: two writes; the reuse: none.
    assert image.ucr_writes == 2
    assert image.playback
    assert np.array_equal(outputs[2].data, 3.0 * np.arange(8))


def test_equal_float_params_elide_the_write():
    program = StreamProgram("p")
    stream = program.load(program.array("d", np.arange(8, dtype=float)))
    for _ in range(3):
        program.kernel1(_double_spec(), [stream], params={"c": 3.0})
    assert program.build().ucr_writes == 1


def test_scalar_index_checked_at_the_call():
    program = StreamProgram("p")
    aux = program.load(program.array("aux", [1.0, 2.0]))
    with pytest.raises(StreamProgramError, match="out of range"):
        program.scalar(aux, 2)


def test_undeclared_kernel_forces_and_clears_playback():
    program = StreamProgram("p")
    stream = program.load(program.array("d", np.arange(8, dtype=float)))
    out = program.kernel1(_double_spec(output_words=None), [stream])
    assert out.words == 8
    assert program.build().playback is False


def test_an_unread_image_is_freed_by_reference_counting():
    """Streams reach their pending calls weakly, so an image that was
    never read leaves no cycle for the collector."""
    gc.collect()
    gc.disable()
    try:
        bundle = build_app("depth", height=16, width=64)
        pending = weakref.ref(bundle.image.outputs._pending)
        del bundle
        assert pending() is None
    finally:
        gc.enable()


def test_data_needs_the_program_or_an_image():
    def orphan():
        program = StreamProgram("p")
        return program.load(program.array("d", np.arange(4.0)))

    with pytest.raises(StreamProgramError, match="gone"):
        orphan().data


def test_bounds_check_matches_the_expanded_addresses():
    """The call-time check, computed from a strided pattern's ends,
    agrees with the addresses the pattern expands to."""
    rng = random.Random(0)
    array = StreamProgram("p").array("a", np.zeros(64))
    for _ in range(2000):
        pattern = strided(words=rng.randint(1, 40),
                          stride=rng.randint(-12, 12),
                          record_words=rng.randint(1, 6),
                          start=rng.randint(-8, 70))
        addresses = expand_pattern(pattern)
        inside = addresses.min() >= 0 and addresses.max() < 64
        try:
            program_module._check_bounds(array, pattern, "load from")
        except StreamProgramError:
            assert not inside, pattern
        else:
            assert inside, pattern


# ----------------------------------------------------------------------
# Build once per shape: the engine reuses a playback image across seeds.
# ----------------------------------------------------------------------
def _fresh_memo(budget=catalog.HELD_BYTES_BUDGET):
    """Run the enclosed code against an empty memo of ``budget``."""
    return mock.patch.object(catalog, "_memo", catalog.ShapeMemo(budget))


@contextlib.contextmanager
def _counting_builds():
    """Yield the list of sizes the memo's builds are called with."""
    builds = []
    build = catalog.build_app

    def counting_build(name, **sizes):
        builds.append(sizes)
        return build(name, **sizes)

    with mock.patch.object(catalog, "build_app", counting_build):
        yield builds


#: Shapes within each builder's limits, kept small (DEPTH needs a few
#: rows beyond its 7x7 window, and even widths; QRD needs cols <= rows).
_SHAPE_STRATEGIES = {
    "depth": st.fixed_dictionaries({
        "height": st.integers(12, 32),
        "width": st.integers(16, 80).map(lambda half: 2 * half),
        "disparities": st.integers(1, 8)}),
    "qrd": st.integers(8, 64).flatmap(lambda rows: st.fixed_dictionaries({
        "rows": st.just(rows),
        "cols": st.integers(2, rows),
        "block_columns": st.integers(1, 12)})),
    "mpeg": st.fixed_dictionaries({
        "frames": st.integers(1, 2),
        "height": st.sampled_from([16, 32]),
        "width": st.sampled_from([32, 64, 96])}),
    "rtsl": st.fixed_dictionaries({
        "triangles": st.integers(8, 64)}),
}


BOARDS = {"hardware": BoardConfig.hardware, "isim": BoardConfig.isim}


def _reports(result) -> tuple[str, str]:
    """The profile and critical-path JSON of ``result``, without the
    request digest."""
    documents = (build_profile(result), build_critpath(result))
    for document in documents:
        document.pop("request_digest")
    return tuple(json.dumps(document) for document in documents)


@settings(max_examples=12, deadline=None)
@given(app=st.sampled_from(APP_NAMES), data=st.data(),
       seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=2,
                      unique=True))
def test_memo_serves_every_seed_of_a_shape(app, data, seeds):
    """A builder's seed chooses only data placed in arrays: a memo
    hit at another seed is the image a fresh build compiles there,
    and the result held for the first seed is what an uncached
    event-backend run of that fresh build reports.  Data-dependent
    programs are never held, so each of their requests still builds
    and simulates."""
    shape = data.draw(_SHAPE_STRATEGIES[app], label="shape")
    board = BOARDS[data.draw(st.sampled_from(sorted(BOARDS)),
                             label="board")]()
    first, second = (RunRequest(app=app, sizes={**shape, "seed": seed},
                                board=board)
                     for seed in seeds)
    with _fresh_memo(), _counting_builds() as builds, \
            tempfile.TemporaryDirectory() as root, \
            Session(config=SessionConfig(cache_dir=root)) as session:
        held = catalog.bundle_for(first)
        served = catalog.bundle_for(second)
        fresh = build_app(app, **shape, seed=seeds[1])
        session.run(first)
        from_memo = session.run(second)
        reused = counter_count(session.metrics, "engine_runs_reused_total")
        if not fresh.image.playback:
            assert len(catalog._memo) == 0
            assert len(builds) == 4 and reused == 0
            return
        assert len(builds) == 1 and reused == 1
        assert served.image is held.image
        assert served.source == (app, second.sizes)
        assert _canonical(served.image) == _canonical(fresh.image)
    with Session(config=SessionConfig(backend="event",
                                      cache=False)) as reference:
        from_fresh = reference.run_bundle(fresh, board=board)
    assert repr(from_memo.metrics) == repr(from_fresh.metrics)
    assert _reports(from_memo) == _reports(from_fresh)


def test_served_outputs_raise_and_say_why():
    with _fresh_memo():
        bundle = catalog.bundle_for(
            RunRequest(app="depth", sizes={"height": 16, "width": 64}))
    assert bundle.oracle == {}
    assert "depth" in bundle.image.outputs
    assert sorted(bundle.image.outputs) == sorted(
        build_app("depth", height=16, width=64).image.outputs)
    with pytest.raises(StreamProgramError,
                       match="shared by every data seed"):
        bundle.image.outputs["depth"]


def test_the_first_build_is_freed_once_its_caller_drops_it(monkeypatch):
    """The memo keeps instructions only: the first build's pending
    calls and its arrays go with the caller's last reference."""
    kept = []
    build = catalog.build_app

    def keeping_build(name, **sizes):
        bundle = build(name, **sizes)
        kept.append(weakref.ref(bundle.image.outputs._pending))
        kept.extend(weakref.ref(array)
                    for array in bundle.image.outputs._arrays.values())
        return bundle

    monkeypatch.setattr(catalog, "build_app", keeping_build)
    gc.collect()
    gc.disable()
    try:
        with _fresh_memo():
            served = catalog.bundle_for(RunRequest(
                app="qrd", sizes={"rows": 32, "cols": 16, "seed": 4}))
            assert len(catalog._memo) == 1
            assert len(kept) > 1
            assert [ref() for ref in kept] == [None] * len(kept)
            assert served.image.instructions
    finally:
        gc.enable()


def test_held_bytes_stay_within_the_budget():
    rng = random.Random(0)
    memo = catalog.ShapeMemo(budget=1000)
    charged = {}
    for step in range(300):
        key = ("app", rng.randrange(12))
        if memo.get(key) is not None:
            continue
        size = rng.randrange(1, 1200)
        held = memo.put(key, object(), size)
        if size <= memo.budget:
            charged[key] = size
            assert memo.get(key) is held
        else:
            assert memo.get(key) is None
        live = {k: v for k, v in charged.items() if memo.get(k)}
        assert memo.held_bytes == sum(live.values()) <= memo.budget
    assert 1 < len(memo) < 12


def test_the_least_recently_used_goes_first():
    memo = catalog.ShapeMemo(budget=30)
    for key in "abc":
        memo.put(key, key, 10)
    memo.get("a")
    memo.put("d", "d", 10)
    assert [memo.get(key) for key in "abcd"] == ["a", None, "c", "d"]


def test_an_oversized_image_is_never_held():
    with _fresh_memo(budget=1000), _counting_builds() as builds:
        for seed in (1, 2):
            bundle = catalog.bundle_for(RunRequest(
                app="depth", sizes={"height": 16, "width": 64,
                                    "seed": seed}))
            assert len(catalog._memo) == 0
            assert catalog._memo.held_bytes == 0
    assert len(builds) == 2
    with pytest.raises(StreamProgramError):
        bundle.image.outputs["depth"]


def test_a_seed_the_builders_reject_still_raises():
    with _fresh_memo():
        catalog.bundle_for(RunRequest(app="depth",
                                      sizes={"height": 16, "width": 64}))
        with pytest.raises(ValueError):
            catalog.bundle_for(RunRequest(
                app="depth", sizes={"height": 16, "width": 64,
                                    "seed": -1}))


def test_memo_accounting_survives_contention():
    """Four threads (more than this suite's CI cores) race puts and
    gets with a short switch interval; a lost update would leave the
    held bytes off the sum of what is held."""
    memo = catalog.ShapeMemo(budget=5000)
    barrier = threading.Barrier(4)

    def hammer(seed):
        rng = random.Random(seed)
        barrier.wait(timeout=60)
        for _ in range(2000):
            key = rng.randrange(40)
            if memo.get(key) is None:
                memo.put(key, key, rng.randrange(100, 900))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for future in [pool.submit(hammer, seed) for seed in range(4)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    held = list(memo._held.items())
    assert memo.held_bytes == sum(size for _, (_, size) in held)
    assert memo.held_bytes <= memo.budget
    assert all(bundle == key for key, (bundle, _) in held)


def test_concurrent_submits_of_one_shape_agree(tmp_path):
    """Sessions on a few threads (as ``repro serve`` runs them) share
    the memo: equal results, one held image and one held result,
    consistent accounting."""
    threads = 4
    barrier = threading.Barrier(threads)

    def submit(seed):
        config = SessionConfig(cache_dir=str(tmp_path / str(seed)))
        with Session(config=config) as session:
            barrier.wait(timeout=60)
            return session.run(RunRequest(
                app="qrd", sizes={"rows": 48, "cols": 24, "seed": seed}))

    with _fresh_memo(), ThreadPoolExecutor(threads) as pool:
        results = list(pool.map(submit, range(threads)))
        (bundle, size), (packed, packed_size) = sorted(
            catalog._memo._held.values(),
            key=lambda entry: isinstance(entry[0], PackedResult))
        assert size == catalog._footprint(bundle.image)
        assert packed_size == len(packed.body)
        assert catalog._memo.held_bytes == size + packed_size
    assert len({repr(result.metrics) for result in results}) == 1


@pytest.mark.parametrize("app,sizes", [
    ("depth", {"height": 24, "width": 96}),
    ("qrd", {"rows": 64, "cols": 32}),
])
def test_the_charge_covers_what_a_held_image_keeps(app, sizes):
    """The per-instruction charge is fitted to tracemalloc; it may
    run a little over what a held image keeps alive, never under."""
    request = RunRequest(app=app, sizes=sizes)
    with _fresh_memo():
        catalog.bundle_for(request)    # compile the kernels first
    with _fresh_memo():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            catalog.bundle_for(request)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= catalog._memo.held_bytes <= 1.3 * kept


# ----------------------------------------------------------------------
# Simulate once per image: a held result serves every later seed.
# ----------------------------------------------------------------------
def _seeded(seed, app="depth", **overrides):
    sizes = ({"height": 16, "width": 64} if app == "depth"
             else {"rows": 32, "cols": 16})
    return RunRequest.for_app(app, sizes={**sizes, "seed": seed},
                              **overrides)


@contextlib.contextmanager
def _counting_simulations():
    """Yield the list of backends the engine simulates on, in order."""
    runs = []
    simulate = session_module._simulate

    def counting_simulate(bundle, request, backend, tracer=None):
        runs.append(backend)
        return simulate(bundle, request, backend, tracer=tracer)

    with mock.patch.object(session_module, "_simulate", counting_simulate):
        yield runs


def _held_kinds():
    return sorted(type(value).__name__
                  for value, _ in catalog._memo._held.values())


def test_a_held_result_serves_later_seeds_as_misses(tmp_path):
    config = SessionConfig(cache_dir=tmp_path)
    with _counting_simulations() as runs, Session(config=config) as session:
        first = session.run(_seeded(1))
        handle = session.submit(_seeded(2))
        served = handle.result()
        counts = engine_counts(session.metrics)
        reused = counter_count(session.metrics, "engine_runs_reused_total")
    assert runs == ["vector"]
    assert _held_kinds() == ["AppBundle", "PackedResult"]
    assert (counts["executed"], reused, counts["misses"]) == (1, 1, 2)
    assert served.manifest.cache == handle.cache_status == "miss"
    assert served.manifest.request_digest == handle.digest
    assert served.manifest.backend == "vector"
    assert 0 < served.manifest.wall_time_s < first.manifest.wall_time_s
    assert served.derived is not None
    assert _reports(served) == _reports(first)
    with Session(config=config) as session:
        assert session.run(_seeded(2)).manifest.cache == "hit"


def test_a_mutated_delivery_does_not_leak_into_the_next_seed(tmp_path):
    with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        first = session.run(_seeded(1))
        expected = _reports(first), repr(first.metrics)
        machine = dict(first.manifest.machine)
        for result in (first, session.run(_seeded(2))):
            result.metrics.total_cycles = -1.0
            graph = result.event_graph
            graph.add_edge(graph.end.ident,
                           graph.add_node("end", -1, graph.end.t + 5.0),
                           "retire", 0.0)
            result.manifest.machine.clear()
        again = session.run(_seeded(3))
        assert counter_count(session.metrics,
                             "engine_runs_reused_total") == 2
    assert (_reports(again), repr(again.metrics)) == expected
    assert again.manifest.machine == machine


def test_held_bytes_stay_within_the_budget_after_every_insert(tmp_path):
    """Images and results share one budget: after each insert of
    either kind the held bytes are what is held, and within it."""
    kinds = []
    put = catalog.ShapeMemo.put

    def checked_put(self, key, value, size):
        held = put(self, key, value, size)
        kinds.append(type(value).__name__)
        assert self.held_bytes == sum(
            charged for _, charged in self._held.values())
        assert self.held_bytes <= self.budget
        return held

    with _fresh_memo(budget=400_000), \
            mock.patch.object(catalog.ShapeMemo, "put", checked_put), \
            Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        for app in ("depth", "qrd"):
            for board in BOARDS.values():
                for seed in (1, 2):
                    session.run(_seeded(seed, app, board=board()))
        held = len(catalog._memo)
    assert kinds.count("AppBundle") == 2
    assert kinds.count("PackedResult") == 4
    assert held < len(kinds)


def test_a_result_larger_than_the_budget_is_never_held(tmp_path):
    with _fresh_memo(budget=50_000), _counting_simulations() as runs, \
            Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        first = session.run(_seeded(1))
        session.run(_seeded(2))
        packed = PackedResult.of(first)
        catalog.hold_result(catalog.result_key(_seeded(1)), packed)
        assert len(packed.body) > catalog._memo.budget
        assert len(catalog._memo) == 0 and catalog._memo.held_bytes == 0
    assert runs == ["vector", "vector"]


def test_event_traced_faulted_and_preflighting_runs_simulate(
        tmp_path, monkeypatch):
    """Only a fault-free, untraced vector run uses a held result, and
    a preflighting session still preflights a request whose result
    another session holds."""
    from repro.analysis import lint

    preflights = []
    preflight_image = lint.preflight_image
    monkeypatch.setattr(lint, "preflight_image", lambda *args: (
        preflights.append(args), preflight_image(*args))[1])

    def config(name, **knobs):
        return SessionConfig(cache_dir=tmp_path / name, **knobs)

    with _counting_simulations() as runs:
        with Session(config=config("held")) as session:
            session.run(_seeded(1))
            session.run(_seeded(1, strict=True))
            session.run(_seeded(2), tracer=Tracer())
            session.run(_seeded(3, faults=BUILTIN_PLANS["board"]))
        with Session(config=config("event", backend="event")) as session:
            session.run(_seeded(4))
        with Session(config=config("preflight", preflight=True)) as session:
            session.run(_seeded(5, strict=True))
            assert counter_count(session.metrics,
                                 "engine_runs_reused_total") == 0
        assert runs == ["vector", "vector", "event", "event", "event",
                        "vector"]
        assert len(preflights) == 1
        with Session(config=config("served")) as session:
            session.run(_seeded(6))
            session.run(_seeded(6, strict=True))
            assert counter_count(session.metrics,
                                 "engine_runs_reused_total") == 2
        assert len(runs) == 6


def test_an_underived_run_is_not_held(tmp_path, monkeypatch):
    def reject(graph):
        raise CritpathError("the DAG is disconnected")

    monkeypatch.setattr(critpath, "_walk", reject)
    with _counting_simulations() as runs, \
            Session(config=SessionConfig(cache_dir=tmp_path)) as session:
        results = [session.run(_seeded(seed)) for seed in (1, 2)]
    assert [result.derived for result in results] == [None, None]
    assert runs == ["vector", "vector"]
    assert _held_kinds() == ["AppBundle"]


def test_a_served_entry_does_not_depend_on_the_job_count(
        tmp_path, monkeypatch):
    """A result served in process and one served (or simulated) in a
    pool worker store the same entry bytes.  The manifest's clocks are
    pinned."""
    from repro.core import vector
    from repro.obs import manifest

    monkeypatch.setattr(manifest, "time", SimpleNamespace(
        strftime=lambda fmt: "2026-01-01T00:00:00+0000"))
    for module in (vector, session_module):
        monkeypatch.setattr(module, "time", SimpleNamespace(
            perf_counter=lambda: 0.0))
    entries = []
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        with Session(config=SessionConfig(
                jobs=jobs, cache_dir=root)) as session:
            if jobs == 1:
                session.run(_seeded(1, "qrd"))
            handle = session.submit(_seeded(2, "qrd"))
            assert handle.result().derived is not None
            if jobs == 1:
                assert counter_count(session.metrics,
                                     "engine_runs_reused_total") == 1
        entries.append(
            ResultCache(root)._object_path(handle.digest).read_bytes())
    assert entries[0] == entries[1]


@contextlib.contextmanager
def _counting_result_pickles():
    """Yield ``{"dumps": n, "loads": n}``: the ``RunResult``s, alone or
    in an outcome, the engine modules pickle and unpickle in this
    process."""
    from repro.core.processor import RunResult

    counts = {"dumps": 0, "loads": 0}

    def carries_result(obj):
        return isinstance(obj, RunResult) or isinstance(
            getattr(obj, "result", None), RunResult)

    def dumps(obj, *args, **kwargs):
        counts["dumps"] += carries_result(obj)
        return pickle.dumps(obj, *args, **kwargs)

    def loads(data, *args, **kwargs):
        obj = pickle.loads(data, *args, **kwargs)
        counts["loads"] += carries_result(obj)
        return obj

    counting = SimpleNamespace(**{**vars(pickle), "dumps": dumps,
                                  "loads": loads})
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro.engine")
                    and getattr(module, "pickle", None) is pickle):
                stack.enter_context(
                    mock.patch.object(module, "pickle", counting))
        yield counts


@pytest.mark.parametrize("app", ["depth", "qrd"])
def test_each_delivery_pickles_its_result_at_most_once(tmp_path, app):
    """The work a request does on its result's bytes: a fresh miss
    pickles the body once, for the memo and the store; a served miss
    and a hit unpickle it once; a pool worker's miss is unpickled
    once in the main process and pickled there not at all."""

    def deliver(seed, **knobs):
        with _counting_result_pickles() as counts, Session(
                config=SessionConfig(cache_dir=tmp_path / app,
                                     **knobs)) as session:
            handle = session.submit(_seeded(seed, app))
            handle.result()
        return handle.cache_status, counts

    assert deliver(1) == ("miss", {"dumps": 1, "loads": 0})
    assert deliver(2) == ("miss", {"dumps": 0, "loads": 1})
    assert deliver(2) == ("hit", {"dumps": 0, "loads": 1})
    with _fresh_memo():
        assert deliver(3, jobs=2) == ("miss", {"dumps": 0, "loads": 1})


# ----------------------------------------------------------------------
# The request's machine reaches the stream compiler.
# ----------------------------------------------------------------------
def _qrd_request(srf_kbytes):
    from dataclasses import replace

    from repro.core import MachineConfig

    machine = replace(MachineConfig(), srf_kbytes=srf_kbytes)
    return machine, RunRequest.for_app(
        "qrd", sizes={"rows": 96, "cols": 48}, machine=machine)


def test_a_request_too_big_for_its_srf_fails_to_build():
    """A 16 KB SRF cannot hold QRD's streams at 96x48: the request
    raises what building for that machine raises, where it once
    reported the default machine's cycles."""
    from repro.apps import qrd
    from repro.core.srf import SrfAllocationError

    machine, request = _qrd_request(16)
    with pytest.raises(SrfAllocationError, match="SRF full") as direct:
        qrd.build(rows=96, cols=48, machine=machine)
    with _fresh_memo(), Session(config=SessionConfig(cache=False)) \
            as session, pytest.raises(SrfAllocationError) as served:
        session.run(request)
    assert str(served.value) == str(direct.value)


def test_a_request_runs_the_image_compiled_for_its_machine():
    """A 256 KB SRF places QRD's streams differently; the engine's
    result is a direct build for that machine, run on the same
    backend, and the memo holds one image per machine."""
    from repro.apps import qrd

    machine, request = _qrd_request(256)
    default = qrd.build(rows=96, cols=48)
    direct = qrd.build(rows=96, cols=48, machine=machine)
    assert (direct.image.srf_allocations
            != default.image.srf_allocations)
    with _fresh_memo(), _counting_builds() as builds, \
            Session(config=SessionConfig(cache=False)) as session:
        served = session.run(request)
        session.run(RunRequest.for_app(
            "qrd", sizes={"rows": 96, "cols": 48}))
        assert len(catalog._memo) == 2 and len(builds) == 2
        expected = session.run_bundle(direct, machine=machine)
        assert served.cycles != session.run_bundle(default).cycles
    assert repr(served.metrics) == repr(expected.metrics)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_catalog_bundle_runs_on_the_machine_it_is_submitted_for(jobs):
    """A catalog bundle submitted for another machine than it was
    compiled for runs the request's image in-process as in a pool
    worker, so a digest has one result whichever path stores it."""
    machine, request = _qrd_request(256)
    default = RunRequest.for_app("qrd", sizes={"rows": 96, "cols": 48})
    with _fresh_memo(), Session(config=SessionConfig(cache=False)) \
            as session:
        expected = session.run(request)
        expected_default = session.run(default)
    with _fresh_memo(), Session(config=SessionConfig(
            jobs=jobs, cache=False)) as session:
        served = session.run_bundle(build_app("qrd", rows=96, cols=48),
                                    machine=machine)
        served_default = session.run_bundle(
            build_app("qrd", machine=machine, rows=96, cols=48))
    assert served.cycles != served_default.cycles
    assert repr(served.metrics) == repr(expected.metrics)
    assert repr(served_default.metrics) == repr(expected_default.metrics)
