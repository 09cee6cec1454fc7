"""Stream programs compute data only when something reads it.

A program records its calls; kernel models run when a stream's data,
a runtime scalar or the image's outputs is read, or when a kernel
without a length declaration is called.  These tests pin what that
must not change (the compiled image, every value read) and what it
buys (an engine run of DEPTH or QRD runs no kernel model).
"""

import gc
import json
import random
import weakref

import numpy as np
import pytest

import repro.streamc.program as program_module
from repro.engine import RunRequest, Session, SessionConfig
from repro.engine.catalog import APP_NAMES, build_app
from repro.isa.kernel_ir import KernelBuilder
from repro.kernels.conv import CONV7X7
from repro.kernels.update2 import UPDATE2
from repro.memsys.address_gen import expand_pattern
from repro.memsys.patterns import strided, unit_stride
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
