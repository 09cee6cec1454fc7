"""Playback records: serialize stream-instruction sequences.

Section 2.3: when control flow is data-independent, the StreamC
compiler replaces the intermediate C++ with "a record of the encoded
stream instructions, in order", and the playback dispatcher replays
it.  This module is that record format: a JSON-serializable encoding
of a compiled program's instruction stream (instructions, deps,
access patterns, descriptor stats) that round-trips exactly, so a
program can be compiled once and replayed on any simulator instance.

Only playback images can be recorded: a program that read data while
it was written (MPEG's RLE lengths, RTSL's fragments) has control flow
a record cannot replay, and :func:`save_record` refuses it.
Functional outputs are not part of the record -- the record is the
host-side artifact, and data lives in Imagine memory.
"""

from __future__ import annotations

import json
from typing import Any

from repro.isa.stream_ops import StreamInstruction, StreamOpType
from repro.isa.vliw import CompiledKernel
from repro.memsys.patterns import AccessPattern
from repro.streamc.compiler import StreamProgramImage

FORMAT_VERSION = 1


class RecordError(Exception):
    """Malformed or incompatible playback record."""


def _encode_pattern(pattern: AccessPattern | None) -> dict | None:
    if pattern is None:
        return None
    return {
        "kind": pattern.kind,
        "words": pattern.words,
        "start": pattern.start,
        "stride": pattern.stride,
        "record_words": pattern.record_words,
        "index_range_words": pattern.index_range_words,
        "seed": pattern.seed,
        "indices": (list(pattern.indices)
                    if pattern.indices is not None else None),
    }


def _decode_pattern(data: dict | None) -> AccessPattern | None:
    if data is None:
        return None
    indices = data.get("indices")
    return AccessPattern(
        kind=data["kind"],
        words=data["words"],
        start=data.get("start", 0),
        stride=data.get("stride", 1),
        record_words=data.get("record_words", 1),
        index_range_words=data.get("index_range_words", 0),
        seed=data.get("seed", 1234),
        indices=tuple(indices) if indices is not None else None,
    )


def _encode_instruction(instr: StreamInstruction) -> dict:
    return {
        "op": instr.op.value,
        "deps": list(instr.deps),
        "kernel": instr.kernel,
        "stream_elements": instr.stream_elements,
        "words": instr.words,
        "pattern": _encode_pattern(instr.pattern),
        "sdr": instr.sdr,
        "mar": instr.mar,
        "ucr": instr.ucr,
        "host_dependency": instr.host_dependency,
        "tag": instr.tag,
    }


def _decode_instruction(data: dict, index: int) -> StreamInstruction:
    try:
        op = StreamOpType(data["op"])
    except ValueError as exc:
        raise RecordError(f"unknown stream op {data.get('op')!r}") from exc
    return StreamInstruction(
        op=op,
        deps=list(data.get("deps", [])),
        kernel=data.get("kernel"),
        stream_elements=data.get("stream_elements", 0),
        words=data.get("words", 0),
        pattern=_decode_pattern(data.get("pattern")),
        sdr=data.get("sdr"),
        mar=data.get("mar"),
        ucr=data.get("ucr"),
        host_dependency=data.get("host_dependency", False),
        tag=data.get("tag", ""),
        index=index,
    )


def save_record(image: StreamProgramImage) -> str:
    """Encode a compiled program as a JSON playback record."""
    if not image.playback:
        raise RecordError(
            f"{image.name}: data-dependent control flow cannot be "
            f"recorded for playback")
    payload: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "name": image.name,
        "kernels": sorted(image.kernels),
        "sdr_writes": image.sdr_writes,
        "sdr_references": image.sdr_references,
        "mar_writes": image.mar_writes,
        "mar_references": image.mar_references,
        "ucr_writes": image.ucr_writes,
        "instructions": [_encode_instruction(i)
                         for i in image.instructions],
    }
    return json.dumps(payload)


def load_record(text: str,
                kernels: dict[str, CompiledKernel]
                ) -> StreamProgramImage:
    """Decode a playback record; ``kernels`` supplies the microcode."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError(f"not a playback record: {exc}") from exc
    if payload.get("format") != FORMAT_VERSION:
        raise RecordError(
            f"unsupported record format {payload.get('format')!r}")
    missing = set(payload["kernels"]) - set(kernels)
    if missing:
        raise RecordError(
            f"record references unknown kernels: {sorted(missing)}")
    instructions = [_decode_instruction(d, i)
                    for i, d in enumerate(payload["instructions"])]
    image = StreamProgramImage(
        name=payload["name"],
        instructions=instructions,
        kernels={name: kernels[name] for name in payload["kernels"]},
        sdr_writes=payload.get("sdr_writes", 0),
        sdr_references=payload.get("sdr_references", 0),
        mar_writes=payload.get("mar_writes", 0),
        mar_references=payload.get("mar_references", 0),
        ucr_writes=payload.get("ucr_writes", 0),
        playback=True,
    )
    image.validate()
    return image
