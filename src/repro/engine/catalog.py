"""The experiment catalog: one registry for every runnable workload.

Before the engine existed, the application table (name -> builder) was
duplicated in ``repro/cli.py``, ``repro/evaluation.py``,
``benchmarks/benchlib.py`` and the fault-campaign CLI path.  This
module is now the single source of truth: the CLI, the evaluation
driver, the benchmarks and the engine's worker processes all resolve
application names here, which is also what lets a worker process
rebuild a bundle from a declarative
:class:`~repro.engine.request.RunRequest` instead of unpickling one.

Bundles built through :func:`build_app` are stamped with their
catalog ``source`` (name + build sizes), which marks them as
*declarative*: the engine can reproduce them in another process and
cache their results content-addressed.  Bundles built by calling an
app module's ``build()`` directly carry no source and always run
in-process, uncached.

The engine builds through :func:`bundle_for`, which builds a playback
program once per shape and process, and reuses the derived result of
its vector run across data seeds through :func:`held_result` (see
"Build once per shape" and "Simulate once per image" in
``docs/engine.md``).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.core.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.common import AppBundle
    from repro.engine.cache import PackedResult
    from repro.engine.request import RunRequest
    from repro.isa.vliw import CompiledKernel
    from repro.streamc.compiler import StreamProgramImage


class CatalogError(KeyError):
    """Unknown application/workload name."""


#: Canonical (lowercase) application names, in the paper's order.
APP_NAMES: tuple[str, ...] = ("depth", "mpeg", "qrd", "rtsl")


def app_builders() -> dict[str, Callable[..., "AppBundle"]]:
    """Name -> builder for the paper's four applications.

    Imported lazily so that importing :mod:`repro.engine` does not pull
    in the whole application/compiler stack.
    """
    from repro.apps import depth, mpeg, qrd, rtsl

    return {"depth": depth.build, "mpeg": mpeg.build,
            "qrd": qrd.build, "rtsl": rtsl.build}


def canonical_name(name: str) -> str:
    """Normalize ``name`` to its catalog key; raises CatalogError."""
    key = name.lower()
    if key not in APP_NAMES:
        raise CatalogError(
            f"unknown application {name!r}; choose from "
            f"{sorted(APP_NAMES)}")
    return key


def build_app(name: str, machine: MachineConfig | None = None,
              **sizes: Any) -> "AppBundle":
    """Build an application bundle and stamp its catalog source.

    ``sizes`` are forwarded to the app module's ``build()`` (e.g.
    ``image_height=64``); they become part of the bundle's declarative
    identity and therefore of its cache digest.  ``machine`` is the
    machine the stream program is compiled for (SRF allocation,
    descriptor files, microcode store; default machine when ``None``).
    It is stamped on ``bundle.machine``, not on the source: a request
    carries its machine separately, and the engine rebuilds a bundle
    submitted for another machine.
    """
    key = canonical_name(name)
    bundle = app_builders()[key](machine=machine, **sizes)
    bundle.source = (key, tuple(sorted(sizes.items())))
    bundle.machine = machine if machine is not None else MachineConfig()
    return bundle


def compiled_kernels(images: Iterable["StreamProgramImage"],
                     names: Iterable[str] | None = None
                     ) -> dict[str, "CompiledKernel"]:
    """Every unique compiled kernel: the library's (``names``, default
    all of it), plus any kernel an image of ``images`` carries under a
    name the library does not know (the first image's copy wins)."""
    from repro.kernels.library import KERNEL_LIBRARY

    compiled = {name: KERNEL_LIBRARY[name].compiled()
                for name in sorted(KERNEL_LIBRARY if names is None
                                   else names)}
    for image in images:
        for name in sorted(image.kernels):
            compiled.setdefault(name, image.kernels[name])
    return compiled


#: Bytes of built images (:func:`bundle_for`) and packed derived
#: results (:func:`hold_result`) held per process, in one budget, least
#: recently used dropped first; an entry larger than this is never
#: held.  A held image takes 0.1-0.4 MB at perfbench's reduced shapes
#: and 0.6 MB (DEPTH) / 1 MB (QRD) at default size; a held result is
#: charged its body, the bytes the result cache stores for every seed
#: of its shape: 92-269 KB at the reduced shapes and 377-731 KB at
#: default size (format 8).  The six images and twelve results of the
#: reduced shapes take 4.1 MB together.
HELD_BYTES_BUDGET = 5 << 20


class _Withheld(Mapping):
    """``outputs`` of a held image: the image serves every data seed
    of its shape, so it keeps no data and reading any raises."""

    def __init__(self, names: Iterable[str]) -> None:
        self._names = tuple(names)

    def __getitem__(self, name: str) -> Any:
        from repro.streamc.program import StreamProgramError

        raise StreamProgramError(
            f"{name!r}: this image is shared by every data seed of its "
            f"shape, so it holds no outputs; build it with build_app to "
            f"read them")

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


#: What a held image keeps alive per instruction and per SRF
#: allocation or array record: fitted to tracemalloc at the DEPTH and
#: QRD shapes of perfbench and the defaults (0-10% above it; neither
#: app carries explicit gather indices).  The compiled kernels are not
#: charged: their specs hold them for every build anyway.
_INSTRUCTION_BYTES, _RECORD_BYTES = 360, 224


def _footprint(image: "StreamProgramImage") -> int:
    """Bytes a held image is charged against the budget."""
    records = len(image.srf_allocations) + len(image.arrays)
    return (_INSTRUCTION_BYTES * len(image.instructions)
            + _RECORD_BYTES * records)


class ShapeMemo:
    """Built bundles by shape and packed results by the shape, board
    and strictness they ran at, bounded together by ``budget`` bytes
    (LRU).

    Thread-safe: ``repro serve`` runs one session per worker thread,
    and they share the process's memo.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.held_bytes = 0
        self._held: OrderedDict[tuple, tuple["AppBundle", int]] = \
            OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._held)

    def get(self, key: tuple) -> Any:
        with self._lock:
            entry = self._held.get(key)
            if entry is None:
                return None
            self._held.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, value: Any, size: int) -> Any:
        """Hold ``value`` unless it alone exceeds the budget; returns
        the value now held for ``key`` (another thread's, when it
        held the same key first)."""
        with self._lock:
            entry = self._held.get(key)
            if entry is not None:
                self._held.move_to_end(key)
                return entry[0]
            if size > self.budget:
                return value
            self._held[key] = (value, size)
            self.held_bytes += size
            while self.held_bytes > self.budget:
                _, (_, dropped) = self._held.popitem(last=False)
                self.held_bytes -= dropped
            return value


_memo = ShapeMemo(HELD_BYTES_BUDGET)


def _shape_key(request: "RunRequest") -> tuple | None:
    """What a build reads besides the data seed: the app, its other
    sizes and the request's machine, which the stream compiler
    allocates the SRF, descriptors and microcode store for.  ``None``
    when the seed is not a non-negative int (the builders' random
    generators reject anything else), so the build runs and raises as
    it always did.
    """
    shape = []
    for name, value in request.sizes:
        if name != "seed":
            shape.append((name, value))
        elif type(value) is not int or value < 0:
            return None
    return (canonical_name(request.app), tuple(shape),
            request.effective_machine())


def bundle_for(request: "RunRequest") -> "AppBundle":
    """The engine's one build path: ``request``'s bundle, compiled for
    the request's machine and built once per shape and process when it
    is a playback program.

    A playback program's control flow reads no data (DEPTH and QRD),
    so its image is the same for every data seed: the memo holds it,
    with its outputs withheld and its oracle dropped, and a request at
    another seed skips input generation, call recording and the stream
    compiler.  Other programs (MPEG and RTSL) build on every request.
    A served playback image's ``outputs`` raise
    :class:`~repro.streamc.program.StreamProgramError`; build with
    :func:`build_app` to read them.
    """
    key = _shape_key(request)
    held = None if key is None else _memo.get(key)
    if held is None:
        bundle = build_app(request.app,
                           machine=request.effective_machine(),
                           **dict(request.sizes))
        if key is None or not bundle.image.playback:
            return bundle
        image = bundle.image
        held = dataclasses.replace(
            bundle, oracle={}, source=None,
            image=dataclasses.replace(image,
                                      outputs=_Withheld(image.outputs)))
        held = _memo.put(key, held, _footprint(held.image))
    return dataclasses.replace(held, source=(key[0], request.sizes))


def result_key(request: "RunRequest") -> tuple | None:
    """What a fault-free, untraced vector run of a playback image
    reads: the image's shape key, the board and ``strict``.  ``None``
    when the request has no shape key."""
    shape = _shape_key(request)
    if shape is None:
        return None
    return (shape, request.effective_board(), request.strict)


def held_result(key: tuple | None) -> "PackedResult | None":
    """The packed result held for ``key``, or ``None``.  Its manifest
    is the held run's; the caller restamps the fields that describe
    the delivery."""
    return None if key is None else _memo.get(key)


def hold_result(key: tuple, packed: "PackedResult") -> None:
    """Hold ``packed``, a derived run of a playback image at ``key``:
    every later reader unpacks its own copy, the cache stores its body
    as it is, and the bytes take about half the memory of the live
    result."""
    _memo.put(key, packed, len(packed.body))


__all__ = [
    "APP_NAMES",
    "CatalogError",
    "HELD_BYTES_BUDGET",
    "ShapeMemo",
    "app_builders",
    "build_app",
    "bundle_for",
    "canonical_name",
    "compiled_kernels",
    "held_result",
    "hold_result",
    "result_key",
]
