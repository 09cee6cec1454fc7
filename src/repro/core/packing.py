"""Parts of a result that stay pickled until something reads them.

A cache hit's reports read the stored profile and critical-path walk
(:class:`repro.obs.profile.Derived`), not the bulky parts they were
derived from: the event graph's node labels and edge details, the
per-invocation kernel records and the instruction trace.  A class that mixes in
:class:`PackedParts` names such attributes in ``_packed_parts``; each
is pickled into its own bytes inside the object's pickle, and an
unpickled object keeps those bytes until the attribute's first read
decodes them.  Pickling or copying an object again passes the bytes
of a part that was never read through unchanged, so a result that
only crosses a process or reaches the store is not decoded on the
way.

An assigned attribute wins over its bytes.  Concurrent first reads
may each decode, but all of them get the object the first one
stored.
"""

from __future__ import annotations

import pickle
from typing import Any, ClassVar

from repro.core.gcpause import collector_paused


class PackedParts:
    """Pickle the attributes named in ``_packed_parts`` apart and
    decode each on its first read after unpickling.

    A packed attribute must have no class-level default, or the
    default would answer its reads.
    """

    _packed_parts: ClassVar[tuple[str, ...]] = ()

    def __getstate__(self) -> dict[str, Any]:
        # The parts go last, in declaration order, so the state has
        # one key order whether they are packed or decoded.
        current = self.__dict__.copy()
        packed = current.pop("_packed", {})
        state = {name: value for name, value in current.items()
                 if name not in self._packed_parts}
        for name in self._packed_parts:
            data = packed.get(name)
            if name in self.__dict__:
                # Decoded (perhaps by another thread just now),
                # assigned, or never packed.
                state[name] = pickle.dumps(self.__dict__[name])
            elif data is not None:
                state[name] = data
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__["_packed"] = {name: state.pop(name)
                                    for name in self._packed_parts
                                    if name in state}
        self.__dict__.update(state)

    def __getattr__(self, name: str) -> Any:
        # Only reached when ``name`` is not in the instance dict.
        packed = self.__dict__.get("_packed")
        data = (packed.get(name) if packed is not None
                and name in self._packed_parts else None)
        if data is None:
            # Not a packed part, or one another thread decoded since
            # the lookup: its value is stored before its bytes go.
            try:
                return self.__dict__[name]
            except KeyError:
                raise AttributeError(name) from None
        with collector_paused:
            value = self.__dict__.setdefault(name, pickle.loads(data))
        packed.pop(name, None)
        return value


def undecoded(obj: PackedParts) -> tuple[str, ...]:
    """The parts of ``obj`` still held as bytes, in declaration order."""
    packed = obj.__dict__.get("_packed", {})
    return tuple(name for name in obj._packed_parts
                 if name in packed and name not in obj.__dict__)


__all__ = ["PackedParts", "undecoded"]
