"""Rule modules for the static verifier.

Importing this package registers every analysis pass with the
framework in :mod:`repro.analysis.passes`.  Rule-id prefixes:

* ``MC###`` -- microcode / VLIW-schedule rules (:mod:`.microcode`);
* ``SP###`` -- stream-program rules (:mod:`.stream`);
* ``EP###`` -- repository entry-point discipline (:mod:`.entrypoints`);
* ``BD###`` / ``ADV###`` -- static cycle-bound model and the
  optimization advisor (:mod:`.advisor`).

The full catalogue lives in ``docs/analysis.md``.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    advisor,
    entrypoints,
    microcode,
    stream,
)

__all__ = ["advisor", "entrypoints", "microcode", "stream"]
