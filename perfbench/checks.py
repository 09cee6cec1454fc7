"""The benchmark's correctness gate.

Host time is the metric; simulated results are the check.  Every
answer must validate, and a seeded sample of each run's answers is
recomputed on the event reference backend after the timed window:
total cycles, the profile JSON and the critical-path JSON must match
what the user received byte for byte.  Only user-visible documents
are compared, so a change to the cache format or to how the event DAG
is stored can still pass.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Answers per run re-run on the event reference backend, drawn from
#: the first REFERENCE_POOL requests (which every run completes).
REFERENCE_SAMPLES = 3
REFERENCE_POOL = 50


class Mismatch(Exception):
    """An answer differs from what the program should have returned."""


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def wire_canonical(document: Any) -> str:
    """``canonical`` after a JSON round trip, as a client receives it
    (integer keys become strings, tuples become lists)."""
    return canonical(json.loads(json.dumps(document)))


def to_request(payload: dict):
    """The ``RunRequest`` a serve-style payload describes."""
    from repro.core.config import BoardConfig
    from repro.engine import RunRequest

    board = {"hardware": BoardConfig.hardware,
             "isim": BoardConfig.isim}[payload["board"]]()
    return RunRequest.for_app(payload["app"], sizes=payload["sizes"],
                              board=board)


def digest_of(payload: dict) -> str:
    return to_request(payload).digest()


def envelope_checksum(digest: str, body: Any) -> str:
    """sha256 over the digest and the canonical artifact body, as the
    artifact envelope format defines it."""
    material = f"{digest}\n{canonical(body)}".encode()
    return hashlib.sha256(material).hexdigest()


def validate_answer(profile: dict, critpath: dict) -> None:
    """Schema, conservation and critpath profile-bounds checks."""
    from repro.obs.critpath import CritpathError, validate_critpath
    from repro.obs.profile import ProfileError, validate_profile

    try:
        validate_profile(profile)
        validate_critpath(critpath)
    except (ProfileError, CritpathError) as error:
        raise Mismatch(str(error)) from error
    if not critpath["checks"]["profile_bounds"]["ok"]:
        raise Mismatch("critpath exceeds the profile's leaf bounds")


def verify_envelope(document: Any, payload: dict) -> dict:
    """Check one served artifact response against the payload that
    asked for it; returns the artifact body."""
    from repro.serve.artifacts import ARTIFACT_SCHEMA

    digest = digest_of(payload)
    try:
        job, envelope = document["job"], document["artifact"]
    except (KeyError, TypeError) as error:
        raise Mismatch(f"response lacks job or artifact: {error}")
    if job.get("state") != "completed":
        raise Mismatch(f"job {job.get('id')} is {job.get('state')}")
    if envelope.get("schema") != ARTIFACT_SCHEMA:
        raise Mismatch(f"artifact schema {envelope.get('schema')!r}")
    if envelope.get("digest") != digest or job.get("digest") != digest:
        raise Mismatch(f"served digest {envelope.get('digest')} for "
                       f"request digest {digest}")
    if envelope.get("checksum") != envelope_checksum(
            digest, envelope.get("body")):
        raise Mismatch(f"checksum mismatch for {digest}")
    return envelope["body"]


def reference(payload: dict):
    """Re-run one request on the event backend, uncached."""
    from repro.engine import Session, SessionConfig

    config = SessionConfig(backend="event", cache=False)
    with Session(config=config) as session:
        return session.run(to_request(payload))


def check_inprocess(payload: dict, cycles: float, profile_json: str,
                    critpath_json: str) -> None:
    from repro.obs.critpath import build_critpath
    from repro.obs.profile import build_profile

    result = reference(payload)
    if float(result.metrics.total_cycles) != cycles:
        raise Mismatch(f"{payload}: {cycles} cycles, reference "
                       f"{result.metrics.total_cycles}")
    if canonical(build_profile(result)) != profile_json:
        raise Mismatch(f"{payload}: profile differs from reference")
    if canonical(build_critpath(result)) != critpath_json:
        raise Mismatch(f"{payload}: critpath differs from reference")


def check_served(payload: dict, body: dict) -> None:
    from repro.obs.critpath import critpath_summary
    from repro.obs.profile import build_profile

    result = reference(payload)
    if body.get("cycles") != float(result.metrics.total_cycles):
        raise Mismatch(f"{payload}: served {body.get('cycles')} "
                       f"cycles, reference "
                       f"{result.metrics.total_cycles}")
    if canonical(body.get("profile")) != wire_canonical(
            build_profile(result)):
        raise Mismatch(f"{payload}: served profile differs")
    if canonical(body.get("critpath")) != wire_canonical(
            critpath_summary(result)):
        raise Mismatch(f"{payload}: served critpath differs")
