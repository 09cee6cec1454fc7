"""The experiment engine: requests, digests, cache, sessions.

Covers the :mod:`repro.engine` API end to end: content-digest
stability (across dict orderings, process boundaries and config
spellings), cache hit/miss/invalidation semantics, byte-identical
determinism of the evaluation and campaign reports across job counts
and cache temperatures, failure capture, the removal of the old
``run_app`` shim, and the entry-point lint that keeps processor
construction inside the engine.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoardConfig, MachineConfig, SimulationError
from repro.core.config import DramConfig
from repro.engine import (
    RunFailure,
    RunRequest,
    Session,
    SessionConfig,
    build_app,
    code_salt,
    engine_counts,
)
from repro.engine.cache import CACHE_FORMAT, ResultCache
from repro.engine.catalog import APP_NAMES, CatalogError, canonical_name
from repro.engine.request import DIGEST_VERSION
from repro.evaluation import evaluation_report, run_full_evaluation
from repro.faults import BUILTIN_PLANS, FaultKind, FaultPlan, FaultSpec
from repro.faults.campaign import run_campaign, validate_report
from repro.obs.critpath import build_critpath
from repro.obs.profile import build_profile

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Small DEPTH build used wherever the test needs a real catalog app.
SIZES = {"height": 24, "width": 64, "disparities": 4}

#: Wedges the scoreboard long enough to trip the progress watchdog.
WEDGE = FaultPlan(
    name="wedge",
    faults=(FaultSpec(FaultKind.SCOREBOARD_SLOT_LOSS,
                      {"slots": 64, "period": 500.0,
                       "duration": 500.0}),),
    seed=0)


def small_request(**overrides) -> RunRequest:
    overrides.setdefault("sizes", SIZES)
    return RunRequest.for_app("depth", **overrides)


@pytest.fixture(scope="module")
def small_bundle():
    return build_app("depth", **SIZES)


class TestCatalog:
    def test_canonical_name_is_case_insensitive(self):
        assert canonical_name("DEPTH") == "depth"
        assert canonical_name("qrd") == "qrd"

    def test_unknown_name_raises(self):
        with pytest.raises(CatalogError, match="doom"):
            canonical_name("doom")

    def test_build_app_stamps_source(self, small_bundle):
        assert small_bundle.source == (
            "depth", tuple(sorted(SIZES.items())))

    def test_cli_resolves_names_from_the_catalog(self, capsys):
        from types import SimpleNamespace

        from repro.cli import _app_name

        assert tuple(_app_name(SimpleNamespace(name=name.upper()))
                     for name in APP_NAMES) == APP_NAMES
        assert _app_name(SimpleNamespace(name="bogus")) is None
        assert str(sorted(APP_NAMES)) in capsys.readouterr().err


class TestDigest:
    def test_dict_ordering_irrelevant(self):
        items = list(SIZES.items())
        digests = {
            RunRequest.for_app("depth",
                               sizes=dict(order)).digest(salt="s")
            for order in (items, items[::-1],
                          [items[1], items[0], items[2]])}
        assert len(digests) == 1

    @given(st.permutations(sorted(SIZES.items())))
    @settings(max_examples=20, deadline=None)
    def test_dict_ordering_irrelevant_fuzzed(self, ordering):
        request = RunRequest.for_app("depth", sizes=dict(ordering))
        assert request.digest(salt="s") == small_request().digest(
            salt="s")

    def test_none_config_digests_as_default(self):
        explicit = RunRequest.for_app(
            "depth", sizes=SIZES, machine=MachineConfig(),
            board=BoardConfig.hardware())
        assert explicit.digest(salt="s") == \
            small_request().digest(salt="s")

    @pytest.mark.parametrize("change", [
        {"machine": MachineConfig(num_clusters=4)},
        {"board": BoardConfig.isim()},
        {"seed": 7},
        {"strict": True},
        {"faults": BUILTIN_PLANS["board"]},
        {"sizes": {**SIZES, "height": 32}},
    ])
    def test_outcome_changing_fields_change_digest(self, change):
        assert small_request(**change).digest(salt="s") != \
            small_request().digest(salt="s")

    def test_salt_changes_digest(self):
        request = small_request()
        assert request.digest(salt="a") != request.digest(salt="b")

    def test_fault_plan_spellings_equivalent(self):
        plan = BUILTIN_PLANS["board"].with_seed(3)
        spellings = {
            small_request(faults=form).digest(salt="s")
            for form in (plan, plan.as_dict(),
                         json.dumps(plan.as_dict()))}
        assert len(spellings) == 1

    def test_app_name_case_insensitive(self):
        assert RunRequest.for_app("DEPTH", sizes=SIZES).digest("s") \
            == small_request().digest("s")

    def test_salt_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
        assert code_salt() == "pinned"

    @pytest.mark.parametrize("request_", [
        *(RunRequest.for_app(app, board=board)
          for app in APP_NAMES
          for board in (BoardConfig.hardware(), BoardConfig.isim())),
        # An int where the default is a float digests as an int.
        small_request(machine=MachineConfig(
            clock_hz=200000000, num_ags=3,
            dram=DramConfig(clock_ratio=1, page_policy="closed"))),
        small_request(machine=MachineConfig(num_ags=3)),
        small_request(faults=BUILTIN_PLANS["board"], seed=3),
    ], ids=lambda request: request.app)
    def test_digest_matches_the_asdict_payload(self, request_):
        """Configs are serialised once per process; the digest stays
        the one ``dataclasses.asdict`` on every call gives."""
        payload = {
            "v": DIGEST_VERSION,
            "app": request_.app,
            "sizes": {str(k): v for k, v in request_.sizes},
            "machine": dataclasses.asdict(request_.effective_machine()),
            "board": dataclasses.asdict(request_.effective_board()),
            "faults": (json.loads(request_.faults)
                       if request_.faults is not None else None),
            "seed": request_.seed,
            "strict": request_.strict,
        }
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert request_.digest(salt="s") == hashlib.sha256(
            f"s\n{body}".encode()).hexdigest()
        assert request_.payload() == payload

    @given(
        app=st.sampled_from(APP_NAMES),
        sizes=st.dictionaries(
            st.sampled_from(("height", "width", "frames", "rows")),
            st.one_of(st.sampled_from((1, 1.0, True)),
                      st.integers(-(2 ** 40), 2 ** 40),
                      st.floats(allow_nan=False))),
        machine=st.one_of(st.none(), st.builds(
            MachineConfig,
            clock_hz=st.sampled_from((200e6, 200000000, 1.5e8)),
            num_ags=st.sampled_from((1, 2, 3)),
            lrf_kbytes=st.sampled_from((9.7, 9, 12.0)),
            dram=st.builds(DramConfig,
                           clock_ratio=st.sampled_from((1, 2, 2.0)),
                           page_policy=st.sampled_from(("open",
                                                        "closed"))))),
        board=st.one_of(st.none(), st.sampled_from(
            (BoardConfig.hardware(), BoardConfig.isim())), st.builds(
            BoardConfig, host_mips=st.sampled_from((2.03, 2, 4.0)))),
        faults=st.one_of(st.none(), st.sampled_from(sorted(BUILTIN_PLANS))),
        spelling=st.sampled_from(("plan", "dict", "text", "indented")),
        seed=st.one_of(st.none(), st.integers(-(2 ** 63), 2 ** 63)),
        strict=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_digest_is_the_canonical_payload_hash(
            self, app, sizes, machine, board, faults, spelling, seed,
            strict):
        """The digest spelled from memoized per-field texts hashes
        exactly ``json.dumps(payload(), sort_keys=True,
        separators=(",", ":"))``, spelled as the payload
        ``dataclasses.asdict`` gives on every call is; a plan given as
        non-canonical text digests as its canonical form would."""
        plan = None if faults is None else BUILTIN_PLANS[faults]
        if plan is None or spelling == "plan":
            form = plan
        elif spelling == "dict":
            form = plan.as_dict()
        else:
            form = json.dumps(plan.as_dict(),
                              indent=1 if spelling == "indented" else None)
        request = RunRequest(app=app, sizes=sizes, machine=machine,
                             board=board, faults=form, seed=seed,
                             strict=strict)
        expected = {
            "v": DIGEST_VERSION,
            "app": app,
            "sizes": sizes,
            "machine": dataclasses.asdict(request.effective_machine()),
            "board": dataclasses.asdict(request.effective_board()),
            "faults": None if plan is None else json.loads(json.dumps(
                plan.as_dict())),
            "seed": seed,
            "strict": strict,
        }
        body = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        # ``==`` would tell neither 1 from 1.0 nor key order apart.
        assert json.dumps(request.payload(), sort_keys=True,
                          separators=(",", ":")) == body
        for salt in ("s", ""):
            assert request.digest(salt=salt) == hashlib.sha256(
                f"{salt}\n{body}".encode()).hexdigest()

    def test_payload_callers_cannot_change_the_memo(self):
        request = small_request(machine=MachineConfig(num_ags=3))
        digest = request.digest(salt="s")
        payload = request.payload()
        payload["machine"]["num_ags"] = 7
        payload["machine"]["dram"]["channels"] = 1
        payload["board"]["mode"] = "isim"
        assert request.payload()["machine"]["num_ags"] == 3
        assert request.digest(salt="s") == digest

    @pytest.mark.parametrize("hashseed", ["0", "4242"])
    def test_digest_stable_across_processes(self, hashseed):
        """The cache key must not depend on interpreter hash state."""
        script = (
            "from repro.engine import RunRequest\n"
            f"print(RunRequest.for_app('depth', sizes={SIZES!r},"
            " seed=3).digest(salt='s'))\n")
        env = dict(os.environ,
                   PYTHONHASHSEED=hashseed,
                   PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == small_request(seed=3).digest(
            salt="s")


def test_report_modules_import_no_scipy():
    """Only the DCT models use scipy (0.5 s to import), and only MPEG
    runs them: the CLI, the analysis package, the critical path and
    the engine leave it out."""
    script = ("import sys\n"
              "import repro.cli, repro.analysis, repro.obs.critpath, "
              "repro.engine\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestCache:
    def test_miss_then_hit_across_sessions(self, tmp_path):
        request = small_request()
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            first = session.submit(request)
            cycles = first.result().metrics.total_cycles
            assert first.cache_status == "miss"
            manifest = first.result().manifest
            assert manifest.cache == "miss"
            assert manifest.request_digest == first.digest
            assert engine_counts(session.metrics)["misses"] == 1
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            second = session.submit(request)
            result = second.result()
            assert second.cache_status == "hit"
            assert result.manifest.cache == "hit"
            assert result.metrics.total_cycles == cycles
            assert engine_counts(session.metrics)["hits"] == 1
            assert engine_counts(session.metrics)["executed"] == 0

    def test_changed_config_misses(self, tmp_path):
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            session.run(small_request())
            handle = session.submit(
                small_request(board=BoardConfig.isim()))
            handle.result()
            assert handle.cache_status == "miss"
            assert engine_counts(session.metrics)["misses"] == 2

    def test_changed_salt_misses(self, tmp_path):
        with Session(config=SessionConfig(cache_dir=tmp_path), salt="v1") as session:
            session.run(small_request())
        with Session(config=SessionConfig(cache_dir=tmp_path), salt="v2") as session:
            handle = session.submit(small_request())
            handle.result()
            assert handle.cache_status == "miss"

    def test_corrupt_entry_is_a_miss_and_discarded(self, tmp_path):
        request = small_request()
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            session.run(request)
            digest = session.submit(request).digest
        cache = ResultCache(tmp_path)
        path = cache._object_path(digest)
        path.write_bytes(b"not a pickle")
        assert cache.load(digest) is None
        assert not path.exists()

    def test_format_1_entry_is_a_miss_and_restored_as_format_2(
            self, tmp_path, monkeypatch):
        """A pinned salt keeps the digest across layout changes, so
        only the entry format stops an old pickle from reaching the
        reports: a format-1 entry (one object per graph node and edge),
        a format-2 entry (one ``TraceEvent`` per instruction, no
        checksum), a format-3 entry (checksummed, but a result without
        its derived profile and walk) and a format-4 entry (one
        checksummed pickle of the whole outcome), a format-5 entry
        (head and body apart, the body's bulky parts not yet packed),
        a format-6 entry (the graph's columns not yet packed, a stored
        walk that reads them) and a format-7 entry (every column
        packed, the walk stored as columns of bytes) are each a miss,
        and the rerun is stored as format 8."""
        monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
        request = small_request()
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            digest = session.submit(request).digest
            session.run(request)
        cache = ResultCache(tmp_path)
        path = cache._object_path(digest)
        entry = path.read_bytes()
        assert entry.startswith(b"repro-cache/8 head=")
        format_5, format_6, format_7 = (
            entry.replace(b"repro-cache/8 ", f"repro-cache/{old} ".encode(),
                          1) for old in (5, 6, 7))
        outcome = cache.load(digest)

        def checksummed(format, payload):
            return (f"repro-cache/{format} sha256=".encode()
                    + hashlib.sha256(payload).hexdigest().encode()
                    + b"\n" + payload)

        format_4 = checksummed(4, pickle.dumps(outcome))
        result = outcome.result
        result.derived = None
        format_3 = checksummed(3, pickle.dumps(outcome))
        result.trace = list(result.trace)
        format_2 = pickle.dumps({"format": 2, "outcome": outcome})
        graph = result.event_graph
        state = {"nodes": list(graph.nodes), "edges": list(graph.edges),
                 "meta": graph.meta}
        graph.__dict__.clear()
        graph.__dict__.update(state)
        format_1 = pickle.dumps({"format": 1, "outcome": outcome})
        assert CACHE_FORMAT == 8
        for old in (format_1, format_2, format_3, format_4, format_5,
                    format_6, format_7):
            path.write_bytes(old)
            path.with_suffix(".json").write_text("{}")
            assert cache.load(digest) is None
            assert not path.exists()
            assert not path.with_suffix(".json").exists()
            with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
                handle = session.submit(request)
                result = handle.result()
                assert handle.digest == digest
                assert handle.cache_status == "miss"
            assert build_critpath(result)["checks"]["conservation"]["ok"]
            assert path.read_bytes().startswith(b"repro-cache/8 head=")
            restored = cache.load(digest).result
            assert restored.event_graph == result.event_graph
            assert restored.trace == result.trace

    def test_corrupt_entries_are_misses_that_never_raise(self, tmp_path):
        """Truncations and single-byte flips anywhere in an entry's
        pickle -- header, head or body, including each end of both
        parts -- are misses that remove both halves of the entry
        (pickle and served envelope); the intact entry is a hit that
        reports what a fresh run reports."""
        from repro.serve.artifacts import ArtifactStore

        request = RunRequest.for_app("rtsl", sizes={"triangles": 60})
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            digest = session.submit(request).digest
            session.run(request)
        cache = ResultCache(tmp_path)
        path = cache._object_path(digest)
        sidecar = ArtifactStore(tmp_path).store(digest, {"cycles": 1.0})
        intact, summary = path.read_bytes(), sidecar.read_bytes()
        header = intact.index(b"\n") + 1
        rng = random.Random(20260)
        corrupted = [intact[:end] for end in sorted(
            {0, 1, header - 1, header, header + 1, len(intact) // 2,
             len(intact) - 1, *rng.sample(range(len(intact)), 8)})]
        body = header + int(intact.split(b" head=")[1].split(b":")[0])
        flips = ([*range(header), header, body - 1, body,
                  len(intact) - 1]
                 + rng.sample(range(header, len(intact)), 64))
        for offset in flips:
            data = bytearray(intact)
            data[offset] ^= rng.randrange(1, 256)
            corrupted.append(bytes(data))
        for data in corrupted:
            path.write_bytes(data)
            sidecar.write_bytes(summary)
            assert cache.load(digest) is None
            assert not path.exists() and not sidecar.exists()

        path.write_bytes(intact)
        sidecar.write_bytes(summary)
        hit = cache.load(digest).result
        with Session(config=SessionConfig(cache=False)) as session:
            fresh = session.run(request)
        for build in (build_profile, build_critpath):
            assert json.dumps(build(hit), sort_keys=True) == json.dumps(
                build(fresh), sort_keys=True)

    def test_inflight_dedup_within_one_session(self, tmp_path):
        request = small_request()
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            first = session.submit(request)
            second = session.submit(request)
            assert second.cache_status == "hit"
            assert first.result().metrics.total_cycles == \
                second.result().metrics.total_cycles
            assert second.result().manifest.cache == "hit"
            assert first.result().manifest.cache == "miss"
            assert engine_counts(session.metrics)["hits"] == 1
            assert engine_counts(session.metrics)["executed"] == 1

    def test_settled_runs_are_not_retained(self, tmp_path):
        """A long-lived session holds no outcome its callers dropped:
        40 distinct digests through one session leave none behind."""
        import gc
        import weakref

        retained = []
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            for seed in range(40):
                outcome = session.submit(small_request(seed=seed)).outcome()
                assert outcome.completed
                retained.append(weakref.ref(outcome))
            del outcome
            gc.collect()
            assert sum(ref() is not None for ref in retained) == 0

    def test_disabled_cache_marks_uncached(self, tmp_path):
        with Session(config=SessionConfig(cache=False)) as session:
            handle = session.submit(small_request())
            manifest = handle.result().manifest
            assert handle.cache_status == "uncached"
            assert manifest.cache == "uncached"
            assert manifest.request_digest == handle.digest
            assert engine_counts(session.metrics)["uncached"] == 1
        assert not list(tmp_path.iterdir())

    def test_readonly_cache_dir_never_fails_the_run(self, tmp_path):
        root = tmp_path / "ro"
        root.mkdir()
        (root / "objects").mkdir()
        os.chmod(root / "objects", 0o500)
        try:
            with Session(config=SessionConfig(cache_dir=root)) as session:
                result = session.run(small_request())
            assert result.metrics.total_cycles > 0
        finally:
            os.chmod(root / "objects", 0o700)


class TestDeterminism:
    def test_evaluate_identical_serial_parallel_warm(self, tmp_path):
        """The acceptance bar: evaluate report JSON is byte-identical
        at jobs=1, jobs=2 and from a warm cache."""
        blobs = []
        for jobs, cache_dir in ((1, tmp_path / "a"),
                                (2, tmp_path / "b"),
                                (2, tmp_path / "b")):
            with Session(config=SessionConfig(jobs=jobs, cache_dir=cache_dir)) as session:
                texts = run_full_evaluation(sections=["table3"],
                                            session=session)
                blobs.append(json.dumps(
                    evaluation_report(texts), sort_keys=True))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_campaign_identical_serial_parallel_warm(
            self, tmp_path, small_bundle):
        plan = BUILTIN_PLANS["flaky-host"]
        blobs = []
        for jobs, cache_dir in ((1, tmp_path / "a"),
                                (2, tmp_path / "b"),
                                (1, tmp_path / "b")):
            with Session(config=SessionConfig(jobs=jobs, cache_dir=cache_dir)) as session:
                report = run_campaign(
                    small_bundle, plan, trials=2, seed=5,
                    curves=False, session=session)
                validate_report(report)
                blobs.append(json.dumps(report, sort_keys=True))
        assert blobs[0] == blobs[1] == blobs[2]
        assert blobs and json.loads(blobs[0])["faults"]


class TestSessionApi:
    def test_run_batch_preserves_order(self, tmp_path):
        requests = [small_request(seed=seed) for seed in (1, 2, 3)]
        with Session(config=SessionConfig(jobs=2, cache_dir=tmp_path)) as session:
            results = session.run_batch(requests)
        assert len(results) == 3
        assert all(r.metrics.total_cycles > 0 for r in results)

    def test_unknown_app_fails_fast(self):
        with Session(config=SessionConfig(cache=False)) as session:
            with pytest.raises(CatalogError):
                session.submit(RunRequest(app="doom"))

    def test_closed_session_rejects_submits(self):
        session = Session(config=SessionConfig(cache=False))
        session.close()
        from repro.engine import EngineError

        with pytest.raises(EngineError, match="closed"):
            session.submit(small_request())

    def test_hand_built_bundle_runs_uncached(self, tmp_path):
        from repro.apps.common import AppBundle

        bundle = build_app("depth", **SIZES)
        bundle.source = None       # simulate a hand-built bundle
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            result = session.run_bundle(bundle)
            assert result.manifest.cache == "uncached"
            assert engine_counts(session.metrics)["uncached"] == 1
        assert isinstance(bundle, AppBundle)
        assert not list(tmp_path.iterdir())

    def test_traced_run_bypasses_cache_not_behaviour(self, tmp_path):
        from repro.obs.tracer import Tracer

        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            plain = session.run(small_request())
            tracer = Tracer()
            handle = session.submit(small_request(), tracer=tracer)
            traced = handle.result()
            assert handle.cache_status == "uncached"
            assert traced.manifest.cache == "uncached"
            assert traced.metrics.total_cycles == \
                plain.metrics.total_cycles
            assert tracer.spans, "tracer must observe the run"

    def test_simulation_failure_is_typed_and_cacheable(self, tmp_path):
        request = small_request(faults=WEDGE)
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            outcome = session.submit(request).outcome()
            assert not outcome.completed
            assert outcome.error_type == "SimulationError"
            assert outcome.diagnostics["reason"] == "livelock"
            with pytest.raises(SimulationError):
                outcome.unwrap()   # in-process: original exception
            assert engine_counts(session.metrics)["failed"] == 1
        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            handle = session.submit(request)
            cached = handle.outcome()
            assert handle.cache_status == "hit"
            assert cached.error_type == "SimulationError"
            assert cached.diagnostics["reason"] == "livelock"
            with pytest.raises(RunFailure):
                cached.unwrap()    # exceptions don't cross the cache
            assert engine_counts(session.metrics)["executed"] == 0

    def test_parallel_timeout_is_a_failed_outcome(self, tmp_path):
        with Session(config=SessionConfig(jobs=2, cache=False, timeout=0.001)) as session:
            handle = session.submit(small_request())
            outcome = handle.outcome()
        assert not outcome.completed
        assert outcome.error_type == "RunTimeout"
        assert engine_counts(session.metrics)["timeouts"] == 1

    def test_probes_export_cache_counters(self, tmp_path):
        from repro.obs.metrics import probes_from_metrics

        with Session(config=SessionConfig(cache_dir=tmp_path)) as session:
            session.run(small_request())
            session.run(small_request())
            registry = probes_from_metrics(session.metrics)
        assert registry.get(
            "engine_cache_requests_total{result=hit}").value == 1
        assert registry.get(
            "engine_cache_requests_total{result=miss}").value == 1
        assert registry.get("engine_runs_executed_total").value == 1

    def test_run_app_shim_is_gone(self):
        # Removed after its deprecation cycle; EP002 (and this test)
        # keep it from quietly coming back.
        import repro.apps
        import repro.apps.common

        assert not hasattr(repro.apps, "run_app")
        assert not hasattr(repro.apps.common, "run_app")
        assert "run_app" not in repro.apps.__all__


class TestEntrypointLint:
    def test_repo_is_clean(self):
        # The EP family is the only repository-scope rule set; the
        # standalone tools/ shim is gone, so CI and the tier-1 hook
        # drive it through `repro lint --select EP`.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--select", "EP"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert out.returncode == 0, out.stdout + out.stderr

    def test_select_ep_runs_no_simulation(self):
        from repro.analysis.lint import lint_catalog

        report = lint_catalog(select={"EP"})
        assert report.passes == ["repo.entrypoints"]
        assert report.coverage == {"apps": [], "kernels": []}
        assert [f for f in report.findings
                if not f.rule.startswith("EP")] == []

    def test_new_call_site_is_flagged(self, tmp_path):
        from repro.analysis.rules import entrypoints

        rogue = tmp_path / "rogue.py"
        # The class name is split so this test file itself stays
        # clean under the lint it is testing.
        processor = "Imagine" + "Processor"
        rogue.write_text(
            f"from repro.core import {processor}\n"
            f"r = {processor}(board=None).run(image)\n")
        assert entrypoints.call_sites(rogue) == [2]
        clean = tmp_path / "clean.py"
        clean.write_text("from repro.engine import Session\n")
        assert entrypoints.call_sites(clean) == []


class TestCliFlags:
    def test_app_accepts_engine_flags(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["app", "depth", "--jobs", "1",
                         "--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "[engine] jobs=1" in err
        assert "misses=1" in err
        assert cli_main(["app", "depth",
                         "--cache-dir", str(tmp_path)]) == 0
        assert "hits=1" in capsys.readouterr().err

    def test_evaluate_json_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.evaluation import EVALUATION_SCHEMA

        out = tmp_path / "report.json"
        assert cli_main(["evaluate", "power", "--no-cache",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == EVALUATION_SCHEMA
        assert "power" in report["sections"]
