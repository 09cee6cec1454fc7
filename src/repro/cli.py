"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper's evaluation flow from a shell:

* ``microbench`` -- Table 1 component peaks;
* ``kernels``    -- Table 2 kernel rates, the Figure 6 breakdown and
  functional-unit occupancy;
* ``app NAME``   -- run DEPTH / MPEG / QRD / RTSL and print the
  Table-3 summary, Figure-11 breakdown and per-kernel profile;
* ``trace NAME`` -- run one application with the cross-layer tracer
  and export a Chrome/Perfetto ``trace_event`` JSON;
* ``faults NAME`` -- run a degraded-mode resilience campaign under a
  seeded fault plan and emit the resilience report
  (see ``docs/robustness.md``);
* ``memory``     -- Figure 9 (``--ags 1``) or 10 (``--ags 2``) pattern
  sweep;
* ``power``      -- the Section 5.5 efficiency comparison;
* ``evaluate``   -- the paper's whole evaluation, one section per
  table or figure (``--list`` names them);
* ``lint``       -- statically verify every catalog app/kernel
  (``docs/analysis.md``);
* ``profile NAME`` -- hierarchical cycle-accounting profile of one
  run (``repro.profile-report/1``, ``docs/observability.md``);
* ``diff A B``   -- compare two profile reports category by category;
* ``perf``       -- profile the whole catalog, append to the
  perf-history store and flag regressions against a baseline;
* ``serve``      -- the resilient async HTTP/JSON experiment service
  (submit/poll/fetch), or ``--soak`` for the seeded chaos load
  harness (``docs/serving.md``); exposes Prometheus text metrics at
  ``GET /metrics`` and stitched cross-process traces at
  ``GET /v1/jobs/ID/trace``;
* ``slo``        -- pass/fail the SLO block of a soak report
  (availability, error budget, conservation, cold p99;
  ``docs/observability.md``);
* ``gate``       -- the differential gate: over the app matrix plus a
  seeded fuzzed ``streamc`` corpus and one probe per compiled kernel,
  byte-compare the event-driven and vectorized backends, assert
  ``lower <= simulated <= upper`` on both, check each probe against
  its kernel's static predictions, and compare the static bottleneck
  to the dynamic critical path (``repro.gate/1``; see
  ``docs/analysis.md``);
* ``cache``      -- inspect or LRU-prune the content-addressed
  result cache.

``microbench``, ``kernels``, ``memory``, ``power`` and ``evaluate``
print the paper's tables as :mod:`repro.evaluation` renders them, the
text committed under ``benchmarks/results/``.  ``microbench``,
``kernels``, ``app`` and ``evaluate`` accept ``--json`` for
machine-readable reports (see ``docs/observability.md``).

Simulation-backed commands (``app``, ``trace``, ``faults``,
``evaluate``, ``profile``, ``perf``) run through the
:mod:`repro.engine` session: ``--jobs N``
shards independent runs across worker processes, results are served
from the content-addressed cache under ``~/.cache/repro`` (disable
with ``--no-cache``, relocate with ``--cache-dir``), and the engine's
hit/miss counters are printed to stderr.  Output is byte-identical
whatever the job count or cache temperature (``docs/engine.md``).
The engine picks the simulation backend from the run: the vectorized
backend unless the run is traced or carries a fault plan, which run on
the event-driven reference model; the two are bit-identical by
contract, so the choice changes wall-clock time only.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import BoardConfig


def _session(args):
    from repro.engine import Session, SessionConfig

    config = SessionConfig(
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        history=getattr(args, "history", None) or None)
    return Session(config=config)


def _print_engine_stats(session) -> None:
    print(session.describe(), file=sys.stderr)


def _app_name(args) -> str | None:
    """``args.name`` as a catalog key, or None once the unknown-name
    message is printed (the command then exits 2)."""
    from repro.engine.catalog import APP_NAMES

    name = args.name.lower()
    if name not in APP_NAMES:
        print(f"unknown application {args.name!r}; "
              f"choose from {sorted(APP_NAMES)}", file=sys.stderr)
        return None
    return name


def _app_list(args) -> list[str] | None:
    """``args.apps`` (default: the whole catalog) as catalog keys, or
    None once the unknown-names message is printed (exit 2)."""
    from repro.engine.catalog import APP_NAMES

    apps = [name.lower() for name in (args.apps or APP_NAMES)]
    unknown = set(apps) - set(APP_NAMES)
    if unknown:
        print(f"unknown application(s) {sorted(unknown)}; "
              f"choose from {sorted(APP_NAMES)}", file=sys.stderr)
        return None
    return apps


def _write_out(path: str, text: str, what: str) -> bool:
    """Write ``text`` and a newline to ``path``; False once ``cannot
    write <what>: <error>`` is printed (the command then exits 2)."""
    try:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    except OSError as error:
        print(f"cannot write {what}: {error}", file=sys.stderr)
        return False
    return True


def _print_sections(args, *names: str) -> None:
    """Print paper sections as :mod:`repro.evaluation` renders them
    on the command's board: the text the repository commits."""
    from repro.evaluation import run_full_evaluation

    texts = run_full_evaluation(board=_board(args), sections=list(names))
    print("\n\n".join(texts.values()))


def _cmd_microbench(args) -> int:
    if args.json:
        from repro.workloads.microbench import run_all_microbenchmarks

        results = run_all_microbenchmarks(board=_board(args))
        print(json.dumps({
            "schema": "repro.microbench-report/1",
            "rows": [{"component": r.component,
                      "achieved": r.achieved,
                      "theoretical": r.theoretical,
                      "unit": r.unit,
                      "power_watts": r.power_watts,
                      "efficiency": r.efficiency}
                     for r in results],
        }, indent=2))
        return 0
    _print_sections(args, "table1")
    return 0


def _cmd_kernels(args) -> int:
    from repro.kernels import KERNEL_LIBRARY
    from repro.kernels.library import TABLE2_KERNELS

    if args.json:
        from repro.analysis import kernel_breakdown, measure_kernel

        measured = {name: measure_kernel(KERNEL_LIBRARY[name])
                    for name in TABLE2_KERNELS}
        print(json.dumps({
            "schema": "repro.kernels-report/1",
            "rows": [{"kernel": name,
                      "rate": row.rate,
                      "rate_unit": row.rate_unit,
                      "lrf_gbytes": row.lrf_gbytes,
                      "srf_gbytes": row.srf_gbytes,
                      "ipc": row.ipc,
                      "power_watts": row.power_watts,
                      "breakdown": kernel_breakdown(
                          KERNEL_LIBRARY[name])}
                     for name, row in measured.items()],
        }, indent=2))
        return 0
    from repro.analysis.occupancy import render_occupancy

    _print_sections(args, "table2", "figure6")
    print()
    print(render_occupancy(
        [KERNEL_LIBRARY[name].compiled() for name in TABLE2_KERNELS]))
    return 0


def _cmd_app(args) -> int:
    from repro.analysis import render_kernel_profile, render_timeline
    from repro.analysis.report import render_breakdown, run_report
    from repro.engine import build_app
    from repro.obs.profile import build_profile

    name = _app_name(args)
    if name is None:
        return 2
    bundle = build_app(name)
    with _session(args) as session:
        result = session.run_bundle(bundle, board=_board(args))
        _print_engine_stats(session)
    if args.json:
        print(json.dumps(run_report(result, bundle=bundle), indent=2))
        return 0
    print(result.summary())
    print(f"throughput: {bundle.throughput(result.seconds):.1f} "
          f"{bundle.work_name}/s")
    print()
    print(render_breakdown(
        "execution-time breakdown",
        {bundle.name: build_profile(result)["figure11"]}))
    print()
    print(render_kernel_profile(result))
    if args.timeline:
        print()
        print(render_timeline(result, kinds=("kernel", "restart",
                                             "mem_load", "mem_store")))
    return 0


def _cmd_trace(args) -> int:
    from repro.engine import build_app
    from repro.obs import Tracer, counters_csv, write_chrome_trace

    name = _app_name(args)
    if name is None:
        return 2
    tracer = Tracer()
    bundle = build_app(name)
    with _session(args) as session:
        result = session.run_bundle(bundle, board=_board(args),
                                    tracer=tracer)
    try:
        document = write_chrome_trace(
            tracer, args.out,
            clock_hz=result.metrics.machine.clock_hz,
            label=f"imagine/{result.name}")
        if args.counters_csv:
            with open(args.counters_csv, "w") as handle:
                handle.write(counters_csv(tracer))
    except OSError as error:
        print(f"cannot write trace: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    print(f"wrote {args.out}: {len(document['traceEvents'])} events "
          f"on {len(tracer.tracks())} tracks "
          f"({', '.join(tracer.tracks())})")
    print("open in https://ui.perfetto.dev or about://tracing")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import BUILTIN_PLANS, FaultPlanError, get_plan
    from repro.faults.campaign import run_campaign

    if args.list_plans:
        for name, plan in sorted(BUILTIN_PLANS.items()):
            kinds = ", ".join(spec.kind.value for spec in plan)
            print(f"{name}: {kinds}")
        return 0
    if not args.name:
        print("missing application name (or use --list-plans)",
              file=sys.stderr)
        return 2
    from repro.engine import build_app

    name = _app_name(args)
    if name is None:
        return 2
    try:
        plan = get_plan(args.plan)
    except FaultPlanError as error:
        print(f"bad fault plan: {error}", file=sys.stderr)
        print(f"builtin plans: {', '.join(sorted(BUILTIN_PLANS))}",
              file=sys.stderr)
        return 2
    bundle = build_app(name)
    with _session(args) as session:
        report = run_campaign(bundle, plan, trials=args.trials,
                              seed=args.seed, board=_board(args),
                              curves=not args.no_curves,
                              strict=args.strict, session=session)
        _print_engine_stats(session)
    text = json.dumps(report, indent=2)
    if args.out:
        if not _write_out(args.out, text, "report"):
            return 2
        completed = sum(row["completed"] for row in report["faults"])
        total = sum(len(row["trials"]) for row in report["faults"])
        print(f"wrote {args.out}: plan {plan.name!r}, "
              f"{completed}/{total} faulted trials completed, "
              f"baseline {report['baseline']['gops']:.2f} GOPS")
    else:
        print(text)
    return 0


def _cmd_memory(args) -> int:
    _print_sections(args, f"figure{8 + args.ags}")
    return 0


def _cmd_kernel(args) -> int:
    from repro.analysis import kernel_breakdown, measure_kernel
    from repro.analysis.report import render_breakdown
    from repro.kernelc.listing import render_listing
    from repro.kernels import KERNEL_LIBRARY

    if args.name not in KERNEL_LIBRARY:
        print(f"unknown kernel {args.name!r}; available: "
              f"{', '.join(sorted(KERNEL_LIBRARY))}", file=sys.stderr)
        return 2
    spec = KERNEL_LIBRARY[args.name]
    row = measure_kernel(spec)
    print(f"{spec.name}: {spec.description}")
    print(f"sustained {row.rate:.2f} {row.rate_unit}, "
          f"IPC {row.ipc:.1f}, LRF {row.lrf_gbytes:.1f} GB/s, "
          f"SRF {row.srf_gbytes:.2f} GB/s, {row.power_watts:.2f} W")
    print()
    print(render_breakdown("run-time breakdown",
                           {spec.name: kernel_breakdown(spec)}))
    if args.listing:
        print()
        print(render_listing(spec.compiled()))
    return 0


def _cmd_evaluate(args) -> int:
    from repro.evaluation import (
        ARTIFACTS,
        SECTIONS,
        evaluation_report,
        run_full_evaluation,
    )

    sections = args.sections or None
    if args.list:
        for name in SECTIONS:
            committed = (f"benchmarks/results/{ARTIFACTS[name]}.txt"
                         if name in ARTIFACTS else "-")
            print(f"{name:9s} {committed}")
        return 0
    unknown = set(sections or []) - set(SECTIONS)
    if unknown:
        print(f"unknown section(s) {sorted(unknown)}; "
              f"choose from {sorted(SECTIONS)}", file=sys.stderr)
        return 2
    board = _board(args)
    with _session(args) as session:
        texts = run_full_evaluation(board=board, sections=sections,
                                    session=session)
        _print_engine_stats(session)
    if args.json or args.out:
        text = json.dumps(evaluation_report(texts, board=board),
                          indent=2)
        if args.out:
            if not _write_out(args.out, text, "report"):
                return 2
            print(f"wrote {args.out}: {len(texts)} section(s)",
                  file=sys.stderr)
        else:
            print(text)
        return 0
    for text in texts.values():
        print(text)
        print()
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import RULE_FAMILIES, lint_catalog

    select = {family.upper() for family in args.select} \
        if args.select else None
    unknown = sorted(select - set(RULE_FAMILIES)) if select else []
    if unknown:
        print(f"unknown rule family {', '.join(unknown)}; choose from "
              f"{' '.join(RULE_FAMILIES)}", file=sys.stderr)
        return 2
    report = lint_catalog(repo=args.repo, select=select)
    as_json = args.json or args.format == "json"
    if as_json or args.out:
        text = report.to_json()
        if args.out:
            if not _write_out(args.out, text, "report"):
                return 2
            print(f"wrote {args.out}: {len(report.errors)} error(s), "
                  f"{len(report.warnings)} warning(s)",
                  file=sys.stderr)
        else:
            print(text)
    else:
        print(report.render())
    return report.exit_code


def _cmd_power(args) -> int:
    _print_sections(args, "power")
    return 0


def _cmd_profile(args) -> int:
    from repro.engine import RunRequest
    from repro.obs.profile import (
        build_profile,
        render_profile,
        validate_profile,
    )

    name = _app_name(args)
    if name is None:
        return 2
    with _session(args) as session:
        result = session.run(RunRequest.for_app(name,
                                                board=_board(args)))
        _print_engine_stats(session)
    profile = build_profile(result)
    validate_profile(profile)
    if args.out:
        if not _write_out(args.out, json.dumps(profile, indent=2),
                          "profile"):
            return 2
        print(f"wrote {args.out}: "
              f"{len(profile['components'])} components, "
              f"{len(profile['kernels'])} kernels")
    elif args.json:
        print(json.dumps(profile, indent=2))
    else:
        print(render_profile(profile))
    return 0


def _cmd_critpath(args) -> int:
    from repro.engine import RunRequest
    from repro.obs.critpath import (
        render_critpath,
        validate_critpath,
    )

    name = _app_name(args)
    if name is None:
        return 2
    with _session(args) as session:
        report = session.critpath(
            RunRequest.for_app(name, board=_board(args)))
        _print_engine_stats(session)
    validate_critpath(report)
    if args.out:
        if not _write_out(args.out, json.dumps(report, indent=2),
                          "critpath report"):
            return 2
        print(f"wrote {args.out}: {len(report['segments'])} "
              f"segments, binding resource "
              f"{report['top_resources'][0]['resource']}")
    elif args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_critpath(report))
    return 0


def _cmd_whatif(args) -> int:
    from repro.engine import RunRequest
    from repro.obs.critpath import (
        CritpathError,
        parse_scales,
        render_whatif,
    )

    name = _app_name(args)
    if name is None:
        return 2
    try:
        scales = parse_scales(args.scale)
    except CritpathError as error:
        print(f"bad --scale: {error}", file=sys.stderr)
        return 2
    with _session(args) as session:
        try:
            report = session.whatif(
                RunRequest.for_app(name, board=_board(args)),
                scales, validate=args.validate)
        except CritpathError as error:
            print(f"cannot project: {error}", file=sys.stderr)
            return 2
        _print_engine_stats(session)
    if args.out:
        if not _write_out(args.out, json.dumps(report, indent=2),
                          "whatif report"):
            return 2
        print(f"wrote {args.out}: predicted speedup "
              f"{report['predicted_speedup']:.2f}x")
    elif args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_whatif(report))
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import diff_profiles, render_diff
    from repro.obs.profile import ProfileError

    profiles = []
    for path in (args.a, args.b):
        try:
            with open(path) as handle:
                profiles.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read profile {path!r}: {error}",
                  file=sys.stderr)
            return 2
    try:
        diff = diff_profiles(profiles[0], profiles[1],
                             threshold=args.threshold)
    except ProfileError as error:
        print(f"bad profile: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff))
    if args.fail_on_regression and diff["regression"]:
        return 1
    return 0


def _cmd_perf(args) -> int:
    from repro.engine import RunRequest
    from repro.obs.critpath import build_critpath
    from repro.obs.history import DEFAULT_HISTORY_PATH
    from repro.obs.profile import build_profile, validate_profile

    # perf alone feeds the benchmark store by default; a parser
    # default would leak into every command sharing --history.
    if args.history is None:
        args.history = DEFAULT_HISTORY_PATH
    apps = _app_list(args)
    if apps is None:
        return 2
    modes = args.boards or ["hardware", "isim"]
    boards = {"hardware": BoardConfig.hardware(),
              "isim": BoardConfig.isim()}

    document = {"schema": "repro.bench-profile/1", "apps": {}}
    # Critical-path facts for the reference board only: which
    # resource binds each app, with how much slack.
    reference_mode = "hardware" if "hardware" in modes else modes[0]
    critpath_document = {"schema": "repro.bench-critpath/1",
                         "board_mode": reference_mode, "apps": {}}
    with _session(args) as session:
        handles = {(app, mode): session.submit(
                       RunRequest.for_app(app, board=boards[mode]))
                   for app in apps for mode in modes}
        for app in apps:
            rows = {}
            for mode in modes:
                result = handles[(app, mode)].result()
                profile = build_profile(result)
                validate_profile(profile)
                if mode == reference_mode:
                    report = build_critpath(result)
                    critpath_document["apps"][app.upper()] = {
                        "binding_resources": report["top_resources"],
                        "path_cycles": report["path_cycles"],
                        "conservation_ok":
                            report["checks"]["conservation"]["ok"],
                    }
                # Deterministic summary only: wall-clock and engine
                # counters live in the history store, never here, so
                # the document is byte-identical across --jobs and
                # cache temperature.
                rows[mode] = {
                    "request_digest": profile["request_digest"],
                    "cycles": profile["total_cycles"],
                    "gops": profile["summary"]["gops"],
                    "gflops": profile["summary"]["gflops"],
                    "watts": profile["summary"]["watts"],
                    "busy_fraction":
                        profile["summary"]["busy_fraction"],
                    "stall_fraction":
                        profile["summary"]["stall_fraction"],
                    "idle_fraction":
                        profile["summary"]["idle_fraction"],
                    "stall_cycles": dict(
                        profile["components"]["clusters"]["stall"]),
                }
            document["apps"][app.upper()] = rows
        _print_engine_stats(session)

    if not _write_out(args.out, json.dumps(document, indent=2),
                      repr(args.out)):
        return 2
    print(f"wrote {args.out}: {len(apps)} app(s) x "
          f"{len(modes)} board(s)"
          + (f"; history -> {args.history}" if args.history else ""))

    if args.critpath_out:
        if not _write_out(args.critpath_out,
                          json.dumps(critpath_document, indent=2),
                          repr(args.critpath_out)):
            return 2
        print(f"wrote {args.critpath_out}: binding resources on "
              f"{reference_mode}")

    if not args.baseline:
        return 0
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read baseline {args.baseline!r}: {error}",
              file=sys.stderr)
        return 2
    regressions = []
    for app, rows in document["apps"].items():
        for mode, row in rows.items():
            base = baseline.get("apps", {}).get(app, {}).get(mode)
            if base is None or not base.get("cycles"):
                continue
            slowdown = row["cycles"] / base["cycles"] - 1.0
            marker = "REGRESSION" if slowdown > args.tolerance else "ok"
            print(f"{app}/{mode}: {base['cycles']:.0f} -> "
                  f"{row['cycles']:.0f} cycles "
                  f"({slowdown * 100:+.2f}%) {marker}")
            if slowdown > args.tolerance:
                regressions.append((app, mode, slowdown))
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.tolerance * 100:.0f}% vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"no regressions beyond {args.tolerance * 100:.0f}% "
          f"vs {args.baseline}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import (
        ChaosMonkey,
        ExperimentService,
        ServiceConfig,
        ServiceServer,
        get_chaos_plan,
    )
    from repro.serve.chaos import ChaosPlanError

    try:
        plan = get_chaos_plan(args.chaos).with_seed(args.seed)
    except ChaosPlanError as error:
        print(f"bad chaos plan: {error}", file=sys.stderr)
        return 2

    if args.soak:
        from repro.serve.load import run_soak, soak_report_bytes

        report = asyncio.run(run_soak(
            seed=args.seed, requests=args.soak,
            cold_digests=args.cold_digests,
            concurrency=args.concurrency, chaos=args.chaos,
            data_dir=args.data_dir, workers=args.workers,
            history=args.history or None,
            metrics_out=args.metrics_out or None,
            trace_out=args.trace_out or None))
        data = soak_report_bytes(report)
        invariants = report["invariants"]
        if args.report:
            try:
                with open(args.report, "wb") as handle:
                    handle.write(data)
            except OSError as error:
                print(f"cannot write report: {error}", file=sys.stderr)
                return 2
            print(f"wrote {args.report}: {args.soak} requests, "
                  f"plan {args.chaos!r}, "
                  f"{invariants['accepted_jobs']} accepted, "
                  f"lost={not invariants['no_lost_jobs']}, "
                  f"wrong_digest="
                  f"{invariants['wrong_digest_serves']}")
        else:
            sys.stdout.write(data.decode())
        healthy = (invariants["no_lost_jobs"]
                   and invariants["digest_integrity"])
        return 0 if healthy else 1

    config = ServiceConfig(data_dir=args.data_dir,
                           cache_dir=args.cache_dir,
                           workers=args.workers,
                           queue_limit=args.queue_limit,
                           history=args.history or None,
                           trace_jobs=args.trace_jobs)
    service = ExperimentService(config, chaos=ChaosMonkey(plan))
    access_log = None
    if args.log_json:
        def access_log(entry: dict) -> None:
            json.dump(entry, sys.stdout, sort_keys=True)
            sys.stdout.write("\n")
            sys.stdout.flush()
    server = ServiceServer(service, host=args.host, port=args.port,
                           access_log=access_log)

    async def _serve() -> None:
        await server.start()
        print(f"serving on http://{server.host}:{server.port} "
              f"(data {service.data_dir}, {config.workers} workers"
              + (f", chaos plan {plan.name!r}" if plan.faults else "")
              + ")", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_slo(args) -> int:
    from repro.serve.slo import SloError, evaluate_slo, render_slo

    try:
        with open(args.report) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read report: {error}", file=sys.stderr)
        return 2
    try:
        verdict = evaluate_slo(report,
                               availability=args.availability,
                               p99_ms=args.p99_ms)
    except SloError as error:
        print(f"bad report: {error}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(verdict, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_slo(verdict))
    return 0 if verdict["pass"] else 1


def _cmd_gate(args) -> int:
    from repro.engine.gate import (
        BEST_OF,
        BOARD_MODES,
        MAX_MEAN_TIGHTNESS,
        MIN_BOTTLENECK_MATCHES,
        MIN_CELL_SPEEDUP,
        run_gate,
    )
    from repro.obs.history import append_entries

    apps = _app_list(args)
    if apps is None:
        return 2
    report, history = run_gate(
        apps=apps, boards=args.boards or BOARD_MODES,
        fuzz=args.fuzz, fuzz_seed=args.seed,
        progress=lambda message: print(message, file=sys.stderr))

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as error:
            print(f"cannot write {args.out!r}: {error}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json or not args.out:
        print(text)
    if args.history:
        written = append_entries(args.history, history)
        print(f"history -> {args.history}: {written} line(s)",
              file=sys.stderr)

    cells = [line for line in history if line["app"] != "MATRIX"]
    probes = report["probes"]
    failures = report["fuzz"]["failures"] + probes["failures"]
    identical = (report["matrix_mismatches"] == 0
                 and all(f.get("identical", True) for f in failures))
    bracketed = (report["matrix_bracket_failures"] == 0
                 and all(f.get("bracketed", True) for f in failures))
    aggregate = report["aggregate"]
    verdict = (f"{'IDENTICAL' if identical else 'MISMATCH'}, "
               f"{'BRACKETED' if bracketed else 'BRACKET FAILURE'}: "
               f"{len(report['matrix'])} matrix cell(s), "
               f"{report['fuzz']['count']} fuzz program(s) and "
               f"{probes['count']} kernel probe(s) "
               f"({len(probes['failures'])} failing) x "
               f"{len(report['fuzz']['boards'])} board(s); "
               f"mean tightness {aggregate['mean_tightness']:.3f}, "
               f"bottleneck match {report['bottleneck_matches']}/"
               f"{report['bottleneck_cells']}, "
               f"{len(report['discrepancy_seeds'])} discrepancy "
               f"seed(s)")
    if cells:
        speedups = [line["speedup"] for line in cells]
        verdict += (f"; vector speedup {min(speedups):.1f}-"
                    f"{max(speedups):.1f}x (best of {BEST_OF})")
    print(verdict, file=sys.stderr)
    if aggregate["full_matrix"] and (
            aggregate["mean_tightness"] > MAX_MEAN_TIGHTNESS
            or report["bottleneck_matches"] < MIN_BOTTLENECK_MATCHES):
        print(f"full-matrix targets missed: mean tightness must be "
              f"<= {MAX_MEAN_TIGHTNESS} and the bottleneck must "
              f"match on >= {MIN_BOTTLENECK_MATCHES} cells",
              file=sys.stderr)
    slow = [line for line in cells
            if line["speedup"] < MIN_CELL_SPEEDUP]
    for line in slow:
        print(f"{line['app']}/{line['board_mode']}: vector speedup "
              f"{line['speedup']:.2f}x is below the "
              f"{MIN_CELL_SPEEDUP:.1f}x floor", file=sys.stderr)
    return 0 if report["ok"] and not slow else 1


def _cmd_cache(args) -> int:
    from repro.engine.cache import ResultCache

    cache = ResultCache(args.cache_dir, max_bytes=args.max_bytes)
    if args.prune:
        report = cache.prune(args.max_bytes)
        print(f"{cache.root}: evicted {report['evicted']} entries "
              f"({report['freed']} bytes); {report['entries']} "
              f"entries / {report['bytes']} bytes remain"
              + (f" (budget {report['max_bytes']})"
                 if report["max_bytes"] is not None else ""))
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    budget = (f"{stats['max_bytes']}" if stats["max_bytes"] is not None
              else "unbounded")
    print(f"{stats['root']}: {stats['entries']} entries, "
          f"{stats['bytes']} bytes (budget {budget}"
          + (", OVER BUDGET" if stats["over_budget"] else "") + ")")
    return 0


def _board(args) -> BoardConfig:
    board = (BoardConfig.isim() if getattr(args, "isim", False)
             else BoardConfig.hardware())
    if getattr(args, "host_mips", None):
        board = board.with_host_mips(args.host_mips)
    return board


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Imagine stream-architecture evaluation, "
                    "reproduced (ISCA 2004)")
    parser.add_argument("--isim", action="store_true",
                        help="use the cycle-accurate-simulator model "
                             "instead of the development board")
    parser.add_argument("--host-mips", type=float, default=None,
                        help="override host-interface bandwidth")
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes for independent "
                                  "simulations (default 1; output is "
                                  "byte-identical at any job count)")
    engine_opts.add_argument("--no-cache", action="store_true",
                             help="bypass the content-addressed "
                                  "result cache")
    engine_opts.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="result-cache root (default "
                                  "~/.cache/repro)")
    engine_opts.add_argument("--history", default=None, metavar="PATH",
                             help="append per-run profile summaries "
                                  "to this perf-history JSONL store "
                                  "(deduplicated by request digest)")
    sub = parser.add_subparsers(dest="command", required=True)

    microbench = sub.add_parser("microbench",
                                help="Table 1 component peaks")
    microbench.add_argument("--json", action="store_true",
                            help="emit a machine-readable report")
    kernels = sub.add_parser("kernels", help="Table 2 + Figure 6")
    kernels.add_argument("--json", action="store_true",
                         help="emit a machine-readable report")
    app = sub.add_parser("app", help="run one application",
                         parents=[engine_opts])
    app.add_argument("name", help="depth | mpeg | qrd | rtsl")
    app.add_argument("--timeline", action="store_true",
                     help="print the instruction timeline")
    app.add_argument("--json", action="store_true",
                     help="emit the machine-readable run report "
                          "(manifest + counter registry)")
    trace = sub.add_parser(
        "trace", help="run one application with the cross-layer "
                      "tracer and export a Chrome/Perfetto trace")
    trace.add_argument("name", help="depth | mpeg | qrd | rtsl")
    trace.add_argument("--out", required=True,
                       help="output path for the trace-event JSON")
    trace.add_argument("--counters-csv", default=None,
                       help="also dump counter samples as CSV")
    faults = sub.add_parser(
        "faults", help="run a degraded-mode resilience campaign "
                       "under a seeded fault plan",
        parents=[engine_opts])
    faults.add_argument("name", nargs="?", default=None,
                        help="depth | mpeg | qrd | rtsl")
    faults.add_argument("--plan", default="board",
                        help="builtin plan name or JSON plan file "
                             "(see --list-plans)")
    faults.add_argument("--trials", type=int, default=3,
                        help="seeded runs per fault (default 3)")
    faults.add_argument("--seed", type=int, default=0,
                        help="campaign seed; same seed => "
                             "byte-identical report")
    faults.add_argument("--out", default=None,
                        help="write the JSON resilience report here "
                             "instead of stdout")
    faults.add_argument("--no-curves", action="store_true",
                        help="skip the GOPS-vs-channels/clusters "
                             "degradation sweeps")
    faults.add_argument("--strict", action="store_true",
                        help="enforce runtime invariants during "
                             "every run")
    faults.add_argument("--list-plans", action="store_true",
                        help="list builtin fault plans and exit")
    lint = sub.add_parser(
        "lint", help="statically verify every catalog app and kernel "
                     "(microcode, stream program, static bounds; see "
                     "docs/analysis.md)")
    lint.add_argument("--json", action="store_true",
                      help="emit the deterministic "
                           "repro.analysis-report/1 JSON "
                           "(alias for --format json)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="output format: human-readable text "
                           "(default) or the deterministic "
                           "repro.analysis-report/1 JSON, findings "
                           "sorted by rule id then location so CI "
                           "can diff byte-for-byte")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="write the JSON report to PATH "
                           "(implies --format json)")
    lint.add_argument("--repo", action="store_true",
                      help="also run repository-scope rules "
                           "(entry-point discipline)")
    lint.add_argument("--select", nargs="*", default=None,
                      metavar="FAMILY",
                      help="restrict to rule families (MC SP BD ADV "
                           "EP); scopes that cannot produce a "
                           "selected family are skipped entirely, so "
                           "`--select EP` runs only the repository "
                           "rules without compiling anything")
    memory = sub.add_parser("memory", help="Figure 9/10 sweep")
    memory.add_argument("--ags", type=int, default=1, choices=(1, 2))
    sub.add_parser("power", help="Section 5.5 comparison")
    kernel = sub.add_parser("kernel", help="inspect one kernel")
    kernel.add_argument("name")
    kernel.add_argument("--listing", action="store_true",
                        help="print the VLIW microcode listing")
    evaluate = sub.add_parser(
        "evaluate", help="regenerate the paper's whole evaluation",
        parents=[engine_opts])
    evaluate.add_argument("sections", nargs="*",
                          help="subset of sections (default: all)")
    evaluate.add_argument("--list", action="store_true",
                          help="list the sections, each with the "
                               "committed file it reproduces")
    evaluate.add_argument("--json", action="store_true",
                          help="emit the deterministic JSON report "
                               "instead of text")
    evaluate.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON report to PATH "
                               "(implies --json)")
    profile = sub.add_parser(
        "profile", help="run one application and emit its "
                        "hierarchical cycle-accounting profile "
                        "(repro.profile-report/1)",
        parents=[engine_opts])
    profile.add_argument("name", help="depth | mpeg | qrd | rtsl")
    profile.add_argument("--json", action="store_true",
                         help="emit the JSON report instead of text")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON report to PATH")
    critpath = sub.add_parser(
        "critpath", help="run one application and extract the "
                         "critical path through its recorded event "
                         "DAG (repro.critpath-report/1)",
        parents=[engine_opts])
    critpath.add_argument("name", help="depth | mpeg | qrd | rtsl")
    critpath.add_argument("--json", action="store_true",
                          help="emit the JSON report instead of text")
    critpath.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON report to PATH")
    whatif = sub.add_parser(
        "whatif", help="predict the speedup of scaling a resource by "
                       "replaying the recorded event DAG "
                       "(repro.whatif-report/1)",
        parents=[engine_opts])
    whatif.add_argument("name", help="depth | mpeg | qrd | rtsl")
    whatif.add_argument("--scale", required=True, metavar="SPEC",
                        help="comma-separated NAME=FACTOR scalings, "
                             "e.g. dram=2x,ags=3 (resources: dram, "
                             "ags, host, microcode, srf, clusters)")
    whatif.add_argument("--validate", action="store_true",
                        help="also rerun the simulator with the "
                             "corresponding config change and report "
                             "prediction error")
    whatif.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of text")
    whatif.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report to PATH")
    diff = sub.add_parser(
        "diff", help="compare two profile reports category by "
                     "category (repro.profile-diff/1)")
    diff.add_argument("a", help="baseline profile JSON")
    diff.add_argument("b", help="candidate profile JSON")
    diff.add_argument("--threshold", type=float, default=0.02,
                      help="relative-delta significance threshold "
                           "(default 0.02)")
    diff.add_argument("--json", action="store_true",
                      help="emit the JSON diff instead of text")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when B's total cycles regress "
                           "beyond the threshold")
    perf = sub.add_parser(
        "perf", help="profile the app catalog, append to the "
                     "perf-history store and write "
                     "BENCH_profile.json; --baseline flags "
                     "regressions",
        parents=[engine_opts])
    perf.add_argument("--apps", nargs="*", default=None,
                      metavar="NAME",
                      help="subset of applications (default: all)")
    perf.add_argument("--boards", nargs="*", default=None,
                      choices=("hardware", "isim"),
                      help="board models to sweep (default: both)")
    perf.add_argument("--out", default="BENCH_profile.json",
                      metavar="PATH",
                      help="bench-profile document path "
                           "(default BENCH_profile.json)")
    perf.add_argument("--baseline", default=None, metavar="PATH",
                      help="compare against this earlier "
                           "BENCH_profile.json; exit 1 on any "
                           "slowdown beyond --tolerance")
    perf.add_argument("--tolerance", type=float, default=0.02,
                      help="slowdown tolerance vs the baseline "
                           "(default 0.02)")
    perf.add_argument("--critpath-out",
                      default="BENCH_critpath.json", metavar="PATH",
                      help="bench-critpath document path (top-3 "
                           "binding resources + slack per app on the "
                           "reference board; empty string disables)")
    serve = sub.add_parser(
        "serve", help="run the async experiment service (HTTP/JSON "
                      "submit/poll/fetch over the engine), or with "
                      "--soak drive it through the seeded chaos "
                      "load harness (docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (default 8321; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="engine worker threads (default 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max queued+running jobs before 429 "
                            "backpressure (default 64)")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="journal root (default: a fresh temp "
                            "dir)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="engine result-cache root, which also "
                            "holds the served artifacts (default "
                            "<data-dir>/engine-cache)")
    serve.add_argument("--chaos", default="none", metavar="PLAN",
                       help="chaos plan: none | ci-soak | full | a "
                            ".json plan file (default none)")
    serve.add_argument("--seed", type=int, default=0,
                       help="chaos/soak seed; same seed => "
                            "byte-identical soak report")
    serve.add_argument("--soak", type=int, default=0, metavar="N",
                       help="run the load harness with N seeded "
                            "requests instead of serving, then exit "
                            "non-zero if any invariant failed")
    serve.add_argument("--cold-digests", type=int, default=4,
                       help="distinct request digests in the soak "
                            "mix (default 4)")
    serve.add_argument("--concurrency", type=int, default=8,
                       help="soak client concurrency (default 8)")
    serve.add_argument("--report", default=None, metavar="PATH",
                       help="write the repro.soak-report/1 here "
                            "instead of stdout")
    serve.add_argument("--history", default=None, metavar="PATH",
                       help="append repro.serve-load/1 "
                            "latency/throughput percentiles to this "
                            "perf-history store")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one structured JSON access-log "
                            "line per HTTP request on stdout")
    serve.add_argument("--trace-jobs", type=int, default=0,
                       metavar="N",
                       help="trace the first N executions end to "
                            "end; fetch the stitched Perfetto "
                            "document at GET /v1/jobs/ID/trace "
                            "(default 0 = off)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="with --soak: save a mid-soak /metrics "
                            "scrape to PATH.mid and the final "
                            "post-drain scrape to PATH")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="with --soak: trace one execution and "
                            "write the stitched cross-process "
                            "Chrome trace here")
    slo = sub.add_parser(
        "slo",
        help="evaluate the SLO block of a repro.soak-report/1: "
             "conservation, availability, error budget and cold-p99 "
             "against the declared objectives; exit 1 on violation")
    slo.add_argument("report", help="soak report JSON path")
    slo.add_argument("--availability", type=float, default=None,
                     metavar="RATIO",
                     help="override the availability target "
                          "(e.g. 0.999)")
    slo.add_argument("--p99-ms", type=float, default=None,
                     metavar="MS",
                     help="override the cold-path p99 bound")
    slo.add_argument("--json", action="store_true",
                     help="emit the repro.serve-slo/1 verdict as "
                          "JSON instead of text")
    gate = sub.add_parser(
        "gate",
        help="differential gate: byte-compare the event and vector "
             "backends and bracket both between the static bounds, "
             "over the app matrix + a seeded fuzzed streamc corpus "
             "(repro.gate/1; see docs/analysis.md)")
    gate.add_argument("--apps", nargs="*", default=None,
                      metavar="NAME",
                      help="subset of applications (default: all)")
    gate.add_argument("--boards", nargs="*", default=None,
                      choices=("hardware", "isim"),
                      help="board models to sweep (default: both)")
    gate.add_argument("--fuzz", type=int, default=100, metavar="N",
                      help="seeded random streamc programs to check "
                           "on every board (default 100; 0 disables)")
    gate.add_argument("--seed", type=int, default=0,
                      help="fuzz-corpus seed; same seed => "
                           "same corpus (default 0)")
    gate.add_argument("--out", default=None, metavar="PATH",
                      help="write the repro.gate/1 report here")
    gate.add_argument("--json", action="store_true",
                      help="emit the JSON report on stdout")
    gate.add_argument("--history", default=None, metavar="PATH",
                      help="append repro.gate-bench/1 per-cell "
                           "timing lines to this perf-history store")
    cache = sub.add_parser(
        "cache", help="inspect or prune the content-addressed "
                      "result cache (LRU eviction; "
                      "REPRO_CACHE_MAX_BYTES sets the budget)")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default ~/.cache/repro or "
                            "REPRO_CACHE_DIR)")
    cache.add_argument("--stats", action="store_true",
                       help="print occupancy (the default action)")
    cache.add_argument("--prune", action="store_true",
                       help="evict least-recently-used entries down "
                            "to the budget (--max-bytes or "
                            "REPRO_CACHE_MAX_BYTES)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="N",
                       help="size budget in bytes (0 empties the "
                            "cache when pruning)")
    cache.add_argument("--json", action="store_true",
                       help="emit stats as JSON")

    args = parser.parse_args(argv)
    handler = {
        "microbench": _cmd_microbench,
        "kernels": _cmd_kernels,
        "app": _cmd_app,
        "trace": _cmd_trace,
        "faults": _cmd_faults,
        "lint": _cmd_lint,
        "memory": _cmd_memory,
        "power": _cmd_power,
        "kernel": _cmd_kernel,
        "evaluate": _cmd_evaluate,
        "profile": _cmd_profile,
        "critpath": _cmd_critpath,
        "whatif": _cmd_whatif,
        "diff": _cmd_diff,
        "perf": _cmd_perf,
        "serve": _cmd_serve,
        "slo": _cmd_slo,
        "gate": _cmd_gate,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
