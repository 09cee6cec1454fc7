"""Host-time benchmark of the repro package, end to end and by layer.

    python3 perfbench/run.py --workload cold-sweep --seed 1 \\
        --seconds 28 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``cold-sweep``  -- closed loop, in process: every request a new
  digest in a fresh cache directory (build, simulate, profile,
  critpath, cache store);
* ``warm-replay`` -- closed loop, in process: the 4 apps x 2 boards
  warmed during set-up, replayed as on-disk cache hits;
* ``serve-open``  -- ``repro serve`` as its own process under seeded
  open-loop Poisson load, mostly hot digests plus a fixed cold rate;
* ``all``         -- each of the above in turn, as child processes.

``--trace 0`` measures untraced and ends with the end-to-end metrics;
``--trace 1`` wraps the program's layer entry points (no source is
edited) and ends with the per-layer metrics.  Every answer is checked;
any mismatch makes the command exit 1.  All state lives in a fresh
directory under ``.perfbench-runs/`` that is removed on exit.

Wall-clock times are printed as measured.  The gated times are the
same times at reference host speed: a fixed work unit is timed beside
every measurement (speed.py), so that a host slowed by other tenants
does not read as a slower program.
"""

from __future__ import annotations

import time

#: Set-up is timed from here, before any heavy import.
T0 = time.perf_counter()

import speed  # noqa: E402  (standard library only)

#: Host speed as set-up begins.
UNIT0_MS = speed.unit_ms()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-sweep", "warm-replay", "serve-open")
#: Set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
#: Environment that would point the program at shared state.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_SALT",
                "REPRO_CACHE_MAX_BYTES")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, workload: str,
           *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """One more in-process set-up, in a fresh process: (s, scale)."""
    done = subprocess.run(_child(args, args.workload, "--setup-probe"),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["scale"]


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(_child(args, workload), cwd=ROOT,
                              timeout=600)
        status = max(status, done.returncode)
    return status


def measure(args: argparse.Namespace, run_dir: Path):
    if args.workload == "serve-open":
        import serveload

        return serveload.run(ROOT, args.seed, args.seconds,
                             bool(args.trace), run_dir)
    import inproc

    expected = inproc.setup(args.workload, args.seed, str(run_dir))
    setups = [(time.perf_counter() - T0,
               speed.scale(UNIT0_MS, speed.unit_ms()))]
    if args.setup_probe:
        print(json.dumps({"setup_s": setups[0][0],
                          "scale": setups[0][1]}))
        return None
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    outcome = inproc.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), str(run_dir), expected)
    outcome.setup_samples = [took for took, _ in setups]
    outcome.setup_scales = [factor for _, factor in setups]
    return outcome


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # A command started in the background inherits an ignored SIGINT,
    # and so would the service it starts, which stops on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(ROOT / "src"))
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=runs))
    try:
        outcome = measure(args, run_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass
    if outcome is None:
        return 0
    import report

    for line in report.render(args.workload, args.seed,
                              bool(args.trace), outcome):
        print(line)
    line = report.result_line(bool(args.trace), outcome)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
