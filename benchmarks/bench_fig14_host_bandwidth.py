"""Figure 14: DEPTH execution time vs. host interface bandwidth.

Paper shape: above ~2 MIPS Imagine never idles on the host; below
that, execution time grows as the inverse of host bandwidth, the
growth dominated by host-bandwidth stalls with a secondary rise in
memory stalls (loads can no longer be overlapped).
"""

from benchlib import get_bundle, save_report

from repro.analysis.report import render_table
from repro.core import BoardConfig
from repro.obs.profile import build_profile


def _run_bundle(bundle, **kwargs):
    """In-process, uncached engine run (the old ``run_app`` surface)."""
    from repro.engine.session import get_default_session

    return get_default_session().run_bundle(bundle, **kwargs)


MIPS_POINTS = (0.5, 1.0, 2.0, 4.0, 10.0, 50.0)


def regenerate() -> str:
    bundle = get_bundle("DEPTH")
    rows = []
    for mips in MIPS_POINTS:
        board = BoardConfig.hardware(host_mips=mips)
        result = _run_bundle(bundle, board=board)
        breakdown = build_profile(result)["figure11"]
        rows.append([
            f"{mips:.1f} MIPS",
            f"{result.seconds * 1e3:.2f} ms",
            f"{breakdown['host bandwidth stalls'] * 100:.1f}%",
            f"{breakdown['memory stalls'] * 100:.1f}%",
            f"{breakdown['stream controller overhead'] * 100:.1f}%",
            f"{(breakdown['operations'] + breakdown['kernel main loop overhead'] + breakdown['kernel non main loop'] + breakdown['cluster stalls']) * 100:.1f}%",
        ])
    return render_table(
        "Figure 14: DEPTH execution time vs host interface bandwidth",
        ["Host BW", "exec time", "host stalls", "memory stalls",
         "controller", "cluster busy"],
        rows)


def test_fig14(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    save_report("fig14_host_bandwidth", text)
    assert "50.0 MIPS" in text
