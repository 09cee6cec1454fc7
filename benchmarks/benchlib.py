"""Shared helpers for the ablation, scaling and occupancy benchmarks.

Each benchmark writes its regenerated table to
``benchmarks/results/<name>.txt`` (and the pytest-benchmark timing
covers the regeneration itself).  The paper's own tables and figures
are rendered by :mod:`repro.evaluation` (see
``bench_paper_artifacts.py``).
"""

from __future__ import annotations

import functools
import pathlib

from repro.core import BoardConfig
from repro.engine import build_app

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

HARDWARE = BoardConfig.hardware()


@functools.lru_cache(maxsize=None)
def get_bundle(name: str):
    """Build an application at its default (paper-scaled) size."""
    return build_app(name.lower())


def save_report(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
