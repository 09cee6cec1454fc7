"""The paper's tables and figures, regenerated into ``results/``.

One benchmark per :data:`repro.evaluation.ARTIFACTS` section: each
renders its section through :class:`repro.evaluation.Evaluation` --
the same renderer ``repro evaluate`` prints -- and writes it to
``benchmarks/results/<file>.txt``; the pytest-benchmark timing covers
the rendering.  See EXPERIMENTS.md for the paper-vs-measured reading
of each table.

All application runs flow through one engine session, so repeat
invocations are served from the content-addressed on-disk cache; set
``REPRO_JOBS=N`` to shard cold runs across worker processes,
``REPRO_NO_CACHE=1`` to force fresh simulations and
``REPRO_NO_HISTORY=1`` to leave the perf-history store alone.
"""

from __future__ import annotations

import os

import pytest
from benchlib import RESULTS_DIR, save_report

from repro.engine import Session, SessionConfig
from repro.evaluation import ARTIFACTS, SECTIONS, Evaluation

#: The append-only perf-history store every benchmark run feeds
#: (``repro.perf-history/1``).
HISTORY_PATH = RESULTS_DIR / "history.jsonl"


@pytest.fixture(scope="module")
def evaluation():
    """One evaluation (and engine session) shared by every section."""
    with Session(config=SessionConfig(
            jobs=int(os.environ.get("REPRO_JOBS", "1")),
            cache=not os.environ.get("REPRO_NO_CACHE"),
            history=(None if os.environ.get("REPRO_NO_HISTORY")
                     else HISTORY_PATH))) as session:
        yield Evaluation(session=session)


@pytest.mark.parametrize("section", list(ARTIFACTS))
def test_paper_artifact(benchmark, evaluation, section):
    text = benchmark.pedantic(SECTIONS[section], args=(evaluation,),
                              rounds=1, iterations=1)
    save_report(ARTIFACTS[section], text)
