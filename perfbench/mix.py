"""Seeded request mixes for the three workloads.

A request is a serve-style payload (``{"app", "sizes", "board"}``);
the in-process workloads turn it into a ``RunRequest`` and the
serve-open client posts it as is.  Every payload carries an app data
seed in ``sizes``, so each new digest costs what its shape costs.

Draws are stratified: each block visits every (app, shape, board)
cell once in a seeded order, so runs with different seeds see the
same cell proportions and differ only in order and data.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

APPS = ("depth", "mpeg", "qrd", "rtsl")
BOARDS = ("hardware", "isim")

#: Per-app shapes for cold-sweep: three reduced build sizes, so a run
#: completes enough requests for a p90 (default sizes are exercised
#: by warm-replay and serve-open).
SHAPES: dict[str, tuple[dict[str, int], ...]] = {
    "depth": ({"height": 24}, {"height": 32, "width": 160},
              {"height": 16, "width": 320}),
    "mpeg": ({"frames": 2, "height": 64}, {"frames": 2, "width": 192},
             {"height": 48}),
    "qrd": ({"rows": 96, "cols": 48}, {"rows": 128, "cols": 36},
            {"rows": 64, "cols": 48}),
    "rtsl": ({"triangles": 240}, {"triangles": 160},
             {"width": 128, "height": 96}),
}


def payload(app: str, board: str, data_seed: int,
            shape: dict[str, int] | None = None) -> dict:
    return {"app": app, "board": board,
            "sizes": {**(shape or {}), "seed": data_seed}}


def cell(request: dict) -> tuple:
    """(app, shape, board): what a request shares with its repeats."""
    shape = tuple(sorted((key, value)
                         for key, value in request["sizes"].items()
                         if key != "seed"))
    return request["app"], shape, request["board"]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _blocks(rng: random.Random, cells: list) -> Iterator:
    while True:
        block = list(cells)
        rng.shuffle(block)
        yield from block


def cold_sweep(seed: int) -> Iterator[dict]:
    """Endless cold-sweep requests: every one a new digest."""
    rng = _rng("cold-sweep", seed)
    cells = [(app, shape, board) for app in APPS
             for shape in SHAPES[app] for board in BOARDS]
    for index, (app, shape, board) in enumerate(_blocks(rng, cells)):
        yield payload(app, board, _data_seed(seed, index), shape)


#: App data seed of the requests warmed during set-up.  Fixed: the
#: cost of answering a default-size app from the cache moves by up to
#: a third with its data, and with only eight such requests in a run
#: that would move the run's figures with the seed.  The run seed
#: orders the replays and draws every cold request.
WARM_DATA_SEED = 1


def hot_set() -> list[dict]:
    """The 4 apps x 2 boards at default sizes, warmed during set-up."""
    return [payload(app, board, WARM_DATA_SEED)
            for app, board in itertools.product(APPS, BOARDS)]


def serve_hot_set() -> list[dict]:
    """One default-size request per app, boards alternating: what the
    service answers during set-up and serves hot afterwards."""
    return [payload(app, board, WARM_DATA_SEED)
            for app, board in zip(APPS, itertools.cycle(BOARDS))]


def warm_replay(seed: int) -> Iterator[dict]:
    """Endless replays of the warm set, in seeded blocks."""
    yield from _blocks(_rng("warm-replay", seed), hot_set())


def _data_seed(seed: int, index: int) -> int:
    # Distinct per (run seed, request index), and never WARM_DATA_SEED,
    # so a cold request never repeats a warmed digest.
    return (1 << 21) + (seed % 1_000_003) * 100_003 + index


@dataclass(frozen=True)
class Arrival:
    due_s: float          # offset from the start of the window
    cold: bool
    request: dict


def serve_schedule(seed: int, seconds: float, rate: float,
                   cold_rate: float) -> list[Arrival]:
    """Poisson arrivals at ``rate``/s over ``seconds``.  Of them,
    ``cold_rate`` * ``seconds`` rounded to whole blocks of the four
    apps -- the same number for every seed -- are new digests, evenly
    spaced from a seeded phase; the rest repeat the digests warmed in
    set-up.  Every run thus executes the same cold app and board mix,
    spread as evenly as the arrivals allow."""
    rng = _rng("serve-open", seed)
    dues = []
    due = rng.expovariate(rate)
    while due < seconds:
        dues.append(due)
        due += rng.expovariate(rate)
    blocks = max(1, round(cold_rate * seconds / len(APPS)))
    cold_count = min(blocks * len(APPS), len(dues))
    phase = rng.random()
    cold_positions = {int((k + phase) * len(dues) / cold_count)
                      for k in range(cold_count)}
    hot = _blocks(rng, serve_hot_set())
    cold_apps = _blocks(rng, list(APPS))
    arrivals = []
    cold_seen = 0
    for index, due in enumerate(dues):
        if index in cold_positions:
            # The board alternates block by block.
            board = BOARDS[cold_seen // len(APPS) % len(BOARDS)]
            request = payload(next(cold_apps), board,
                              _data_seed(seed, index))
            cold_seen += 1
        else:
            request = next(hot)
        arrivals.append(Arrival(due, index in cold_positions, request))
    return arrivals
