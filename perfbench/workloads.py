"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the workload seed: the spec lists
the in-process workloads cycle through, and the request script the
serve client replays.  The program only ever sees the generated specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

SCHEDULERS = ("tbr", "fifo", "drr")

#: Single-cell families in ``cell-mix``, each with a 0.2 s warm-up and
#: its timeline compressed so every event kind still fires.  Horizons
#: run 0.85-2.2 simulated seconds, sized so every op costs about the
#: same (40 ms here): at one equal horizon the ops spanned 3.5x in cost,
#: and a p95 pooled over such different classes jumps between them.
CELL_FAMILIES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("churn", {"seconds": 0.8, "warmup_s": 0.2, "period_s": 0.15,
               "stay_s": 0.3}),
    ("mobility", {"seconds": 0.7, "warmup_s": 0.2, "dwell_s": 0.1}),
    ("bursty", {"seconds": 1.9, "warmup_s": 0.2, "on_s": 0.3,
                "off_s": 0.3}),
    ("mixed", {"seconds": 1.3, "warmup_s": 0.2}),
    ("fairness-churn", {"seconds": 0.65, "warmup_s": 0.2}),
    ("chaos", {"seconds": 2.0, "warmup_s": 0.2, "outage_s": 0.2,
               "degrade_s": 0.2}),
    # 16 saturated downlink stations; fast-forward stays off in process.
    ("steady-long", {"seconds": 0.85, "warmup_s": 0.2, "n_stations": 16,
                     "perturb_every_s": 0.4}),
)
#: Spec seeds per family and scheduler in one cycle.  How costly a spec
#: is depends on its seed (chaos draws its whole timeline from it), and
#: the pooled p95 follows the costliest specs, so more draws per cycle
#: keep one unlucky draw from moving it.
CELL_SEEDS_PER_SCHEDULER = 2

#: ``campus-air``: 16 cells on one RF channel (every neighbour pair is
#: co-channel, so each frame is replayed on every coupled medium) plus
#: four slow roamers.  The horizon is cut to 0.15 simulated seconds so
#: one op stays near 80 ms; two spec seeds per scheduler per cycle.
CAMPUS_PARAMS: Dict[str, Any] = {
    "n_cells": 16, "n_channels": 1, "n_roamers": 4, "seconds": 0.1,
    "warmup_s": 0.05, "assoc_delay_s": 0.01,
}
CAMPUS_SEEDS_PER_SCHEDULER = 2

#: ``serve-repeat``: one first-seen ``steady-long`` horizon per cycle,
#: cycling through these simulated-second lengths, then nine repeats.
SERVE_HORIZONS_S = (50.0, 100.0, 150.0, 200.0)
SERVE_HITS_PER_MISS = 9


def _seed_stream(tag: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{tag}:{seed}")


@dataclass(frozen=True)
class Op:
    """One in-process op: a family plus the overrides that build it."""

    family: str
    overrides: Tuple[Tuple[str, Any], ...]

    def build(self):
        from repro.scenario.registry import build_spec

        return build_spec(self.family, **dict(self.overrides))

    @property
    def label(self) -> str:
        return f"{self.family}/{dict(self.overrides)['scheduler']}"


def cell_mix_ops(seed: int) -> List[Op]:
    """The ``cell-mix`` ops: every family under tbr, fifo and drr, each
    on :data:`CELL_SEEDS_PER_SCHEDULER` spec seeds."""
    rng = _seed_stream("cell-mix", seed)
    ops = []
    for _ in range(CELL_SEEDS_PER_SCHEDULER):
        for family, params in CELL_FAMILIES:
            for scheduler in SCHEDULERS:
                overrides = dict(params, scheduler=scheduler,
                                 seed=rng.randrange(1, 1 << 30))
                ops.append(Op(family, tuple(sorted(overrides.items()))))
    return ops


def campus_air_ops(seed: int) -> List[Op]:
    """The ``campus-air`` ops: each scheduler on a few campus seeds."""
    rng = _seed_stream("campus-air", seed)
    ops = []
    for _ in range(CAMPUS_SEEDS_PER_SCHEDULER):
        for scheduler in SCHEDULERS:
            overrides = dict(CAMPUS_PARAMS, scheduler=scheduler,
                             seed=rng.randrange(1, 1 << 30))
            ops.append(Op("campus", tuple(sorted(overrides.items()))))
    return ops


IN_PROCESS_OPS = {"cell-mix": cell_mix_ops, "campus-air": campus_air_ops}


@dataclass(frozen=True)
class Request:
    """One scripted ``POST /run``: the body and the expected verdict."""

    body: Dict[str, Any]
    hit: bool

    @property
    def key(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(self.body["overrides"].items()))


def serve_cycles(seed: int) -> Iterator[List[Request]]:
    """Endless ``serve-repeat`` script, one cycle of requests at a time.

    Each cycle opens with a first-seen ``steady-long`` spec (a store
    miss), then repeats :data:`SERVE_HITS_PER_MISS` specs drawn from
    every spec seen so far (store hits).  Spec seeds come from one
    seeded stream and never repeat, so each miss really is first-seen.
    """
    rng = _seed_stream("serve-repeat", seed)
    base = rng.randrange(1, 1 << 30)
    seen: List[Dict[str, Any]] = []
    cycle = 0
    while True:
        body = {
            "family": "steady-long",
            "overrides": {
                "seed": base + cycle,
                "seconds": SERVE_HORIZONS_S[cycle % len(SERVE_HORIZONS_S)],
            },
        }
        seen.append(body)
        requests = [Request(body, hit=False)]
        for _ in range(SERVE_HITS_PER_MISS):
            requests.append(Request(rng.choice(seen), hit=True))
        yield requests
        cycle += 1
