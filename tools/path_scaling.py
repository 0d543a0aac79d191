#!/usr/bin/env python3
"""Yen and betweenness scaling on generated plants.

For plants of 3, 6, 12 and 24 production cells, generated by
``perfbench/plant.py`` (seed 1, 0.25 h of logs; 3 cells is the bundled
fixture's topology), this runs ``build`` through ``controls`` and then
times, on freshly projected views:

* ``yen``: the scenario suite (``scenarios.run_suite`` over Original,
  Enriched and Controlled), which makes one Yen k-shortest-path call per
  (source, target) pair of every scenario and view;
* ``betweenness``: betweenness on the Original and Enriched views, as the
  ``report`` stage computes them for ``centrality.csv``.

Each time is the median of three repeats; every repeat projects new views,
so building the path graphs is part of it.  icskg is imported from this
checkout's ``src/``.  The result is printed as one JSON object.

Usage, from the repository root::

    python3 tools/path_scaling.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as in the pipeline benchmark; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import plant  # noqa: E402
from icskg import analytics, scenarios  # noqa: E402
from icskg.cli import PipelineState, RunConfig, main  # noqa: E402
from icskg.graph import Configuration  # noqa: E402

CELLS = (3, 6, 12, 24)
SEED = 1
LOG_HOURS = 0.25
REPEATS = 3
STAGES = ("build", "synth-logs", "annotate", "enrich", "controls")


def timed(work) -> float:
    """Median wall time of ``work()`` over the repeats."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(cells: int, work: Path) -> dict:
    inputs, out = work / "inputs", work / "out"
    sizes = plant.generate(ROOT / "src" / "icskg" / "data" / "fixture", inputs,
                           cells, SEED, LOG_HOURS)
    config = inputs / "config.json"
    for stage in STAGES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(config), "--out", str(out), stage])
        if code != 0:
            raise SystemExit(f"{cells} cells: {stage} exited {code}")
    state = PipelineState.open(RunConfig.load(config), out, "simulate")
    catalog = scenarios.load_scenarios(state.cfg.paths["scenarios"])
    views = state.views(*Configuration)
    yen_calls = 0
    for scenario in catalog:
        sources = scenario.source.resolve(state.graph)
        targets = scenario.target.resolve(state.graph)
        yen_calls += len(views) * sum(s != t for s in sources for t in targets)

    centrality_configs = (Configuration.ORIGINAL, Configuration.ENRICHED)

    def betweenness_all() -> None:
        for view in state.views(*centrality_configs).values():
            analytics.betweenness(view)

    return {
        "cells": cells,
        "products": sizes["products"],
        "scenarios": sizes["scenarios"],
        "view_edges": {c.value: len(views[c].edges) for c in Configuration},
        "yen_calls": yen_calls,
        "yen_s": timed(lambda: scenarios.run_suite(state.views(*Configuration), catalog)),
        "betweenness_calls": len(centrality_configs),
        "betweenness_s": timed(betweenness_all),
    }


def run() -> dict:
    rows = []
    for cells in CELLS:
        with tempfile.TemporaryDirectory() as tmp:
            rows.append(measure(cells, Path(tmp)))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": SEED, "log_hours": LOG_HOURS, "repeats": REPEATS, "plants": rows}


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
