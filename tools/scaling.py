#!/usr/bin/env python3
"""Stage and view-kernel times on generated plants, with output digests.

For each plant size, ``perfbench/plant.py`` generates the inputs (seed 1,
0.25 h of logs unless ``--hours`` says otherwise; 3 cells is the bundled
fixture's topology), and the seven stages run in order, each timed once,
through ``icskg.cli.main`` in this process.  After each stage the process's
peak resident set (``ru_maxrss``, a high-water mark that never falls, so
run plant sizes in increasing order to read each one's own) is recorded in
MB.  The view kernels are timed inside those stages, over every call and
through every icskg module that binds them:

* ``yen``: ``analytics.yen_k_shortest``, one call per (source, target) pair
  of every scenario and view in ``simulate``;
* ``betweenness`` and ``pagerank``: ``analytics.betweenness`` and
  ``analytics.pagerank``, which ``report`` runs on the Original and Enriched
  views for ``centrality.csv``;
* ``louvain``: ``analytics.louvain``, which ``report`` runs on the Enriched
  view for ``communities.csv``;
* ``fastrp``: ``enrich.fastrp_embed``, which ``enrich`` runs on the
  Original view before proposing links.

Each plant also gets the sha256 digest of its output tree, computed as
``perfbench/run.py`` computes it, so two commits can be compared at scale:
equal digests mean byte-identical outputs.  icskg is imported from this
checkout's ``src/``.  The result is printed as one JSON object.

Usage, from the repository root::

    python3 tools/scaling.py                 # 24, 48 and 96 cells
    python3 tools/scaling.py --cells 3 6     # smaller plants
    python3 tools/scaling.py --cells 24 --hours 2   # a longer log window
    python3 tools/scaling.py --cells 24 --policy RiskCost   # every scenario RiskCost

``--policy`` sets every generated scenario's weight policy; without it each
scenario keeps the policy the catalog gives it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
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
from run import tree_digest  # noqa: E402
from icskg import analytics, enrich  # noqa: E402
from icskg.cli import STAGE_ORDER, main  # noqa: E402

CELLS = (24, 48, 96)
SEED = 1
LOG_HOURS = 0.25
KERNELS = {"yen": analytics.yen_k_shortest, "betweenness": analytics.betweenness,
           "pagerank": analytics.pagerank, "louvain": analytics.louvain,
           "fastrp": enrich.fastrp_embed}


@contextlib.contextmanager
def kernel_timers(totals: dict, calls: dict):
    """Add each kernel call's wall time to ``totals`` and count it in
    ``calls``, for as long as the context is open."""
    patches = []
    for name, func in KERNELS.items():
        def timed_call(*args, _func=func, _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _func(*args, **kwargs)
            finally:
                totals[_name] += time.perf_counter() - start
                calls[_name] += 1
        for module in [m for key, m in sys.modules.items() if key.startswith("icskg")]:
            for attr, value in list(vars(module).items()):
                if value is func:
                    patches.append((module, attr, func))
                    setattr(module, attr, timed_call)
    try:
        yield
    finally:
        for module, attr, func in patches:
            setattr(module, attr, func)


def timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def run_stage(config: Path, out: Path, stage: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(config), "--out", str(out), stage])
    if code != 0:
        raise SystemExit(f"{stage} exited {code}")


def measure(cells: int, hours: float, policy: str | None, work: Path) -> dict:
    inputs, out = work / "inputs", work / "out"
    sizes = plant.generate(ROOT / "src" / "icskg" / "data" / "fixture", inputs,
                           cells, SEED, hours)
    if policy is not None:
        catalog = inputs / "scenarios.json"
        scenarios = json.loads(catalog.read_text(encoding="utf-8"))
        for scenario in scenarios:
            scenario["policy"] = policy
        catalog.write_text(json.dumps(scenarios, indent=2), encoding="utf-8")
    config = inputs / "config.json"
    totals = dict.fromkeys(KERNELS, 0.0)
    calls = dict.fromkeys(KERNELS, 0)
    stage_s, stage_peak_rss_mb = {}, {}
    with kernel_timers(totals, calls):
        for stage in STAGE_ORDER:
            stage_s[stage] = timed(lambda: run_stage(config, out, stage))
            stage_peak_rss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "cells": cells,
        "products": sizes["products"],
        "scenarios": sizes["scenarios"],
        "stage_s": stage_s,
        "stage_peak_rss_mb": stage_peak_rss_mb,
        **{f"{name}_s": totals[name] for name in KERNELS},
        **{f"{name}_calls": calls[name] for name in KERNELS},
        "output_digest": tree_digest(out),
    }


def run(cells: list[int], hours: float, policy: str | None = None) -> dict:
    rows = []
    for n in cells:
        with tempfile.TemporaryDirectory() as tmp:
            rows.append(measure(n, hours, policy, Path(tmp)))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": SEED, "log_hours": hours, "policy": policy, "plants": rows}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, nargs="+", default=list(CELLS),
                        help="plant sizes in production cells (default: 24 48 96)")
    parser.add_argument("--hours", type=float, default=LOG_HOURS,
                        help=f"log window in hours (default: {LOG_HOURS})")
    parser.add_argument("--policy", choices=[p.value for p in analytics.WeightPolicy],
                        help="weight policy for every scenario (default: each "
                             "scenario's own)")
    args = parser.parse_args(argv)
    if min(args.cells) < 1:
        parser.error("--cells must be positive")
    if not 0 < args.hours < float("inf"):
        parser.error("--hours must be positive and finite")
    return args


if __name__ == "__main__":
    args = parse_args()
    print(json.dumps(run(args.cells, args.hours, args.policy), indent=2))
