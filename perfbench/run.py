"""icskg pipeline benchmark.

Runs one workload's stage sequence through ``icskg.cli.main`` in this
process, pass after pass, each pass into a fresh output directory, and
checks every pass's outputs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A results file with run metadata is written
under ``.perfbench/results/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--workload all`` runs every workload in a fresh process, one after
another.  See ``perfbench/NOTES.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import plant
from tracer import Tracer

# A pass runs in one thread: numpy's BLAS would otherwise start a worker per
# core, and on a small machine that thread competes with the pass itself.
# Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_ROUNDS = 5
SETUP_ROUND = "import sys, run; run.set_up_round(*sys.argv[1:])"

FULL = [["build"], ["synth-logs"], ["annotate"], ["enrich"], ["controls"],
        ["simulate"], ["report"]]
WHATIF = [["build"], ["synth-logs"], ["annotate"], ["enrich"], ["controls"],
          ["report"], ["controls", "--profile", "hardened"], ["report"]]
CONFIGURATIONS = 3   # Original, Enriched, Controlled
COMMUNICATION_KINDS = ("COMMUNICATES_WITH", "HAS_POSSIBLE_COMMUNICATION")


@dataclass
class Workload:
    cells: int            # production cells; 3 is the bundled fixture itself
    hours: float | None   # log duration; None keeps the fixture's 8 h
    stages: list[list[str]]


WORKLOADS = {
    "fixture": Workload(3, None, FULL + [["export", "--view", "Original"]]),
    "plant-sim": Workload(6, 0.5, FULL),
    "plant-whatif": Workload(24, 0.25, WHATIF),
}

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupFailed(Exception):
    pass


def import_program():
    """Import icskg from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "icskg" / "__init__.py").is_file():
        raise SetupFailed(f"no icskg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import icskg.cli
    if SRC not in Path(icskg.cli.__file__).resolve().parents:
        raise SetupFailed(f"icskg was imported from {icskg.cli.__file__}")
    return icskg


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    stage_s: dict[str, float]
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    traced: bool = False
    metrics: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)
    out: Path | None = None


class Bench:
    def __init__(self, name: str, seed: int, icskg, work: Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.icskg = icskg
        self.work = work
        self.inputs = work / "inputs"
        self.fixture_dir = Path(icskg.cli.default_config_path()).parent
        self.sizes: dict = {}
        self.passes = 0

    def make_inputs(self, dest: Path) -> dict:
        w = self.workload
        return plant.generate(self.fixture_dir, dest, w.cells, self.seed, w.hours)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        out = self.work / f"out-{self.passes}"
        self.passes += 1
        main = self.icskg.cli.main
        config = str(self.inputs / "config.json")
        stage_s: dict[str, float] = defaultdict(float)
        failures = []
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        for argv in self.workload.stages:
            full = ["--config", config, "--out", str(out)] + argv
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if tracer is None:
                        rc = main(full)
                    else:
                        rc = tracer.run(f"cli.{argv[0]}", main, full)
            except Exception:  # a crashing stage fails the pass, not the run
                rc = "exception\n" + traceback.format_exc()
            stage_s[argv[0]] += time.perf_counter() - t
            if rc != 0:
                failures.append(f"{' '.join(argv)}: exit {rc}")
                break
        return PassResult(time.perf_counter() - start,
                          time.process_time() - cpu_start, dict(stage_s), failures,
                          traced=tracer is not None, out=out)

    def verify(self, result: PassResult) -> None:
        """Check a finished pass's outputs, then delete them."""
        if not result.failures:
            try:
                result.failures = self.check(result.out)
                result.digest = tree_digest(result.out)
            except Exception:  # an unreadable output fails the pass
                result.failures = ["output check raised\n" + traceback.format_exc()]
        shutil.rmtree(result.out, ignore_errors=True)

    def check(self, out: Path) -> list[str]:
        """Output checks; each returned string is one failed check."""
        failures = []
        summary = json.loads((out / "graph-summary.json").read_text())
        if self.workload.cells == 3 and self.workload.hours is None:
            # The inputs are the bundled fixture's, so its manifest applies.
            manifest = json.loads((self.fixture_dir / "manifest.json").read_text())
            for key, want in manifest.items():
                if summary.get(key) != want:
                    failures.append(f"build {key} {summary.get(key)!r} != manifest {want!r}")
        for key, size in (("products", "products"), ("dataflows", "flows")):
            if summary[key] != self.sizes[size]:
                failures.append(f"build {key} {summary[key]} != generated {self.sizes[size]}")
        if ["simulate"] in self.workload.stages:
            with (out / "propagation" / "propagation.csv").open() as fh:
                rows = sum(1 for _ in fh) - 1
            want = self.sizes["scenarios"] * CONFIGURATIONS
            if rows != want:
                failures.append(f"propagation.csv has {rows} rows, want {want}")
        failures += self.check_controlled(out)
        if not self.sizes.get("log_records"):
            self.sizes["log_records"] = sum(
                _line_count(out / "logs" / f) - 1 for f in ("baseline.csv", "secured.csv"))
        return failures

    def check_controlled(self, out: Path) -> list[str]:
        """Check the Controlled view against the saved edges, read here as
        plain CSV: every communication edge has a controlled mirror, the
        controls report counts the mirrors and those below the prune
        threshold, and the view icskg projects holds exactly the mirrors at
        or above the threshold."""
        icskg = self.icskg
        threshold = icskg.config.RiskConfig.from_json(
            self.inputs / "risk_config.json").prune_threshold
        with (out / "graph" / "edges.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        mirrors = {(r["src"], r["dst"]): float(r["riskWeight"]) for r in rows
                   if r["kind"] == "CONTROLLED_COMMUNICATES_WITH"}
        unmirrored = {(r["src"], r["dst"]) for r in rows
                      if r["kind"] in COMMUNICATION_KINDS} - mirrors.keys()
        kept = {pair for pair, weight in mirrors.items() if weight >= threshold}
        report = json.loads((out / "controls-report.json").read_text())
        failures = []
        if unmirrored:
            failures.append(f"{len(unmirrored)} communication edges have no controlled mirror")
        if report["edgesRecomputed"] != len(mirrors):
            failures.append(f"controls report recomputed {report['edgesRecomputed']} "
                            f"edges, state has {len(mirrors)} mirrors")
        if report["edgesPruned"] != len(mirrors) - len(kept):
            failures.append(f"controls report pruned {report['edgesPruned']} edges, "
                            f"state has {len(mirrors) - len(kept)} below {threshold}")
        graph = icskg.ingest.load_state(out / "graph")
        graph.finalize()
        view = graph.project_view(icskg.graph.Configuration.CONTROLLED, threshold)
        projected = {(e.src, e.dst) for e in view.edges}
        if projected != kept:
            failures.append(f"Controlled view has {len(projected - kept)} edges not at or "
                            f"above riskWeight {threshold} and misses {len(kept - projected)}")
        return failures


def _line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(b"%d:%s:%d:" % (len(rel), rel, len(data)))
        h.update(data)
    return h.hexdigest()


def layer_metrics(tracer: Tracer, result: PassResult) -> dict[str, float]:
    m = {f"{span}_s": value for span, value in tracer.self_s.items()}
    m.update({f"cli.{stage}_s": value for stage, value in result.stage_s.items()})
    for span, value in tracer.calls.items():
        m[f"{span}.calls"] = value
    m.update(tracer.counts)
    yen = "analytics.yen_k_shortest"
    durations = sorted(tracer.durations[yen])
    if durations:
        m[f"{yen}.p50_ms"] = 1000 * statistics.median(durations)
        m[f"{yen}.p95_ms"] = 1000 * statistics.quantiles(durations, n=20)[-1] \
            if len(durations) > 1 else 1000 * durations[0]
    slots = tracer.counts["analytics.yen_slots"]
    m["analytics.yen_fill"] = tracer.counts["analytics.yen_paths"] / slots if slots else 0.0
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER if name != "trace.overhead_s"}


def layer_shares(tracer: Tracer, result: PassResult) -> dict[str, float]:
    """Each layer's self time as a share of the pass; ``cli`` is the glue
    code in the stages outside every timed function."""
    shares: dict[str, float] = defaultdict(float)
    for span, value in tracer.self_s.items():
        shares[span.split(".")[0]] += value / result.wall_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def set_up(name: str, seed: int, work: Path) -> tuple[Bench, list[float]]:
    """Set up SETUP_ROUNDS times, each in a fresh process, then import
    icskg here and take the last round's inputs.

    A round is timed from starting the interpreter to its exit: the cold
    import of icskg and its dependencies plus generating the inputs, all
    that a fresh process does before its first pass.  The median of the
    rounds is ``setup_s``.
    """
    rounds = []
    for i in range(SETUP_ROUNDS):
        dest = work / f"setup-{i}"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_ROUND, name, str(seed), str(dest)],
                              cwd=HERE, capture_output=True, text=True, timeout=120)
        rounds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            raise SetupFailed(f"set-up round: {last[0]}")
    bench = Bench(name, seed, import_program(), work)
    bench.sizes = json.loads(proc.stdout.splitlines()[-1])
    dest.rename(bench.inputs)
    return bench, rounds


def set_up_round(name: str, seed: str, dest: str) -> None:
    """One set-up round, run by ``set_up`` in a process of its own."""
    bench = Bench(name, int(seed), import_program(), Path(dest).parent)
    print(json.dumps(bench.make_inputs(Path(dest))))


def measure(bench: Bench, seconds: float, trace: bool) -> list[PassResult]:
    """Run passes until the next one would end after ``seconds``.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced, and there is at least one of each.
    """
    tracer = Tracer()
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if trace and len(passes) % 2:
            tracer.reset()
            tracer.install()
            try:
                result = bench.run_pass(tracer)
            finally:
                tracer.uninstall()
            result.metrics = layer_metrics(tracer, result)
            result.shares = layer_shares(tracer, result)
        else:
            result = bench.run_pass()
        bench.verify(result)
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + result.wall_s > seconds and (not trace or len(passes) > 1):
            return passes


def flag_digest_mismatches(passes: list[PassResult]) -> str | None:
    """Fail every pass whose output tree differs from the first good pass's;
    return the common digest, or None if there is none."""
    digests = [p.digest for p in passes if not p.failures]
    if not digests:
        return None
    for p in passes:
        if not p.failures and p.digest != digests[0]:
            p.failures.append(f"output digest {p.digest} != first pass {digests[0]}")
    return digests[0] if len(set(digests)) == 1 else None


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        try:
            bench, setup_rounds = set_up(name, seed, work)
        except (SetupFailed, ImportError, subprocess.SubprocessError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        # The stages' WARNING lines (products without advisories) would flood
        # stderr on every pass; records are still created, just not emitted.
        logging.basicConfig(level=logging.WARNING, handlers=[logging.NullHandler()])
        passes = measure(bench, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = flag_digest_mismatches(passes)
    failed = [p for p in passes if p.failures]
    plain = [p for p in passes if not p.traced and not p.failures]
    traced = [p for p in passes if p.traced and not p.failures]
    if trace:
        units = PER_LAYER
        values = {k: [p.metrics[k] for p in traced]
                  for k in PER_LAYER if k != "trace.overhead_s"}
        plain_s = median_of([p.wall_s for p in plain])
        values["trace.overhead_s"] = [p.wall_s - plain_s for p in traced]
        shares = {layer: median_of([p.shares[layer] for p in traced])
                  for layer in traced[0].shares} if traced else {}
    else:
        units = END_TO_END
        values = {"pipeline_s": [p.wall_s for p in plain],
                  "cpu_s": [p.cpu_s for p in plain],
                  "peak_rss_mb": [peak_rss_mb],
                  "setup_s": setup_rounds}
        shares = {}
    metrics = {k: median_of(values[k]) for k in units}
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    results = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "input_sizes": bench.sizes,
        "output_digest": digest,
        "attempted": len(passes),
        "failed": len(failed),
        "setup_rounds_s": setup_rounds,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "stage_s": p.stage_s, "failures": p.failures} for p in passes],
        "layer_share_of_pipeline": shares,
        "metrics": reported,
    }
    results_file = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(results, indent=2) + "\n")

    print(f"workload {name} seed {seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {len(failed)} failed, "
          f"failed_frac {len(failed) / len(passes):.3f}")
    for p in failed:
        for failure in p.failures:
            print(f"  failed check: {failure}")
    print(f"output digest: {digest or 'differs between passes'}")
    for key, value in metrics.items():
        v = values[key]
        spread = f", range {min(v):.6f} to {max(v):.6f}" if len(v) > 1 else ""
        print(f"  {key:36s} {value:14.6f} {units[key]:6s} median of n={len(v)}{spread}")
    for layer, value in shares.items():
        print(f"  share {layer:30s} {100 * value:6.1f} % of pipeline_s")
    print(f"results: {results_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(passes),
                      "failed": len(failed), "metrics": reported}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="icskg pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
