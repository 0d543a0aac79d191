"""Span tracer that wraps icskg's public functions from outside the program.

Each timed function is replaced, in every module of the ``icskg`` package
that binds it (``scenarios.yen_k_shortest`` as well as
``analytics.yen_k_shortest``, say), by a wrapper that records a span.  A
span's self time is its duration minus the time of the spans it encloses.
Counters attached to a span read the function's result, so the work a layer
did is counted where it happened.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name).  Several functions may
# share one span name; that span then covers all of them.
TARGETS = [
    ("logsynth", "generate", "logsynth.generate"),
    ("logsynth", "generate_secured", "logsynth.generate"),
    ("logsynth", "write_log_csv", "logsynth.write_log_csv"),
    ("logsynth", "load_log_csv", "logsynth.load_log_csv"),
    ("risk", "LogIndex.__init__", "risk.log_index"),
    ("risk", "annotate", "risk.annotate"),
    ("risk", "apply_controls", "risk.apply_controls"),
    ("risk", "exposure", "risk.exposure"),
    ("ingest", "load_state", "ingest.load_state"),
    ("ingest", "save_state", "ingest.save_state"),
    ("ingest", "link_products", "ingest.link_products"),
    ("enrich", "fastrp_embed", "enrich.fastrp_embed"),
    ("enrich", "knn_possible_links", "enrich.knn_possible_links"),
    ("graph", "Graph.project_view", "graph.project_view"),
    ("graph", "GraphView.export", "graph.export"),
    ("analytics", "yen_k_shortest", "analytics.yen_k_shortest"),
    ("analytics", "pagerank", "analytics.pagerank"),
    ("analytics", "betweenness", "analytics.betweenness"),
    ("analytics", "louvain", "analytics.louvain"),
    ("analytics", "residual_risk_report", "analytics.residual_risk_report"),
    ("scenarios", "run_suite", "scenarios.run_suite"),
    ("scenarios", "centrality_delta", "scenarios.centrality_delta"),
]
# Every public function of icskg.reports renders an output file.
RENDER_MODULE = "reports"
RENDER_SPAN = "reports.render"


def _count_records(tracer, result, args, kwargs):
    tracer.counts["logsynth.records"] += len(result)


def _count_rows(tracer, result, args, kwargs):
    tracer.counts["logsynth.rows_parsed"] += len(result)


def _count_scored(tracer, result, args, kwargs):
    tracer.counts["risk.edges_scored"] += result


def _count_recomputed(tracer, result, args, kwargs):
    tracer.counts["risk.edges_recomputed"] += result.edges_recomputed


def _count_links(tracer, result, args, kwargs):
    tracer.counts["enrich.links"] += len(result)


def _count_paths(tracer, result, args, kwargs):
    k = kwargs["k"] if "k" in kwargs else args[3]
    tracer.counts["analytics.yen_paths"] += len(result)
    tracer.counts["analytics.yen_slots"] += k


def _count_bytes(tracer, result, args, kwargs):
    tracer.counts["reports.bytes"] += len(result)


COUNTERS = {
    "logsynth.generate": _count_records,
    "logsynth.load_log_csv": _count_rows,
    "risk.annotate": _count_scored,
    "risk.apply_controls": _count_recomputed,
    "enrich.knn_possible_links": _count_links,
    "analytics.yen_k_shortest": _count_paths,
    RENDER_SPAN: _count_bytes,
}
# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = {"analytics.yen_k_shortest"}


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)

    # -- spans ------------------------------------------------------------

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list[float], start: float) -> None:
        duration = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if name in KEEP_DURATIONS:
            self.durations[name].append(duration)

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        frame, start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, start)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded icskg modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "icskg" or name.startswith("icskg.")]
        for module_name, attr, span in self._targets():
            owner = sys.modules[f"icskg.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(owner, cls_name), meth, span)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, value))
                        setattr(module, name, wrapper)

    def _patch(self, owner, attr: str, span: str) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original))

    @staticmethod
    def _targets():
        yield from TARGETS
        reports = sys.modules[f"icskg.{RENDER_MODULE}"]
        for name, value in sorted(vars(reports).items()):
            if inspect.isfunction(value) and not name.startswith("_") \
                    and value.__module__ == reports.__name__:
                yield RENDER_MODULE, name, RENDER_SPAN

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
