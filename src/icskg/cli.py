"""Command-line pipeline: build -> synth-logs -> annotate -> enrich ->
controls -> simulate -> report, plus export.

Stages persist the graph as CSV state under the output directory, so each
stage is an independent process.  ``state.json`` records which stages
completed and pins seed/convention for the whole run; every later command
checks both and its :data:`PREREQUISITES`.  A stage that writes the graph
starts from the state without the :data:`EDGE_KINDS` of its own and every
later stage, so a re-run never inherits downstream edges.  Exit codes: 0
success, 2 input error, 3 stage-order violation, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Optional

from icskg import analytics, enrich, ingest, logsynth, reports, risk, scenarios
from icskg.config import (INTEGER, NUMBER, PATH, STRING, ControlProfile, Convention, RiskConfig,
                          integer, list_of, number, obj, one_of)
from icskg.errors import IcskgError, InvariantViolation, StageOrderError
from icskg.graph import (
    Configuration,
    EdgeKind,
    Graph,
    GraphView,
    audit_hierarchy,
    audit_risk_completeness,
    read_json,
    write_json,
)

logger = logging.getLogger("icskg")

STAGE_ORDER = ["build", "synth-logs", "annotate", "enrich", "controls",
               "simulate", "report"]

# The stages each command after build needs completed before it runs.
PREREQUISITES = {"synth-logs": ("build",), "annotate": ("build", "synth-logs"),
                 "enrich": ("annotate",), "controls": ("annotate",),
                 "simulate": ("annotate",), "report": ("annotate",),
                 "export": ("build",)}
# The edge kind each stage adds to the graph state.
EDGE_KINDS = {"enrich": EdgeKind.HAS_POSSIBLE_COMMUNICATION,
              "controls": EdgeKind.CONTROLLED_COMMUNICATES_WITH}
# The stage whose edges each configuration view needs beyond annotate's.
VIEW_STAGES = {Configuration.ENRICHED: "enrich", Configuration.CONTROLLED: "controls"}

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_STAGE = 3
_EXIT_INTERNAL = 4


def default_config_path() -> Path:
    return Path(str(resources.files("icskg") / "data" / "fixture" / "config.json"))


@dataclass(frozen=True)
class RunConfig:
    """A run's settings and the inputs they name, each read on first use."""
    paths: dict[str, Path] = field(default_factory=dict)  # keys in snake_case
    seed: int = 42
    convention: Optional[Convention] = None
    synth_profile: logsynth.SynthProfile = field(default_factory=logsynth.SynthProfile)
    control_profile: str = "secured"
    prediction_min_confidence: float = 0.5
    enrichment: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, **overrides) -> "RunConfig":
        """The run config at ``path``, each setting in ``overrides`` but None
        replaced, its paths resolved against its directory; each must exist."""
        cfg = RUN_CONFIG(read_json(path), "run config", "")
        paths = {key: (path.parent / rel).resolve() for key, rel in cfg.paths.items()}
        for resolved in paths.values():
            if not resolved.exists():
                raise IcskgError(f"configured path does not exist: {resolved}")
        return replace(cfg, paths=paths,
                       **{key: value for key, value in overrides.items() if value is not None})

    @cached_property
    def risk(self) -> RiskConfig:
        """The risk config, with the run's convention where it sets one."""
        risk_cfg = RiskConfig.from_json(self.paths["risk_config"])
        return replace(risk_cfg, convention=self.convention or risk_cfg.convention)

    @cached_property
    def testbed(self) -> ingest.TestbedSpec:
        return ingest.load_testbed(self.paths["testbed"])

    @cached_property
    def profile(self) -> logsynth.SynthProfile:
        """The synthesis profile with the run's seed."""
        return replace(self.synth_profile, seed=self.seed)

    @cached_property
    def controls(self) -> ControlProfile:
        """The selected testbed control profile, with the risk config's overrides."""
        profile = self.testbed.control_profiles.get(self.control_profile)
        if profile is None:
            raise IcskgError(f"controlProfile: testbed declares no control profile "
                             f"named {self.control_profile!r}")
        return replace(profile, overrides=self.risk.control_overrides)

    @cached_property
    def catalog(self) -> list[scenarios.Scenario]:
        return scenarios.load_scenarios(self.paths["scenarios"])


REQUIRED_PATHS = ("testbed", "advisories", "nodes", "relations", "scenarios", "riskConfig")
RUN_CONFIG = obj({
    "paths": obj(dict.fromkeys((*REQUIRED_PATHS, "predictions"), PATH),
                 required=REQUIRED_PATHS),
    "seed": INTEGER,
    "convention": one_of(Convention),
    "synthProfile": logsynth.SYNTH_PROFILE,
    "controlProfile": STRING,
    "predictionMinConfidence": number(0, 1),
    "enrichment": obj({
        "dim": integer(1, 4096),
        "iterationWeights": list_of(NUMBER, "a non-empty list of numbers",
                                   range(1, sys.maxsize), tuple),
        "topK": integer(0),
    }),
}, make=RunConfig)
# state.json as stages write it; schemaVersion is not read.
STATE = obj({"stages": list_of(one_of(STAGE_ORDER)), "seed": INTEGER,
             "convention": one_of(c.value for c in Convention)})


# ---------------------------------------------------------------------------
# Pipeline state
# ---------------------------------------------------------------------------

class PipelineState:
    """The output directory as one stage run sees it: the completed stages
    recorded in ``state.json`` and the graph state under ``graph/``, for
    the run ``cfg``."""

    def __init__(self, cfg: RunConfig, out_dir: Path, stage: str) -> None:
        self.cfg = cfg
        self.out_dir = out_dir
        self.graph_dir = out_dir / "graph"
        self.stage = stage
        self.stages: list[str] = []

    @classmethod
    def open(cls, cfg: RunConfig, out_dir: Path, stage: str) -> "PipelineState":
        """The state for a run of ``stage``: its prerequisites must have
        completed, and the seed and convention must match those pinned by
        ``build``."""
        path = out_dir / "state.json"
        raw = STATE(read_json(path), "state.json", "state.json: ") if path.exists() else {}
        state = cls(cfg, out_dir, stage)
        state.stages = raw.get("stages", [])
        for needed in PREREQUISITES[stage]:
            state.require(needed)
        for key, value in (("seed", cfg.seed), ("convention", state.convention)):
            if raw.get(key) not in (None, value):
                raise IcskgError(f"{key} {value!r} differs from the value "
                                 f"{raw[key]!r} recorded at build time")
        return state

    @property
    def convention(self) -> str:
        return self.cfg.risk.convention.value

    def require(self, stage: str) -> None:
        if stage not in self.stages:
            raise StageOrderError(f"{stage} stage required")

    def upstream(self) -> Graph:
        """A fresh, mutable copy of the graph state without the edges that
        this stage and every later stage add, so that a re-run starts from
        what its prerequisites left."""
        graph = ingest.load_state(self.graph_dir)
        later = STAGE_ORDER[STAGE_ORDER.index(self.stage):]
        graph.remove_edges({EDGE_KINDS[s] for s in later if s in EDGE_KINDS})
        return graph

    @cached_property
    def graph(self) -> Graph:
        """The finalized graph state, loaded once per stage run."""
        graph = ingest.load_state(self.graph_dir)
        graph.finalize()
        return graph

    def views(self, *configs: Configuration) -> dict[Configuration, GraphView]:
        """Configuration views of :attr:`graph`; a view needs the stage that
        adds its edges (:data:`VIEW_STAGES`)."""
        for config in configs:
            if config in VIEW_STAGES:
                self.require(VIEW_STAGES[config])
        return {config: self.graph.project_view(config, self.cfg.risk.prune_threshold)
                for config in configs}

    def save(self, graph: Graph) -> None:
        ingest.save_state(graph, self.graph_dir)

    def mark(self) -> None:
        """Record this stage as complete and every later one as not run:
        their artifacts were derived from state this stage just replaced."""
        position = STAGE_ORDER.index(self.stage)
        self.stages = [s for s in STAGE_ORDER[:position] if s in self.stages]
        self.stages.append(self.stage)
        self.write_artifact("state.json", stages=self.stages, seed=self.cfg.seed,
                            convention=self.convention)

    def write_artifact(self, name: str, **fields) -> None:
        """A JSON file in the output directory, stamped with the schema version."""
        _write(self.out_dir / name,
               write_json({"schemaVersion": reports.SCHEMA_VERSION, **fields}))


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_build(cfg: RunConfig, out_dir: Path, validate_only: bool) -> int:
    # Read the inputs only later stages use too, to reject what they would.
    logsynth.secured_profile(cfg.profile, cfg.controls)
    cfg.catalog
    state = PipelineState(cfg, out_dir, "build")
    graph = Graph()
    product_count = ingest.load_testbed_into_graph(graph, cfg.testbed, cfg.risk)
    results = {"nodes": ingest.load_nodes(graph, cfg.paths["nodes"])}
    advisories = ingest.preprocess_cves(ingest.load_advisories(cfg.paths["advisories"]))
    vuln_edges = ingest.link_products(graph, cfg.testbed, advisories)
    results["relations"] = ingest.load_relations(graph, cfg.paths["relations"])
    flow_count = ingest.build_dataflow_edges(graph, cfg.testbed)
    prediction_count = 0
    if "predictions" in cfg.paths:
        results["predictions"] = ingest.import_predictions(
            graph, cfg.paths["predictions"], cfg.prediction_min_confidence)
        prediction_count = results["predictions"].count
    for key, result in results.items():
        for issue in result.issues:
            logger.warning("%s: row %d [%s]: %s", cfg.paths[key], issue.row, issue.kind,
                           issue.message)
    violations = audit_hierarchy(graph)
    if violations:
        raise InvariantViolation(
            f"hierarchy audit found {len(violations)} violations: {violations[:3]}")
    summary = {
        "counts": graph.counts_by_kind(),
        "nodeTotal": graph.node_count(),
        "edgeTotal": graph.edge_count(),
        "products": product_count,
        "vulnerabilityLinks": vuln_edges,
        "dataflows": flow_count,
        "predictionsImported": prediction_count,
        "rowIssues": sum(len(result.issues) for result in results.values()),
    }
    if validate_only:
        print(json.dumps(summary["counts"], sort_keys=True))
        return _EXIT_OK
    state.save(graph)
    state.write_artifact("graph-summary.json", **summary)
    state.mark()
    print(f"build: {graph.node_count()} nodes, {graph.edge_count()} edges")
    return _EXIT_OK


def cmd_synth_logs(cfg: RunConfig, out_dir: Path) -> int:
    state = PipelineState.open(cfg, out_dir, "synth-logs")
    baseline = logsynth.generate(cfg.testbed, cfg.profile)
    secured = logsynth.generate_secured(cfg.testbed, cfg.profile, cfg.controls)
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    logsynth.write_log_csv(baseline, logs_dir / "baseline.csv")
    logsynth.write_log_csv(secured, logs_dir / "secured.csv")
    state.mark()
    print(f"synth-logs: {len(baseline)} baseline, {len(secured)} secured records")
    return _EXIT_OK


def cmd_annotate(cfg: RunConfig, out_dir: Path) -> int:
    state = PipelineState.open(cfg, out_dir, "annotate")
    graph = state.upstream()
    logs = logsynth.load_log_csv(out_dir / "logs" / "baseline.csv")
    count = risk.annotate(graph, logs, cfg.risk)
    missing = audit_risk_completeness(graph)
    if missing:
        raise InvariantViolation(
            f"{len(missing)} communication edges lack risk attributes after annotation")
    state.save(graph)
    state.write_artifact("annotate-report.json", edgesAnnotated=count,
                         convention=state.convention)
    state.mark()
    print(f"annotate: {count} communication edges scored")
    return _EXIT_OK


def cmd_enrich(cfg: RunConfig, out_dir: Path) -> int:
    # The enrichment settings but topK are the embedding's keyword arguments.
    embedding = dict(cfg.enrichment)
    top_k = embedding.pop("top_k", enrich.DEFAULT_TOP_K)
    state = PipelineState.open(cfg, out_dir, "enrich")
    # Read before any graph is loaded, so that the file's parse does not
    # add to the memory the graphs hold.
    logs = logsynth.load_log_csv(out_dir / "logs" / "baseline.csv")
    graph = state.upstream()
    view = state.views(Configuration.ORIGINAL)[Configuration.ORIGINAL]
    emb = enrich.fastrp_embed(view, seed=cfg.seed, **embedding)
    links = enrich.knn_possible_links(emb, view, top_k=top_k)
    for edge in links:
        graph.upsert_edge(edge)
    risk.annotate(graph, logs, cfg.risk)
    state.save(graph)
    _write(out_dir / "embeddings.csv", emb.to_csv())
    state.write_artifact("enrich-report.json", possibleLinks=len(links), dim=emb.dim,
                         topK=top_k)
    state.mark()
    print(f"enrich: {len(links)} possible-communication links inferred")
    return _EXIT_OK


def cmd_controls(cfg: RunConfig, out_dir: Path, profile: Optional[str]) -> int:
    if profile:
        cfg = replace(cfg, control_profile=profile)
    state = PipelineState.open(cfg, out_dir, "controls")
    graph = state.upstream()
    secured = logsynth.load_log_csv(out_dir / "logs" / "secured.csv")
    report = risk.apply_controls(graph, cfg.controls, secured, cfg.risk)
    state.save(graph)
    state.write_artifact("controls-report.json",
                         edgesRecomputed=report.edges_recomputed,
                         edgesPruned=report.edges_pruned,
                         profile=cfg.control_profile,
                         controls=sorted(cfg.controls.controls))
    state.mark()
    print(f"controls: {report.edges_recomputed} recomputed, "
          f"{report.edges_pruned} below prune threshold")
    return _EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: Path, sim_config: str) -> int:
    state = PipelineState.open(cfg, out_dir, "simulate")
    wanted = list(Configuration) if sim_config == "all" \
        else [Configuration(sim_config)]
    suite = scenarios.run_suite(state.views(*wanted), cfg.catalog)
    sim_dir = out_dir / "propagation"
    _write(sim_dir / "propagation.csv", reports.propagation_csv(suite.rows))
    _write(sim_dir / "propagation.json", reports.suite_json(suite))
    _write(sim_dir / "plot_hops.csv", reports.hop_plot_csv(suite))
    _write(sim_dir / "plot_affected.csv", reports.affected_plot_csv(suite))
    _write(sim_dir / "plot_mean_ci.csv", reports.mean_ci_csv(suite))
    state.mark()
    for agg in suite.aggregates:
        print(f"simulate[{agg.config}]: mean hops {agg.mean_hops:.3f} "
              f"over {agg.sample_count} paths")
    return _EXIT_OK


def cmd_report(cfg: RunConfig, out_dir: Path, table: str, top: int, view: str) -> int:
    if top < 0:
        raise IcskgError(f"--top must not be negative, got {top}")
    state = PipelineState.open(cfg, out_dir, "report")
    rep_dir = out_dir / "reports"
    original, enriched, controlled = Configuration

    def want(name: str) -> bool:
        return table in ("all", name)

    if want("interproduct"):
        config = Configuration(view)
        rows = analytics.rank_interproduct_risk(state.views(config)[config], top)
        _write(rep_dir / "interproduct.csv", reports.interproduct_csv(rows))
        _write(rep_dir / "interproduct.json", reports.rows_json(rows))
    if want("centrality"):
        views = state.views(original, enriched)
        rows = scenarios.centrality_delta(views[original], views[enriched])
        _write(rep_dir / "centrality.csv", reports.centrality_csv(rows))
    if want("communities"):
        community_report = analytics.louvain(state.views(enriched)[enriched], seed=cfg.seed)
        _write(rep_dir / "communities.csv", reports.communities_csv(community_report))
    if want("residual"):
        rows = analytics.residual_risk_report(state.views(original, enriched, controlled))
        _write(rep_dir / "residual.csv", reports.residual_csv(rows))
        _write(rep_dir / "residual.json", reports.rows_json(rows))
    state.mark()
    print(f"report: tables written to {rep_dir}")
    return _EXIT_OK


def cmd_export(cfg: RunConfig, out_dir: Path, view: str, fmt: str) -> int:
    state = PipelineState.open(cfg, out_dir, "export")
    config = Configuration(view)
    projected = state.views(config)[config]
    export_dir = out_dir / "export" / config.value.lower()
    formats = ["dot", "graphml", "edge-csv"] if fmt == "all" else [fmt]
    names = {"dot": "graph.dot", "graphml": "graph.graphml", "edge-csv": "edges.csv"}
    for f in formats:
        _write(export_dir / names[f], projected.export(f))
    _write(export_dir / "nodes.csv", ingest.write_node_csv(state.graph))
    print(f"export: {', '.join(formats)} written to {export_dir}")
    return _EXIT_OK


# Each subcommand's function: it takes the run config, the output directory
# and the subcommand's own options as keywords named after their dests.
COMMANDS = {"build": cmd_build, "synth-logs": cmd_synth_logs,
            "annotate": cmd_annotate, "enrich": cmd_enrich,
            "controls": cmd_controls, "simulate": cmd_simulate,
            "report": cmd_report, "export": cmd_export}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icskg",
        description="Industrial security knowledge graph and attack-propagation pipeline")
    parser.add_argument("--config", type=Path, default=None,
                        help="run-config JSON (defaults to the bundled fixture)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run-config seed")
    parser.add_argument("--convention", choices=["literal", "complement"],
                        default=None, help="factor-scoring convention override")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct the knowledge graph")
    p_build.add_argument("--validate-only", action="store_true",
                         help="validate inputs without writing outputs")
    sub.add_parser("synth-logs", help="generate baseline and secured logs")
    sub.add_parser("annotate", help="score communication edges from logs")
    sub.add_parser("enrich", help="infer possible-communication links")
    p_controls = sub.add_parser("controls", help="apply a control profile")
    p_controls.add_argument("--profile", default=None,
                            help="control profile name from the testbed spec")
    p_sim = sub.add_parser("simulate", help="run the scenario catalog")
    p_sim.add_argument("--config", dest="sim_config", default="all",
                       choices=["Original", "Enriched", "Controlled", "all"],
                       help="configuration(s) to simulate")
    p_rep = sub.add_parser("report", help="emit analysis tables")
    p_rep.add_argument("--table", default="all",
                       choices=["all", "interproduct", "centrality",
                                "communities", "residual"])
    p_rep.add_argument("--top", type=int, default=10)
    p_rep.add_argument("--view", default="Enriched",
                       choices=["Original", "Enriched", "Controlled"])
    p_exp = sub.add_parser("export", help="serialize a configuration view")
    p_exp.add_argument("--view", default="Original",
                       choices=["Original", "Enriched", "Controlled"])
    p_exp.add_argument("--format", dest="fmt", default="all",
                       choices=["all", "dot", "graphml", "edge-csv"])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    options = vars(build_parser().parse_args(argv))
    command, out_dir, seed, convention, config_path = (
        options.pop(key) for key in ("command", "out", "seed", "convention", "config"))
    try:
        cfg = RunConfig.load(Path(config_path or default_config_path()), seed=seed,
                             convention=convention and Convention(convention))
        return COMMANDS[command](cfg, out_dir, **options)
    except StageOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_STAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except (IcskgError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
