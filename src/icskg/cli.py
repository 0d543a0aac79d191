"""Command-line pipeline: build -> synth-logs -> annotate -> enrich ->
controls -> simulate -> report, plus export.

Stages persist the graph as CSV state under the output directory, so each
stage is an independent, idempotent process; ``state.json`` records which
stages completed and pins seed/convention for the whole run.  Exit codes:
0 success, 2 input error, 3 stage-order violation, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from icskg import analytics, enrich, ingest, logsynth, reports, risk, scenarios
from icskg.config import Convention, RiskConfig
from icskg.errors import IcskgError, InvariantViolation, StageOrderError
from icskg.graph import (
    Configuration,
    Graph,
    GraphView,
    audit_hierarchy,
    audit_risk_completeness,
    write_json,
)

logger = logging.getLogger("icskg")

STAGE_ORDER = ["build", "synth-logs", "annotate", "enrich", "controls",
               "simulate", "report"]

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_STAGE = 3
_EXIT_INTERNAL = 4


def default_config_path() -> Path:
    return Path(str(resources.files("icskg") / "data" / "fixture" / "config.json"))


@dataclass
class RunConfig:
    base_dir: Path
    paths: dict[str, Path]
    seed: int = 42
    convention: Optional[str] = None
    synth_profile: dict = field(default_factory=dict)
    control_profile: str = "secured"
    prediction_min_confidence: float = 0.5
    enrichment: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "RunConfig":
        raw = json.loads(path.read_text(encoding="utf-8"))
        base = path.parent
        paths = {}
        for key, rel in raw.get("paths", {}).items():
            paths[key] = (base / rel).resolve()
        cfg = cls(
            base_dir=base,
            paths=paths,
            seed=int(raw.get("seed", 42)),
            convention=raw.get("convention"),
            synth_profile=dict(raw.get("synthProfile", {})),
            control_profile=raw.get("controlProfile", "secured"),
            prediction_min_confidence=float(raw.get("predictionMinConfidence", 0.5)),
            enrichment=dict(raw.get("enrichment", {})),
        )
        return cfg

    def validate_paths(self) -> None:
        required = ["testbed", "advisories", "nodes", "relations", "scenarios",
                    "riskConfig"]
        for key in required:
            if key not in self.paths:
                raise IcskgError(f"run config is missing required path {key!r}")
            if not self.paths[key].exists():
                raise IcskgError(f"configured path does not exist: {self.paths[key]}")
        if "predictions" in self.paths and not self.paths["predictions"].exists():
            raise IcskgError(f"configured path does not exist: {self.paths['predictions']}")

    def risk_config(self) -> RiskConfig:
        cfg = RiskConfig.from_json(self.paths["riskConfig"])
        if self.convention:
            cfg.convention = Convention(self.convention.lower())
        return cfg

    def profile(self) -> logsynth.SynthProfile:
        data = dict(self.synth_profile)
        data["seed"] = self.seed
        return logsynth.SynthProfile.from_dict(data)

    def controls(self, testbed: ingest.TestbedSpec,
                 risk_cfg: RiskConfig) -> logsynth.ControlProfile:
        """The selected control profile of the testbed spec."""
        spec = testbed.control_profiles.get(self.control_profile)
        if spec is None:
            raise IcskgError(
                f"testbed declares no control profile named {self.control_profile!r}")
        return logsynth.ControlProfile.from_spec(spec, risk_cfg.control_overrides)


# ---------------------------------------------------------------------------
# Pipeline state
# ---------------------------------------------------------------------------

class PipelineState:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.path = out_dir / "state.json"
        if self.path.exists():
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            self.stages: list[str] = list(raw.get("stages", []))
            self.seed: Optional[int] = raw.get("seed")
            self.convention: Optional[str] = raw.get("convention")
        else:
            self.stages = []
            self.seed = None
            self.convention = None

    def require(self, stage: str) -> None:
        if stage not in self.stages:
            raise StageOrderError(f"{stage} stage required")

    def check_consistency(self, seed: int, convention: str) -> None:
        if self.seed is not None and self.seed != seed:
            raise IcskgError(
                f"seed {seed} differs from the value {self.seed} recorded at build time")
        if self.convention is not None and self.convention != convention:
            raise IcskgError(
                f"convention {convention!r} differs from the recorded {self.convention!r}")

    def mark(self, stage: str, seed: int, convention: str) -> None:
        # Re-running a stage invalidates everything downstream of it: later
        # artifacts were derived from state this stage just replaced.
        position = STAGE_ORDER.index(stage)
        self.stages = [s for s in self.stages
                       if s in STAGE_ORDER and STAGE_ORDER.index(s) <= position]
        if stage not in self.stages:
            self.stages.append(stage)
        self.stages.sort(key=lambda s: STAGE_ORDER.index(s))
        self.seed = seed
        self.convention = convention
        _write_json(self.path, {
            "schemaVersion": reports.SCHEMA_VERSION,
            "stages": self.stages,
            "seed": seed,
            "convention": convention,
        })


def _graph_dir(out_dir: Path) -> Path:
    return out_dir / "graph"


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _write_json(path: Path, payload) -> None:
    _write(path, write_json(payload))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_build(cfg: RunConfig, out_dir: Path, validate_only: bool = False) -> int:
    cfg.validate_paths()
    risk_cfg = cfg.risk_config()
    testbed = ingest.load_testbed(cfg.paths["testbed"])
    graph = Graph()
    product_count = ingest.load_testbed_into_graph(graph, testbed, risk_cfg)
    node_result = ingest.load_nodes(graph, cfg.paths["nodes"])
    advisories = ingest.preprocess_cves(ingest.load_advisories(cfg.paths["advisories"]))
    vuln_edges = ingest.link_products(graph, testbed, advisories)
    rel_result = ingest.load_relations(graph, cfg.paths["relations"])
    flow_count = ingest.build_dataflow_edges(graph, testbed)
    prediction_count = 0
    if "predictions" in cfg.paths:
        pred = ingest.import_predictions(graph, cfg.paths["predictions"],
                                         cfg.prediction_min_confidence)
        prediction_count = pred.count
        for issue in pred.issues:
            logger.warning("predictions row %d: %s", issue.row, issue.message)
    for result, name in ((node_result, "nodes"), (rel_result, "relations")):
        for issue in result.issues:
            logger.warning("%s row %d [%s]: %s", name, issue.row, issue.kind,
                           issue.message)
    violations = audit_hierarchy(graph)
    if violations:
        raise InvariantViolation(
            f"hierarchy audit found {len(violations)} violations: {violations[:3]}")
    summary = {
        "schemaVersion": reports.SCHEMA_VERSION,
        "counts": graph.counts_by_kind(),
        "nodeTotal": graph.node_count(),
        "edgeTotal": graph.edge_count(),
        "products": product_count,
        "vulnerabilityLinks": vuln_edges,
        "dataflows": flow_count,
        "predictionsImported": prediction_count,
        "rowIssues": len(node_result.issues) + len(rel_result.issues),
    }
    if validate_only:
        print(json.dumps(summary["counts"], sort_keys=True))
        return _EXIT_OK
    ingest.save_state(graph, _graph_dir(out_dir))
    _write_json(out_dir / "graph-summary.json", summary)
    state = PipelineState(out_dir)
    state.mark("build", cfg.seed, risk_cfg.convention.value)
    print(f"build: {graph.node_count()} nodes, {graph.edge_count()} edges")
    return _EXIT_OK


def cmd_synth_logs(cfg: RunConfig, out_dir: Path) -> int:
    cfg.validate_paths()
    state = PipelineState(out_dir)
    state.require("build")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    testbed = ingest.load_testbed(cfg.paths["testbed"])
    profile = cfg.profile()
    baseline = logsynth.generate(testbed, profile)
    secured = logsynth.generate_secured(testbed, profile, cfg.controls(testbed, risk_cfg))
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    logsynth.write_log_csv(baseline, logs_dir / "baseline.csv")
    logsynth.write_log_csv(secured, logs_dir / "secured.csv")
    state.mark("synth-logs", cfg.seed, risk_cfg.convention.value)
    print(f"synth-logs: {len(baseline)} baseline, {len(secured)} secured records")
    return _EXIT_OK


def cmd_annotate(cfg: RunConfig, out_dir: Path) -> int:
    state = PipelineState(out_dir)
    state.require("build")
    state.require("synth-logs")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    graph = ingest.load_state(_graph_dir(out_dir))
    logs = logsynth.load_log_csv(out_dir / "logs" / "baseline.csv")
    count = risk.annotate(graph, logs, risk_cfg)
    missing = audit_risk_completeness(graph)
    if missing:
        raise InvariantViolation(
            f"{len(missing)} communication edges lack risk attributes after annotation")
    ingest.save_state(graph, _graph_dir(out_dir))
    _write_json(out_dir / "annotate-report.json", {
        "schemaVersion": reports.SCHEMA_VERSION,
        "edgesAnnotated": count,
        "convention": risk_cfg.convention.value,
    })
    state.mark("annotate", cfg.seed, risk_cfg.convention.value)
    print(f"annotate: {count} communication edges scored")
    return _EXIT_OK


def cmd_enrich(cfg: RunConfig, out_dir: Path) -> int:
    state = PipelineState(out_dir)
    state.require("annotate")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    graph = ingest.load_state(_graph_dir(out_dir))
    frozen = ingest.load_state(_graph_dir(out_dir))
    frozen.finalize()
    view = frozen.project_view(Configuration.ORIGINAL, risk_cfg.prune_threshold)
    dim = int(cfg.enrichment.get("dim", enrich.DEFAULT_DIM))
    weights = tuple(cfg.enrichment.get("iterationWeights",
                                       enrich.DEFAULT_ITERATION_WEIGHTS))
    top_k = int(cfg.enrichment.get("topK", enrich.DEFAULT_TOP_K))
    emb = enrich.fastrp_embed(view, dim=dim, iteration_weights=weights,
                              seed=cfg.seed)
    links = enrich.knn_possible_links(emb, view, top_k=top_k)
    for edge in links:
        graph.upsert_edge(edge)
    logs = logsynth.load_log_csv(out_dir / "logs" / "baseline.csv")
    risk.annotate(graph, logs, risk_cfg)
    ingest.save_state(graph, _graph_dir(out_dir))
    _write(out_dir / "embeddings.csv", emb.to_csv())
    _write_json(out_dir / "enrich-report.json", {
        "schemaVersion": reports.SCHEMA_VERSION,
        "possibleLinks": len(links),
        "dim": dim,
        "topK": top_k,
    })
    state.mark("enrich", cfg.seed, risk_cfg.convention.value)
    print(f"enrich: {len(links)} possible-communication links inferred")
    return _EXIT_OK


def cmd_controls(cfg: RunConfig, out_dir: Path) -> int:
    state = PipelineState(out_dir)
    state.require("annotate")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    graph = ingest.load_state(_graph_dir(out_dir))
    controls = cfg.controls(ingest.load_testbed(cfg.paths["testbed"]), risk_cfg)
    secured = logsynth.load_log_csv(out_dir / "logs" / "secured.csv")
    report = risk.apply_controls(graph, controls, secured, risk_cfg)
    ingest.save_state(graph, _graph_dir(out_dir))
    _write_json(out_dir / "controls-report.json", {
        "schemaVersion": reports.SCHEMA_VERSION,
        "edgesRecomputed": report.edges_recomputed,
        "edgesPruned": report.edges_pruned,
        "profile": cfg.control_profile,
        "controls": sorted(controls.controls),
    })
    state.mark("controls", cfg.seed, risk_cfg.convention.value)
    print(f"controls: {report.edges_recomputed} recomputed, "
          f"{report.edges_pruned} below prune threshold")
    return _EXIT_OK


def _build_views(graph: Graph, risk_cfg: RiskConfig, state: PipelineState,
                 wanted: list[Configuration]) -> dict[Configuration, GraphView]:
    views = {}
    for config in wanted:
        if config is Configuration.ENRICHED:
            state.require("enrich")
        elif config is Configuration.CONTROLLED:
            state.require("controls")
        views[config] = graph.project_view(config, risk_cfg.prune_threshold)
    return views


def cmd_simulate(cfg: RunConfig, out_dir: Path, config_name: str = "all") -> int:
    state = PipelineState(out_dir)
    state.require("annotate")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    if config_name == "all":
        wanted = [Configuration.ORIGINAL, Configuration.ENRICHED,
                  Configuration.CONTROLLED]
    else:
        wanted = [Configuration(config_name)]
    graph = ingest.load_state(_graph_dir(out_dir))
    graph.finalize()
    views = _build_views(graph, risk_cfg, state, wanted)
    catalog = scenarios.load_scenarios(cfg.paths["scenarios"])
    suite = scenarios.run_suite(views, catalog)
    sim_dir = out_dir / "propagation"
    _write(sim_dir / "propagation.csv", reports.propagation_csv(suite.rows))
    _write(sim_dir / "propagation.json", reports.suite_json(suite))
    _write(sim_dir / "plot_hops.csv", reports.hop_plot_csv(suite))
    _write(sim_dir / "plot_affected.csv", reports.affected_plot_csv(suite))
    _write(sim_dir / "plot_mean_ci.csv", reports.mean_ci_csv(suite))
    state.mark("simulate", cfg.seed, risk_cfg.convention.value)
    for agg in suite.aggregates:
        print(f"simulate[{agg.config}]: mean hops {agg.mean_hops:.3f} "
              f"over {agg.sample_count} paths")
    return _EXIT_OK


def cmd_report(cfg: RunConfig, out_dir: Path, table: str = "all",
               top: int = 10, view_name: str = "Enriched") -> int:
    state = PipelineState(out_dir)
    state.require("annotate")
    risk_cfg = cfg.risk_config()
    state.check_consistency(cfg.seed, risk_cfg.convention.value)
    graph = ingest.load_state(_graph_dir(out_dir))
    graph.finalize()
    rep_dir = out_dir / "reports"

    def want(name: str) -> bool:
        return table in ("all", name)

    if want("interproduct"):
        view = _build_views(graph, risk_cfg, state, [Configuration(view_name)])
        rows = analytics.rank_interproduct_risk(view[Configuration(view_name)], top)
        _write(rep_dir / "interproduct.csv", reports.interproduct_csv(rows))
        _write(rep_dir / "interproduct.json", reports.rows_json(rows))
    if want("centrality"):
        views = _build_views(graph, risk_cfg, state,
                             [Configuration.ORIGINAL, Configuration.ENRICHED])
        rows = scenarios.centrality_delta(views[Configuration.ORIGINAL],
                                          views[Configuration.ENRICHED])
        _write(rep_dir / "centrality.csv", reports.centrality_csv(rows))
    if want("communities"):
        views = _build_views(graph, risk_cfg, state, [Configuration.ENRICHED])
        community_report = analytics.louvain(views[Configuration.ENRICHED],
                                             weighted=False, seed=cfg.seed)
        _write(rep_dir / "communities.csv", reports.communities_csv(community_report))
    if want("residual"):
        views = _build_views(graph, risk_cfg, state,
                             [Configuration.ORIGINAL, Configuration.ENRICHED,
                              Configuration.CONTROLLED])
        rows = analytics.residual_risk_report(views)
        _write(rep_dir / "residual.csv", reports.residual_csv(rows))
        _write(rep_dir / "residual.json", reports.rows_json(rows))
    state.mark("report", cfg.seed, risk_cfg.convention.value)
    print(f"report: tables written to {rep_dir}")
    return _EXIT_OK


def cmd_export(cfg: RunConfig, out_dir: Path, view_name: str = "Original",
               fmt: str = "all") -> int:
    state = PipelineState(out_dir)
    state.require("build")
    risk_cfg = cfg.risk_config()
    graph = ingest.load_state(_graph_dir(out_dir))
    graph.finalize()
    config = Configuration(view_name)
    view = _build_views(graph, risk_cfg, state, [config])[config]
    export_dir = out_dir / "export" / config.value.lower()
    formats = ["dot", "graphml", "edge-csv"] if fmt == "all" else [fmt]
    names = {"dot": "graph.dot", "graphml": "graph.graphml", "edge-csv": "edges.csv"}
    for f in formats:
        _write(export_dir / names[f], view.export(f))
    _write(export_dir / "nodes.csv", ingest.write_node_csv(graph))
    print(f"export: {', '.join(formats)} written to {export_dir}")
    return _EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = args.config if args.config is not None else default_config_path()
        if not Path(config_path).exists():
            print(f"error: run config not found: {config_path}", file=sys.stderr)
            return _EXIT_INPUT
        cfg = RunConfig.load(Path(config_path))
        if args.seed is not None:
            cfg.seed = args.seed
        if args.convention is not None:
            cfg.convention = args.convention
        out_dir = args.out
        if args.command == "build":
            return cmd_build(cfg, out_dir, validate_only=args.validate_only)
        if args.command == "synth-logs":
            return cmd_synth_logs(cfg, out_dir)
        if args.command == "annotate":
            return cmd_annotate(cfg, out_dir)
        if args.command == "enrich":
            return cmd_enrich(cfg, out_dir)
        if args.command == "controls":
            if args.profile:
                cfg.control_profile = args.profile
            return cmd_controls(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, config_name=args.sim_config)
        if args.command == "report":
            return cmd_report(cfg, out_dir, table=args.table, top=args.top,
                              view_name=args.view)
        if args.command == "export":
            return cmd_export(cfg, out_dir, view_name=args.view, fmt=args.fmt)
        parser.error(f"unknown command {args.command!r}")
        return _EXIT_INPUT
    except StageOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_STAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except (IcskgError, FileNotFoundError, json.JSONDecodeError, OSError,
            ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
