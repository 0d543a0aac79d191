"""CSV/JSON serialization of the analysis reports.

Column orders are fixed and versioned; identical inputs always produce
byte-identical files (fixed float formatting, no timestamps).
"""

from __future__ import annotations

from typing import Sequence

from icskg.analytics import CommunityReport
from icskg.graph import write_csv, write_json
from icskg.scenarios import CentralityRow, PropagationReport, SuiteReport

SCHEMA_VERSION = "1"

PROPAGATION_COLUMNS = ["scenario", "source", "target", "config",
                       "avgHops", "minHops", "maxHops", "affected"]
INTERPRODUCT_COLUMNS = ["source", "target", "risk", "exploitProb", "attackCost"]
CENTRALITY_COLUMNS = ["node", "type", "pageRankBefore", "pageRankAfter",
                      "deltaPageRank", "betweennessBefore", "betweennessAfter",
                      "deltaBetweenness"]
COMMUNITY_COLUMNS = ["communityId", "size", "keyAssets", "risk", "cascade"]
RESIDUAL_COLUMNS = ["product", "zone", "raw", "enriched", "after",
                    "delta", "reductionPct"]


def _f(x: float, places: int = 6) -> str:
    return f"{x:.{places}f}"


def propagation_csv(rows: Sequence[PropagationReport]) -> bytes:
    return write_csv(PROPAGATION_COLUMNS, [
        [r.scenario_id, r.source_label, r.target_label, r.config,
         _f(r.avg_hops, 4), r.min_hops, r.max_hops, r.affected]
        for r in rows])


def interproduct_csv(rows: Sequence[dict]) -> bytes:
    return write_csv(INTERPRODUCT_COLUMNS, [
        [r["source"], r["target"], _f(r["risk"]), _f(r["exploitProb"]),
         _f(r["attackCost"])]
        for r in rows])


def centrality_csv(rows: Sequence[CentralityRow]) -> bytes:
    return write_csv(CENTRALITY_COLUMNS, [
        [r.node, r.node_type, _f(r.pagerank_before), _f(r.pagerank_after),
         _f(r.delta_pagerank), _f(r.betweenness_before), _f(r.betweenness_after),
         _f(r.delta_betweenness)]
        for r in rows])


def communities_csv(report: CommunityReport) -> bytes:
    rows = []
    for c in report.communities:
        # Key assets: the first two member ids in id order, as members are
        # sorted by id; they are not ranked by exposure.
        rows.append([c.id, c.size, "|".join(c.members[:2]),
                     _f(c.risk, 4), "Y" if c.cascade else "N"])
    return write_csv(COMMUNITY_COLUMNS, rows)


def residual_csv(rows: Sequence[dict]) -> bytes:
    return write_csv(RESIDUAL_COLUMNS, [
        [r["product"], r["zone"], _f(r["raw"], 4), _f(r["enriched"], 4),
         _f(r["after"], 4), _f(r["delta"], 4), r["reductionPct"]]
        for r in rows])


def suite_json(report: SuiteReport) -> bytes:
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "rows": [
            {
                "scenario": r.scenario_id,
                "source": r.source_label,
                "target": r.target_label,
                "config": r.config,
                "avgHops": round(r.avg_hops, 6),
                "minHops": r.min_hops,
                "maxHops": r.max_hops,
                "affected": r.affected,
            }
            for r in report.rows
        ],
        "aggregates": [
            {
                "config": a.config,
                "meanHops": round(a.mean_hops, 6),
                "ci95Low": round(a.ci95_low, 6),
                "ci95High": round(a.ci95_high, 6),
                "samples": a.sample_count,
            }
            for a in report.aggregates
        ],
    }
    return write_json(payload)


def hop_plot_csv(report: SuiteReport) -> bytes:
    """Per-scenario average hop count per configuration (figure 'hops' data)."""
    return _per_scenario_plot(report, lambda r: _f(r.avg_hops, 4))


def affected_plot_csv(report: SuiteReport) -> bytes:
    """Per-scenario reachable-target count per configuration."""
    return _per_scenario_plot(report, lambda r: str(r.affected))


def _per_scenario_plot(report: SuiteReport, cell) -> bytes:
    configs = [a.config for a in report.aggregates]
    by_scenario: dict[str, dict[str, str]] = {}
    for r in report.rows:
        by_scenario.setdefault(r.scenario_id, {})[r.config] = cell(r)
    rows = []
    for scenario_id in sorted(by_scenario):
        per = by_scenario[scenario_id]
        rows.append([scenario_id] + [per.get(c, "") for c in configs])
    return write_csv(["scenario"] + configs, rows)


def mean_ci_csv(report: SuiteReport) -> bytes:
    """Pooled mean path length with 95% interval per configuration."""
    return write_csv(["config", "meanHops", "ci95Low", "ci95High", "samples"], [
        [a.config, _f(a.mean_hops, 4), _f(a.ci95_low, 4), _f(a.ci95_high, 4),
         a.sample_count]
        for a in report.aggregates])


def rows_json(rows: Sequence[dict]) -> bytes:
    return write_json(list(rows))
