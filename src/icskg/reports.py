"""CSV/JSON serialization of the analysis reports.

Each table is declared once, as its column list and a row function that
yields a row's values in column order; its CSV and its JSON are both
written from them, so a JSON record uses its CSV's column names.  Column
orders are fixed and versioned; identical inputs always produce
byte-identical files (fixed float formatting, no timestamps).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from icskg.analytics import Community, CommunityReport
from icskg.graph import write_csv, write_json
from icskg.scenarios import CentralityRow, ConfigAggregate, PropagationReport, SuiteReport

SCHEMA_VERSION = "1"

PROPAGATION_COLUMNS = ["scenario", "source", "target", "config",
                       "avgHops", "minHops", "maxHops", "affected"]
MEAN_CI_COLUMNS = ["config", "meanHops", "ci95Low", "ci95High", "samples"]
INTERPRODUCT_COLUMNS = ["source", "target", "risk", "exploitProb", "attackCost"]
CENTRALITY_COLUMNS = ["node", "type", "pageRankBefore", "pageRankAfter",
                      "deltaPageRank", "betweennessBefore", "betweennessAfter",
                      "deltaBetweenness"]
COMMUNITY_COLUMNS = ["communityId", "size", "keyAssets", "risk", "cascade"]
RESIDUAL_COLUMNS = ["product", "zone", "raw", "enriched", "after",
                    "delta", "reductionPct"]


def _propagation_row(r: PropagationReport) -> tuple:
    return (r.scenario_id, r.source_label, r.target_label, r.config,
            r.avg_hops, r.min_hops, r.max_hops, r.affected)


def _mean_ci_row(a: ConfigAggregate) -> tuple:
    return a.config, a.mean_hops, a.ci95_low, a.ci95_high, a.sample_count


def _centrality_row(r: CentralityRow) -> tuple:
    return (r.node, r.node_type, r.pagerank_before, r.pagerank_after, r.delta_pagerank,
            r.betweenness_before, r.betweenness_after, r.delta_betweenness)


def _community_row(c: Community) -> tuple:
    # Key assets: the first two member ids in id order, as members are
    # sorted by id; they are not ranked by exposure.
    return c.id, c.size, "|".join(c.members[:2]), c.risk, "Y" if c.cascade else "N"


def _csv(columns: Sequence[str], rows: Iterable[Sequence], places: int) -> bytes:
    """The table as CSV, every float printed with ``places`` decimals."""
    return write_csv(columns, ([f"{v:.{places}f}" if isinstance(v, float) else v
                                for v in row] for row in rows))


def _records(columns: Sequence[str], rows: Iterable[Sequence]) -> list[dict]:
    """The table as JSON records keyed by column, floats rounded to 6 places."""
    return [{c: round(v, 6) if isinstance(v, float) else v for c, v in zip(columns, row)}
            for row in rows]


def propagation_csv(rows: Sequence[PropagationReport]) -> bytes:
    return _csv(PROPAGATION_COLUMNS, map(_propagation_row, rows), 4)


def interproduct_csv(rows: Sequence[dict]) -> bytes:
    return _csv(INTERPRODUCT_COLUMNS, map(itemgetter(*INTERPRODUCT_COLUMNS), rows), 6)


def centrality_csv(rows: Sequence[CentralityRow]) -> bytes:
    return _csv(CENTRALITY_COLUMNS, map(_centrality_row, rows), 6)


def communities_csv(report: CommunityReport) -> bytes:
    return _csv(COMMUNITY_COLUMNS, map(_community_row, report.communities), 4)


def residual_csv(rows: Sequence[dict]) -> bytes:
    return _csv(RESIDUAL_COLUMNS, map(itemgetter(*RESIDUAL_COLUMNS), rows), 4)


def suite_json(report: SuiteReport) -> bytes:
    return write_json(dict(
        schemaVersion=SCHEMA_VERSION,
        rows=_records(PROPAGATION_COLUMNS, map(_propagation_row, report.rows)),
        aggregates=_records(MEAN_CI_COLUMNS, map(_mean_ci_row, report.aggregates))))


def hop_plot_csv(report: SuiteReport) -> bytes:
    """Per-scenario average hop count per configuration (figure 'hops' data)."""
    return _per_scenario_plot(report, lambda r: r.avg_hops)


def affected_plot_csv(report: SuiteReport) -> bytes:
    """Per-scenario reachable-target count per configuration."""
    return _per_scenario_plot(report, lambda r: r.affected)


def _per_scenario_plot(report: SuiteReport, cell) -> bytes:
    configs = [a.config for a in report.aggregates]
    by_scenario: dict[str, dict] = {}
    for r in report.rows:
        by_scenario.setdefault(r.scenario_id, {})[r.config] = cell(r)
    rows = []
    for scenario_id in sorted(by_scenario):
        per = by_scenario[scenario_id]
        rows.append([scenario_id] + [per.get(c, "") for c in configs])
    return _csv(["scenario"] + configs, rows, 4)


def mean_ci_csv(report: SuiteReport) -> bytes:
    """Pooled mean path length with 95% interval per configuration."""
    return _csv(MEAN_CI_COLUMNS, map(_mean_ci_row, report.aggregates), 4)


def rows_json(rows: Sequence[dict]) -> bytes:
    return write_json(list(rows))
