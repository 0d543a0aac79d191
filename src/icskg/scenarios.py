"""Attack-scenario execution across the three graph configurations.

A scenario names a source selector, a target selector, a path budget k and a
weight policy.  Running it fires Yen k-shortest-paths from every resolved
source to every resolved target per configuration and condenses the returned
paths into hop statistics plus the count of distinct reachable targets.
Scenario catalogs are plain JSON data files so new cases need no code change.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from icskg.analytics import WeightPolicy, betweenness, pagerank, yen_k_shortest
from icskg.config import STRING, integer, list_of, obj, one_of
from icskg.errors import SelectorEmpty
from icskg.graph import Configuration, Graph, GraphView, NodeKind, read_json

DEFAULT_K = 20


@dataclass
class Selector:
    """Resolves to product nodes by id, asset class, zone or name substring."""

    by: str                 # "id" | "class" | "zone" | "name"
    values: list[str]

    def resolve(self, graph: Graph) -> list[str]:
        products = graph.nodes(NodeKind.PRODUCT)
        if self.by == "id":
            wanted = set(self.values)
            out = [p.id for p in products if p.id in wanted]
        elif self.by == "class":
            wanted = set(self.values)
            out = [p.id for p in products if p.props.get("assetClass") in wanted]
        elif self.by == "zone":
            wanted = set(self.values)
            out = [p.id for p in products if p.zone in wanted]
        else:  # "name": SELECTOR reads no other discriminator
            needles = [v.lower() for v in self.values]
            out = [p.id for p in products
                   if any(needle in p.id.lower() for needle in needles)]
        return sorted(out)

    def label(self) -> str:
        return "|".join(self.values)


SELECTOR = obj({"by": one_of(("id", "class", "zone", "name")), "values": list_of(STRING)},
               required=("by", "values"), make=Selector)
# A scenario of a catalog, named by its id; an absent name is the id.
SCENARIO = obj({"id": STRING, "name": STRING, "source": SELECTOR, "target": SELECTOR,
                "k": integer(1), "policy": one_of(WeightPolicy)},
               required=("id", "source", "target"), label=("id", "scenario {}"))


@dataclass
class Scenario:
    id: str
    name: str
    source: Selector
    target: Selector
    k: int = DEFAULT_K
    policy: WeightPolicy = WeightPolicy.RISK_COST

    @classmethod
    def from_dict(cls, raw: dict, name: str = "scenario") -> "Scenario":
        """The scenario ``raw`` declares, read by :data:`SCENARIO`."""
        settings = SCENARIO(raw, name)
        return cls(**{"name": settings["id"], **settings})


def load_scenarios(path: str | Path) -> list[Scenario]:
    return list_of(Scenario.from_dict)(read_json(path), "scenarios")


@dataclass
class PropagationReport:
    scenario_id: str
    source_label: str
    target_label: str
    config: str
    avg_hops: float
    min_hops: int
    max_hops: int
    affected: int
    hop_samples: list[int] = field(default_factory=list, repr=False)


def run_scenario(views: dict[Configuration, GraphView],
                 scenario: Scenario) -> list[PropagationReport]:
    """One report per configuration, in Original/Enriched/Controlled order.

    Source/target pairs with no route contribute no hop samples but are
    reflected through the affected count; a scenario severed everywhere
    reports avg 0 / affected 0 rather than omitting the row.
    """
    any_view = next(iter(views.values()))
    sources = scenario.source.resolve(any_view.graph)
    targets = scenario.target.resolve(any_view.graph)
    if not sources:
        raise SelectorEmpty(f"{scenario.id}: source selector matched no product")
    if not targets:
        raise SelectorEmpty(f"{scenario.id}: target selector matched no product")
    reports = []
    for config in Configuration:
        if config not in views:
            continue
        view = views[config]
        samples: list[int] = []
        reached: set[str] = set()
        for src in sources:
            for dst in targets:
                if src == dst:
                    continue
                paths = yen_k_shortest(view, src, dst, scenario.k, scenario.policy)
                if paths:
                    reached.add(dst)
                    samples.extend(p.hop_count for p in paths)
        reports.append(PropagationReport(
            scenario_id=scenario.id,
            source_label=scenario.source.label(),
            target_label=scenario.target.label(),
            config=config.value,
            avg_hops=sum(samples) / len(samples) if samples else 0.0,
            min_hops=min(samples) if samples else 0,
            max_hops=max(samples) if samples else 0,
            affected=len(reached),
            hop_samples=samples,
        ))
    return reports


@dataclass
class ConfigAggregate:
    config: str
    mean_hops: float
    ci95_low: float
    ci95_high: float
    sample_count: int


@dataclass
class SuiteReport:
    rows: list[PropagationReport]
    aggregates: list[ConfigAggregate]


def run_suite(views: dict[Configuration, GraphView],
              scenarios: list[Scenario]) -> SuiteReport:
    """Run every scenario and aggregate pooled hop statistics per config.

    The 95% interval is the normal approximation over all path hop samples
    of a configuration across the whole suite.
    """
    rows: list[PropagationReport] = []
    for scenario in scenarios:
        rows.extend(run_scenario(views, scenario))
    aggregates = []
    for config in Configuration:
        if config not in views:
            continue
        samples = [h for r in rows if r.config == config.value for h in r.hop_samples]
        if not samples:
            aggregates.append(ConfigAggregate(config.value, 0.0, 0.0, 0.0, 0))
            continue
        mean = sum(samples) / len(samples)
        if len(samples) > 1:
            half = 1.96 * statistics.stdev(samples) / math.sqrt(len(samples))
        else:
            half = 0.0
        aggregates.append(ConfigAggregate(config.value, mean, mean - half,
                                          mean + half, len(samples)))
    return SuiteReport(rows=rows, aggregates=aggregates)


# ---------------------------------------------------------------------------
# Enrichment impact on centralities
# ---------------------------------------------------------------------------

@dataclass
class CentralityRow:
    node: str
    node_type: str
    pagerank_before: float
    pagerank_after: float
    delta_pagerank: float
    betweenness_before: float
    betweenness_after: float
    delta_betweenness: float


def centrality_delta(view_before: GraphView, view_after: GraphView) -> list[CentralityRow]:
    """Per-node unweighted PageRank and betweenness before/after enrichment,
    sorted by |PageRank delta| descending; every node appears exactly once."""
    pr_before = pagerank(view_before)
    pr_after = pagerank(view_after)
    bt_before = betweenness(view_before)
    bt_after = betweenness(view_after)
    rows = []
    for node in view_before.nodes():
        info = view_before.graph.node(node)
        rows.append(CentralityRow(
            node=node,
            node_type=info.props.get("assetClass", info.kind.value),
            pagerank_before=pr_before[node],
            pagerank_after=pr_after[node],
            delta_pagerank=pr_after[node] - pr_before[node],
            betweenness_before=bt_before[node],
            betweenness_after=bt_after[node],
            delta_betweenness=bt_after[node] - bt_before[node],
        ))
    rows.sort(key=lambda r: (-abs(r.delta_pagerank), r.node))
    return rows
