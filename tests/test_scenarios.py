"""Scenario resolution, propagation reports and configuration ordering laws."""

from __future__ import annotations

import random

import pytest

from conftest import add_comm, add_product, comm_graph, random_testbed, run_mini_pipeline
from icskg.analytics import WeightPolicy
from icskg.errors import SelectorEmpty
from icskg.graph import Configuration, EdgeKind, Graph
from icskg.scenarios import (
    Scenario,
    Selector,
    centrality_delta,
    run_scenario,
    run_suite,
)


def build_views(graph):
    return {c: graph.project_view(c) for c in Configuration}


def scenario(src_sel, tgt_sel, k=20, policy=WeightPolicy.HOP):
    return Scenario(id="T1", name="test", source=src_sel, target=tgt_sel,
                    k=k, policy=policy)


def test_selector_kinds():
    g = Graph()
    add_product(g, "PLC_1", zone="OT", asset_class="PLC")
    add_product(g, "PLC_2", zone="OT", asset_class="PLC")
    add_product(g, "HMI_1", zone="DMZ", asset_class="HMI")
    assert Selector("id", ["PLC_1"]).resolve(g) == ["PLC_1"]
    assert Selector("class", ["PLC"]).resolve(g) == ["PLC_1", "PLC_2"]
    assert Selector("zone", ["DMZ"]).resolve(g) == ["HMI_1"]
    assert Selector("name", ["plc"]).resolve(g) == ["PLC_1", "PLC_2"]


def test_run_scenario_hop_stats():
    # star of PLCs around a broker, plus one far PLC
    g = Graph()
    add_product(g, "BRK", asset_class="Broker")
    for i in (1, 2):
        add_product(g, f"PLC_{i}", asset_class="PLC")
    add_product(g, "PLC_far", asset_class="PLC")
    add_comm(g, "BRK", "PLC_1")
    add_comm(g, "BRK", "PLC_2")
    add_comm(g, "PLC_2", "PLC_far")
    g.finalize()
    views = {Configuration.ORIGINAL: g.project_view(Configuration.ORIGINAL)}
    s = scenario(Selector("id", ["BRK"]), Selector("class", ["PLC"]))
    report = run_scenario(views, s)[0]
    assert report.config == "Original"
    assert report.affected == 3
    assert report.min_hops == 1
    assert report.max_hops == 2
    assert report.avg_hops == pytest.approx((1 + 1 + 2) / 3)


def test_run_scenario_no_route_reports_zero():
    g = comm_graph([("A", "B")])
    # C is isolated
    g2 = Graph()
    add_product(g2, "A", asset_class="Broker")
    add_product(g2, "B", asset_class="PLC")
    add_product(g2, "C", asset_class="PLC")
    add_comm(g2, "A", "B")
    g2.finalize()
    views = {Configuration.ORIGINAL: g2.project_view(Configuration.ORIGINAL)}
    s = scenario(Selector("id", ["C"]), Selector("id", ["A", "B"]))
    report = run_scenario(views, s)[0]
    assert (report.avg_hops, report.min_hops, report.max_hops) == (0.0, 0, 0)
    assert report.affected == 0


def test_run_scenario_empty_selector():
    g = comm_graph([("A", "B")])
    views = {Configuration.ORIGINAL: g.project_view(Configuration.ORIGINAL)}
    s = scenario(Selector("class", ["Mainframe"]), Selector("id", ["A"]))
    with pytest.raises(SelectorEmpty):
        run_scenario(views, s)


def test_suite_single_scenario_aggregate_matches():
    g = comm_graph([("A", "B"), ("B", "C")])
    views = {Configuration.ORIGINAL: g.project_view(Configuration.ORIGINAL)}
    s = Scenario(id="S", name="s", source=Selector("id", ["A"]),
                 target=Selector("id", ["C"]), k=20, policy=WeightPolicy.HOP)
    suite = run_suite(views, [s])
    assert len(suite.rows) == 1
    agg = suite.aggregates[0]
    assert agg.mean_hops == pytest.approx(suite.rows[0].avg_hops)
    assert agg.sample_count == len(suite.rows[0].hop_samples)
    assert agg.ci95_low <= agg.mean_hops <= agg.ci95_high


def test_suite_deterministic():
    testbed, advisories = random_testbed(random.Random(41))
    _, views, _, _ = run_mini_pipeline(testbed, advisories, seed=41)
    s = Scenario(id="S", name="s",
                 source=Selector("id", [testbed.products[0].name]),
                 target=Selector("id", [testbed.products[-1].name]),
                 k=10, policy=WeightPolicy.HOP)
    from icskg.reports import propagation_csv, suite_json
    a = run_suite(views, [s])
    b = run_suite(views, [s])
    assert propagation_csv(a.rows) == propagation_csv(b.rows)
    assert suite_json(a) == suite_json(b)


def test_configuration_ordering_laws_random_testbeds():
    rng = random.Random(2026)
    for trial in range(12):
        testbed, advisories = random_testbed(rng)
        graph, views, _, _ = run_mini_pipeline(testbed, advisories, seed=trial)
        names = [p.name for p in testbed.products]
        src, dst = names[0], names[-1]
        if src == dst:
            continue
        s = Scenario(id=f"L{trial}", name="laws",
                     source=Selector("id", [src]),
                     target=Selector("id", names[1:]),
                     k=20, policy=WeightPolicy.HOP)
        reports = {r.config: r for r in run_scenario(views, s)}
        original = reports["Original"]
        enriched = reports["Enriched"]
        controlled = reports["Controlled"]
        assert original.affected <= enriched.affected
        if original.affected:
            assert enriched.min_hops <= original.min_hops
        assert controlled.affected <= enriched.affected
        for e in views[Configuration.CONTROLLED].edges:
            assert e.risk is not None and e.risk.risk_weight >= 0.05


def test_centrality_delta_zero_when_views_equal():
    g = comm_graph([("A", "B"), ("B", "C")])
    view = g.project_view(Configuration.ORIGINAL)
    rows = centrality_delta(view, view)
    assert len(rows) == len(view.nodes())
    for row in rows:
        assert row.delta_pagerank == 0.0
        assert row.delta_betweenness == 0.0


def test_centrality_delta_gateway_gains():
    g = Graph()
    for n in ("A", "B", "GW", "X", "Y"):
        add_product(g, n)
    add_comm(g, "A", "GW")
    add_comm(g, "GW", "B")
    add_comm(g, "X", "A")
    add_comm(g, "Y", "B")
    add_comm(g, "GW", "X", kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    add_comm(g, "GW", "Y", kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    g.finalize()
    rows = centrality_delta(g.project_view(Configuration.ORIGINAL),
                            g.project_view(Configuration.ENRICHED))
    gw = next(r for r in rows if r.node == "GW")
    assert gw.delta_betweenness >= 0.0
    assert gw.delta_pagerank > 0.0
    assert sorted(r.node for r in rows) == ["A", "B", "GW", "X", "Y"]
    deltas = [abs(r.delta_pagerank) for r in rows]
    assert deltas == sorted(deltas, reverse=True)
