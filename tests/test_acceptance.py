"""Acceptance gate: exact formula checks, oracle equivalence, ordering laws
and trend reproduction on the bundled fixture.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``); the
asserts carry the same tolerances, so a red test is the authoritative signal.
"""

from __future__ import annotations

import csv
import functools
import random
import statistics
import time
from pathlib import Path

import pytest

from conftest import (
    add_comm,
    add_product,
    betweenness_oracle,
    comm_graph,
    enumerate_simple_paths,
    log_index,
    pagerank_oracle,
    random_comm_graph,
    random_testbed,
    run_mini_pipeline,
    tree_digest,
)
from icskg.analytics import WeightPolicy, betweenness, louvain, pagerank, yen_k_shortest
from icskg.config import Convention
from icskg.graph import Configuration, EdgeKind, Graph
from icskg.ingest import load_state
from icskg.risk import (
    ControlFactors,
    control_strength,
    exposure,
    p_exploit,
    risk_weight,
    weakness_from_stats,
)
from icskg.scenarios import run_suite


def criterion(number: int, title: str):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
            return result
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. Formula exactness
# ---------------------------------------------------------------------------

@criterion(1, "formula exactness (tolerance 1e-12)")
def test_formula_exactness():
    start = time.perf_counter()
    assert control_strength(ControlFactors(1, 1, 1, 1), Convention.LITERAL) == 1.0
    assert abs(p_exploit([0.5, 0.5], 0.0) - 0.75) <= 1e-12
    assert abs(risk_weight(0.5, 10) - 0.5) <= 1e-12

    g = Graph()
    for n in "ABC":
        add_product(g, n)
    add_comm(g, "A", "B", p_exploit=0.5)
    add_comm(g, "B", "C", p_exploit=0.5)
    g.finalize()
    [path] = yen_k_shortest(g.project_view(Configuration.ORIGINAL), "A", "C", 1,
                            WeightPolicy.HOP)
    assert abs(path.path_probability - 0.25) <= 1e-12

    g2 = Graph()
    for n in ("S1", "S2", "T"):
        add_product(g2, n)
    add_comm(g2, "S1", "T", risk_weight=0.2)
    add_comm(g2, "S2", "T", risk_weight=0.3)
    g2.finalize()
    view = g2.project_view(Configuration.ORIGINAL)
    assert abs(exposure(view, "T") - 0.5) <= 1e-12
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Worked-example factor reproduction
# ---------------------------------------------------------------------------

@criterion(2, "log-derived weakness scores within ±0.015 of the worked values")
def test_factor_reproduction():
    from icskg.ingest import Dataflow, TestbedProduct, TestbedSpec
    from icskg.logsynth import SynthProfile, generate

    start = time.perf_counter()
    testbed = TestbedSpec(
        zones=["OT"],
        products=[TestbedProduct("U", "v", "HMI", "OT", 5, []),
                  TestbedProduct("V", "v", "PLC", "OT", 9, [])],
        dataflows=[Dataflow("U", "V", "OPC_UA")],
    )
    profile = SynthProfile(
        seed=42, duration_hours=200.0, per_flow_session_rate=50.0,
        anon_frac=0.03, insecure_mode_frac=0.005, cert_frac=0.90,
        misconfig_rate=0.02, failed_write_frac=0.05, audit_write_frac=0.01,
        fail_check_frac=0.01, client_ip_pool_size=10)
    stats = log_index(generate(testbed, profile)).pair("U", "V")
    assert stats.sessions == 10_000
    factors = weakness_from_stats(stats)
    expected = (0.03, 0.04, 0.03, 0.05)
    for got, want in zip(factors, expected):
        assert abs(got - want) <= 0.015, (got, want)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Path-oracle equivalence
# ---------------------------------------------------------------------------

@criterion(3, "Yen k=20 equals exhaustive enumeration on 200 random graphs")
def test_path_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20_26)
    policies = (WeightPolicy.HOP, WeightPolicy.RISK_COST,
                WeightPolicy.MAX_LIKELIHOOD)
    for trial in range(200):
        g = random_comm_graph(rng, max_nodes=10)
        view = g.project_view(Configuration.ORIGINAL)
        src, dst = rng.sample(view.nodes(), 2)
        for policy in policies:
            expected = enumerate_simple_paths(view, src, dst, policy)[:20]
            got = yen_k_shortest(view, src, dst, 20, policy)
            assert [list(p) for _, p in expected] == [p.nodes for p in got], \
                (trial, policy)
            for (cost, _), result in zip(expected, got):
                assert result.total_cost == pytest.approx(cost, abs=1e-9)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. Centrality oracles
# ---------------------------------------------------------------------------

@criterion(4, "PageRank within 1e-6 of power iteration; betweenness exact")
def test_centrality_oracles():
    start = time.perf_counter()
    rng = random.Random(44)
    for _ in range(20):
        g = random_comm_graph(rng, max_nodes=10)
        view = g.project_view(Configuration.ORIGINAL)
        pr = pagerank(view)
        pr_oracle = pagerank_oracle(view)
        for node in view.nodes():
            assert pr[node] == pytest.approx(pr_oracle[node], abs=1e-6)
        bt = betweenness(view)
        bt_oracle = betweenness_oracle(view)
        for node in view.nodes():
            assert bt[node] == pytest.approx(bt_oracle[node], abs=1e-9)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 5. Louvain properties
# ---------------------------------------------------------------------------

@criterion(5, "Louvain modularity monotone; two triangles split exactly")
def test_louvain_properties():
    start = time.perf_counter()
    g = comm_graph([("A", "B"), ("B", "C"), ("A", "C"),
                    ("X", "Y"), ("Y", "Z"), ("X", "Z")])
    report = louvain(g.project_view(Configuration.ORIGINAL), seed=1)
    assert len(report.communities) == 2
    assert {frozenset(c.members) for c in report.communities} == \
        {frozenset("ABC"), frozenset("XYZ")}

    rng = random.Random(50)
    for seed in range(10):
        g = random_comm_graph(rng, max_nodes=12, edge_prob=0.35)
        result = louvain(g.project_view(Configuration.ORIGINAL), seed=seed)
        trace = result.modularity_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert sum(c.size for c in result.communities) == len(g.nodes())
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 6. Configuration ordering laws
# ---------------------------------------------------------------------------

@criterion(6, "configuration ordering laws over 100 random testbeds")
def test_configuration_ordering_laws():
    start = time.perf_counter()
    rng = random.Random(66)
    for trial in range(100):
        testbed, advisories = random_testbed(rng)
        graph, views, _, _ = run_mini_pipeline(testbed, advisories, seed=trial)
        original = views[Configuration.ORIGINAL]
        enriched = views[Configuration.ENRICHED]
        controlled = views[Configuration.CONTROLLED]

        # every Controlled edge sits at or above the prune threshold
        for e in controlled.edges:
            assert e.risk is not None and e.risk.risk_weight >= 0.05

        # Complement-convention controls never raise pExploit
        for mirror in graph.edges(EdgeKind.CONTROLLED_COMMUNICATES_WITH):
            for source_kind in (EdgeKind.COMMUNICATES_WITH,
                                EdgeKind.HAS_POSSIBLE_COMMUNICATION):
                source = graph.edge(mirror.src, mirror.dst, source_kind)
                if source is not None and source.kind.value == \
                        mirror.props.get("mirrors"):
                    assert mirror.risk.p_exploit <= source.risk.p_exploit + 1e-12

        # reachability and hop laws from a fixed source
        names = [p.name for p in testbed.products]
        src = names[0]
        targets = names[1:]
        reach_o, reach_e = set(), set()
        for dst in targets:
            for view, reached in ((original, reach_o), (enriched, reach_e)):
                paths = yen_k_shortest(view, src, dst, 20, WeightPolicy.HOP)
                if paths:
                    reached.add(dst)
                    if view is enriched and dst in reach_o:
                        pass
        assert reach_o <= reach_e
        for dst in reach_o:
            o_min = yen_k_shortest(original, src, dst, 1, WeightPolicy.HOP)[0]
            e_min = yen_k_shortest(enriched, src, dst, 1, WeightPolicy.HOP)[0]
            assert e_min.hop_count <= o_min.hop_count
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 7. Trend reproduction on the bundled fixture
# ---------------------------------------------------------------------------

@criterion(7, "bundled-fixture trends: enriched shorter, controlled longer")
def test_fixture_trend_reproduction(pipeline_out):
    from icskg.cli import RunConfig, default_config_path

    cfg = RunConfig.load(default_config_path())
    graph = load_state(pipeline_out / "graph")
    graph.finalize()
    views = {c: graph.project_view(c, cfg.risk.prune_threshold)
             for c in Configuration}
    catalog = cfg.catalog
    assert len(catalog) == 15

    start = time.perf_counter()
    suite = run_suite(views, catalog)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"

    # The mean over scenarios of each configuration's average hop count.
    mean_o, mean_e, mean_c = (
        statistics.mean(r.avg_hops for r in suite.rows if r.config == c.value)
        for c in Configuration)
    assert mean_e <= 0.9 * mean_o, (mean_e, mean_o)
    assert mean_c >= 1.1 * mean_o, (mean_c, mean_o)

    pooled = {a.config: a.mean_hops for a in suite.aggregates}
    assert pooled["Enriched"] < pooled["Original"] < pooled["Controlled"]


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

@criterion(8, "two pipeline runs produce byte-identical output trees")
def test_pipeline_determinism(pipeline_out, pipeline_out_rerun):
    rerun_dir, rerun_elapsed = pipeline_out_rerun
    assert tree_digest(pipeline_out) == tree_digest(rerun_dir)
    # the rerun must not blow past twice a single run's cost; a single run
    # of the full pipeline stays under 60s on a laptop core by a wide margin
    assert rerun_elapsed < 120.0


# ---------------------------------------------------------------------------
# 9. Report-shape conformance
# ---------------------------------------------------------------------------

@criterion(9, "report column sets match the published table shapes")
def test_report_shapes(pipeline_out):
    start = time.perf_counter()

    def header(path: Path) -> list[str]:
        with open(path, newline="", encoding="utf-8") as fh:
            return next(csv.reader(fh))

    assert header(pipeline_out / "propagation" / "propagation.csv") == [
        "scenario", "source", "target", "config",
        "avgHops", "minHops", "maxHops", "affected"]
    assert header(pipeline_out / "reports" / "interproduct.csv") == [
        "source", "target", "risk", "exploitProb", "attackCost"]
    assert header(pipeline_out / "reports" / "centrality.csv") == [
        "node", "type", "pageRankBefore", "pageRankAfter", "deltaPageRank",
        "betweennessBefore", "betweennessAfter", "deltaBetweenness"]
    assert header(pipeline_out / "reports" / "communities.csv") == [
        "communityId", "size", "keyAssets", "risk", "cascade"]
    assert header(pipeline_out / "reports" / "residual.csv") == [
        "product", "zone", "raw", "enriched", "after", "delta", "reductionPct"]
    assert time.perf_counter() - start < 1.0
