"""Typed graph construction, views, exports and their invariants."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, fields
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _clone,
    add_comm,
    add_product,
    comm_graph,
    random_comm_graph,
    random_graphs,
)
from icskg.analytics import WeightPolicy, betweenness, yen_k_shortest
from icskg.errors import (
    GraphNotFinalized,
    InvalidCriticality,
    InvalidNode,
    KindConflict,
    KindConstraintViolation,
    MissingEndpoint,
    UnknownNode,
)
from icskg.graph import (
    Configuration,
    Edge,
    EdgeKind,
    Graph,
    Node,
    NodeKind,
    RiskAttributes,
    audit_hierarchy,
)
from icskg.ingest import load_edge_csv


def test_upsert_node_idempotent():
    g = Graph()
    add_product(g, "PLC_1")
    count = g.node_count()
    add_product(g, "PLC_1")
    assert g.node_count() == count
    assert g.node("PLC_1").zone == "OT"


def test_upsert_node_merges_by_replacement():
    g = Graph()
    g.upsert_node(Node(id="P", kind=NodeKind.PRODUCT, props={"name": "P", "vendor": "A"},
                       criticality=5, zone="OT"))
    g.upsert_node(Node(id="Z", kind=NodeKind.ASSET, criticality=3, zone="OT"))
    before = g.node("P"), g.node("Z")
    g.upsert_node(Node(id="P", kind=NodeKind.PRODUCT, props={"vendor": "B", "site": "S"},
                       criticality=0, zone="DMZ"))
    g.upsert_node(Node(id="Z", kind=NodeKind.ASSET, props={"site": "S"}, criticality=8))

    def state(node):
        return dict(node.props), node.zone, node.criticality
    assert [state(n) for n in before] == [({"name": "P", "vendor": "A"}, "OT", 5),
                                          ({}, "OT", 3)]
    # props merge with the new value winning; zone and criticality are
    # replaced only where the new node sets them.
    assert state(g.node("P")) == ({"name": "P", "vendor": "B", "site": "S"}, "DMZ", 5)
    assert state(g.node("Z")) == ({"site": "S"}, "OT", 8)


@settings(max_examples=60, deadline=None)
@given(random_graphs(2, 12), st.data())
def test_finalized_graph_records_are_frozen(graph, data):
    def snapshot():
        return [repr(graph.project_view(config).edges) for config in Configuration] \
            + [repr(graph.nodes())]
    before = snapshot()
    view = graph.project_view(data.draw(st.sampled_from(list(Configuration))))
    records = [graph.node(data.draw(st.sampled_from(view.nodes())))]
    if view.edges:
        edge = data.draw(st.sampled_from(view.edges))
        records += [edge, edge.risk]
    value = data.draw(st.sampled_from([0, 9.0, "x", None]))
    for record in records:
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, value)
        if hasattr(record, "props"):
            with pytest.raises(TypeError):
                record.props["k"] = "v"
    assert snapshot() == before


def test_criticality_bounds():
    g = Graph()
    with pytest.raises(InvalidCriticality):
        g.upsert_node(Node(id="X", kind=NodeKind.PRODUCT, criticality=11, zone="OT"))
    with pytest.raises(InvalidCriticality):
        g.upsert_node(Node(id="X", kind=NodeKind.PRODUCT, criticality=-1, zone="OT"))


def test_kind_conflict():
    g = Graph()
    add_product(g, "PLC.RobotCell_3")
    with pytest.raises(KindConflict):
        g.upsert_node(Node(id="PLC.RobotCell_3", kind=NodeKind.VULNERABILITY))


def test_product_requires_zone():
    g = Graph()
    with pytest.raises(InvalidNode):
        g.upsert_node(Node(id="P", kind=NodeKind.PRODUCT, criticality=5))


def test_edge_endpoint_constraints():
    g = Graph()
    add_product(g, "A")
    g.upsert_node(Node(id="CWE-79", kind=NodeKind.WEAKNESS))
    with pytest.raises(KindConstraintViolation):
        g.upsert_edge(Edge("A", "CWE-79", EdgeKind.COMMUNICATES_WITH))
    with pytest.raises(MissingEndpoint):
        g.upsert_edge(Edge("A", "NOPE", EdgeKind.COMMUNICATES_WITH))
    with pytest.raises(KindConstraintViolation):
        g.upsert_edge(Edge("A", "A", EdgeKind.COMMUNICATES_WITH))


def test_taxonomy_edge_without_risk_accepted():
    g = Graph()
    g.upsert_node(Node(id="CVE-1", kind=NodeKind.VULNERABILITY))
    g.upsert_node(Node(id="CWE-79", kind=NodeKind.WEAKNESS))
    g.upsert_edge(Edge("CVE-1", "CWE-79", EdgeKind.HAS_CWE))
    assert g.edge("CVE-1", "CWE-79", EdgeKind.HAS_CWE).risk is None
    with pytest.raises(KindConstraintViolation):
        g.upsert_edge(Edge("CVE-1", "CWE-79", EdgeKind.HAS_CWE,
                           risk=RiskAttributes()))


def test_duplicate_edge_last_write_wins():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    add_comm(g, "A", "B", risk_weight=0.1)
    add_comm(g, "A", "B", risk_weight=0.7)
    assert g.edge_count() == 1
    assert g.edge("A", "B", EdgeKind.COMMUNICATES_WITH).risk.risk_weight == 0.7


def test_view_requires_finalize():
    g = Graph()
    add_product(g, "A")
    with pytest.raises(GraphNotFinalized):
        g.project_view(Configuration.ORIGINAL)


def test_view_edge_sets():
    g = Graph()
    for n in "ABCD":
        add_product(g, n)
    add_comm(g, "A", "B")
    add_comm(g, "B", "C")
    add_comm(g, "C", "D")
    add_comm(g, "A", "C", kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    add_comm(g, "B", "D", kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    g.finalize()
    assert len(g.project_view(Configuration.ORIGINAL).edges) == 3
    assert len(g.project_view(Configuration.ENRICHED).edges) == 5


def test_original_subset_of_enriched():
    rng = random.Random(11)
    for _ in range(20):
        g = random_comm_graph(rng)
        original = {e.key for e in g.project_view(Configuration.ORIGINAL).edges}
        enriched = {e.key for e in g.project_view(Configuration.ENRICHED).edges}
        assert original <= enriched


def test_view_indexes_match_edge_scans():
    rng = random.Random(12)
    for _ in range(20):
        g = random_comm_graph(rng)
        products = [n.id for n in g.nodes(NodeKind.PRODUCT)]
        for config in Configuration:
            view = g.project_view(config)
            for node in products:
                assert view.incoming(node) == [e for e in view.edges if e.dst == node]
            position = {u: i for i, u in enumerate(products)}
            scan: list[dict[int, list[Edge]]] = [{} for _ in products]
            for e in view.edges:
                for a, b in ((e.src, e.dst), (e.dst, e.src)):
                    scan[position[a]].setdefault(position[b], []).append(e)
            assert view.adjacency == scan
            assert [list(pairs) for pairs in view.adjacency] == [list(pairs) for pairs in scan]
            assert all(view.adjacency[j][i] is edges
                       for i, pairs in enumerate(view.adjacency) for j, edges in pairs.items())
            view.nodes().clear()
            assert view.nodes() == products


@settings(max_examples=60, deadline=None)
@given(random_graphs(2, 12), st.lists(
    st.tuples(st.sampled_from(list(Configuration)),
              st.sampled_from([0.05, 0.15, 0.25, 0.4, 0.6])), min_size=2, max_size=8))
def test_views_compare_by_configuration_and_edges(graph, projections):
    views = [graph.project_view(config, threshold) for config, threshold in projections]
    for view in views[::2]:
        # The cached adjacency and path graph take no part in equality.
        betweenness(view)
        ids = view.nodes()
        yen_k_shortest(view, ids[0], ids[-1], 2, WeightPolicy.HOP)
        assert "adjacency" in vars(view) and view.path_graphs
    for (key_a, a), (key_b, b) in combinations(zip(projections, views), 2):
        if key_a == key_b:
            assert a == b
        assert (a == b) == (a.config is b.config and a.edges == b.edges)
    twin = _clone(graph)
    twin.finalize()
    for (config, threshold), view in zip(projections, views):
        other = twin.project_view(config, threshold)
        assert other.edges == view.edges and other != view


def test_controlled_prunes_below_threshold():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    add_product(g, "C")
    add_comm(g, "A", "B", risk_weight=0.04, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    add_comm(g, "A", "C", risk_weight=0.06, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    g.finalize()
    view = g.project_view(Configuration.CONTROLLED)
    assert [e.dst for e in view.edges] == ["C"]
    assert all(e.risk.risk_weight >= 0.05 for e in view.edges)


def test_controlled_falls_back_to_enriched_edges():
    g = Graph()
    for n in "ABC":
        add_product(g, n)
    add_comm(g, "A", "B", risk_weight=0.3)
    add_comm(g, "A", "B", risk_weight=0.1, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    add_comm(g, "B", "C", risk_weight=0.2, kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    g.finalize()
    view = g.project_view(Configuration.CONTROLLED)
    kinds = {(e.src, e.dst): e.kind for e in view.edges}
    # (A,B) has a controlled mirror; (B,C) persists as the enriched edge.
    assert kinds[("A", "B")] is EdgeKind.CONTROLLED_COMMUNICATES_WITH
    assert kinds[("B", "C")] is EdgeKind.HAS_POSSIBLE_COMMUNICATION


def test_empty_graph_views():
    g = Graph()
    g.finalize()
    for config in Configuration:
        assert g.project_view(config).edges == ()


def test_neighbors_undirected_and_pruned():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    add_comm(g, "A", "B", risk_weight=0.04)
    add_comm(g, "A", "B", risk_weight=0.04, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    g.finalize()
    original = g.project_view(Configuration.ORIGINAL)
    assert [e.src for e in original.incoming("B")] == ["A"]
    assert original.incoming("A") == []
    # A path may run against the stored direction of its edges.
    paths = yen_k_shortest(original, "B", "A", 1, WeightPolicy.HOP)
    assert [p.nodes for p in paths] == [["B", "A"]]
    controlled = g.project_view(Configuration.CONTROLLED)
    assert controlled.incoming("B") == []
    with pytest.raises(UnknownNode):
        original.incoming("missing")


def test_isolated_node_neighbors_empty():
    g = Graph()
    add_product(g, "L")
    g.finalize()
    assert g.project_view(Configuration.ORIGINAL).incoming("L") == []


def test_view_projection_is_pure():
    g = comm_graph([("A", "B"), ("B", "C")])
    nodes, edges = g.node_count(), g.edge_count()
    for config in Configuration:
        g.project_view(config)
    assert (g.node_count(), g.edge_count()) == (nodes, edges)


def test_export_dot_single_edge():
    # The second id holds a double quote and the third ends in a backslash;
    # DOT needs both escaped inside a quoted id.
    for a, quoted in (("A", '"A"'), ('A,"1', r'"A,\"1"'), ("A\\", r'"A\\"')):
        g = comm_graph([(a, "B")])
        dot = g.project_view(Configuration.ORIGINAL).export("dot").decode()
        assert dot.count("->") == 1
        assert f'  {quoted} -> "B" [' in dot
        assert f'  {quoted} [kind="Product"' in dot


def test_export_deterministic():
    g = comm_graph([("A", "B"), ("B", "C"), ("A", "C")])
    view = g.project_view(Configuration.ORIGINAL)
    for fmt in ("dot", "graphml", "edge-csv"):
        assert view.export(fmt) == view.export(fmt)


def test_edge_csv_round_trip(tmp_path):
    # The other ids need CSV quoting: a comma and a double quote, a bare
    # carriage return.
    for a in ("A", 'A,"1', "A\r1"):
        g = comm_graph([(a, "B", 0.25, 0.5), ("B", "C", 0.125, 0.25)])
        payload = g.project_view(Configuration.ORIGINAL).export("edge-csv")

        g2 = Graph()
        for n in (a, "B", "C"):
            add_product(g2, n)
        path = tmp_path / "edges.csv"
        path.write_bytes(payload)
        result = load_edge_csv(g2, path)
        assert result.count == 2
        assert not result.issues
        assert g2.edge_count() == g.edge_count()
        for e in g.edges():
            mirror = g2.edge(e.src, e.dst, e.kind)
            assert mirror is not None
            assert mirror.risk.risk_weight == e.risk.risk_weight
            assert mirror.risk.p_exploit == e.risk.p_exploit


def test_risk_cells_round_trip_and_decode_rules():
    risk = RiskAttributes(control_strength=0.1, p_exploit=1 / 3,
                          attack_cost=0.7, risk_weight=0.3)
    cells = RiskAttributes.encode(risk)
    assert cells == [repr(0.3), repr(1 / 3), repr(0.7), repr(0.1)]
    assert RiskAttributes.decode(*cells) == risk
    assert RiskAttributes.encode(None) == ["", "", "", ""]
    assert RiskAttributes.decode(*RiskAttributes.encode(None)) is None
    assert RiskAttributes.decode("0.5", "", "", "") == RiskAttributes(risk_weight=0.5)


def test_graphml_well_formed():
    import xml.etree.ElementTree as ET
    g = comm_graph([("A", "B", 0.3)])
    payload = g.project_view(Configuration.ORIGINAL).export("graphml")
    root = ET.fromstring(payload.decode())
    assert root.tag.endswith("graphml")


def test_hierarchy_audit_clean_on_valid_graph():
    g = Graph()
    add_product(g, "P")
    g.upsert_node(Node(id="CVE-1", kind=NodeKind.VULNERABILITY))
    g.upsert_node(Node(id="CWE-1", kind=NodeKind.WEAKNESS))
    g.upsert_edge(Edge("P", "CVE-1", EdgeKind.HAS_VULNERABILITY))
    g.upsert_edge(Edge("CVE-1", "CWE-1", EdgeKind.HAS_CWE))
    assert audit_hierarchy(g) == []
