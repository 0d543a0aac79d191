"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithm code paths:
path enumeration is plain DFS over an adjacency dict, PageRank is dense
matrix power iteration, betweenness counts shortest paths by brute force.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from icskg.config import ControlProfile, RiskConfig
from icskg.graph import (
    Configuration,
    Edge,
    EdgeKind,
    Graph,
    Node,
    NodeKind,
    RiskAttributes,
)
from icskg.logsynth import LogIndex


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------

def add_product(graph: Graph, node_id: str, zone: str = "OT",
                criticality: int = 5, asset_class: str = "PLC") -> str:
    return graph.upsert_node(Node(
        id=node_id, kind=NodeKind.PRODUCT,
        props={"name": node_id, "assetClass": asset_class},
        criticality=criticality, zone=zone))


def add_comm(graph: Graph, src: str, dst: str,
             risk_weight: float = 0.1, p_exploit: float = 0.2,
             attack_cost: float = 0.5, control_strength: float = 0.8,
             kind: EdgeKind = EdgeKind.COMMUNICATES_WITH) -> Edge:
    edge = Edge(src, dst, kind,
                risk=RiskAttributes(control_strength=control_strength,
                                    p_exploit=p_exploit,
                                    attack_cost=attack_cost,
                                    risk_weight=risk_weight))
    graph.upsert_edge(edge)
    return edge


def comm_graph(edges: list[tuple], zone: str = "OT") -> Graph:
    """Graph from (src, dst[, risk_weight[, p_exploit]]) tuples; finalized."""
    graph = Graph()
    nodes = {e[0] for e in edges} | {e[1] for e in edges}
    for node_id in sorted(nodes):
        add_product(graph, node_id, zone=zone)
    for spec in edges:
        src, dst = spec[0], spec[1]
        rw = spec[2] if len(spec) > 2 else 0.1
        p = spec[3] if len(spec) > 3 else 0.2
        add_comm(graph, src, dst, risk_weight=rw, p_exploit=p)
    graph.finalize()
    return graph


def random_comm_graph(rng: random.Random, max_nodes: int = 10,
                      edge_prob: float = 0.4) -> Graph:
    n = rng.randint(2, max_nodes)
    graph = Graph()
    ids = [f"N{i:02d}" for i in range(n)]
    for node_id in ids:
        add_product(graph, node_id, criticality=rng.randint(1, 10))
    for a, b in combinations(ids, 2):
        if rng.random() < edge_prob:
            p = round(rng.uniform(0.01, 0.95), 4)
            rw = round(p * rng.randint(1, 10) / 10.0, 6)
            cost = round(rng.uniform(0.1, 1.2), 4)
            if rng.random() < 0.5:
                a, b = b, a
            add_comm(graph, a, b, risk_weight=rw, p_exploit=p, attack_cost=cost)
    graph.finalize()
    return graph


@st.composite
def random_graphs(draw, min_nodes: int, max_nodes: int, inferred: bool = False):
    """A finalized graph of ``N00``, ``N01``, ... (id order is rank order)
    whose pairs are linked at a drawn density, each link with a random
    direction and riskWeight.  With ``inferred``, each pair also gets an
    inferred link at that density, so the Enriched view can hold a pair
    twice."""
    n = draw(st.integers(min_nodes, max_nodes))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = Graph()
    ids = [f"N{i:02d}" for i in range(n)]
    for node_id in ids:
        add_product(g, node_id)
    kinds = (EdgeKind.COMMUNICATES_WITH, EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    for a, b in combinations(ids, 2):
        for kind in kinds[:2 if inferred else 1]:
            if rng.random() < density:
                src, dst = (a, b) if rng.random() < 0.5 else (b, a)
                add_comm(g, src, dst, risk_weight=rng.choice([0.1, 0.2, 0.3, 0.5]),
                         kind=kind)
    g.finalize()
    return g


# ---------------------------------------------------------------------------
# Path oracles
# ---------------------------------------------------------------------------

def collapse_pairs(view, policy) -> dict[str, dict[str, tuple[float, object]]]:
    """Per-pair cheapest edge under the policy, mirroring the documented
    multigraph semantics but built independently from the view edge list."""
    best: dict[frozenset, tuple[float, str, object]] = {}
    for e in view.edges:
        cost = policy.edge_cost(e)
        key = frozenset((e.src, e.dst))
        cand = (cost, e.kind.value, e)
        if key not in best or (cand[0], cand[1]) < (best[key][0], best[key][1]):
            best[key] = cand
    adj: dict[str, dict[str, tuple[float, object]]] = {}
    for key, (cost, _, edge) in best.items():
        u, v = sorted(key)
        adj.setdefault(u, {})[v] = (cost, edge)
        adj.setdefault(v, {})[u] = (cost, edge)
    return adj


def enumerate_simple_paths(view, src: str, dst: str, policy) -> list[tuple[float, tuple[str, ...]]]:
    """All simple paths src->dst with their policy costs, sorted by
    (cost, node sequence).  Exponential DFS; only for small graphs."""
    adj = collapse_pairs(view, policy)
    out: list[tuple[float, tuple[str, ...]]] = []

    def dfs(node: str, path: tuple[str, ...], cost: float) -> None:
        if node == dst:
            out.append((cost, path))
            return
        for nbr, (w, _) in sorted(adj.get(node, {}).items()):
            if nbr not in path:
                dfs(nbr, path + (nbr,), cost + w)

    if src in adj or src == dst:
        dfs(src, (src,), 0.0)
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def bfs_min_hops(view, src: str, dst: str) -> float:
    """Plain BFS hop distance over the view, inf when unreachable."""
    adj: dict[str, set[str]] = {}
    for e in view.edges:
        adj.setdefault(e.src, set()).add(e.dst)
        adj.setdefault(e.dst, set()).add(e.src)
    frontier = [src]
    seen = {src}
    depth = 0
    while frontier:
        if dst in frontier:
            return depth
        nxt = []
        for node in frontier:
            for nbr in adj.get(node, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
        depth += 1
    return math.inf


# ---------------------------------------------------------------------------
# Centrality oracles
# ---------------------------------------------------------------------------

def pagerank_oracle(view, damping: float = 0.85,
                    iterations: int = 5000) -> dict[str, float]:
    """Dense-matrix power iteration, independent of the adjacency-list
    implementation; each parallel edge adds weight 1 to its pair."""
    nodes = view.nodes()
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    w = np.zeros((n, n))
    for e in view.edges:
        i, j = index[e.src], index[e.dst]
        w[i, j] += 1.0
        w[j, i] += 1.0
    out = w.sum(axis=1)
    transition = np.zeros((n, n))
    dangling = np.zeros(n)
    for i in range(n):
        if out[i] > 0:
            transition[i] = w[i] / out[i]
        else:
            dangling[i] = 1.0
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nxt = (1.0 - damping) / n \
            + damping * (transition.T @ rank + rank @ dangling / n)
        if np.abs(nxt - rank).sum() < 1e-13:
            rank = nxt
            break
        rank = nxt
    return {u: float(rank[index[u]]) for u in nodes}


def betweenness_oracle(view) -> dict[str, float]:
    """Count shortest paths in hops per unordered pair through full
    enumeration; parallel edges are one hop."""
    nodes = view.nodes()
    adj: dict[str, set[str]] = {u: set() for u in nodes}
    for e in view.edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    score = {u: 0.0 for u in nodes}
    for s, t in combinations(sorted(nodes), 2):
        paths: list[tuple[str, ...]] = []

        def dfs(node, path):
            if node == t:
                paths.append(path)
                return
            for nbr in sorted(adj[node]):
                if nbr not in path:
                    dfs(nbr, path + (nbr,))

        dfs(s, (s,))
        if not paths:
            continue
        hops = min(len(p) for p in paths)
        shortest = [p for p in paths if len(p) == hops]
        for path in shortest:
            for inner in path[1:-1]:
                score[inner] += 1.0 / len(shortest)
    return score


# ---------------------------------------------------------------------------
# Small random testbeds for the end-to-end property suite
# ---------------------------------------------------------------------------

def random_testbed(rng: random.Random):
    """A small random plant: two zones, random tree plus chords, random
    advisories.  Returns (TestbedSpec, advisories list)."""
    from icskg.ingest import Dataflow, TestbedProduct, TestbedSpec

    n = rng.randint(6, 12)
    products = []
    for i in range(n):
        zone = "DMZ" if i < n // 3 else "OT"
        products.append(TestbedProduct(
            name=f"P{i:02d}", vendor=f"V{i % 4}",
            asset_class=rng.choice(["PLC", "HMI", "SCADA", "Sensor", "Workstation"]),
            zone=zone,
            criticality=rng.randint(3, 10),
            protocols=["Modbus/TCP"],
        ))
    flows = []
    seen = set()
    for i in range(1, n):
        j = rng.randrange(i)
        flows.append(Dataflow(f"P{j:02d}", f"P{i:02d}", "Modbus/TCP"))
        seen.add(frozenset((i, j)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        if frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            flows.append(Dataflow(f"P{i:02d}", f"P{j:02d}", "Modbus/TCP"))
    allow = frozenset((f.src, f.dst) for f in flows[:2])
    profile = ControlProfile(
        controls=frozenset({"NetworkSegmentation", "AccessControl", "ConfigHardening", "IDS"}),
        allowlist=allow)
    testbed = TestbedSpec(zones=["DMZ", "OT"], products=products, dataflows=flows,
                          control_profiles={"secured": profile})

    advisories = []
    counter = 100
    for p in products:
        if rng.random() < 0.85:
            n_cves = rng.randint(1, 3)
            cpe = f"cpe:2.3:h:{p.vendor.lower()}:{p.name.lower()}"
            for _ in range(n_cves):
                advisories.append({
                    "cveId": f"CVE-2025-{counter}",
                    "description": f"flaw in {p.name}",
                    "status": "ACTIVE",
                    "epss": round(rng.uniform(0.05, 0.95), 3),
                    "kev": False,
                    "cvss": {"baseScore": round(rng.uniform(2.0, 9.8), 1),
                             "accessComplexity": rng.choice(["Low", "High"]),
                             "attackVector": rng.choice(
                                 ["Network", "Adjacent", "Local", "Physical"])},
                    "vendorStatements": [],
                    "cpes": [cpe],
                })
                counter += 1
    return testbed, advisories


def log_index(lines) -> LogIndex:
    """The :class:`LogIndex` of log CSV data lines, as the stream that
    ``logsynth.generate`` returns yields them, read with ``csv.reader``."""
    return LogIndex(Counter(tuple(row[1:]) for row in csv.reader(lines)))


def run_mini_pipeline(testbed, advisories, seed: int = 7,
                      risk_config: RiskConfig | None = None):
    """In-memory build -> logs -> annotate -> enrich -> controls -> views."""
    from icskg import enrich, logsynth, risk
    from icskg.ingest import VulnRecord, link_products, load_testbed_into_graph, \
        build_dataflow_edges, preprocess_cves

    cfg = risk_config or RiskConfig()
    graph = Graph()
    load_testbed_into_graph(graph, testbed, cfg)
    records = preprocess_cves([VulnRecord.from_dict(a) for a in advisories])
    link_products(graph, testbed, records)
    build_dataflow_edges(graph, testbed)

    profile = logsynth.SynthProfile(seed=seed, duration_hours=2.0,
                                    per_flow_session_rate=30.0)
    baseline = logsynth.generate(testbed, profile)
    controls = replace(testbed.control_profiles["secured"], overrides=cfg.control_overrides)
    secured = logsynth.generate_secured(testbed, profile, controls)

    baseline_index, secured_index = log_index(baseline), log_index(secured)
    risk.annotate(graph, baseline_index, cfg)

    frozen = _clone(graph)
    frozen.finalize()
    original = frozen.project_view(Configuration.ORIGINAL, cfg.prune_threshold)
    emb = enrich.fastrp_embed(original, dim=32, seed=seed)
    for edge in enrich.knn_possible_links(emb, original, top_k=3):
        graph.upsert_edge(edge)
    risk.annotate(graph, baseline_index, cfg)
    risk.apply_controls(graph, controls, secured_index, cfg)
    graph.finalize()
    views = {
        config: graph.project_view(config, cfg.prune_threshold)
        for config in Configuration
    }
    return graph, views, baseline, secured


def _clone(graph: Graph) -> Graph:
    """An unfinalized graph sharing the (frozen) records of ``graph``."""
    out = Graph()
    for node in graph.nodes():
        out.upsert_node(node)
    for e in graph.edges():
        out.upsert_edge(e)
    return out


@pytest.fixture
def fixture_config_path():
    from icskg.cli import default_config_path
    return default_config_path()


# ---------------------------------------------------------------------------
# Shared full pipeline runs over the bundled fixture
# ---------------------------------------------------------------------------

PIPELINE_STAGES = ["build", "synth-logs", "annotate", "enrich", "controls",
                   "simulate", "report"]


def run_full_pipeline(out_dir) -> None:
    from icskg.cli import main
    for stage in PIPELINE_STAGES:
        code = main(["--out", str(out_dir), stage])
        assert code == 0, f"stage {stage} failed"
    assert main(["--out", str(out_dir), "export", "--view", "Original"]) == 0


def tree_digest(root) -> dict[str, str]:
    import hashlib
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="session")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "out"
    run_full_pipeline(out)
    return out


@pytest.fixture(scope="session")
def pipeline_out_rerun(tmp_path_factory):
    """Independent second run with identical config and seed; paired with
    ``pipeline_out`` for byte-level determinism checks."""
    out = tmp_path_factory.mktemp("pipeline-rerun") / "out"
    import time
    start = time.perf_counter()
    run_full_pipeline(out)
    elapsed = time.perf_counter() - start
    return out, elapsed
