"""Path finding, centralities and community detection against brute-force
oracles, plus the ranking reports."""

from __future__ import annotations

import heapq
import math
import random
import sys
import threading
from collections import Counter, deque
from dataclasses import FrozenInstanceError
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    add_comm,
    add_product,
    betweenness_oracle,
    comm_graph,
    enumerate_simple_paths,
    pagerank_oracle,
    random_comm_graph,
    random_graphs,
)
from icskg import analytics
from icskg.analytics import (
    _SOURCES_PER_PASS,
    Community,
    CommunityReport,
    WeightPolicy,
    _betweenness_arrays,
    _betweenness_loops,
    _dijkstra_raw,
    _level_search,
    _links,
    _pagerank_arrays,
    _pagerank_loops,
    _path_graph,
    _tree_route,
    betweenness,
    louvain,
    pagerank,
    rank_interproduct_risk,
    residual_risk_report,
    yen_k_shortest,
)
from icskg.enrich import fastrp_embed
from icskg.errors import EmptyGraph, UnknownNode
from icskg.graph import COMMUNICATION_KINDS, Configuration, EdgeKind, Graph, Node, NodeKind
from icskg.risk import exposure, p_exploit_product

POLICIES = (WeightPolicy.HOP, WeightPolicy.RISK_COST, WeightPolicy.MAX_LIKELIHOOD)


def original(graph):
    return graph.project_view(Configuration.ORIGINAL)


# ---------------------------------------------------------------------------
# Single cheapest path: Yen with k = 1, whose one search is the path graph's
# (Dijkstra's, or a route from the target's breadth-first tree under Hop)
# ---------------------------------------------------------------------------

def test_dijkstra_single_edge():
    g = comm_graph([("A", "B", 0.3, 0.5)])
    [result] = yen_k_shortest(original(g), "A", "B", 1, WeightPolicy.HOP)
    assert result.nodes == ["A", "B"]
    assert result.hop_count == 1
    assert result.path_probability == 0.5


def test_dijkstra_prefers_cheaper_route():
    g = comm_graph([("A", "B", 0.1), ("B", "D", 0.2),   # cost 0.3
                    ("A", "C", 0.3), ("C", "D", 0.2)])  # cost 0.5
    [result] = yen_k_shortest(original(g), "A", "D", 1, WeightPolicy.RISK_COST)
    assert result.nodes == ["A", "B", "D"]
    assert result.total_cost == pytest.approx(0.3)


def test_dijkstra_unreachable():
    g = comm_graph([("A", "B"), ("C", "D")])
    assert yen_k_shortest(original(g), "A", "D", 1) == []


def test_dijkstra_matches_enumeration_all_policies():
    rng = random.Random(1234)
    for _ in range(50):
        g = random_comm_graph(rng, max_nodes=8)
        view = original(g)
        nodes = view.nodes()
        src, dst = rng.sample(nodes, 2)
        for policy in POLICIES:
            expected = enumerate_simple_paths(view, src, dst, policy)
            got = yen_k_shortest(view, src, dst, 1, policy)
            if not expected:
                assert got == []
                continue
            cost, path = expected[0]
            assert got[0].nodes == list(path)
            assert got[0].total_cost == pytest.approx(cost, abs=1e-9)


def test_max_likelihood_maximizes_path_probability():
    rng = random.Random(99)
    for _ in range(30):
        g = random_comm_graph(rng, max_nodes=8)
        view = original(g)
        nodes = view.nodes()
        src, dst = rng.sample(nodes, 2)
        paths = yen_k_shortest(view, src, dst, 1, WeightPolicy.MAX_LIKELIHOOD)
        all_paths = enumerate_simple_paths(view, src, dst, WeightPolicy.HOP)
        if not all_paths:
            assert paths == []
            continue

        def prob(path):
            total = 1.0
            from conftest import collapse_pairs
            adj = collapse_pairs(view, WeightPolicy.HOP)
            for a, b in zip(path, path[1:]):
                edge = adj[a][b][1]
                total *= edge.risk.p_exploit if edge.risk else 0.0
            return total

        best = max(prob(p) for _, p in all_paths)
        assert prob(tuple(paths[0].nodes)) == pytest.approx(best, rel=1e-9)


# ---------------------------------------------------------------------------
# Yen k-shortest
# ---------------------------------------------------------------------------

def test_yen_diamond_two_paths():
    g = comm_graph([("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")])
    paths = yen_k_shortest(original(g), "A", "D", 20, WeightPolicy.HOP)
    assert len(paths) == 2
    assert all(p.total_cost == 2 for p in paths)
    assert [p.nodes for p in paths] == [["A", "B", "D"], ["A", "C", "D"]]


def test_yen_no_route():
    g = comm_graph([("A", "B"), ("C", "D")])
    assert yen_k_shortest(original(g), "A", "C", 5) == []


def test_yen_rejects_bad_arguments():
    g = comm_graph([("A", "B")])
    with pytest.raises(ValueError):
        yen_k_shortest(original(g), "A", "B", 0)
    with pytest.raises(ValueError):
        yen_k_shortest(original(g), "A", "A", 3)


def test_yen_names_an_id_that_is_not_a_product_of_the_view():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    add_comm(g, "A", "B")
    g.upsert_node(Node("CVE-1", NodeKind.VULNERABILITY))
    g.finalize()
    view = original(g)
    for src, dst, missing in (("A", "Z", "Z"), ("Z", "A", "Z"), ("A", "CVE-1", "CVE-1"),
                              ("CVE-1", "B", "CVE-1")):
        with pytest.raises(UnknownNode, match=repr(missing)):
            yen_k_shortest(view, src, dst, 2, WeightPolicy.HOP)


def test_yen_matches_enumeration_exactly():
    rng = random.Random(777)
    for _ in range(60):
        g = random_comm_graph(rng, max_nodes=8)
        view = original(g)
        src, dst = rng.sample(view.nodes(), 2)
        for policy in POLICIES:
            expected = enumerate_simple_paths(view, src, dst, policy)[:20]
            got = yen_k_shortest(view, src, dst, 20, policy)
            assert [(cost, tuple(p)) for cost, p in expected] == \
                [(p.total_cost, tuple(p.nodes)) for p in got]


# Weights from small sets that hold 0, so that routes tie in real arithmetic
# while their float sums, added in another order, may differ by an ulp.
TIED_RISK_WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.6, 0.7)
TIED_P_EXPLOITS = (1.0, 0.9, 0.8, 0.72, 0.5, 0.25)   # MaxLikelihood costs -log(p)


@st.composite
def tied_graphs(draw):
    """A finalized graph of 4-8 products, each pair linked or not, each link
    with a riskWeight and a pExploit from the tied sets."""
    g = Graph()
    ids = [add_product(g, f"N{i:02d}") for i in range(draw(st.integers(4, 8)))]
    for a, b in combinations(ids, 2):
        if draw(st.booleans()):
            add_comm(g, a, b, risk_weight=draw(st.sampled_from(TIED_RISK_WEIGHTS)),
                     p_exploit=draw(st.sampled_from(TIED_P_EXPLOITS)))
    g.finalize()
    return g


@settings(max_examples=300, deadline=None)
@given(tied_graphs(), st.sampled_from([WeightPolicy.RISK_COST, WeightPolicy.MAX_LIKELIHOOD]),
       st.integers(1, 20), st.data())
def test_yen_equals_enumeration_exactly_on_tied_weights(graph, policy, k, data):
    """Each path costs its left-to-right sum whichever root found it, so
    Yen's list is the enumeration's first k, costs and order alike."""
    view = original(graph)
    src, dst = data.draw(st.lists(st.sampled_from(view.nodes()), min_size=2, max_size=2,
                                  unique=True))
    assert [(p.total_cost, tuple(p.nodes)) for p in yen_k_shortest(view, src, dst, k, policy)] \
        == enumerate_simple_paths(view, src, dst, policy)[:k]


def test_yen_sorted_and_loopless():
    rng = random.Random(31)
    g = random_comm_graph(rng, max_nodes=9, edge_prob=0.6)
    view = original(g)
    src, dst = view.nodes()[0], view.nodes()[-1]
    paths = yen_k_shortest(view, src, dst, 20, WeightPolicy.RISK_COST)
    keys = [(p.total_cost, p.nodes) for p in paths]
    assert keys == sorted(keys)
    for p in paths:
        assert len(set(p.nodes)) == len(p.nodes)


def test_yen_path_probability_matches_product():
    g = comm_graph([("A", "B", 0.1, 0.5), ("B", "C", 0.1, 0.4)])
    paths = yen_k_shortest(original(g), "A", "C", 5, WeightPolicy.HOP)
    assert paths[0].path_probability == pytest.approx(0.2, abs=1e-12)


def hop_search(pg, src, dst, banned_nodes, banned_first):
    """A Hop search as Yen runs it: the target's tree answers, and the level
    search settles what the tree bounds; the bound is never above the hop
    count the level search finds."""
    found = _tree_route(pg, src, dst, banned_nodes, banned_first)
    if type(found) is not int:
        return found
    settled = _level_search(pg, src, dst, banned_nodes, banned_first)
    assert settled is None or found <= settled[0]
    return settled


def spur_arguments(rng, pg, dst):
    """A source other than ``dst``, and banned nodes (neither ``dst`` nor the
    source) and ``banned_first`` as a spur search may see them."""
    n = len(pg.ids)
    src = rng.choice([u for u in range(n) if u != dst])
    others = [u for u in range(n) if u not in (src, dst)]
    banned_nodes = frozenset(rng.sample(others, rng.randint(0, n // 4)))
    banned_first = frozenset(v for v in pg.nbrs[src] if rng.random() < 0.5)
    return src, banned_nodes, banned_first


@settings(max_examples=300, deadline=None)
@given(random_graphs(2, 40), st.integers(0, 2**32 - 1))
def test_bfs_search_equals_heap_search_on_hop_graphs(graph, seed):
    rng = random.Random(seed)
    pg = _path_graph(original(graph), WeightPolicy.HOP)
    assert pg.search is _tree_route
    dst = rng.randrange(len(pg.ids))
    src, banned_nodes, banned_first = spur_arguments(rng, pg, dst)
    expected = _dijkstra_raw(pg, src, dst, banned_nodes, banned_first)
    got = hop_search(pg, src, dst, banned_nodes, banned_first)
    assert got == expected
    assert _level_search(pg, src, dst, banned_nodes, banned_first) == expected
    if got is not None:
        assert type(got[0]) is float


def bfs_levels_oracle(pg, src, dst, banned_nodes=frozenset(), banned_first=frozenset()):
    """The breadth-first spur search before per-target trees, verbatim."""
    if src in banned_nodes or dst in banned_nodes:
        return None
    if src == dst:
        return 0.0, (src,)
    nbrs = pg.nbrs
    first = nbrs[src] - banned_first
    seen = {src, dst, *banned_nodes}
    levels = [{dst}]                # levels[d]: the nodes d hops from dst
    while first.isdisjoint(levels[-1]):
        reached = set().union(*[nbrs[u] for u in levels[-1]]) - seen
        if not reached:
            return None
        seen |= reached
        levels.append(reached)
    path = [src, min(first & levels[-1])]
    for level in reversed(levels[:-1]):
        path.append(min(nbrs[path[-1]] & level))
    return float(len(path) - 1), tuple(path)


def yen_oracle(view, src, dst, k, policy):
    """Yen's loop before deviation-index starts and lazy results, verbatim
    but for its searches (today's Dijkstra, or the BFS oracle above), which
    start at the root's cost, and its results: (nodes, total_cost,
    path_probability) tuples."""
    pg = _path_graph(view, policy)
    if policy is WeightPolicy.HOP:
        def search(pg, src, dst, banned_nodes=frozenset(), banned_first=frozenset(),
                   start=0.0):
            found = bfs_levels_oracle(pg, src, dst, banned_nodes, banned_first)
            return found and (start + found[0], found[1])
    else:
        search = _dijkstra_raw
    cost_of = pg.cost_of
    s, t = pg.rank[src], pg.rank[dst]
    first = search(pg, s, t)
    if first is None:
        return []

    accepted = [first]
    deviation = {first[1]: 0}
    branches = {}
    candidates = []

    while len(accepted) < k:
        prev_nodes = accepted[-1][1]
        prefix = 0.0
        for i in range(len(prev_nodes) - 1):
            root = prev_nodes[:i + 1]
            branches.setdefault(root, set()).add(prev_nodes[i + 1])
            if i >= deviation[prev_nodes]:
                spur_found = search(pg, prev_nodes[i], t, frozenset(root[:-1]), branches[root],
                                    prefix)
                if spur_found is not None:
                    total_cost, spur_nodes = spur_found
                    total_nodes = root[:-1] + spur_nodes
                    if len(set(total_nodes)) == len(total_nodes) \
                            and total_nodes not in deviation:
                        heapq.heappush(candidates, (total_cost, total_nodes))
                        deviation[total_nodes] = i
            prefix += cost_of[(prev_nodes[i], prev_nodes[i + 1])]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    results = []
    for cost, path in accepted:
        edges = [pg.edge_for[a, b] for a, b in zip(path, path[1:])]
        results.append(([pg.ids[i] for i in path], cost, p_exploit_product(edges)))
    results.sort(key=lambda r: (r[1], r[0]))
    return results


@settings(max_examples=300, deadline=None)
@given(random_graphs(2, 40), st.integers(0, 2**32 - 1))
def test_bfs_search_equals_the_level_search_with_trees_reused(graph, seed):
    rng = random.Random(seed)
    pg = _path_graph(original(graph), WeightPolicy.HOP)
    n = len(pg.ids)
    targets = rng.sample(range(n), min(n, 3))
    for _ in range(12):
        dst = rng.choice(targets)
        src, banned_nodes, banned_first = spur_arguments(rng, pg, dst)
        assert hop_search(pg, src, dst, banned_nodes, banned_first) == \
            bfs_levels_oracle(pg, src, dst, banned_nodes, banned_first)
        # With nothing banned the tree always answers (Yen's first search).
        first = _tree_route(pg, src, dst, frozenset(), frozenset())
        assert type(first) is not int
        assert first == bfs_levels_oracle(pg, src, dst)
    assert set(pg.trees) <= set(targets)


@settings(max_examples=200, deadline=None)
@given(random_graphs(2, 30), st.sampled_from(POLICIES), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_yen_equals_the_loop_before_deviation_starts(graph, policy, k, seed):
    view = original(graph)
    rng = random.Random(seed)
    for _ in range(4):
        src, dst = rng.sample(view.nodes(), 2)
        got = yen_k_shortest(view, src, dst, k, policy)
        assert [(p.nodes, p.total_cost, p.path_probability) for p in got] == \
            yen_oracle(view, src, dst, k, policy)
        assert [p.hop_count for p in got] == [len(p.nodes) - 1 for p in got]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_yen_sees_a_risk_weight_changed_after_a_search(data):
    g = data.draw(random_graphs(2, 12))
    view = original(g)
    src, dst = data.draw(st.lists(st.sampled_from(view.nodes()), min_size=2,
                                  max_size=2, unique=True))
    before = yen_k_shortest(view, src, dst, 5, WeightPolicy.RISK_COST)
    assume(before)
    first = before[0].nodes
    edge = next(e for e in view.edges if {e.src, e.dst} == set(first[:2]))
    weight = data.draw(st.sampled_from([0.0, 0.05, 2.0, 10.0]))
    with pytest.raises(FrozenInstanceError):
        edge.risk.risk_weight = weight
    fresh = g.project_view(Configuration.ORIGINAL)
    assert yen_k_shortest(view, src, dst, 5, WeightPolicy.RISK_COST) == before == \
        yen_k_shortest(fresh, src, dst, 5, WeightPolicy.RISK_COST)


def test_path_graph_built_once_per_view_and_policy():
    g = comm_graph([("A", "B", 0.1), ("B", "C", 0.2), ("A", "C", 0.5)])
    view = original(g)
    hop, risk = _path_graph(view, WeightPolicy.HOP), _path_graph(view, WeightPolicy.RISK_COST)
    assert hop is not risk
    assert _path_graph(view, WeightPolicy.HOP) is hop
    assert _path_graph(view, WeightPolicy.RISK_COST) is risk
    assert _path_graph(original(g), WeightPolicy.HOP) is not hop
    hop_costs, risk_costs = dict(hop.cost_of), dict(risk.cost_of)
    with pytest.raises(FrozenInstanceError):
        view.edges[0].risk.risk_weight = 0.4
    assert _path_graph(view, WeightPolicy.RISK_COST) is risk
    assert _path_graph(view, WeightPolicy.HOP) is hop
    assert (hop.cost_of, risk.cost_of) == (hop_costs, risk_costs)


def test_view_attributes_cannot_be_rebound():
    g = comm_graph([("A", "B", 0.1), ("B", "C", 0.2), ("A", "C", 0.5)])
    view = original(g)
    before = yen_k_shortest(view, "A", "C", 3, WeightPolicy.HOP)
    assert [p.nodes for p in before] == [["A", "C"], ["A", "B", "C"]]
    for name, value in (("edges", view.edges[:1]), ("config", Configuration.ENRICHED),
                        ("graph", Graph())):
        with pytest.raises(FrozenInstanceError):
            setattr(view, name, value)
    assert yen_k_shortest(view, "A", "C", 3, WeightPolicy.HOP) == before == \
        yen_k_shortest(original(g), "A", "C", 3, WeightPolicy.HOP)


def test_threads_sharing_a_view_find_the_single_thread_paths():
    g = random_comm_graph(random.Random(99), max_nodes=12, edge_prob=0.5)
    ids = original(g).nodes()
    queries = [(policy, a, b) for policy in POLICIES for a in ids for b in ids if a != b]
    expected = [yen_k_shortest(original(g), a, b, 5, policy) for policy, a, b in queries]
    shared = original(g)
    results = []

    def work():
        results.append([yen_k_shortest(shared, a, b, 5, policy) for policy, a, b in queries])

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------

def test_pagerank_symmetric_pair():
    g = comm_graph([("A", "B")])
    scores = pagerank(original(g))
    assert scores["A"] == pytest.approx(scores["B"], abs=1e-9)
    assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_star_center_dominates():
    g = comm_graph([("HUB", leaf) for leaf in ("L1", "L2", "L3", "L4")])
    scores = pagerank(original(g))
    oracle = pagerank_oracle(original(g))
    assert scores["HUB"] > max(scores[l] for l in ("L1", "L2", "L3", "L4"))
    for node, value in scores.items():
        assert value == pytest.approx(oracle[node], abs=1e-6)


def test_pagerank_oracle_agreement_random():
    rng = random.Random(2024)
    for _ in range(15):
        g = random_comm_graph(rng, max_nodes=10)
        view = original(g)
        scores = pagerank(view)
        oracle = pagerank_oracle(view)
        for node in view.nodes():
            assert scores[node] == pytest.approx(oracle[node], abs=1e-6)


def test_pagerank_disconnected_components():
    g = comm_graph([("A", "B"), ("C", "D"), ("C", "E")])
    view = original(g)
    scores = pagerank(view)
    oracle = pagerank_oracle(view)
    for node in view.nodes():
        assert scores[node] == pytest.approx(oracle[node], abs=1e-6)


def test_pagerank_empty_graph():
    g = Graph()
    g.finalize()
    with pytest.raises(EmptyGraph):
        pagerank(g.project_view(Configuration.ORIGINAL))


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------

def test_betweenness_path_graph():
    g = comm_graph([("A", "B"), ("B", "C")])
    scores = betweenness(original(g))
    assert scores["B"] == pytest.approx(1.0)
    assert scores["A"] == 0.0
    assert scores["C"] == 0.0


def test_betweenness_complete_graph_zero():
    nodes = ["A", "B", "C", "D"]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    g = comm_graph(edges)
    assert all(v == 0.0 for v in betweenness(original(g)).values())


def random_enriched_view(rng: random.Random, max_nodes: int = 8):
    """Enriched view of random observed and inferred links; a pair may
    carry both, each with its own riskWeight."""
    ids = [f"N{i:02d}" for i in range(rng.randint(2, max_nodes))]
    g = Graph()
    for node_id in ids:
        add_product(g, node_id)
    for a, b in combinations(ids, 2):
        for kind in (EdgeKind.COMMUNICATES_WITH, EdgeKind.HAS_POSSIBLE_COMMUNICATION):
            if rng.random() < 0.35:
                src, dst = (a, b) if rng.random() < 0.5 else (b, a)
                add_comm(g, src, dst, risk_weight=rng.uniform(0.01, 0.9), kind=kind)
    g.finalize()
    return g.project_view(Configuration.ENRICHED)


def test_betweenness_oracle_agreement_random():
    rng = random.Random(555)
    views = [original(random_comm_graph(rng, max_nodes=8)) for _ in range(12)]
    views += [random_enriched_view(rng) for _ in range(12)]
    parallel = [pair for view in views
                for pair, n in Counter(frozenset((e.src, e.dst)) for e in view.edges).items()
                if n > 1]
    assert len(parallel) >= 5
    for view in views:
        scores = betweenness(view)
        oracle = betweenness_oracle(view)
        for node in view.nodes():
            assert scores[node] == pytest.approx(oracle[node], abs=1e-9), node


def brandes_with_predecessor_lists(view) -> dict[str, float]:
    """Hop betweenness as it was computed with a predecessor list per node
    and a queue: the reference order of every ``delta`` term."""
    pg = _path_graph(view, WeightPolicy.HOP)
    nodes, adj = pg.ids, pg.adj
    n = len(nodes)
    score = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        dist = [math.inf] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s] = 1.0
        dist[s] = 0.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v, _ in adj[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        for u in reversed(order):
            for p in preds[u]:
                delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
            if u != s:
                score[u] += delta[u]
    return {u: score[i] / 2.0 for i, u in enumerate(nodes)}


@settings(max_examples=300, deadline=None)
@given(random_graphs(2, 40, inferred=True), st.sampled_from(
    [Configuration.ORIGINAL, Configuration.ENRICHED]))
def test_betweenness_bit_identical_to_predecessor_lists(graph, config):
    # A last-ulp difference can change a digit of centrality.csv, so the
    # scores must be equal, not close.
    view = graph.project_view(config)
    assert betweenness(view) == brandes_with_predecessor_lists(view)


@st.composite
def kernel_inputs(draw):
    """The centrality kernels' inputs, the sorted neighbour lists and
    :func:`_links`, of one to three random views side by side (a view of
    one component or several), each followed by up to two isolated
    products; Enriched views can hold a pair twice."""
    nbrs: list[list[int]] = []
    links: list[list[tuple[int, int]]] = []
    for _ in range(draw(st.integers(1, 3))):
        view = draw(random_graphs(1, 40, inferred=True)).project_view(
            draw(st.sampled_from([Configuration.ORIGINAL, Configuration.ENRICHED])))
        offset = len(nbrs)
        nbrs += [[offset + j for j in sorted(pairs)] for pairs in view.adjacency]
        links += [[(offset + j, w) for j, w in row] for row in _links(view)]
        isolated = draw(st.integers(0, 2))
        nbrs += [[] for _ in range(isolated)]
        links += [[] for _ in range(isolated)]
    return nbrs, links


def float_hexes(scores: list[float]) -> list[str]:
    return [score.hex() for score in scores]


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.sampled_from([1, 2, 5, _SOURCES_PER_PASS - 1, _SOURCES_PER_PASS]))
def test_array_centralities_equal_the_loops_bit_for_bit(inputs, sources_per_pass):
    # Batches of a few sources, of one less than the default width and of
    # it, over views of up to 126 products: a partial last batch, sources
    # without neighbours and components the search never leaves.
    nbrs, links = inputs
    assert float_hexes(_betweenness_arrays(nbrs, sources_per_pass)) \
        == float_hexes(_betweenness_loops(nbrs))
    assert float_hexes(_betweenness_arrays(nbrs)) == float_hexes(_betweenness_loops(nbrs))
    assert float_hexes(_pagerank_arrays(links)) == float_hexes(_pagerank_loops(links))


def test_views_of_array_products_or_more_run_the_arrays():
    view = original(random_comm_graph(random.Random(7), max_nodes=8))
    products = len(view.nodes())
    results, calls = [], []
    for threshold in (products + 1, products):
        kernels = {name: mock.Mock(wraps=getattr(analytics, name))
                   for name in ("_betweenness_arrays", "_pagerank_arrays")}
        with mock.patch.object(analytics, "ARRAY_PRODUCTS", threshold), \
                mock.patch.multiple(analytics, **kernels):
            results.append((betweenness(view), pagerank(view)))
        calls.append([kernel.call_count for kernel in kernels.values()])
    assert results[0] == results[1]
    assert calls == [[0, 0], [1, 1]]


# ---------------------------------------------------------------------------
# Louvain
# ---------------------------------------------------------------------------

def test_louvain_two_triangles():
    g = comm_graph([("A", "B"), ("B", "C"), ("A", "C"),
                    ("X", "Y"), ("Y", "Z"), ("X", "Z")])
    report = louvain(original(g), seed=3)
    assert len(report.communities) == 2
    assert sorted(c.size for c in report.communities) == [3, 3]
    members = {frozenset(c.members) for c in report.communities}
    assert members == {frozenset("ABC"), frozenset("XYZ")}


def test_louvain_single_node():
    g = Graph()
    add_product(g, "ONLY")
    g.finalize()
    report = louvain(g.project_view(Configuration.ORIGINAL))
    assert len(report.communities) == 1
    assert report.modularity == 0.0


def singleton_modularity(view) -> float:
    degree: dict[str, float] = {}
    for e in view.edges:
        degree[e.src] = degree.get(e.src, 0.0) + 1.0
        degree[e.dst] = degree.get(e.dst, 0.0) + 1.0
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    return -sum((d / two_m) ** 2 for d in degree.values())


def test_louvain_partition_and_monotone_trace():
    rng = random.Random(8)
    for seed in range(6):
        g = random_comm_graph(rng, max_nodes=12, edge_prob=0.3)
        view = original(g)
        report = louvain(view, seed=seed)
        members = [m for c in report.communities for m in c.members]
        assert sorted(members) == sorted(view.nodes())
        assert sum(c.size for c in report.communities) == len(view.nodes())
        trace = report.modularity_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        # at least as good as leaving every node alone
        assert report.modularity >= singleton_modularity(view) - 1e-9


def test_louvain_deterministic_under_seed():
    rng = random.Random(10)
    g = random_comm_graph(rng, max_nodes=12, edge_prob=0.35)
    view = original(g)
    a = louvain(view, seed=5)
    b = louvain(view, seed=5)
    assert [c.members for c in a.communities] == [c.members for c in b.communities]


def test_louvain_edgeless_graph():
    g = Graph()
    for node_id in "ABC":
        add_product(g, node_id)
    g.finalize()
    report = louvain(original(g), seed=0)
    assert report.modularity == 0.0
    assert sorted(m for c in report.communities for m in c.members) == ["A", "B", "C"]


def test_louvain_cascade_flag():
    g = Graph()
    add_product(g, "D1", zone="DMZ")
    add_product(g, "O1", zone="OT")
    add_product(g, "O2", zone="OT")
    add_comm(g, "D1", "O1", p_exploit=0.9, risk_weight=0.5)
    add_comm(g, "O1", "O2", p_exploit=0.9, risk_weight=0.5)
    add_comm(g, "D1", "O2", p_exploit=0.9, risk_weight=0.5)
    g.finalize()
    report = louvain(g.project_view(Configuration.ORIGINAL))
    assert any(c.cascade for c in report.communities)

    g2 = Graph()
    add_product(g2, "O1", zone="OT")
    add_product(g2, "O2", zone="OT")
    add_comm(g2, "O1", "O2", p_exploit=0.9, risk_weight=0.5)
    g2.finalize()
    report2 = louvain(g2.project_view(Configuration.ORIGINAL))
    assert not any(c.cascade for c in report2.communities)


# ---------------------------------------------------------------------------
# Ranking reports
# ---------------------------------------------------------------------------

def test_rank_interproduct_sorting_and_top_n():
    g = comm_graph([("A", "B", 0.9), ("B", "C", 0.5), ("C", "D", 0.1)])
    rows = rank_interproduct_risk(original(g), 2)
    assert [r["risk"] for r in rows] == [0.9, 0.5]
    all_rows = rank_interproduct_risk(original(g), 10)
    assert len(all_rows) == 3
    assert list(all_rows[0].keys()) == ["source", "target", "risk",
                                        "exploitProb", "attackCost"]


def test_rank_interproduct_tie_breaking():
    g = Graph()
    for n in "ABCD":
        add_product(g, n)
    add_comm(g, "B", "C", risk_weight=0.5, attack_cost=0.2)
    add_comm(g, "A", "D", risk_weight=0.5, attack_cost=0.9)
    add_comm(g, "A", "B", risk_weight=0.5, attack_cost=0.2)
    g.finalize()
    rows = rank_interproduct_risk(original(g), 10)
    assert [(r["source"], r["target"]) for r in rows] == \
        [("A", "D"), ("A", "B"), ("B", "C")]


def test_residual_risk_arithmetic():
    g = Graph()
    for n in ("SRC1", "SRC2", "TGT"):
        add_product(g, n)
    add_comm(g, "SRC1", "TGT", risk_weight=4.0 / 10)  # raw contributions
    add_comm(g, "SRC2", "TGT", risk_weight=6.0 / 10)
    add_comm(g, "SRC1", "TGT", risk_weight=1.2,
             kind=EdgeKind.HAS_POSSIBLE_COMMUNICATION)
    add_comm(g, "SRC1", "TGT", risk_weight=0.5,
             kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    add_comm(g, "SRC2", "TGT", risk_weight=0.04,
             kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    g.finalize()
    views = {c: g.project_view(c) for c in Configuration}
    rows = residual_risk_report(views)
    tgt = next(r for r in rows if r["product"] == "TGT")
    assert tgt["raw"] == pytest.approx(1.0)
    assert tgt["enriched"] == pytest.approx(2.2)
    assert tgt["after"] == pytest.approx(0.5)   # 0.04 mirror pruned
    assert tgt["delta"] == pytest.approx(-0.5)
    assert tgt["reductionPct"] == 50
    assert list(tgt.keys()) == ["product", "zone", "raw", "enriched", "after",
                                "delta", "reductionPct"]


def test_residual_risk_zero_exposure_row():
    g = Graph()
    add_product(g, "LONER")
    g.finalize()
    views = {c: g.project_view(c) for c in Configuration}
    row = residual_risk_report(views)[0]
    assert (row["raw"], row["enriched"], row["after"], row["delta"]) == (0, 0, 0, 0)
    assert row["reductionPct"] == 100


def test_reports_pure():
    g = comm_graph([("A", "B", 0.4), ("B", "C", 0.2)])
    view = original(g)
    assert rank_interproduct_risk(view, 5) == rank_interproduct_risk(view, 5)
    views = {c: g.project_view(c) for c in Configuration}
    assert residual_risk_report(views) == residual_risk_report(views)


# ---------------------------------------------------------------------------
# Exact oracles: the per-algorithm adjacencies that the view's one
# adjacency replaced, kept as they were.  A last-ulp difference changes a
# digit of a report, so results must be equal, not close.
# ---------------------------------------------------------------------------

def weight_adjacency_oracle(view) -> dict[str, dict[str, float]]:
    adj: dict[str, dict[str, float]] = {n: {} for n in view.nodes()}
    for e in view.edges:
        adj[e.src][e.dst] = adj[e.src].get(e.dst, 0.0) + 1.0
        adj[e.dst][e.src] = adj[e.dst].get(e.src, 0.0) + 1.0
    return adj


def pagerank_oracle_by_ids(view) -> dict[str, float]:
    nodes = view.nodes()
    adj = weight_adjacency_oracle(view)
    n = len(nodes)
    out_weight = {u: sum(adj[u].values()) for u in nodes}
    rank = {u: 1.0 / n for u in nodes}
    for _ in range(1000):
        dangling = sum(rank[u] for u in nodes if out_weight[u] == 0.0)
        nxt = {}
        for v in nodes:
            incoming = 0.0
            for u, w in adj[v].items():
                if out_weight[u] > 0.0:
                    incoming += rank[u] * w / out_weight[u]
            nxt[v] = (1.0 - 0.85) / n + 0.85 * (incoming + dangling / n)
        delta = sum(abs(nxt[u] - rank[u]) for u in nodes)
        rank = nxt
        if delta < 1e-8:
            break
    return {u: rank[u] for u in nodes}


def modularity_oracle(partition, adj, two_m) -> float:
    if two_m == 0.0:
        return 0.0
    degree = {u: sum(nbrs.values()) for u, nbrs in adj.items()}
    q = 0.0
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if partition[u] == partition[v]:
                q += w - degree[u] * degree[v] / two_m
    return q / two_m


def louvain_oracle(view, seed: int) -> CommunityReport:
    """Louvain on id-keyed dicts with self-loop state per super-node."""
    nodes = view.nodes()
    base_adj = weight_adjacency_oracle(view)
    two_m = sum(sum(nbrs.values()) for nbrs in base_adj.values())
    node_comm = {u: u for u in nodes}
    level_adj = {u: dict(nbrs) for u, nbrs in base_adj.items()}
    self_loops = {u: 0.0 for u in nodes}
    trace: list[float] = []
    rng = random.Random(seed)
    while True:
        members = sorted(level_adj)
        comm = {u: u for u in members}
        degree = {u: sum(level_adj[u].values()) + 2.0 * self_loops[u] for u in members}
        comm_total = dict(degree)
        improved = False
        if two_m > 0.0:
            moving = True
            while moving:
                moving = False
                order = list(members)
                rng.shuffle(order)
                for u in order:
                    current = comm[u]
                    links: dict[str, float] = {}
                    for v, w in level_adj[u].items():
                        if v != u:
                            links[comm[v]] = links.get(comm[v], 0.0) + w
                    comm_total[current] -= degree[u]
                    base_gain = links.get(current, 0.0) - comm_total[current] * degree[u] / two_m
                    best_comm, best_gain = current, base_gain
                    for target in sorted(links):
                        if target == current:
                            continue
                        gain = links[target] - comm_total[target] * degree[u] / two_m
                        if gain > best_gain + 1e-12:
                            best_comm, best_gain = target, gain
                    comm_total[best_comm] += degree[u]
                    if best_comm != current:
                        comm[u] = best_comm
                        moving = True
                        improved = True
        partition = {orig: comm[node_comm[orig]] for orig in nodes}
        comm_index = {c: i for i, c in enumerate(sorted(set(partition.values())))}
        q = modularity_oracle({u: comm_index[partition[u]] for u in nodes}, base_adj, two_m)
        if trace and q <= trace[-1] + 1e-12:
            break
        trace.append(q)
        if not improved:
            break
        node_comm = partition
        groups: dict[str, list[str]] = {}
        for u in members:
            groups.setdefault(comm[u], []).append(u)
        new_adj: dict[str, dict[str, float]] = {c: {} for c in groups}
        new_loops = {c: 0.0 for c in groups}
        for c, group in groups.items():
            for u in group:
                new_loops[c] += self_loops[u]
                for v, w in level_adj[u].items():
                    cv = comm[v]
                    if cv == c:
                        if u < v:
                            new_loops[c] += w
                    else:
                        new_adj[c][cv] = new_adj[c].get(cv, 0.0) + w
        level_adj = new_adj
        self_loops = new_loops
    groups2: dict[str, list[str]] = {}
    for u in nodes:
        groups2.setdefault(node_comm[u], []).append(u)
    zone_of = {u: view.graph.node(u).zone for u in nodes}
    cascade = {c: False for c in groups2}
    for e in view.edges:
        if e.risk is None or e.risk.p_exploit <= 0.5:
            continue
        if zone_of.get(e.src) == zone_of.get(e.dst):
            continue
        if node_comm[e.src] == node_comm[e.dst]:
            cascade[node_comm[e.src]] = True
    ordered = sorted(groups2.items(), key=lambda kv: (-len(kv[1]), min(kv[1])))
    communities = []
    for i, (c, ms) in enumerate(ordered):
        members_sorted = sorted(ms)
        communities.append(Community(
            id=f"C{i}", size=len(ms), members=members_sorted,
            risk=sum(exposure(view, m) for m in members_sorted), cascade=cascade[c]))
    return CommunityReport(communities=communities, modularity=trace[-1],
                           modularity_trace=trace)


def fastrp_oracle(view, dim: int, seed: int) -> np.ndarray:
    """FastRP vectors with the neighbour sets built from ``view.edges``."""
    nodes = view.nodes()
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    s = math.sqrt(dim)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, 0xFA57], dtype=np.uint64)))
    draws = rng.random((n, dim))
    state = np.zeros((n, dim))
    state[draws < 1.0 / (2.0 * s)] = math.sqrt(s)
    state[draws > 1.0 - 1.0 / (2.0 * s)] = -math.sqrt(s)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for e in view.edges:
        i, j = index[e.src], index[e.dst]
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    neighbors = [sorted(nbrs) for nbrs in neighbor_sets]
    weights = (0.0, 1.0, 1.0)
    final = weights[0] * state
    for w in weights[1:]:
        nxt = np.zeros_like(state)
        for i, nbrs in enumerate(neighbors):
            if nbrs:
                nxt[i] = state[nbrs].mean(axis=0)
        state = nxt
        final = final + w * state
    return final


def path_graph_oracle(view, policy):
    """(adj, cost_of, edge_for) by a pass over ``view.edges`` that keeps,
    per pair, the first edge of the least (cost, kind value)."""
    rank = {u: i for i, u in enumerate(view.nodes())}
    best = {}
    for e in view.edges:
        i, j = rank[e.src], rank[e.dst]
        key = (i, j) if i < j else (j, i)
        cand = (policy.edge_cost(e), e.kind.value, e)
        if key not in best or (cand[0], cand[1]) < (best[key][0], best[key][1]):
            best[key] = cand
    adj = [[] for _ in rank]
    edge_for, cost_of = {}, {}
    for (i, j), (cost, _, edge) in best.items():
        adj[i].append((j, cost))
        adj[j].append((i, cost))
        edge_for[(i, j)] = edge_for[(j, i)] = edge
        cost_of[(i, j)] = cost_of[(j, i)] = cost
    for lst in adj:
        lst.sort()
    return adj, cost_of, edge_for


@st.composite
def multigraph_views(draw, max_nodes: int = 16):
    """A view of a random product multigraph: a pair can carry observed,
    inferred and controlled links, each in either orientation; some
    products have no links, and zones, riskWeights (some below the prune
    threshold, many tied) and pExploits vary."""
    n = draw(st.integers(1, max_nodes))
    density = draw(st.sampled_from([0.0, 0.15, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = Graph()
    ids = [f"P{i:02d}" for i in range(n)]
    for node_id in ids:
        add_product(g, node_id, zone=rng.choice(["OT", "DMZ"]))
    linked = [u for u in ids if rng.random() < 0.8]
    kinds = sorted(COMMUNICATION_KINDS, key=lambda k: k.value)
    for a, b in combinations(linked, 2):
        if rng.random() < density:
            for kind in kinds:
                for src, dst in ((a, b), (b, a)):
                    if rng.random() < 0.4:
                        add_comm(g, src, dst, kind=kind,
                                 risk_weight=rng.choice([0.01, 0.1, 0.2, 0.5]),
                                 p_exploit=rng.choice([0.2, 0.6, 0.9]))
    g.finalize()
    return g.project_view(draw(st.sampled_from(list(Configuration))))


ORACLE_VIEWS = st.one_of(
    random_graphs(2, 40, inferred=True).map(lambda g: g.project_view(Configuration.ENRICHED)),
    multigraph_views())


@settings(max_examples=200, deadline=None)
@given(ORACLE_VIEWS, st.integers(0, 2**16))
def test_view_analytics_equal_their_own_adjacency_oracles(view, seed):
    assert pagerank(view) == pagerank_oracle_by_ids(view)
    assert louvain(view, seed) == louvain_oracle(view, seed)
    assert np.array_equal(fastrp_embed(view, dim=16, seed=seed).vectors,
                          fastrp_oracle(view, 16, seed))
    for policy in POLICIES:
        pg = _path_graph(view, policy)
        assert (pg.adj, pg.cost_of, pg.edge_for) == path_graph_oracle(view, policy)
