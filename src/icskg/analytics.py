"""Graph algorithms over configuration views.

All algorithms are read-only, deterministic, and tie-broken lexicographically
by external node id.  Every algorithm reads the view's one adjacency,
``GraphView.adjacency``: for each product position, the active edges it
shares with each neighbour.  Views are multigraphs (a pair can carry both an
observed and an inferred link): path finding collapses parallel edges to the
cheapest one under the active weight policy and betweenness to one hop,
while PageRank and community detection count each parallel edge, weight 1.

A view builds its path graph from that adjacency once per weight policy, on
first use, and keeps it in ``view.path_graphs``; views and their edges are
frozen, so the graph is never rebuilt.  Path searches take banned nodes and
``banned_first``, the steps out of the source a Yen spur search excludes:
the branches that accepted paths already took.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Optional

from icskg.errors import EmptyGraph
from icskg.graph import Configuration, Edge, GraphView
from icskg.risk import exposure, p_exploit_product

_MIN_PROB = 1e-9


class WeightPolicy(Enum):
    HOP = "Hop"                      # unit edge weights
    RISK_COST = "RiskCost"           # riskWeight as traversal cost
    MAX_LIKELIHOOD = "MaxLikelihood"  # -ln(pExploit), maximizes path probability

    __hash__ = object.__hash__  # as graph.NodeKind: identity, not hash(name)

    def edge_cost(self, edge: Edge) -> float:
        if self is WeightPolicy.HOP:
            return 1.0
        rw = edge.risk.risk_weight if edge.risk is not None else 0.0
        if self is WeightPolicy.RISK_COST:
            return rw
        p = edge.risk.p_exploit if edge.risk is not None else 0.0
        return -math.log(max(p, _MIN_PROB))


@dataclass
class PathResult:
    nodes: list[str]
    path_probability: float
    total_cost: float

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1


# ---------------------------------------------------------------------------
# Pair-collapsed adjacency
# ---------------------------------------------------------------------------

class _PathGraph:
    """Integer-indexed undirected adjacency for one (view, policy) pair.

    Nodes are the positions of the view's sorted ids, so integer tuple
    comparisons realize lexicographic id tie-breaking; each pair of
    ``view.adjacency`` collapses to its cheapest edge under the policy (ties
    broken by edge kind value, then by edge order).
    """

    def __init__(self, view: GraphView, policy: WeightPolicy) -> None:
        self.ids = ids = view.nodes()
        self.rank = {u: i for i, u in enumerate(ids)}
        # Unit costs make every route of one length tie, so Hop graphs use
        # the breadth-first search; the others the heap search.
        self.search = _bfs_raw if policy is WeightPolicy.HOP else _dijkstra_raw
        self.adj: list[list[tuple[int, float]]] = []
        self.edge_for: dict[tuple[int, int], Edge] = {}
        self.cost_of: dict[tuple[int, int], float] = {}
        for i, pairs in enumerate(view.adjacency):
            row = []
            for j in sorted(pairs):
                edge = min(pairs[j], key=lambda e: (policy.edge_cost(e), e.kind.value))
                self.edge_for[i, j] = edge
                self.cost_of[i, j] = cost = policy.edge_cost(edge)
                row.append((j, cost))
            self.adj.append(row)
        self.nbrs = [frozenset(pairs) for pairs in view.adjacency]


def _path_graph(view: GraphView, policy: WeightPolicy) -> _PathGraph:
    """The view's path graph for ``policy``, built on first use and kept in
    ``view.path_graphs``; the view is frozen, so the graph is never rebuilt.
    Threads that build the same entry at once build equal graphs, so either
    one may be the one kept.
    """
    pg = view.path_graphs.get(policy)
    if pg is None:
        pg = view.path_graphs[policy] = _PathGraph(view, policy)
    return pg


def _make_result(pg: _PathGraph, path: tuple[int, ...], cost: float) -> PathResult:
    edges = [pg.edge_for[a, b] for a, b in zip(path, path[1:])]
    return PathResult([pg.ids[i] for i in path], p_exploit_product(edges), cost)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------

def _dijkstra_raw(pg: _PathGraph, src: int, dst: int,
                  banned_nodes: frozenset[int] = frozenset(),
                  banned_first: AbstractSet[int] = frozenset(),
                  ) -> Optional[tuple[float, tuple[int, ...]]]:
    """Min-cost path with lexicographic tie-breaking on the node sequence,
    avoiding ``banned_nodes`` and any first step to ``banned_first``.

    The search of RiskCost and MaxLikelihood path graphs (Hop graphs use
    :func:`_bfs_raw`).  Heap keys are (cost, path) tuples over sorted-id
    ranks, so among equal-cost routes the lexicographically smallest settles
    first; with non-negative costs the first pop of ``dst`` is the canonical
    minimum.
    """
    if src in banned_nodes or dst in banned_nodes:
        return None
    adj = pg.adj
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    visited: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return cost, path
        if node in visited:
            continue
        visited.add(node)
        for nbr, w in adj[node]:
            if nbr in visited or nbr in banned_nodes:
                continue
            if node == src and nbr in banned_first:
                continue
            heapq.heappush(heap, (cost + w, path + (nbr,)))
    return None


def _bfs_raw(pg: _PathGraph, src: int, dst: int,
             banned_nodes: frozenset[int] = frozenset(),
             banned_first: AbstractSet[int] = frozenset(),
             ) -> Optional[tuple[float, tuple[int, ...]]]:
    """Unit-cost twin of :func:`_dijkstra_raw`: same arguments, same result.

    A breadth-first search from ``dst``, one level of nodes at a time,
    avoids the banned nodes and ``src`` until a level holds an allowed first
    step (a neighbour of ``src`` outside ``banned_first``); the walk from
    ``src`` then always takes the lowest-rank allowed step one level closer.
    All shortest routes have the same length, so that walk is the
    lexicographic minimum the heap search settles first, and
    ``float(hops)`` equals its sum of unit costs.
    """
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


def yen_k_shortest(view: GraphView, src: str, dst: str, k: int,
                   policy: WeightPolicy = WeightPolicy.RISK_COST
                   ) -> list[PathResult]:
    """Up to k cheapest loopless paths, sorted by (cost, node sequence).

    Returns an empty list when no route exists.  Spur exploration starts at
    each accepted path's deviation index (Lawler's reduction), which keeps
    the candidate set complete while skipping already-covered prefixes.
    ``branches`` maps each root prefix of an accepted path to the nodes
    accepted paths take next, which the root's spur search may not step to.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if src == dst:
        raise ValueError("source and target must differ")
    view.graph.node(src)
    view.graph.node(dst)
    pg = _path_graph(view, policy)
    search, cost_of = pg.search, pg.cost_of
    s, t = pg.rank[src], pg.rank[dst]
    first = search(pg, s, t)
    if first is None:
        return []

    accepted: list[tuple[float, tuple[int, ...]]] = [first]
    deviation: dict[tuple[int, ...], int] = {first[1]: 0}
    branches: dict[tuple[int, ...], set[int]] = {}
    candidates: list[tuple[float, tuple[int, ...]]] = []

    while len(accepted) < k:
        prev_nodes = accepted[-1][1]
        prefix = 0.0
        for i in range(len(prev_nodes) - 1):
            root = prev_nodes[:i + 1]
            branches.setdefault(root, set()).add(prev_nodes[i + 1])
            if i >= deviation[prev_nodes]:
                spur_found = search(pg, prev_nodes[i], t, frozenset(root[:-1]), branches[root])
                if spur_found is not None:
                    spur_cost, spur_nodes = spur_found
                    total_nodes = root[:-1] + spur_nodes
                    if len(set(total_nodes)) == len(total_nodes) \
                            and total_nodes not in deviation:
                        heapq.heappush(candidates, (prefix + spur_cost, total_nodes))
                        deviation[total_nodes] = i
            prefix += cost_of[(prev_nodes[i], prev_nodes[i + 1])]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    results = [_make_result(pg, nodes, cost) for cost, nodes in accepted]
    results.sort(key=lambda r: (r.total_cost, r.nodes))
    return results


# ---------------------------------------------------------------------------
# Centralities
# ---------------------------------------------------------------------------

_DAMPING = 0.85
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 1000


def pagerank(view: GraphView) -> dict[str, float]:
    """Power iteration with uniform teleportation over all view nodes:
    damping 0.85, until the L1 change falls below 1e-8 or after 1000
    iterations.  A node passes its rank to its neighbours in proportion to
    the edges it shares with each, parallel edges counted.

    Nodes with no links contribute their rank mass uniformly, the standard
    dangling-node treatment; scores sum to 1.
    """
    nodes = view.nodes()
    if not nodes:
        raise EmptyGraph("pagerank requires a non-empty view")
    # Neighbours in order of first appearance in view.edges: the order of
    # each node's float sum.
    links = [[(j, len(edges)) for j, edges in pairs.items()] for pairs in view.adjacency]
    n = len(nodes)
    out_weight = [sum(w for _, w in row) for row in links]
    rank = [1.0 / n] * n
    for _ in range(_MAX_ITERATIONS):
        dangling = sum(r for r, w in zip(rank, out_weight) if w == 0)
        nxt = []
        for row in links:
            incoming = 0.0
            for j, w in row:
                incoming += rank[j] * w / out_weight[j]
            nxt.append((1.0 - _DAMPING) / n + _DAMPING * (incoming + dangling / n))
        delta = sum(abs(a - b) for a, b in zip(nxt, rank))
        rank = nxt
        if delta < _TOLERANCE:
            break
    return dict(zip(nodes, rank))


def betweenness(view: GraphView) -> dict[str, float]:
    """Exact betweenness over hop counts by Brandes' accumulation (unnormalized
    pair counts, each unordered pair counted once): one breadth-first search
    per source over the view's adjacency, where parallel edges are one hop.
    A node's predecessors are its neighbours one hop closer to the source."""
    nodes, nbrs = view.nodes(), [sorted(pairs) for pairs in view.adjacency]
    if not nodes:
        raise EmptyGraph("betweenness requires a non-empty view")
    n = len(nodes)
    score = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s], dist[s] = 1.0, 0
        order = [s]
        for u in order:             # the loop reaches what it appends
            d, su = dist[u] + 1, sigma[u]
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = d
                    order.append(v)
                if dist[v] == d:
                    sigma[v] += su
        delta = [0.0] * n
        for u in reversed(order):
            d, su, c = dist[u] - 1, sigma[u], 1.0 + delta[u]
            for p in nbrs[u]:
                if dist[p] == d:
                    delta[p] += sigma[p] / su * c
            if u != s:
                score[u] += delta[u]
    return {u: score[i] / 2.0 for i, u in enumerate(nodes)}


# ---------------------------------------------------------------------------
# Louvain community detection
# ---------------------------------------------------------------------------

@dataclass
class Community:
    id: str
    size: int
    members: list[str]
    risk: float
    cascade: bool


@dataclass
class CommunityReport:
    communities: list[Community]
    modularity: float
    modularity_trace: list[float]


def _modularity(partition: dict[int, int], adjacency: list[dict[int, list[Edge]]],
                degree: list[int], two_m: int) -> float:
    """Modularity of ``partition`` (each node's community) over the view's
    adjacency, each edge weight 1, summed in adjacency order."""
    if two_m == 0:
        return 0.0
    q = 0.0
    for u, pairs in enumerate(adjacency):
        for v, edges in pairs.items():
            if partition[u] == partition[v]:
                q += len(edges) - degree[u] * degree[v] / two_m
    return q / two_m


def louvain(view: GraphView, seed: int = 0) -> CommunityReport:
    """Greedy modularity maximization over the view's products, each edge
    adding weight 1 to its pair; deterministic under a fixed seed.

    The per-pass modularity trace is monotone non-decreasing.  A community
    is cascade-flagged when it contains an active edge with pExploit > 0.5
    whose endpoints sit in different zones.
    """
    nodes = view.nodes()
    if not nodes:
        raise EmptyGraph("louvain requires a non-empty view")
    adjacency = view.adjacency
    node_degree = [sum(map(len, pairs.values())) for pairs in adjacency]
    two_m = sum(node_degree)

    # The current aggregation level: each super-node's original members and
    # its links to the other super-nodes, labelled by a member's position.
    # Weights and degrees are edge counts, so every sum of them is exact.
    contents = {u: [u] for u in range(len(nodes))}
    level_adj = {u: {v: len(edges) for v, edges in pairs.items()}
                 for u, pairs in enumerate(adjacency)}
    trace: list[float] = []
    rng = random.Random(seed)

    while True:
        members = sorted(level_adj)
        comm = {u: u for u in members}
        # A super-node's degree is the sum of its members' degrees (Blondel
        # et al. 2008): its links out plus twice the edges inside it.
        degree = {u: sum(node_degree[i] for i in contents[u]) for u in members}
        comm_total = dict(degree)
        improved = False
        if two_m > 0:
            moving = True
            while moving:
                moving = False
                order = list(members)
                rng.shuffle(order)
                for u in order:
                    current = comm[u]
                    links: dict[int, int] = {}
                    for v, w in level_adj[u].items():
                        links[comm[v]] = links.get(comm[v], 0) + w
                    comm_total[current] -= degree[u]
                    base_gain = links.get(current, 0) - comm_total[current] * degree[u] / two_m
                    # Only strictly improving moves are taken, so modularity
                    # rises monotonically; ties go to the smallest community id.
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
        partition = {i: comm[u] for u in members for i in contents[u]}
        q = _modularity(partition, adjacency, node_degree, two_m)
        if trace and q <= trace[-1] + 1e-12:
            # The pass brought no real gain; keep the previous partition.
            break
        trace.append(q)
        if not improved:
            break
        # Aggregate communities into super-nodes for the next pass.
        next_contents: dict[int, list[int]] = {}
        next_adj: dict[int, dict[int, int]] = {}
        for u in members:
            c = comm[u]
            next_contents.setdefault(c, []).extend(contents[u])
            row = next_adj.setdefault(c, {})
            for v, w in level_adj[u].items():
                if comm[v] != c:
                    row[comm[v]] = row.get(comm[v], 0) + w
        contents, level_adj = next_contents, next_adj

    node = view.graph.node
    communities = []
    for k, group in enumerate(sorted(contents.values(), key=lambda g: (-len(g), min(g)))):
        group.sort()
        inside = set(group)
        cascade = any(
            e.risk is not None and e.risk.p_exploit > 0.5
            and node(e.src).zone != node(e.dst).zone
            for u in group for v, edges in adjacency[u].items() if v in inside
            for e in edges)
        members_sorted = [nodes[i] for i in group]
        communities.append(Community(
            id=f"C{k}", size=len(group), members=members_sorted,
            risk=sum(exposure(view, m) for m in members_sorted), cascade=cascade))
    return CommunityReport(communities=communities, modularity=trace[-1],
                           modularity_trace=trace)


# ---------------------------------------------------------------------------
# Ranking reports
# ---------------------------------------------------------------------------

def rank_interproduct_risk(view: GraphView, top_n: int) -> list[dict]:
    """Top communication links by riskWeight (ties: attackCost desc, then
    lexicographic source/target)."""
    rows = []
    for e in view.edges:
        if e.risk is None:
            continue
        rows.append({
            "source": e.src,
            "target": e.dst,
            "risk": e.risk.risk_weight,
            "exploitProb": e.risk.p_exploit,
            "attackCost": e.risk.attack_cost,
        })
    rows.sort(key=lambda r: (-r["risk"], -r["attackCost"], r["source"], r["target"]))
    return rows[:top_n]


def residual_risk_report(views: dict[Configuration, GraphView]) -> list[dict]:
    """Per-product exposure across the three configurations.

    delta = after - raw; reductionPct = round(100 * after / raw), with
    zero raw exposure reported as 100.  Rows are sorted by raw exposure
    descending, then by product id.
    """
    original = views[Configuration.ORIGINAL]
    enriched = views[Configuration.ENRICHED]
    controlled = views[Configuration.CONTROLLED]
    rows = []
    for product in original.nodes():
        raw = exposure(original, product)
        enr = exposure(enriched, product)
        after = exposure(controlled, product)
        reduction = round(100.0 * after / raw) if raw > 0.0 else 100
        rows.append({
            "product": product,
            "zone": original.graph.node(product).zone or "",
            "raw": raw,
            "enriched": enr,
            "after": after,
            "delta": after - raw,
            "reductionPct": int(reduction),
        })
    rows.sort(key=lambda r: (-r["raw"], r["product"]))
    return rows
