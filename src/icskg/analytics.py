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
frozen, so the graph is never rebuilt.  Each path graph has one search,
``_PathGraph.search``, which takes banned nodes and ``banned_first``, the
steps out of the source a Yen spur search excludes: the branches that
accepted paths already took.  RiskCost and MaxLikelihood graphs run the heap
search.  A Hop graph keeps, per target, the breadth-first tree of the whole
graph toward it: a search whose closest allowed step has a tree route clear
of the banned nodes takes that route, one whose allowed steps cannot reach
the target finds none, and any other returns a lower bound on its hop
count.  Yen puts such a search off until that bound is the cheapest
candidate left, and then the level search settles it.
"""

from __future__ import annotations

import heapq
from array import array
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Optional, Union

from icskg.errors import EmptyGraph, UnknownNode
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
        # Unit costs make every route of one length tie, so Hop graphs answer
        # from the target's tree, or with a lower bound; the others run the
        # heap search.
        self.search = _tree_route if policy is WeightPolicy.HOP else _dijkstra_raw
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
        # Hop graphs: per target, the tree _target_tree builds on first use.
        self.trees: dict[int, tuple[array, array, dict[int, list[int]]]] = {}


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


class PathResult:
    """One path :func:`yen_k_shortest` found: its product ids, the product
    of pExploit along it (``risk.p_exploit_product``) and its cost under the
    search's policy.

    ``nodes`` and ``path_probability`` are computed from the path graph's
    rank tuple on each read, and ``hop_count`` reads the tuple itself.
    Results compare and print by (nodes, path_probability, total_cost).
    """

    __slots__ = ("total_cost", "_pg", "_path")

    def __init__(self, pg: _PathGraph, path: tuple[int, ...], total_cost: float) -> None:
        self.total_cost = total_cost
        self._pg, self._path = pg, path

    @property
    def nodes(self) -> list[str]:
        ids = self._pg.ids
        return [ids[i] for i in self._path]

    @property
    def path_probability(self) -> float:
        path, edge_for = self._path, self._pg.edge_for
        return p_exploit_product(edge_for[a, b] for a, b in zip(path, path[1:]))

    @property
    def hop_count(self) -> int:
        return len(self._path) - 1

    def _fields(self) -> tuple[list[str], float, float]:
        return self.nodes, self.path_probability, self.total_cost

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathResult):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        nodes, probability, cost = self._fields()
        return f"PathResult(nodes={nodes!r}, path_probability={probability!r}, total_cost={cost!r})"


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------

def _dijkstra_raw(pg: _PathGraph, src: int, dst: int,
                  banned_nodes: AbstractSet[int] = frozenset(),
                  banned_first: AbstractSet[int] = frozenset(),
                  ) -> Optional[tuple[float, tuple[int, ...]]]:
    """Min-cost path with lexicographic tie-breaking on the node sequence,
    for ``src`` and ``dst`` not banned, avoiding ``banned_nodes`` and any
    first step to ``banned_first``.

    The search of RiskCost and MaxLikelihood path graphs (Hop graphs use
    :func:`_tree_route`).  Heap keys are (cost, path) tuples over sorted-id
    ranks, so among equal-cost routes the lexicographically smallest settles
    first; with non-negative costs the first pop of ``dst`` is the canonical
    minimum.
    """
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


def _target_tree(pg: _PathGraph, dst: int
                 ) -> tuple[array, array, dict[int, list[int]]]:
    """The breadth-first tree of the whole path graph toward ``dst``, built
    on first use and kept in ``pg.trees``; threads that build it at once
    build equal trees.

    Returns two int arrays and a dict: ``dist`` (each node's hop distance
    to ``dst``, -1 where it cannot reach it), ``toward`` (each node's
    lowest-rank neighbour one hop closer: levels are expanded in rank order,
    so the first to reach a node is that neighbour) and ``steps``, filled by
    :func:`_tree_route` as it asks: a node's neighbours in (distance, rank)
    order.
    """
    tree = pg.trees.get(dst)
    if tree is None:
        nbrs = pg.nbrs
        dist, toward = array("i", [-1]) * len(nbrs), array("i", [-1]) * len(nbrs)
        dist[dst] = 0
        level, d = [dst], 0
        while level:
            d += 1
            reached = []
            for u in sorted(level):
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v], toward[v] = d, u
                        reached.append(v)
            level = reached
        tree = pg.trees[dst] = (dist, toward, {})
    return tree


def _tree_route(pg: _PathGraph, src: int, dst: int, banned_nodes: AbstractSet[int],
                banned_first: AbstractSet[int]
                ) -> Union[None, int, tuple[float, tuple[int, ...]]]:
    """The search of Hop path graphs, answered from the target's tree
    (:func:`_target_tree`) for ``src != dst``, neither banned: the route
    :func:`_dijkstra_raw` would find, None when there is none, or, when the
    tree cannot tell, the fewest hops a route can take (an int) for
    :func:`_level_search` to settle.

    Take the allowed first step ``a`` (a neighbour of ``src`` neither banned
    nor in ``banned_first``) with the least (distance, rank).  If no allowed
    step reaches ``dst`` in the whole graph, none reaches it once nodes are
    banned: there is no route.  If ``a``'s tree route (each node's
    lowest-rank neighbour one hop closer) avoids the banned nodes and
    ``src``, it is the answer.  Banning only lengthens routes, so every
    allowed step ``b`` is still at least ``dist[b] >= dist[a]`` hops away,
    and ``a``, at exactly ``dist[a]``, is the closest; an equally close
    ``b`` has ``dist[b] == dist[a]`` and so a higher rank.  Each node on the
    tree route is at its unbanned distance, so the lowest-rank neighbour one
    hop closer among all is also the lowest among those left.  Otherwise
    every route takes at least ``dist[a] + 1`` hops.

    With nothing banned the tree always answers: ``a`` is then the closest
    neighbour of ``src``, and each step of its tree route is one hop closer
    to ``dst``, so no node on it is ``src`` (farther than ``a``) or banned.
    """
    dist, toward, steps = pg.trees.get(dst) or _target_tree(pg, dst)
    if dist[src] < 0:               # nor can any neighbour of src
        return None
    ordered = steps.get(src)
    if ordered is None:
        ordered = steps[src] = sorted(sorted(pg.nbrs[src]), key=dist.__getitem__)
    for step in ordered:
        if step not in banned_first and step not in banned_nodes:
            break
    else:
        return None
    path = [src, step]
    while step != dst:
        step = toward[step]
        if step in banned_nodes or step == src:
            return dist[path[1]] + 1
        path.append(step)
    return float(len(path) - 1), tuple(path)


def _level_search(pg: _PathGraph, src: int, dst: int, banned_nodes: AbstractSet[int],
                  banned_first: AbstractSet[int]
                  ) -> Optional[tuple[float, tuple[int, ...]]]:
    """:func:`_tree_route`'s search without the tree, for ``src != dst``,
    neither banned; it always settles.

    A breadth-first search from ``dst``, one level of nodes at a time,
    avoids the banned nodes and ``src`` until a level holds an allowed first
    step (a neighbour of ``src`` outside ``banned_first``); the walk from
    ``src`` then always takes the lowest-rank allowed step one level closer.
    All shortest routes have the same length, so that walk is the
    lexicographic minimum the heap search settles first, and
    ``float(hops)`` equals its sum of unit costs.
    """
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

    Returns an empty list when no route exists.  Each accepted path's spur
    searches start at its deviation index (Lawler's reduction): for every
    earlier root, ``branches`` already holds the path's next node, which
    keeps the candidate set complete while skipping already-covered
    prefixes.  ``branches`` maps each root prefix of an accepted path to the
    nodes accepted paths take next, which the root's spur search may not
    step to.  A spur search bans the root's other nodes and never returns to
    its start, so every candidate is loopless.

    The first search (root ``(src,)``, nothing banned) and every spur
    search are the path graph's one search.  On Hop graphs a spur search the
    target's tree cannot settle (it always settles the first) returns its
    least hop count and is put off: it enters the candidate heap keyed
    (prefix + that count, root), and the level search runs only if that key
    comes up.  The key is below that of any path the search can find (no
    cheaper, and the root is a proper prefix), so the search runs before its
    path could be the cheapest candidate, and before any such path is
    accepted and adds a branch at its root; a search still waiting when the
    k-th path is accepted could not have found one of the k.  Hop costs are
    whole numbers, so a path costs the same from whichever root finds it,
    and paths are accepted in the same order as when every search runs at
    once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if src == dst:
        raise ValueError("source and target must differ")
    pg = _path_graph(view, policy)
    try:
        s, t = pg.rank[src], pg.rank[dst]
    except KeyError as error:
        raise UnknownNode(f"{error.args[0]!r} is not a product of the view") from None
    search, cost_of = pg.search, pg.cost_of

    accepted: list[tuple[float, tuple[int, ...]]] = []
    deviation: dict[tuple[int, ...], int] = {}
    branches: dict[tuple[int, ...], set[int]] = {}
    # Found paths (cost, path) and, on Hop graphs, put-off searches
    # (bound, root, prefix cost).
    candidates: list[tuple] = []

    def add(root: tuple[int, ...],
            found: Union[None, int, tuple[float, tuple[int, ...]]], prefix: float) -> None:
        if type(found) is int:
            heapq.heappush(candidates, (prefix + found, root, prefix))
        elif found is not None:
            path = root[:-1] + found[1]
            if path not in deviation:
                heapq.heappush(candidates, (prefix + found[0], path))
                deviation[path] = len(root) - 1

    add((s,), search(pg, s, t, frozenset(), frozenset()), 0.0)
    while candidates:
        entry = heapq.heappop(candidates)
        if len(entry) > 2:
            _, root, prefix = entry
            add(root, _level_search(pg, root[-1], t, frozenset(root[:-1]), branches[root]),
                prefix)
            continue
        accepted.append(entry)
        if len(accepted) == k:
            break
        path = entry[1]
        start = deviation[path]
        prefix = 0.0
        for i in range(start):
            prefix += cost_of[path[i], path[i + 1]]
        banned = set(path[:start])      # the root's nodes before its spur node
        for i in range(start, len(path) - 1):
            root = path[:i + 1]
            taken = branches.get(root)
            if taken is None:
                taken = branches[root] = set()
            taken.add(path[i + 1])
            add(root, search(pg, path[i], t, banned, taken), prefix)
            banned.add(path[i])
            prefix += cost_of[path[i], path[i + 1]]
    accepted.sort()
    return [PathResult(pg, path, cost) for cost, path in accepted]


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
