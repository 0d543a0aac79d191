"""FastRP embeddings and KNN possible-link inference."""

from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (add_comm, add_product, bfs_min_hops, comm_graph, random_comm_graph,
                      random_graphs)
from icskg.enrich import (
    EmbeddingMatrix,
    cosine_similarity_matrix,
    fastrp_embed,
    knn_possible_links,
)
from icskg.errors import EmptyGraph
from icskg.graph import Configuration, EdgeKind, Graph


def original(graph):
    return graph.project_view(Configuration.ORIGINAL)


def test_fastrp_deterministic():
    g = comm_graph([("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
    e1 = fastrp_embed(original(g), dim=64, seed=7)
    e2 = fastrp_embed(original(g), dim=64, seed=7)
    assert np.array_equal(e1.vectors, e2.vectors)
    e3 = fastrp_embed(original(g), dim=64, seed=8)
    assert not np.array_equal(e1.vectors, e3.vectors)


def test_fastrp_twins_identical():
    # L1 and L2 share the exact same neighborhood {HUB}; with the default
    # iteration weights the raw projection never enters the final vector,
    # so their embeddings coincide.
    g = comm_graph([("HUB", "L1"), ("HUB", "L2"), ("HUB", "M")])
    emb = fastrp_embed(original(g), dim=64, seed=3)
    sims = cosine_similarity_matrix(emb)
    i, j = emb.node_ids.index("L1"), emb.node_ids.index("L2")
    assert sims[i, j] == pytest.approx(1.0, abs=1e-6)


def test_fastrp_isolated_node_keeps_weighted_projection_only():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    add_product(g, "LONER")
    add_comm(g, "A", "B")
    g.finalize()
    emb = fastrp_embed(original(g), dim=32, seed=5)
    # default weights put 0 on the raw projection, so the isolated vector
    # is exactly the zero-weighted initial state
    assert np.allclose(emb.vectors[emb.node_ids.index("LONER")], 0.0)
    emb2 = fastrp_embed(original(g), dim=32, iteration_weights=(0.5, 1.0), seed=5)
    assert not np.allclose(emb2.vectors[emb2.node_ids.index("LONER")], 0.0)


def test_fastrp_empty_view():
    g = Graph()
    g.finalize()
    with pytest.raises(EmptyGraph):
        fastrp_embed(original(g))


def test_fastrp_dump_shape():
    # The second id needs CSV quoting: it holds a comma and a double quote.
    for a in ("A", 'A,"1'):
        g = comm_graph([(a, "B")])
        emb = fastrp_embed(original(g), dim=16, seed=1)
        rows = list(csv.reader(io.StringIO(emb.to_csv().decode())))
        assert rows[0] == ["id"] + [f"e{i}" for i in range(16)]
        assert [r[0] for r in rows[1:]] == emb.node_ids == sorted([a, "B"])
        assert all(len(r) == 17 for r in rows)


def test_knn_population_bound():
    g = comm_graph([("A", "B"), ("B", "C")])
    emb = fastrp_embed(original(g), dim=32, seed=2)
    links = knn_possible_links(emb, original(g), top_k=5)
    per_source: dict[str, int] = {}
    for e in links:
        per_source[e.src] = per_source.get(e.src, 0) + 1
    # 3 products: at most 2 candidates each even with top_k=5
    assert all(count <= 2 for count in per_source.values())


def test_knn_excludes_existing_links_and_self():
    g = comm_graph([("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")])
    emb = fastrp_embed(original(g), dim=64, seed=4)
    links = knn_possible_links(emb, original(g), top_k=5)
    existing = {frozenset((e.src, e.dst)) for e in g.edges(EdgeKind.COMMUNICATES_WITH)}
    for e in links:
        assert e.kind is EdgeKind.HAS_POSSIBLE_COMMUNICATION
        assert e.src != e.dst
        assert frozenset((e.src, e.dst)) not in existing


def test_knn_degree_bound_random():
    rng = random.Random(6)
    for _ in range(10):
        g = random_comm_graph(rng, max_nodes=12)
        view = original(g)
        emb = fastrp_embed(view, dim=32, seed=9)
        links = knn_possible_links(emb, view, top_k=5)
        per_source: dict[str, int] = {}
        for e in links:
            per_source[e.src] = per_source.get(e.src, 0) + 1
        assert all(count <= 5 for count in per_source.values())


def test_enrichment_superset_shrinks_distances():
    from conftest import _clone
    rng = random.Random(13)
    for _ in range(10):
        g = random_comm_graph(rng, max_nodes=10, edge_prob=0.3)
        view = original(g)
        emb = fastrp_embed(view, dim=32, seed=11)
        # links go onto a fresh mutable copy since g is already finalized
        g2 = _clone(g)
        for e in knn_possible_links(emb, view, top_k=3):
            g2.upsert_edge(e)
        g2.finalize()
        enriched = g2.project_view(Configuration.ENRICHED)
        base = {e.key for e in view.edges}
        assert base <= {e.key for e in enriched.edges}
        nodes = view.nodes()
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                assert bfs_min_hops(enriched, src, dst) <= \
                    bfs_min_hops(view, src, dst)


def test_knn_deterministic_order():
    g = comm_graph([("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")])
    view = original(g)
    emb = fastrp_embed(view, dim=64, seed=20)
    first = [(e.src, e.dst) for e in knn_possible_links(emb, view, top_k=2)]
    second = [(e.src, e.dst) for e in knn_possible_links(emb, view, top_k=2)]
    assert first == second


def knn_links_oracle(emb, view, top_k):
    """The per-pair loop knn_possible_links replaced: every other product not
    linked by COMMUNICATES_WITH, with positive similarity, sorted by
    (-similarity, id)."""
    sims = cosine_similarity_matrix(emb)
    linked = {frozenset((e.src, e.dst)) for e in view.graph.edges(EdgeKind.COMMUNICATES_WITH)}
    edges = []
    for i, src in enumerate(emb.node_ids):
        candidates = []
        for j, dst in enumerate(emb.node_ids):
            if i == j or frozenset((src, dst)) in linked:
                continue
            sim = float(sims[i, j])
            if sim <= 0.0:
                continue
            candidates.append((-sim, dst))
        candidates.sort()
        for neg_sim, dst in candidates[:top_k]:
            edges.append((src, dst, EdgeKind.HAS_POSSIBLE_COMMUNICATION,
                          {"similarity": f"{-neg_sim:.6f}"}))
    return edges


def link_records(edges):
    return [(e.src, e.dst, e.kind, dict(e.props)) for e in edges]


@settings(max_examples=150, deadline=None)
@given(random_graphs(2, 24), st.integers(0, 30), st.data())
def test_knn_matches_the_pair_loop(graph, top_k, data):
    """Equal edges, order and similarity strings on FastRP embeddings (twin
    and isolated products give tied and zero rows) and on small-integer
    vectors, whose similarities tie exactly or are zero or negative."""
    view = original(graph)
    embeddings = [fastrp_embed(view, dim=8, seed=data.draw(st.integers(0, 99)))]
    n = len(view.nodes())
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                              min_size=n, max_size=n))
    embeddings.append(EmbeddingMatrix(view.nodes(), np.array(rows, dtype=float), 3))
    for emb in embeddings:
        assert link_records(knn_possible_links(emb, view, top_k)) == \
            knn_links_oracle(emb, view, top_k)
