"""Structural enrichment: FastRP node embeddings and KNN link inference.

Products that look alike structurally (similar communication neighborhoods)
receive HAS_POSSIBLE_COMMUNICATION edges to their top-k most cosine-similar
peers, surfacing plausible but unobserved interactions.  Everything is seeded
and deterministic: the very-sparse random projection is drawn from a Philox
counter stream over nodes in sorted-id order.

numpy is imported inside :func:`fastrp_embed`, :func:`cosine_similarity_matrix`
and :func:`knn_possible_links`, on their first call, and not when this module
is imported: the CLI imports it for every command, and only ``enrich`` embeds
(``report`` imports numpy only for the centralities of a plant-scale view).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from icskg.errors import EmptyGraph
from icskg.graph import Edge, EdgeKind, GraphView, write_csv

DEFAULT_DIM = 128
DEFAULT_ITERATION_WEIGHTS = (0.0, 1.0, 1.0)
DEFAULT_TOP_K = 5


@dataclass
class EmbeddingMatrix:
    node_ids: list[str]
    vectors: np.ndarray          # shape (len(node_ids), dim)
    dim: int

    def to_csv(self) -> bytes:
        return write_csv(["id"] + [f"e{i}" for i in range(self.dim)], (
            [node_id] + [f"{x:.8f}" for x in row]
            for node_id, row in zip(self.node_ids, self.vectors)))


def fastrp_embed(view: GraphView, dim: int = DEFAULT_DIM,
                 iteration_weights: Sequence[float] = DEFAULT_ITERATION_WEIGHTS,
                 seed: int = 42) -> EmbeddingMatrix:
    """Fast random-projection embedding of the view's product nodes.

    State 0 is a very-sparse signed projection (density 1/sqrt(dim)); each
    further state applies degree-normalized propagation over the view's
    undirected communication adjacency.  The final vector is the weighted sum
    of states, with iteration_weights[0] weighting the raw projection.
    """
    # Imported here: numpy takes 50-90 ms to load, which every command that
    # does not embed would pay for at start-up.
    import numpy as np
    nodes = view.nodes()
    if not nodes:
        raise EmptyGraph("fastrp_embed requires a non-empty view")
    n = len(nodes)

    s = math.sqrt(dim)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, 0xFA57], dtype=np.uint64)))
    draws = rng.random((n, dim))
    state = np.zeros((n, dim))
    state[draws < 1.0 / (2.0 * s)] = math.sqrt(s)
    state[draws > 1.0 - 1.0 / (2.0 * s)] = -math.sqrt(s)

    neighbors = [sorted(pairs) for pairs in view.adjacency]

    weights = tuple(float(w) for w in iteration_weights)
    final = weights[0] * state
    for w in weights[1:]:
        nxt = np.zeros_like(state)
        for i, nbrs in enumerate(neighbors):
            if nbrs:
                nxt[i] = state[nbrs].mean(axis=0)
        state = nxt
        final = final + w * state
    return EmbeddingMatrix(node_ids=nodes, vectors=final, dim=dim)


def cosine_similarity_matrix(emb: EmbeddingMatrix) -> np.ndarray:
    import numpy as np
    norms = np.linalg.norm(emb.vectors, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = emb.vectors / safe[:, None]
    return unit @ unit.T


def knn_possible_links(emb: EmbeddingMatrix, view: GraphView,
                       top_k: int = DEFAULT_TOP_K) -> list[Edge]:
    """Propose HAS_POSSIBLE_COMMUNICATION edges to each product's top-k most
    similar peers, the most similar first and ties in id order.

    Pairs already linked by COMMUNICATES_WITH (either direction) are skipped,
    as are candidates with non-positive similarity; a zero-vector query node
    proposes nothing.  Each product therefore gains at most top_k outgoing
    possible-links.  ``emb.node_ids`` are sorted, as :func:`fastrp_embed`
    makes them, so index order is id order.
    """
    import numpy as np
    sims = cosine_similarity_matrix(emb)
    ids = emb.node_ids
    index = {u: i for i, u in enumerate(ids)}
    blocked = np.eye(len(ids), dtype=bool)
    for e in view.graph.edges(EdgeKind.COMMUNICATES_WITH):
        if e.src in index and e.dst in index:
            blocked[index[e.src], index[e.dst]] = blocked[index[e.dst], index[e.src]] = True
    edges: list[Edge] = []
    for i, src in enumerate(ids):
        row = sims[i]
        candidates = np.flatnonzero(~blocked[i] & (row > 0.0))
        for j in candidates[np.lexsort((candidates, -row[candidates]))][:top_k]:
            edges.append(Edge(src, ids[j], EdgeKind.HAS_POSSIBLE_COMMUNICATION,
                              props={"similarity": f"{float(row[j]):.6f}"}))
    return edges
