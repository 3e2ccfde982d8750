"""Exact nearest-neighbour sets and the neighbour graph built from them.

Two words are *neighbouring* when (a) one is in the other's top-m set under
Euclidean distance, and (b) the Jaccard similarity of their top-m sets meets
the threshold tau. The graph over this symmetric relation is what the
component factorisation and the noise calibration operate on.

All searches go through one exact top-k primitive, `rank_queries`: blocked
Gram-matrix distances, argpartition candidate selection per row, then an
ordering of the candidates by (distance, index). A row whose tie group at
the k-th distance straddles the candidate boundary falls back to a full
stable sort, so results equal a full (distance, index) sort and are
reproducible. `knn` is its self query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet

DEFAULT_M = 2
DEFAULT_TAU = 0.5

# extra argpartition candidates kept per row to absorb distance ties
_TIE_SLACK = 16


@dataclass(frozen=True, eq=False)
class NeighbourSets:
    """Per-word ordered top-m neighbour indices and matching distances.

    Each row holds exactly min(m, n-1) entries; a word never appears in its
    own row. Distances are non-decreasing within a row.
    """

    m: int
    indices: np.ndarray  # (n, k) int64
    distances: np.ndarray  # (n, k) float64

    @property
    def n(self) -> int:
        return int(self.indices.shape[0])

    def row_set(self, i: int) -> set[int]:
        return set(self.indices[i].tolist())

    def prefix(self, m: int) -> NeighbourSets:
        """The top-m sets for m <= self.m: the first min(m, n-1) columns.

        Rows are in (distance, index) order, so a prefix is exactly what
        `knn(emb, m)` returns.
        """
        if not 1 <= m <= self.m:
            raise ValueError(f"m must be in [1, {self.m}], got {m}")
        k = min(m, self.n - 1)
        return NeighbourSets(
            m=m, indices=self.indices[:, :k], distances=self.distances[:, :k]
        )


@dataclass(frozen=True, eq=False)
class NeighbourGraph:
    """Undirected graph over word indices; edges satisfy the neighbouring relation."""

    n: int
    edges: frozenset[tuple[int, int]]  # pairs with i < j, no self-loops
    m: int
    tau: float

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _block_sq_dists(
    queries: np.ndarray, x: np.ndarray, sq_x: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances of a query block to all rows of x,
    clamped at 0 against floating-point noise.

    Evaluated as (|q|^2 + |x|^2) - 2 q.x in place, so a block holds at most
    two (q, n) arrays at a time."""
    d2 = np.einsum("ij,ij->i", queries, queries)[:, None] + sq_x[None, :]
    gram = queries @ x.T
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def _block_topk(
    queries: np.ndarray,
    x: np.ndarray,
    sq_x: np.ndarray,
    exclude: np.ndarray | None,
    k: int,
    n_cand: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k indices and squared distances of one query block in (distance,
    index) order. Its (q, n) arrays are freed on return, so no two blocks'
    distance matrices are alive at once."""
    d2 = _block_sq_dists(queries, x, sq_x)
    if exclude is not None:
        d2[np.arange(len(d2)), exclude] = np.inf
    cand = np.argpartition(d2, n_cand - 1, axis=1)[:, :n_cand]
    cand_d = np.take_along_axis(d2, cand, axis=1)
    order = np.lexsort((cand, cand_d), axis=1)[:, :k]
    sel = np.take_along_axis(cand, order, axis=1)
    sel_d = np.take_along_axis(cand_d, order, axis=1)
    # a tie at the k-th distance may extend past the candidates; all
    # non-candidates are >= the candidate maximum, so only a row whose k-th
    # distance reaches that maximum is counted against its full row
    boundary = sel_d[:, k - 1]
    for r in np.nonzero(boundary >= cand_d.max(axis=1))[0]:
        b = boundary[r]
        if np.count_nonzero(d2[r] <= b) > np.count_nonzero(cand_d[r] <= b):
            full = np.lexsort((np.arange(d2.shape[1]), d2[r]))[:k]
            sel[r] = full
            sel_d[r] = d2[r, full]
    return sel, sel_d


def rank_queries(
    emb: EmbeddingSet,
    queries: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
    block_size: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k words of `emb` for each query vector, nearest first.

    `exclude[q]`, when given, is a word index removed from query q's
    candidates (used to drop a word from its own ranking). Ties in distance
    are broken by ascending word index. Returns (indices, distances), each
    of shape (len(queries), k).

    Distances are computed blockwise via the Gram matrix. Per row,
    argpartition keeps the k + _TIE_SLACK nearest candidates, which are then
    ordered by (distance, index); no full row is sorted. A row whose tie
    group at the k-th distance straddles the candidate boundary falls back
    to a full stable sort, so the output equals a full (distance, index)
    sort, duplicate vectors included.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != emb.d:
        raise ValueError(f"queries must be (q, {emb.d}), got {queries.shape}")
    n = emb.n
    limit = n - 1 if exclude is not None else n
    if not 1 <= k <= limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    x = emb.vectors
    sq_x = np.einsum("ij,ij->i", x, x)
    nq = queries.shape[0]
    indices = np.empty((nq, k), dtype=np.int64)
    distances = np.empty((nq, k), dtype=np.float64)
    n_cand = min(limit, k + _TIE_SLACK)
    for start in range(0, nq, block_size):
        stop = min(start + block_size, nq)
        excl = None if exclude is None else exclude[start:stop]
        sel, sel_d = _block_topk(queries[start:stop], x, sq_x, excl, k, n_cand)
        indices[start:stop] = sel
        distances[start:stop] = np.sqrt(sel_d)
    return indices, distances


def knn(emb: EmbeddingSet, m: int, block_size: int = 1024) -> NeighbourSets:
    """Exact top-m Euclidean neighbours of every word, self excluded: the
    self query of `rank_queries`, with each word excluded from its own row."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = emb.n
    if n < 2:
        raise ValueError(f"need at least 2 words, got {n}")
    indices, distances = rank_queries(
        emb, emb.vectors, min(m, n - 1), np.arange(n), block_size
    )
    return NeighbourSets(m=m, indices=indices, distances=distances)


def jaccard(a: set[int], b: set[int]) -> float:
    """|a & b| / |a | b|; undefined (raises) when both sets are empty."""
    if not a and not b:
        raise ValueError("Jaccard of two empty sets is undefined")
    return len(a & b) / len(a | b)


def build_graph(
    emb: EmbeddingSet,
    m: int = DEFAULT_M,
    tau: float = DEFAULT_TAU,
    neighbour_sets: NeighbourSets | None = None,
) -> NeighbourGraph:
    """Build the neighbour graph: scan each word's top-m set and keep the
    pairs whose neighbour-set Jaccard similarity reaches `tau`.

    Scanning every word's own set realises the disjunctive membership
    condition; storing unordered pairs makes the edge set symmetric. The
    Jaccard test uses the same top-m sets as the membership condition.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    ns = neighbour_sets if neighbour_sets is not None else knn(emb, m)
    if ns.m != m or ns.n != emb.n:
        raise ValueError("neighbour_sets do not match the embedding set and m")
    sets = [ns.row_set(i) for i in range(ns.n)]
    edges: set[tuple[int, int]] = set()
    for i in range(ns.n):
        for j in ns.indices[i]:
            j = int(j)
            pair = (i, j) if i < j else (j, i)
            if pair in edges:
                continue
            if jaccard(sets[i], sets[j]) >= tau:
                edges.add(pair)
    return NeighbourGraph(n=emb.n, edges=frozenset(edges), m=m, tau=tau)


def graph_report(graph: NeighbourGraph, emb: EmbeddingSet) -> dict:
    """JSON-ready view of a graph: parameters, edges, and token names."""
    edges = sorted(graph.edges)
    return {
        "n": graph.n,
        "m": graph.m,
        "tau": graph.tau,
        "edge_count": len(edges),
        "edges": [[int(i), int(j)] for i, j in edges],
        "edge_tokens": [[emb.words[i], emb.words[j]] for i, j in edges],
    }
