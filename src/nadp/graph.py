"""Exact nearest-neighbour sets and the neighbour graph built from them.

Two words are *neighbouring* when (a) one is in the other's top-m set under
Euclidean distance, and (b) the Jaccard similarity of their top-m sets meets
the threshold tau. The graph over this symmetric relation is what the
component factorisation and the noise calibration operate on.

All searches go through one exact top-k primitive, `rank_queries`: blocked
Gram-matrix distances, selected by one read pass over each block's Gram
product. Each column's key |x|^2/2 - q.x is reduced to one minimum per group
of `_GROUP` columns; only the columns of each row's best groups get exact
distances, which are ordered by (distance, index). A row is certified when
its k-th distance is provably below every column left out and every gathered
column past its candidates; any other row (a tie spilling past the
candidates, say) is computed from its full row. So results equal a full
(distance, index) sort and are reproducible. `knn` is its self query. A
block holds as many query rows as keep its (rows, n) 8-byte Gram product
within `_BLOCK_BYTES`, its one full-width array, so a search's working
memory does not grow with the vocabulary.

The graph itself is one array: `NeighbourGraph.pairs` holds each edge once
as a row (i, j) with i < j, rows sorted and unique, and every consumer (the
components, the sensitivities, the reports) reads it. `build_graph` collects
the kept pairs of each neighbour column as keys i*n + j and sorts them once,
dropping repeats; the edge lengths are gathered later, in bounded runs, by
`components.build_partition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import require
from .embeddings import EmbeddingSet

DEFAULT_M = 2
DEFAULT_TAU = 0.5

# extra argpartition candidates kept per row to absorb distance ties
_TIE_SLACK = 16

# byte budget of a query block's (rows, n) float64 Gram product, its one
# full-width working array
_BLOCK_BYTES = 16 * 2**20

# columns per selection group: a block keeps one key minimum per group and
# computes exact distances only for the columns of its best groups
_GROUP = 16

# byte budget of the selection-key scratch: a few rows of keys, so a
# chunk's key pass and its group reduction stay in cache
_KEY_BYTES = 2**19


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
    """Undirected graph over word indices; edges satisfy the neighbouring relation.

    `pairs` holds each edge once, as a row (i, j) with 0 <= i < j < n, the
    rows in strictly increasing order of i*n + j.
    """

    n: int
    pairs: np.ndarray  # (E, 2) int64
    m: int
    tau: float

    def __post_init__(self) -> None:
        p = self.pairs
        typed = isinstance(p, np.ndarray) and p.dtype == np.int64
        if not (typed and p.shape[1:] == (2,)):
            raise ValueError("pairs must be an (E, 2) int64 array")
        i, j = p[:, 0], p[:, 1]
        if len(p) and not (i.min() >= 0 and (i < j).all() and j.max() < self.n):
            raise ValueError(f"pairs must satisfy 0 <= i < j < n = {self.n}")
        if (np.diff(i * self.n + j) <= 0).any():
            raise ValueError("pairs must be sorted and unique")

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The pairs as a set of (i, j) tuples, built on first use."""
        return frozenset(zip(*self.pairs.T.tolist()))


def _require_two_words(n: int) -> None:
    """Every neighbour of a word is another word, so a search needs two."""
    if n < 2:
        raise ValueError(f"need at least 2 words, got {n}")


def _block_rows(n: int) -> int:
    """Query rows per block: as many as keep one (rows, n) 8-byte array
    within `_BLOCK_BYTES`, and at least one."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _sq_dists(gram: np.ndarray, sq_q: np.ndarray, sq_x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from Gram entries, (|q|^2 + |x|^2) - 2 q.x
    clamped at 0 against floating-point noise, written over `gram` and
    returned. The one distance formula of every search: shapes broadcast,
    so it serves candidate blocks and single rows alike."""
    gram *= -2.0
    gram += sq_q + sq_x
    return np.maximum(gram, 0.0, out=gram)


def _row_topk(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of one full row of squared distances in (distance, index)
    order: every column within the k-th distance, then a sort of those."""
    within = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
    top = within[np.lexsort((within, d2[within]))[:k]]
    return top, d2[top]


def _block_topk(
    queries: np.ndarray,
    x: np.ndarray,
    sq_x: np.ndarray,
    exclude: np.ndarray | None,
    k: int,
    n_cand: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k indices and squared distances of one query block in (distance,
    index) order.

    One read pass over the block's Gram product selects the columns worth a
    distance: column j's key |x_j|^2/2 - q.x_j, half of d^2 - |q|^2, is
    reduced to a minimum per group of `_GROUP` columns, and the columns of
    the n_cand groups with the smallest minima (plus the n mod `_GROUP` tail
    columns) get exact distances. A row whose k-th distance is not provably
    below every other column's falls back to its full row. When n //
    `_GROUP` <= n_cand every column is gathered."""
    rows, n = len(queries), x.shape[0]
    sq_q = np.einsum("ij,ij->i", queries, queries)
    gram = queries @ x.T
    if exclude is not None:
        gram[np.arange(rows), exclude] = -np.inf  # a distance of +inf
    width = n // _GROUP
    dense = width <= n_cand  # every column is a candidate
    if dense:
        thr = np.full(rows, np.inf)
        cols = np.broadcast_to(np.arange(n), (rows, n))
        d2 = _sq_dists(gram, sq_q[:, None], sq_x)  # over the Gram product
    else:
        # group g holds columns g, g + width, ..., g + 15 width: its minimum
        # reduces _GROUP contiguous slices of a few rows' keys at a time
        span = _GROUP * width
        half_sq = 0.5 * sq_x[:span]
        step = max(1, _KEY_BYTES // (8 * span))
        key = np.empty((min(step, rows), span))
        mins = np.empty((rows, width))
        for lo in range(0, rows, step):
            part = key[: min(step, rows - lo)]
            hi = lo + len(part)
            np.subtract(half_sq, gram[lo:hi, :span], out=part)
            np.minimum.reduce(part.reshape(-1, _GROUP, width), axis=1, out=mins[lo:hi])
        groups = np.argpartition(mins, n_cand - 1, axis=1)[:, :n_cand]
        thr = 2.0 * np.take_along_axis(mins, groups, axis=1).max(axis=1)
        cols = (groups[:, :, None] + width * np.arange(_GROUP)).reshape(rows, -1)
        tail = np.arange(span, n)
        cols = np.hstack([cols, np.broadcast_to(tail, (rows, len(tail)))])
        gathered = np.take_along_axis(gram, cols, axis=1)
        d2 = _sq_dists(gathered, sq_q[:, None], sq_x[cols])
    cand = np.argpartition(d2, n_cand - 1, axis=1)[:, :n_cand]
    cand_d = np.take_along_axis(d2, cand, axis=1)
    cand_i = np.take_along_axis(cols, cand, axis=1)
    order = np.lexsort((cand_i, cand_d), axis=1)[:, :k]
    sel = np.take_along_axis(cand_i, order, axis=1)
    sel_d = np.take_along_axis(cand_d, order, axis=1)
    # Lower bound on the distance of a column j left out. Let g_j be q.x_j
    # as BLAS computed it, u = eps/2 the unit roundoff and s_j = |x_j|^2 -
    # 2 g_j exactly. Its group was not gathered, so fl(|x_j|^2/2 - g_j) >=
    # thr/2, which gives s_j >= thr - u|s_j|. Its distance
    # fl(fl(|q|^2 + |x_j|^2) - 2 g_j) rounds twice, by at most
    # u(|q|^2 + |x_j|^2) and u|fl(|q|^2 + |x_j|^2) - 2 g_j|; the clamp only
    # raises it. B = (|q| + max|x|)^2 bounds all three magnitudes, up to a
    # factor 1 + O(d u) for the BLAS error in g_j, so d_j >= |q|^2 + thr -
    # 3uB. Evaluating (thr + |q|^2) - err rounds twice more, by at most uB
    # each: 5uB in all, which 4 eps B = 8uB covers. The smallest normal
    # number covers the absolute error of results below it.
    big = np.sqrt(sq_q) + np.sqrt(sq_x.max())
    err = 4.0 * np.finfo(np.float64).eps * big * big + np.finfo(np.float64).tiny
    bound = (thr + sq_q) - err
    # gathered non-candidates are >= the candidate maximum; a row whose k-th
    # distance reaches either limit may tie or lose a column left out
    limit = np.minimum(cand_d.max(axis=1), bound)
    for r in np.nonzero(sel_d[:, k - 1] >= limit)[0]:
        full = d2[r] if dense else _sq_dists(gram[r], sq_q[r], sq_x)
        sel[r], sel_d[r] = _row_topk(full, k)
    return sel, sel_d


def rank_queries(
    emb: EmbeddingSet,
    queries: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k words of `emb` for each query vector, nearest first.

    `exclude[q]`, when given, is a word index removed from query q's
    candidates (used to drop a word from its own ranking). Ties in distance
    are broken by ascending word index. Returns (indices, distances), each
    of shape (len(queries), k).

    Distances are computed blockwise via the Gram matrix, `_block_rows(n)`
    query rows at a time: as many as keep a block's (rows, n) Gram product
    within `_BLOCK_BYTES` (16 MiB: 209 rows at n = 10,000, 20 at
    n = 100,000), and it is the block's one full-width array, so the
    transient memory does not grow with n. (When k + _TIE_SLACK >= n /
    _GROUP every column is a candidate: the distances overwrite the Gram
    product, and ranking them takes a second (rows, n) array.) The block
    size only decides which rows share one BLAS call; BLAS may round a Gram
    entry differently for another call shape, so a distance can move in its
    last bit (and a near-tie reorder) under another `_BLOCK_BYTES`.

    Per row, the k + _TIE_SLACK groups of `_GROUP` columns with the smallest
    key minima are gathered, their columns get exact distances, and the
    k + _TIE_SLACK nearest of those are ordered by (distance, index); no
    full row is sorted or even given distances. A row is kept when its k-th
    distance lies below a rounding-safe lower bound on every column left
    out and below its candidates' maximum; any other row is recomputed from
    its full row, so the output equals a full (distance, index) sort,
    duplicate vectors included.
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
    step = _block_rows(n)
    for start in range(0, nq, step):
        stop = min(start + step, nq)
        excl = None if exclude is None else exclude[start:stop]
        sel, sel_d = _block_topk(queries[start:stop], x, sq_x, excl, k, n_cand)
        indices[start:stop] = sel
        distances[start:stop] = np.sqrt(sel_d)
    return indices, distances


def knn(emb: EmbeddingSet, m: int) -> NeighbourSets:
    """Exact top-m Euclidean neighbours of every word, self excluded: the
    self query of `rank_queries`, with each word excluded from its own row."""
    require("m", m)
    n = emb.n
    _require_two_words(n)
    indices, distances = rank_queries(emb, emb.vectors, min(m, n - 1), np.arange(n))
    return NeighbourSets(m=m, indices=indices, distances=distances)


def _overlap(clean_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    """Per-row Jaccard similarity of two (q, k) index rankings, k >= 1.

    A ranking holds k distinct indices, so a row's intersection is its count
    of equal (clean, query) index pairs and its union is 2k minus that.
    """
    k = clean_rows.shape[1]
    inter = (clean_rows[:, :, None] == query_rows[:, None, :]).sum(axis=(1, 2))
    return inter / (2 * k - inter)


def build_graph(
    emb: EmbeddingSet,
    m: int = DEFAULT_M,
    tau: float = DEFAULT_TAU,
    neighbour_sets: NeighbourSets | None = None,
) -> NeighbourGraph:
    """Build the neighbour graph: pair every word with each word of its
    top-m set and keep the pairs whose neighbour-set Jaccard similarity
    reaches `tau`.

    Pairing each word with its own set realises the disjunctive membership
    condition; keying each pair as (min, max) makes the edge set symmetric,
    and one sort of the keys orders it and drops the pairs found from both
    ends. The Jaccard test uses the same top-m sets as the membership
    condition, one neighbour column at a time.
    """
    require("tau", tau)
    ns = neighbour_sets if neighbour_sets is not None else knn(emb, m)
    if ns.m != m or ns.n != emb.n:
        raise ValueError("neighbour_sets do not match the embedding set and m")
    idx, n = ns.indices, ns.n
    keys = []
    for column in idx.T:
        i = np.flatnonzero(_overlap(idx, idx[column]) >= tau)
        j = column[i]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    # sorted, then the first of each run of equal keys: plain np.unique
    # imports numpy.ma on numpy 2.4, ~20 ms and 1.3 MB once per process
    key = np.sort(np.concatenate(keys))
    key = key[np.diff(key, prepend=-1) > 0]
    pairs = np.stack(np.divmod(key, n), axis=1)
    return NeighbourGraph(n=n, pairs=pairs, m=m, tau=tau)


def graph_report(graph: NeighbourGraph, emb: EmbeddingSet) -> dict:
    """JSON-ready view of a graph: parameters, edges, and token names."""
    edges = graph.pairs.tolist()
    return {
        "n": graph.n,
        "m": graph.m,
        "tau": graph.tau,
        "edge_count": len(edges),
        "edges": edges,
        "edge_tokens": [[emb.words[i], emb.words[j]] for i, j in edges],
    }
