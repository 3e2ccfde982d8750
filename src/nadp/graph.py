"""Exact nearest-neighbour sets and the neighbour graph built from them.

Two words are *neighbouring* when (a) one is in the other's top-m set under
Euclidean distance, and (b) the Jaccard similarity of their top-m sets meets
the threshold tau. The graph over this symmetric relation is what the
component factorisation and the noise calibration operate on.

All searches go through one exact top-k primitive, `NeighbourIndex.ranks`
(`rank_queries` builds an index, ranks its queries and adds one direct
distance per word ranked; `knn` is its self query), whose result is
defined by direct distances: |q - x| is the square root of one BLAS dot of
the difference q - x with itself (`utility._dots`, the dot `np.linalg.norm`
takes), and each row holds the k words of smallest (distance, index). No
distance depends on which columns shared a matrix product, so
`knn(emb, 10).prefix(2)` equals `knn(emb, 2)` bit for bit.

The search skips the words the triangle inequality rules out. The searched
words are clustered once per `NeighbourIndex` (a farthest-point traversal of
a subsample picks the centres, then one full assignment), each cluster kept
as a centre c, its members and a radius r from their direct distances,
padded for rounding; every search of the index reuses them, so a caller
that ranks one vocabulary twice (the privacy evaluation, `nadp neighbours`)
builds one index and clusters its words once. The search is planned per
cluster: the rounding-safe distances between centres and each query's
direct distance rho from its centre a bound every word of cluster c from
below by |a - c| - r_c - rho, and the query's k-th distance from above by
rho plus the least |a - c| + r_c over the clusters of more than k words. So
a query needs a prefix of a's clusters taken in order of |a - c| - r_c.
Queries are ordered by (a, rho), and a block of one centre's consecutive
queries searches the prefix its last query needs: the members of those
clusters, in ascending order. A word's or a query's centre is the nearest
by float32 keys (`_nearest`), which only picks a label: every radius and
every rho is a direct float64 distance, so every bound stays rigorous. A
query whose prefix holds more than a quarter of the columns (a query far
from every cluster, say), more vectors than `_BLOCK_BYTES` holds, or no
more than k columns is pooled: after the pruned blocks, the pooled queries
are searched over every column in blocks of `_block_rows(n)` rows. A
cluster-level estimate of the share of distances still needed selects,
where pruning cannot pay (an isotropic set, say, or a small one), the
one-cluster case: every query is pooled.

Within a block, Gram-matrix distances (|q|^2 + |x|^2) - 2 q.x only select:
one read pass over the block's Gram product keeps each column's key
|x|^2/2 - q.x as one minimum per group of `_GROUP` columns, only the columns
of each row's best groups get Gram distances, and the k nearest by (Gram
distance, index) are selected in that order, with their Gram distances and
a lower bound on the Gram distance of every column not selected; a block of
fewer than (k + 2) `_GROUP` columns, as most pruned blocks are, is ordered
by one stable sort of its Gram distances instead. A row is certified by its
Gram distances alone when consecutive ones lie more than four times the
bound on the Gram and the direct formulas' difference apart, and its k-th
plus that bound lies below the bound on the columns left out and the lower
bound of every cluster its block skipped (`_certified`): its direct
distances then rise in its Gram order, square roots included. The
other rows' k columns are recomputed as direct distances and ordered by
(distance, index), and a row whose direct k-th distance does not lie below
those bounds is computed from its full row (`_exact_row`, the one full-row
search), so results equal a full (direct distance, index) sort.
`NeighbourIndex.ranks` stops there, with the indices, which is all the
privacy evaluation and `nadp neighbours` read; `rank_queries` adds one
direct distance per word ranked. An excluded word is a filter: a query that
excludes one searches its top k + 1 and drops that word, or else its last
column. `knn` excludes each word from its own row. A block holds as many
query rows as keep its (rows, columns) 8-byte Gram product within
`_BLOCK_BYTES`, the clustering's and the centre-to-centre bounds' chunks
stay within `_CHUNK_BYTES` and the direct distances' within
`utility._GATHER_BYTES`, and nothing copies the searched matrix, so beyond
a few numbers per query a search's working memory does not grow with the
vocabulary.

The graph itself is one array: `NeighbourGraph.pairs` holds each edge once
as a row (i, j) with i < j, rows sorted and unique, and every consumer (the
components, the sensitivities, the reports) reads it. `build_graph` collects
the kept pairs of each neighbour column as keys i*n + j and sorts them once,
dropping repeats; the edge lengths are gathered later, in bounded runs, by
`components.build_partition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import utility
from .domains import require
from .embeddings import EmbeddingSet
from .utility import _chunks, _dots

DEFAULT_M = 2
DEFAULT_TAU = 0.5

# byte budget of a query block's (rows, n) float64 Gram product, its one
# full-width working array
_BLOCK_BYTES = 16 * 2**20

# columns per selection group: a block keeps one key minimum per group and
# computes exact distances only for the columns of its best groups
_GROUP = 16

# byte budget of the selection-key scratch: a few rows of keys, so a
# chunk's key pass and its group reduction stay in cache
_KEY_BYTES = 2**19

# a pruned search clusters its n words into _CLUSTER_SCALE * sqrt(n)
# clusters, picked by a farthest-point traversal of _PROBES words per
# cluster; a search of fewer than _MIN_CLUSTERED words, or one whose
# estimated share of distances still needed exceeds _MAX_SHARE, takes every
# column. Measured
# on 2 vCPUs, knn(emb, 10) over 50-word clusters pruned faster than it
# searched every column from about 1,000 words at d = 300 (0.96 of the time
# at 1,000, 0.66 at 2,048); over 10,000 x 300 sets of looser clusters it
# stopped paying near an estimate of 0.02-0.05 (0.59 of the time at 0.010,
# 0.91-0.95 at 0.020, 0.97-0.98 at 0.054), while 60 tight clusters, an
# estimate of about 1/60, took 0.30 of the time
_CLUSTER_SCALE = 3
_PROBES = 2
_MIN_CLUSTERED = 2048
_MAX_SHARE = 1 / 32

# byte budget of a pruned search's chunk arrays (points' keys to the
# centres, and a chunk of centres' bounds to every centre): an eighth of
# _BLOCK_BYTES, so that they add little to the peak memory a Gram block sets
_CHUNK_BYTES = 2**21


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


def _self_k(m: int, n: int) -> int:
    """The size of each word's top-m set among the n words, min(m, n - 1),
    once m and the two words a search needs are checked."""
    require("m", m)
    _require_two_words(n)
    return min(m, n - 1)


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


def _block_topk(
    queries: np.ndarray, x: np.ndarray, sq_x: np.ndarray, k: int, sq_q: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k indices of one query block by (Gram distance, index), their
    Gram distances in that order, and a lower bound per row on the Gram
    distance of every column not selected; `sq_q` holds the rows' squared
    norms and `err` their rounding allowances (see `NeighbourIndex.ranks`).

    When n // `_GROUP` <= k + 1 every column is a candidate, and one stable
    sort of each row's Gram distances is their (Gram distance, index) order:
    the columns ascend. Otherwise one read pass over the block's Gram
    product selects the columns worth a distance: column j's key
    |x_j|^2/2 - q.x_j, half of d^2 - |q|^2, is reduced to a minimum per
    group of `_GROUP` columns, and the columns of the k + 2 groups with the
    smallest minima (plus the n mod `_GROUP` tail columns) get Gram
    distances: the k nearest columns lie in at most k groups, so the groups
    left out hold nothing nearer than the (k+1)-th unless ties reach it. The
    min(n, k + 1) nearest gathered columns are the candidates: the (k+1)-th
    bounds the rest, and a tie with the k-th fails certification. The bound
    is that candidate's distance, or less where a column left out might be
    nearer; `NeighbourIndex.ranks` certifies the rows."""
    rows, n = len(queries), x.shape[0]
    n_cand = min(n, k + 1)
    gram = queries @ x.T
    width = n // _GROUP
    if width <= n_cand:  # every column is a candidate
        d2 = _sq_dists(gram, sq_q[:, None], sq_x)  # over the Gram product
        # the columns ascend, so a stable sort breaks ties by index
        order = np.argsort(d2, axis=1, kind="stable")[:, :n_cand]
        sel, cand_d = order[:, :k], np.take_along_axis(d2, order, axis=1)
        bound = np.full(rows, np.inf)
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
        groups = np.argpartition(mins, k + 1, axis=1)[:, : k + 2]
        thr = 2.0 * np.take_along_axis(mins, groups, axis=1).max(axis=1)
        cols = (groups[:, :, None] + width * np.arange(_GROUP)).reshape(rows, -1)
        tail = np.arange(span, n)
        cols = np.hstack([cols, np.broadcast_to(tail, (rows, len(tail)))])
        # a flat take: take_along_axis gathers them about half as fast
        gathered = np.take(gram, cols + n * np.arange(rows)[:, None])
        d2 = _sq_dists(gathered, sq_q[:, None], sq_x[cols])
        cand = np.argpartition(d2, n_cand - 1, axis=1)[:, :n_cand]
        cand_d = np.take_along_axis(d2, cand, axis=1)
        cand_i = np.take_along_axis(cols, cand, axis=1)
        order = np.lexsort((cand_i, cand_d), axis=1)
        sel = np.take_along_axis(cand_i, order[:, :k], axis=1)
        cand_d = np.take_along_axis(cand_d, order, axis=1)
        # Lower bound on the distance of a column j left out. Let g_j be
        # q.x_j as BLAS computed it, u = eps/2 the unit roundoff and s_j =
        # |x_j|^2 - 2 g_j exactly. Its group was not gathered, so
        # fl(|x_j|^2/2 - g_j) >= thr/2, which gives s_j >= thr - u|s_j|. Its
        # distance fl(fl(|q|^2 + |x_j|^2) - 2 g_j) rounds twice, by at most
        # u(|q|^2 + |x_j|^2) and u|fl(|q|^2 + |x_j|^2) - 2 g_j|; the clamp
        # only raises it. B = (|q| + max|x|)^2 bounds all three magnitudes,
        # up to a factor 1 + O(d u) for the BLAS error in g_j, so d_j >=
        # |q|^2 + thr - 3uB. Evaluating (thr + |q|^2) - err rounds twice
        # more, by at most uB each: 5uB in all, which err = `_rel(d)` B +
        # tiny >= 10 eps B = 20uB covers; its tiny term covers the absolute
        # error of results below the normal range.
        bound = (thr + sq_q) - err
    # candidates not selected are >= the next one, gathered non-candidates
    # >= the candidates' maximum, so >= the next one too; when k = n, none
    # is left out
    if n_cand > k:
        bound = np.minimum(cand_d[:, k], bound)
    return sel, cand_d[:, :k], bound


def _rel(d: int) -> float:
    """Rounding allowance of a d-term squared distance, relative to (|q| +
    |x|)^2: 4 (d + 4) u, u the unit roundoff. Gram and direct squared
    distances each lie within (d + 3) u (1 + O(du)) of the exact one (the
    d-term dots, two roundings of the sums and, for the direct one, of the
    differences), so this bounds their difference with room for the few
    roundings of a bound's own evaluation."""
    return 2.0 * (d + 4) * np.finfo(np.float64).eps


# absolute allowance of a squared distance below the normal range
_TINY = np.finfo(np.float64).tiny


def _padded(d2: np.ndarray, rel: float) -> np.ndarray:
    """Distances from direct squared distances `d2`, padded for their
    rounding (by `rel`, and by the square root of `_TINY` below the normal
    range) so that each is at least the exact distance."""
    return np.sqrt(d2) * (1.0 + rel) + np.sqrt(_TINY)


def _below(d2: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Whether squared distances `d2` lie below the bounds `low` with room
    for the rounding of their square roots: sqrt(d2), rounded, then lies
    strictly below the distance of every column `low` bounds. Written so
    that NaN gives False."""
    return d2 * (1.0 + 4.0 * np.finfo(np.float64).eps) + _TINY < low


def _direct_sq(q: np.ndarray, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Direct squared distances |q[r] - x[cols[r, i]]|^2, shaped as `cols`:
    one BLAS dot per pair (`utility._dots`, the dot of `np.linalg.norm`),
    over tiles of pairs whose differences fit `utility._GATHER_BYTES`."""
    rows, c = cols.shape
    d = x.shape[1]
    width = max(1, min(c, utility._GATHER_BYTES // (8 * d)))
    out = np.empty(cols.shape)
    for part in _chunks(rows, 8 * d * width):
        for lo in range(0, c, width):
            diff = x[cols[part, lo : lo + width]]
            np.subtract(q[part, None, :], diff, out=diff)
            out[part, lo : lo + width] = _dots(diff, diff)
    return out


def _nearest(points: np.ndarray, centres: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """Index of a nearby centre of each point, and the point's direct
    squared distance from it. The centre is the least float32 key
    |c|^2/2 - p.c, lowest on a tie, in chunks of points whose float32 copies
    and keys fit `_CHUNK_BYTES`. It only picks a label, so rounding costs no
    exactness: every bound is taken from the direct float64 distance to the
    centre picked. Points and centres are first scaled by the power of two
    that brings `top`, the largest norm of the searched words, into [1/2,
    1), so the keys of every point within float32's range of it stay
    finite; a point beyond that range (searched over every column anyway)
    gets any label."""
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    c32 = (centres * scale).astype(np.float32)
    half = 0.5 * np.einsum("ij,ij->i", c32, c32)
    out = np.empty(len(points), dtype=np.int64)
    d = points.shape[1]
    step = max(1, _CHUNK_BYTES // (4 * (len(centres) + d)))
    p32 = np.empty((min(step, len(points)), d), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(points), step):
            chunk = points[lo : lo + step]
            key = np.multiply(chunk, scale, out=p32[: len(chunk)]) @ c32.T
            np.subtract(half, key, out=key)
            out[lo : lo + step] = key.argmin(axis=1)
    return out, _direct_sq(points, centres, out[:, None])[:, 0]


def _centre_bounds(
    index: NeighbourIndex, part: slice, k: int, rel: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rounding-safe bounds from the centres `part` to every centre c:
    `gap[a]` holds the lower bounds of |a - c| - r_c in ascending order,
    `by_gap[a]` their clusters, and `reach[a]` is at least the least |a - c|
    + r_c over the clusters of more than k words (inf when none has)."""
    centres, sq_c, radius = index.centres, index.sq_c, index.radius
    apart = _sq_dists(centres[part] @ centres.T, sq_c[part, None], sq_c)
    norm_c = np.sqrt(sq_c)
    err = rel * (norm_c[part, None] + norm_c) ** 2 + _TINY
    reach = np.sqrt(apart + err) * (1.0 + rel) + radius
    reach[:, index.size <= k] = np.inf
    gap = (np.sqrt(np.maximum(apart - err, 0.0)) * (1.0 - rel) - radius) * (1.0 - rel)
    by_gap = np.argsort(gap, axis=1)
    return np.take_along_axis(gap, by_gap, axis=1), by_gap, reach.min(axis=1) * (1.0 + rel)


def _searches(index: NeighbourIndex, queries: np.ndarray, k: int):
    """Yield (rows, cols, floor) per block of at most `_block_rows(n)` query
    rows, a slice or an index array: the rows search the columns `cols` of
    the index's words (every column when None), and `floor` bounds from
    below the direct squared distance of every column left out (inf when
    none is).

    Without clusters the blocks are consecutive rows over every column.
    With them, a row of centre a (`_nearest`'s label), at a direct distance
    rho from it, needs the clusters c whose gap[a, c] (a lower bound on
    |a - c| - r_c) is at most reach[a] + 2 rho (see `_centre_bounds`): a
    prefix of a's clusters in order of gap, found by one searchsorted. A row
    whose prefix holds more than a quarter of the columns or more vectors
    than `_BLOCK_BYTES` holds would cost a full block's GEMM and more, and
    one of k columns or fewer cannot hold its top k: such rows are pooled,
    and searched last, in blocks of `_block_rows(n)` rows over every column.
    The other rows are ordered by (a, rho), so a block of one centre's
    consecutive rows searches the prefix its last row needs: its columns
    are those clusters' member lists, joined and sorted, so they ascend, in
    time that grows with the block's columns, not with n."""
    n, d = index.emb.vectors.shape
    step = _block_rows(n)
    if index.centres is None:
        for lo in range(0, len(queries), step):
            yield slice(lo, lo + step), None, np.inf
        return
    rel = _rel(d)
    if queries is index.emb.vectors:  # the words' own centres are their clusters
        near, rho = index.assign, index.r2
    else:
        near, rho = _nearest(queries, index.centres, index.max_norm)
    rho = _padded(rho, rel)
    order = np.lexsort((rho, near))
    size, members, starts = index.size, index.members, index.starts
    at = np.searchsorted(near[order], np.arange(len(size) + 1))  # rows of each centre
    most = min(n // 4, _BLOCK_BYTES // (8 * d))  # columns a pruned row may search
    # centres per chunk: its (centres, C) arrays, eight at most, fit _CHUNK_BYTES
    span = max(1, _CHUNK_BYTES // (64 * len(size)))
    pooled = []
    for c_lo in range(0, len(size), span):
        gap, by_gap, reach = _centre_bounds(index, slice(c_lo, c_lo + span), k, rel)
        for g in range(len(gap)):
            group = order[at[c_lo + g] : at[c_lo + g + 1]]
            bound = (reach[g] + 2.0 * rho[group]) * (1.0 + rel)
            want = np.searchsorted(gap[g], bound, "right")  # >= 1: a's own gap < 0
            columns = np.cumsum(size[by_gap[g]])[want - 1]  # of each row's prefix
            pruned = (k < columns) & (columns <= most)
            pooled.append(group[~pruned])
            group, want = group[pruned], want[pruned]
            for lo in range(0, len(group), step):
                rows, j = group[lo : lo + step], want[lo : lo + step][-1]
                kept = [members[starts[c] : starts[c + 1]] for c in by_gap[g, :j].tolist()]
                cols = np.sort(np.concatenate(kept))
                # every cluster left out has a gap of at least gap[g, j]
                floor = np.maximum((gap[g, j] - rho[rows]) * (1.0 - rel), 0.0)
                yield rows, cols, floor * floor * (1.0 - rel)
    pooled = np.concatenate(pooled)
    for lo in range(0, len(pooled), step):
        yield pooled[lo : lo + step], None, np.inf


def _exact_row(q: np.ndarray, x: np.ndarray, sq_x: np.ndarray, k: int, err: float) -> np.ndarray:
    """Top-k of one query over every column by (direct distance, index):
    direct distances for the columns whose Gram distance is within 3 err of
    the k-th, err bounding a Gram and a direct distance's difference, then
    one sort of those. NaN sorts last, so a row of NaN keeps its lowest
    indices."""
    d2 = _sq_dists(x @ q, q @ q, sq_x)
    kth = np.partition(d2, k - 1)[k - 1]
    band = np.flatnonzero(~(d2 > kth + 3.0 * err))  # every column when NaN
    dist = np.sqrt(_direct_sq(q[None], x, band[None])[0])
    return band[np.lexsort((band, dist))[:k]]


def _certified(gram: np.ndarray, low: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Whether each row's Gram order is its (direct distance, index) order.

    `gram` holds a row's selected columns' Gram squared distances in
    (Gram distance, index) order, `low` bounds from below the direct
    squared distance of every column not selected, and `err` the
    difference of a Gram and a direct squared distance of the row."""
    # Let g_i be a row's Gram distances and D_i the direct ones, |g_i - D_i|
    # <= err = rel B + tiny, B = (|q| + max|x|)^2 and rel = 2 (d + 4) eps >=
    # 10 eps (`_rel`). A computed gap fl(g_{i+1} - g_i) > 4 err leaves an
    # exact gap above 3.9 err, so D_{i+1} - D_i > 1.9 err. Every D_i is at
    # most 2B, so D_{i+1} > D_i (1 + 0.9 rel) >= D_i (1 + 9 eps); below the
    # normal range the tiny term gives the same. Then sqrt(D_{i+1}) >
    # sqrt(D_i) (1 + 4 eps), and square roots rounded to within a factor 1
    # +- eps/2 stay strictly apart: the direct distances rise in Gram order,
    # and no index breaks a tie. The largest D_i is at most g_k + err, so
    # the slack `_below` gives the k-th direct distance, (1 + 4 eps) and
    # tiny, covers the two roundings of g_k + err as well: every column left
    # out lies strictly farther. Written so that NaN certifies nothing.
    apart = (np.diff(gram, axis=1) > 4.0 * err[:, None]).all(axis=1)
    return apart & _below(gram[:, -1] + err, low)


def _rerank(
    index: NeighbourIndex, queries: np.ndarray, top: np.ndarray, low: np.ndarray, err: np.ndarray
) -> np.ndarray:
    """Order the k Gram-selected columns `top` of the rows `_certified`
    rejects by (direct distance, index) among the index's words, and
    certify them.

    `low` bounds from below the direct squared distance of every column
    not in a row's `top`, and `err` the difference of a Gram and a direct
    squared distance of the row. A row is kept when its direct k-th
    distance lies below `low` (`_below`); any other row goes to
    `_exact_row`, the one full-row search."""
    k, x = top.shape[1], index.emb.vectors
    d2 = _direct_sq(queries, x, top)
    dist = np.sqrt(d2)
    indices = np.take_along_axis(top, np.lexsort((top, dist), axis=1), axis=1)
    for r in np.flatnonzero(~_below(d2.max(axis=1), low)):
        indices[r] = _exact_row(queries[r], x, index.sq_x, k, err[r])
    return indices


class NeighbourIndex:
    """The words of `emb` prepared for exact searches: their squared norms
    and, where pruning pays, their clusters, each kept as a centre and a
    radius that bounds its members' distances from it (`centres` is None
    when it cannot pay). Built once, an index serves every search of its
    words, so they are clustered once however many searches run.

    The centres start as a farthest-point traversal of an evenly spaced
    subsample of `_PROBES` words per cluster, so every group of probes far
    from the rest gets one. These clusters estimate the share of distances
    a search still needs: the probes of cluster a, within r_a of its
    centre, need cluster c when |a - c| - r_c - r_a <= 2 r_a. Above
    `_MAX_SHARE`, or below `_MIN_CLUSTERED` words, the search takes every
    column. Otherwise the picks are the centres, and one full assignment
    (`_nearest`, by float32 keys) places every word. A group of words the
    subsample missed would widen some cluster's radius, so the words beyond
    twice the distance from their centre that holds three in four of the
    words get centres of their own, by the same traversal (at most as many
    again)."""

    def __init__(self, emb: EmbeddingSet):
        self.emb, self.centres = emb, None
        x, n = emb.vectors, emb.n
        self.sq_x = sq_x = np.einsum("ij,ij->i", x, x)
        self.max_norm = np.sqrt(sq_x.max(initial=0.0))  # of the words
        if n < _MIN_CLUSTERED or not np.isfinite(sq_x).all():
            return
        # the probes' (s, s) distances stay within _BLOCK_BYTES
        probes = int(_PROBES * _CLUSTER_SCALE * np.sqrt(n))
        probes = min(probes, math.isqrt(_BLOCK_BYTES // 8))
        count = int(probes / _PROBES)
        evenly = slice(0, n // probes * probes, n // probes)
        sub, sq_sub = np.ascontiguousarray(x[evenly]), sq_x[evenly]
        d2 = _sq_dists(sub @ sub.T, sq_sub[:, None], sq_sub)
        picks = np.zeros(count, dtype=np.int64)
        near = d2[0].copy()  # each probe's squared distance to its nearest pick
        for t in range(1, count):
            picks[t] = near.argmax()
            np.minimum(near, d2[picks[t]], out=near)
        label = d2[picks].argmin(axis=0)
        size = np.bincount(label, minlength=count)
        reach = np.zeros(count)
        np.maximum.at(reach, label, np.sqrt(near))
        apart = np.sqrt(d2[np.ix_(picks, picks)])
        need = apart - reach - reach[:, None] <= 2.0 * reach[:, None]
        if size @ need @ size > _MAX_SHARE * len(sub) ** 2:
            return
        del d2, apart, need  # the probes' distances, before the full assignment
        centres = sub[picks]
        assign, r2 = _nearest(x, centres, self.max_norm)
        # words beyond twice the distance that holds three in four of them (a
        # tenth of the words were beyond it on some perfbench seeds, where the
        # subsample had missed groups of a few words)
        cover = 4.0 * np.partition(r2, 3 * n // 4)[3 * n // 4]
        far = np.flatnonzero(r2 > cover)
        extra = []
        while len(far) and len(extra) < count:
            j = far[r2[far].argmax()]
            gap = _sq_dists(x[far] @ x[j], sq_x[far], sq_x[j])
            closer = gap < r2[far]
            assign[far[closer]] = count + len(extra)
            r2[far[closer]] = gap[closer]
            extra.append(j)
            far = far[r2[far] > cover]
        if extra:
            centres = np.vstack([centres, x[extra]])
            moved = np.flatnonzero(assign >= count)
            r2[moved] = _direct_sq(x[moved], centres, assign[moved, None])[:, 0]
        self._keep(centres, assign, r2)

    def _keep(self, centres: np.ndarray, assign: np.ndarray, r2: np.ndarray) -> None:
        """Keep the clusters: `r2[j]` is word j's direct squared distance
        from its centre `centres[assign[j]]`; clusters without words are
        dropped."""
        self.r2 = r2
        size = np.bincount(assign, minlength=len(centres))
        used = size > 0
        self.assign = (np.cumsum(used) - 1)[assign]
        self.size = size[used]
        self.centres = centres[used]
        self.sq_c = np.einsum("ij,ij->i", self.centres, self.centres)
        # each cluster's members, ascending: members[starts[c] : starts[c + 1]]
        self.members = np.argsort(self.assign, kind="stable")
        self.starts = np.concatenate([[0], np.cumsum(self.size)])
        far = np.maximum.reduceat(r2[self.members], self.starts[:-1])
        self.radius = _padded(far, _rel(centres.shape[1]))  # the largest member distance

    def ranks(
        self, queries: np.ndarray, k: int, exclude: np.ndarray | None = None
    ) -> np.ndarray:
        """The indices `rank_queries` returns, without their distances. A
        row whose Gram distances certify its order (`_certified`) keeps the
        order `_block_topk` selected, so only the other rows get direct
        distances (`_rerank`)."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.emb.d:
            raise ValueError(f"queries must be (q, {self.emb.d}), got {queries.shape}")
        n, nq = self.emb.n, queries.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude)
            typed = exclude.shape == (nq,) and exclude.dtype.kind in "iu"
            if not (typed and (exclude >= 0).all() and (exclude < n).all()):
                raise ValueError(f"exclude must be a 1-d integer array of {nq} words in [0, {n})")
        limit = n - 1 if exclude is not None else n
        if not 1 <= k <= limit:
            raise ValueError(f"k must be in [1, {limit}], got {k}")
        x, sq_x = self.emb.vectors, self.sq_x
        k_search = k if exclude is None else k + 1
        top = np.empty((nq, k_search), dtype=np.int64)
        gram = np.empty((nq, k_search), dtype=np.float64)
        low = np.empty(nq, dtype=np.float64)
        # a row's rounding allowance: it bounds |Gram - direct| of any of its
        # columns, so a Gram bound less err bounds the direct distance, and
        # the rounding of `_block_topk`'s key pass
        sq_q = sq_x if queries is x else np.einsum("ij,ij->i", queries, queries)
        err = _rel(self.emb.d) * (np.sqrt(sq_q) + self.max_norm) ** 2 + _TINY
        for rows, cols, floor in _searches(self, queries, k_search):
            xs, sq_xs = (x, sq_x) if cols is None else (x[cols], sq_x[cols])
            sel, gram[rows], gram_low = _block_topk(
                queries[rows], xs, sq_xs, k_search, sq_q[rows], err[rows]
            )
            top[rows] = sel if cols is None else cols[sel]
            low[rows] = np.minimum(gram_low - err[rows], floor)
        bad = np.flatnonzero(~_certified(gram, low, err))
        if len(bad):
            top[bad] = _rerank(self, queries[bad], top[bad], low[bad], err[bad])
        if exclude is None:
            return top
        # a row's indices are distinct: drop its excluded word, or else its last
        keep = top != exclude[:, None]
        keep[keep.all(axis=1), k] = False
        return top[keep].reshape(nq, k)


def rank_queries(
    emb: EmbeddingSet,
    queries: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k words of `emb` for each query vector, nearest first.

    `exclude`, when given, is a 1-d integer array of one word index in [0,
    n) per query, removed from that query's ranking (used to drop a word
    from its own ranking): each query searches its top k + 1, then drops its
    excluded word, or else its last column. Ties in distance are broken by
    ascending word index. Returns (indices, distances), each of shape
    (len(queries), k); each distance is the square root of one BLAS dot of
    q - x with itself, the value `np.linalg.norm(q - x)` returns, so it does
    not depend on the block a row was searched in.

    The result equals a full (direct distance, index) sort of every word,
    duplicate vectors included; the module docstring describes the search
    that finds it (`NeighbourIndex.ranks`) without that sort.
    """
    queries = np.asarray(queries, dtype=np.float64)
    indices = NeighbourIndex(emb).ranks(queries, k, exclude)
    return indices, np.sqrt(_direct_sq(queries, emb.vectors, indices))


def knn(emb: EmbeddingSet, m: int) -> NeighbourSets:
    """Exact top-m Euclidean neighbours of every word, self excluded: the
    self query of `rank_queries`, with each word excluded from its own row."""
    k = _self_k(m, emb.n)
    return NeighbourSets(m, *rank_queries(emb, emb.vectors, k, np.arange(emb.n)))


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
