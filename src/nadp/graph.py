"""Exact nearest-neighbour sets and the neighbour graph built from them.

Two words are *neighbouring* when (a) one is in the other's top-m set under
Euclidean distance, and (b) the Jaccard similarity of their top-m sets meets
the threshold tau. The graph over this symmetric relation is what the
component factorisation and the noise calibration operate on.

All searches go through one exact top-k primitive, `rank_queries`, whose
result is defined by direct distances: |q - x| is the square root of one
BLAS dot of the difference q - x with itself (`utility._dots`, the dot
`np.linalg.norm` takes), and each row holds the k words of smallest
(distance, index). No distance depends on which columns shared a matrix
product, so `knn(emb, 10).prefix(2)` equals `knn(emb, 2)` bit for bit.

The search skips the words the triangle inequality rules out. The searched
words are clustered (a farthest-point traversal and a few Lloyd steps on a
subsample, then one full assignment), each cluster kept as a centre c and a
radius r from its members' direct distances, padded for rounding. A query
row needs the clusters whose rounding-safe lower bound |q - c| - r is not
above its upper bound on its k-th distance, |q - c| + r of the nearest
cluster of more than k words. Rows that share a nearest centre form a
block, which searches the clusters some row of it needs. A row that on its
own needs more than `_MAX_SHARE` of the columns and twice its chunk's
median (a query far from every cluster, say), and a block that needs more
than a quarter of them, are pooled into blocks of consecutive query rows
over every column. A cluster-level estimate of the share of distances
still needed selects, where pruning cannot pay (an isotropic set, say, or a
small one), the one-cluster case: every block is such a block.

Within a block, Gram-matrix distances (|q|^2 + |x|^2) - 2 q.x only select:
one read pass over the block's Gram product keeps each column's key
|x|^2/2 - q.x as one minimum per group of `_GROUP` columns, only the columns
of each row's best groups get Gram distances, and the k nearest by (Gram
distance, index) are selected, with a lower bound on the Gram distance of
every column not selected. Each row's k columns are then recomputed as
direct distances and ordered by (distance, index). A row is certified when
its direct k-th distance lies below that bound less a bound on the Gram and
the direct formulas' difference, and below the lower bound of every
cluster its block skipped; any other row is computed from its full row
(`_exact_row`, the one full-row search), so results equal a full (direct
distance, index) sort. `knn` is its self query. A block holds as many query
rows as keep its (rows, columns) 8-byte Gram product within `_BLOCK_BYTES`,
the clustering's and the bounds' chunks stay within `_CHUNK_BYTES` and the
direct distances' within `utility._GATHER_BYTES`, and nothing copies the
searched matrix, so a search's working memory does not grow with the
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

# a pruned search clusters its n words into _CLUSTER_SCALE * sqrt(n)
# clusters, after _LLOYD_STEPS Lloyd steps on _PROBES words per cluster; a
# search of fewer than _MIN_CLUSTERED words, or one whose estimated share of
# distances still needed exceeds _MAX_SHARE, takes every column, and so
# does a query row that alone needs more than _MAX_SHARE of them (and twice
# its chunk's median). Measured on 2 vCPUs, knn(emb, 10) over 50-word
# clusters pruned faster than it searched every column from about 1,000
# words at d = 300 (0.96 of the time at 1,000, 0.66 at 2,048); over
# 10,000 x 300 sets of looser clusters it stopped paying near an estimate
# of 0.02-0.05 (0.59 of the time at 0.010, 0.91-0.95 at 0.020, 0.97-0.98
# at 0.054), while 60 tight clusters, an estimate of about 1/60, took 0.30
# of the time
_CLUSTER_SCALE = 3
_PROBES = 2
_LLOYD_STEPS = 2
_MIN_CLUSTERED = 2048
_MAX_SHARE = 1 / 32

# byte budget of a pruned search's chunk arrays (points' keys to the
# centres, query rows and their lower bounds): an eighth of _BLOCK_BYTES, so
# that they add little to the peak memory a Gram block sets
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
    order: every column within the k-th distance, then a sort of those.
    NaN sorts last, so a row of NaN keeps its lowest indices."""
    within = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
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
    """Top-k indices of one query block by (Gram distance, index), and a
    lower bound per row on the Gram distance of every column not selected.

    One read pass over the block's Gram product selects the columns worth a
    distance: column j's key |x_j|^2/2 - q.x_j, half of d^2 - |q|^2, is
    reduced to a minimum per group of `_GROUP` columns, and the columns of
    the k + 2 groups with the smallest minima (plus the n mod `_GROUP` tail
    columns) get Gram distances: the k nearest columns lie in at most k
    groups, so the groups left out hold nothing nearer than the (k+1)-th
    unless ties reach it. When n // `_GROUP` <= n_cand every column is
    gathered. The n_cand nearest gathered columns are the candidates. The
    bound is the next candidate's distance, or less where a column left
    out might be nearer; `_rerank` certifies the rows."""
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
    # candidates not selected are >= the next one, gathered non-candidates
    # >= the candidates' maximum, so >= the next one too; when every column
    # is a candidate, only the excluded one is left out
    if n_cand > k:
        after = np.take_along_axis(cand_d, order[:, k : k + 1], axis=1)[:, 0]
        bound = np.minimum(after, bound)
    return sel, bound


class _Clusters:
    """A partition of the searched words into clusters, each kept as its
    centre and a radius that bounds its members' distances from it."""

    def __init__(self, centres: np.ndarray, assign: np.ndarray, r2: np.ndarray):
        """`r2[j]` is word j's direct squared distance from its centre
        `centres[assign[j]]`; clusters without words are dropped."""
        size = np.bincount(assign, minlength=len(centres))
        used = size > 0
        self.assign = (np.cumsum(used) - 1)[assign]
        self.size = size[used]
        self.centres = centres[used]
        self.sq_c = np.einsum("ij,ij->i", self.centres, self.centres)
        order = np.argsort(self.assign, kind="stable")
        far = np.maximum.reduceat(r2[order], np.cumsum(self.size) - self.size)
        # the largest member distance, padded for its rounding
        self.radius = np.sqrt(far) * (1.0 + _rel(centres.shape[1])) + _TINY_DIST


def _rel(d: int) -> float:
    """Rounding allowance of a d-term squared distance, relative to (|q| +
    |x|)^2: 4 (d + 4) u, u the unit roundoff. Gram and direct squared
    distances each lie within (d + 3) u (1 + O(du)) of the exact one (the
    d-term dots, two roundings of the sums and, for the direct one, of the
    differences), so this bounds their difference with room for the few
    roundings of a bound's own evaluation."""
    return 2.0 * (d + 4) * np.finfo(np.float64).eps


# absolute allowances for results below the normal range: a squared
# distance, and a distance, the square root of one
_TINY = np.finfo(np.float64).tiny
_TINY_DIST = np.sqrt(_TINY)


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


def _nearest(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centre by the Gram formula, lowest on a
    tie, in chunks of points whose keys fit `_CHUNK_BYTES`."""
    half = 0.5 * np.einsum("ij,ij->i", centres, centres)
    out = np.empty(len(points), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * len(centres)))
    for lo in range(0, len(points), step):
        key = points[lo : lo + step] @ centres.T
        np.subtract(half, key, out=key)
        out[lo : lo + step] = key.argmin(axis=1)
    return out


def _cluster(x: np.ndarray, sq_x: np.ndarray) -> _Clusters | None:
    """Cluster the searched words for a pruned search, or None when pruning
    cannot pay.

    The centres start as a farthest-point traversal of an evenly spaced
    subsample of `_PROBES` words per cluster, so every group of probes far
    from the rest gets one. These clusters estimate the share of distances
    a search still needs: the probes of cluster a, within r_a of its
    centre, need cluster c when |a - c| - r_c - r_a <= 2 r_a. Above
    `_MAX_SHARE`, or below `_MIN_CLUSTERED` words, the search takes every
    column. Otherwise `_LLOYD_STEPS` Lloyd steps on the subsample move the
    centres to their probes' means, and one full assignment places every
    word. A group of words the subsample missed would widen some cluster's
    radius, so the words beyond twice the distance from their centre that
    holds three in four of the words get centres of their own, by the same
    traversal (at most as many again)."""
    n, d = x.shape
    if n < _MIN_CLUSTERED or not np.isfinite(sq_x).all():
        return None
    # the probes' (s, s) distances stay within _BLOCK_BYTES
    probes = int(_PROBES * _CLUSTER_SCALE * np.sqrt(n))
    probes = min(probes, math.isqrt(_BLOCK_BYTES // 8))
    count = int(probes / _PROBES)
    evenly = slice(0, n // probes * probes, n // probes)
    sub, sq_sub = np.ascontiguousarray(x[evenly]), sq_x[evenly]
    # key[p, j] = |p|^2 - 2 p.j, so that |p - j|^2 = key[p, j] + |j|^2
    key = sub @ sub.T
    key *= -2.0
    key += sq_sub[:, None]
    picks = np.zeros(count, dtype=np.int64)
    near = key[0].copy()  # each probe's key to its nearest pick
    for t in range(1, count):
        picks[t] = (near + sq_sub).argmax()
        np.minimum(near, key[picks[t]], out=near)
    label = key[picks].argmin(axis=0)
    size = np.bincount(label, minlength=count)
    reach = np.zeros(count)
    np.maximum.at(reach, label, np.sqrt(np.maximum(near + sq_sub, 0.0)))
    apart = np.sqrt(np.maximum(key[np.ix_(picks, picks)] + sq_sub[picks], 0.0))
    need = apart - reach - reach[:, None] <= 2.0 * reach[:, None]
    if size @ need @ size > _MAX_SHARE * len(sub) ** 2:
        return None
    del key, apart, need  # the probes' distances, before the full assignment
    centres = sub[picks]
    for _ in range(_LLOYD_STEPS):
        label = _nearest(sub, centres)
        size = np.bincount(label, minlength=count)
        order = np.argsort(label, kind="stable")
        used = size > 0
        starts = (np.cumsum(size) - size)[used]
        centres[used] = np.add.reduceat(sub[order], starts, axis=0) / size[used, None]
    assign = _nearest(x, centres)
    r2 = _direct_sq(x, centres, assign[:, None])[:, 0]
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
    return _Clusters(centres, assign, r2)


def _bounds(
    q: np.ndarray, sq_q: np.ndarray, clusters: _Clusters, k: int, rel: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rounding-safe bounds of a chunk of query rows: `lower[i, c]`, the
    triangle inequality's |q_i - c| - r_c, is at most the distance of every
    word of cluster c, and `upper[i]` at least the row's k-th distance over
    the words other than one excluded: |q_i - c| + r_c of the nearest
    cluster of more than k words (inf when none has)."""
    centres, sq_c, radius = clusters.centres, clusters.sq_c, clusters.radius
    lower = _sq_dists(q @ centres.T, sq_q[:, None], sq_c)
    err = (rel * (np.sqrt(sq_q) + np.sqrt(sq_c.max())) ** 2 + _TINY)[:, None]
    reach = np.sqrt(lower + err)
    reach += radius
    reach[:, clusters.size <= k] = np.inf
    upper = reach.min(axis=1) * (1.0 + rel)
    del reach
    lower -= err
    np.maximum(lower, 0.0, out=lower)
    np.sqrt(lower, out=lower)
    lower -= radius
    np.maximum(lower, 0.0, out=lower)
    lower *= 1.0 - rel
    return lower, upper


def _searches(
    x: np.ndarray,
    sq_x: np.ndarray,
    queries: np.ndarray,
    exclude: np.ndarray | None,
    k: int,
):
    """Yield (rows, cols, floor) per block of at most `_block_rows(n)` query
    rows, a slice or an index array: the rows search the columns `cols`
    (every column when None), and `floor` bounds from below the direct
    squared distance of every column left out (inf when none is).

    Without clusters the blocks are consecutive rows over every column.
    With them, a row needs the clusters whose lower bound is not above its
    upper bound (see `_bounds`). A row that on its own needs more than
    `_MAX_SHARE` of the columns and twice the median row of its chunk (a
    query far from every cluster, say, which would widen the search of
    every row sharing its block), and a block whose rows together need more
    than a quarter of the columns (or more rows of x than `_BLOCK_BYTES`
    holds), are pooled into blocks of `_block_rows(n)` rows over every
    column. The other blocks hold rows that share a nearest
    centre and search the clusters some row of theirs needs."""
    n, d = x.shape
    step = _block_rows(n)
    clusters = _cluster(x, sq_x)
    if clusters is None:
        for lo in range(0, len(queries), step):
            yield slice(lo, lo + step), None, np.inf
        return
    # the searched words' own nearest centres are their clusters
    near = clusters.assign if queries is x else _nearest(queries, clusters.centres)
    order = np.argsort(near, kind="stable")
    rel = _rel(d)
    # a chunk's rows, their bounds and two temporaries of the bounds' size
    chunk = max(1, _CHUNK_BYTES // (8 * (d + 3 * len(clusters.size))))
    wide = np.empty(0, dtype=np.int64)  # pooled rows
    for start in range(0, len(queries), chunk):
        part = order[start : start + chunk]
        q_part = queries[part]
        sq_part = np.einsum("ij,ij->i", q_part, q_part)
        lower_part, upper = _bounds(q_part, sq_part, clusters, k, rel)
        needs_part = lower_part <= upper[:, None]
        need = needs_part @ clusters.size
        alone = need > max(_MAX_SHARE * n, 2 * np.median(need))
        wide = np.concatenate([wide, part[alone]])
        cuts = np.flatnonzero(np.diff(near[part])) + 1
        for g_lo, g_hi in zip([0, *cuts], [*cuts, len(part)]):
            group = np.arange(g_lo, g_hi)[~alone[g_lo:g_hi]]
            for lo in range(0, len(group), step):
                block = group[lo : lo + step]
                rows, lower = part[block], lower_part[block]
                keep = needs_part[block].any(axis=0)
                if exclude is not None:
                    keep[clusters.assign[exclude[rows]]] = True
                cols = np.flatnonzero(keep[clusters.assign])
                # k columns or fewer: the rows' bounds were not finite; a
                # quarter of the columns or more than _BLOCK_BYTES of rows
                # would cost a full block's GEMM and more
                if not k < len(cols) <= n // 4 or 8 * d * len(cols) > _BLOCK_BYTES:
                    wide = np.concatenate([wide, rows])
                    continue
                floor = np.where(keep, np.inf, lower).min(axis=1)
                yield rows, cols, floor * floor * (1.0 - rel)
            while len(wide) >= step:
                yield wide[:step], None, np.inf
                wide = wide[step:]
        del q_part, lower_part, needs_part  # before the next chunk's are made
    if len(wide):
        yield wide, None, np.inf


def _exact_row(
    q: np.ndarray, x: np.ndarray, sq_x: np.ndarray, excl: int | None, k: int, err: float
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of one query over every column by (direct distance, index):
    direct distances for the columns whose Gram distance is within 3 err of
    the k-th, err bounding a Gram and a direct distance's difference."""
    d2 = _sq_dists(x @ q, q @ q, sq_x)
    if excl is not None:
        d2[excl] = np.inf
    kth = np.partition(d2, k - 1)[k - 1]
    band = np.flatnonzero(~(d2 > kth + 3.0 * err))  # every column when NaN
    if excl is not None:
        band = band[band != excl]
    dist = np.sqrt(_direct_sq(q[None], x, band[None])[0])
    top, top_d = _row_topk(dist, k)
    return band[top], top_d


def _rerank(
    x: np.ndarray,
    sq_x: np.ndarray,
    queries: np.ndarray,
    exclude: np.ndarray | None,
    top: np.ndarray,
    low: np.ndarray,
    err: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Order each row's k Gram-selected columns `top` by (direct distance,
    index) and certify them.

    `low` bounds from below the direct squared distance of every column
    not in a row's `top`, and `err` the difference of a Gram and a direct
    squared distance of the row. A row is kept when its direct k-th
    distance lies below `low`, with room for the rounding of the square
    root; any other row goes to `_exact_row`, the one full-row search."""
    k = top.shape[1]
    d2 = _direct_sq(queries, x, top)
    dist = np.sqrt(d2)
    order = np.lexsort((top, dist), axis=1)
    indices = np.take_along_axis(top, order, axis=1)
    distances = np.take_along_axis(dist, order, axis=1)
    eps = np.finfo(np.float64).eps
    # written so that a NaN bound certifies nothing
    for r in np.flatnonzero(~(d2.max(axis=1) * (1.0 + 4.0 * eps) + _TINY < low)):
        excl = None if exclude is None else int(exclude[r])
        indices[r], distances[r] = _exact_row(queries[r], x, sq_x, excl, k, err[r])
    return indices, distances


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
    of shape (len(queries), k); each distance is the square root of one
    BLAS dot of q - x with itself, the value `np.linalg.norm(q - x)`
    returns, so it does not depend on the block a row was searched in.

    From `_MIN_CLUSTERED` words on, the words are clustered, each cluster
    kept as a centre c and a radius r; queries sharing a nearest centre
    search only the clusters whose rounding-safe lower bound |q - c| - r is
    not above some query's upper bound on its k-th distance. Queries that
    would search much more than the rest (see `_searches`), and every query
    where the clusters' estimate of the share of distances still needed
    exceeds `_MAX_SHARE`, are searched over every column in blocks of
    consecutive rows. A block holds as many query rows as keep its (rows,
    columns) Gram product within `_BLOCK_BYTES` (16 MiB: 209 rows over
    10,000 columns, 20 over 100,000). (When k + _TIE_SLACK >= columns /
    _GROUP every column is a candidate: the distances overwrite the Gram
    product, and ranking them takes a second such array.)

    The Gram formula only selects the k nearest columns of a block's rows,
    with a lower bound on the Gram distance of the others (see
    `_block_topk`). Those k then get direct distances and are ordered by
    (distance, index). A row is kept when its direct k-th distance lies
    below a rounding-safe lower bound on every other column: that Gram
    bound less the Gram and the direct formulas' largest difference, and
    the lower bound of every cluster its block skipped. Any other row is
    computed from its full row, so the output equals a full (distance,
    index) sort, duplicate vectors included.
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
    top = np.empty((nq, k), dtype=np.int64)
    low = np.empty(nq, dtype=np.float64)
    # |Gram - direct| of any column of a row: a Gram bound less err bounds
    # the direct distance
    norm_q = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    err = _rel(emb.d) * (norm_q + np.sqrt(sq_x.max())) ** 2 + _TINY
    for rows, cols, floor in _searches(x, sq_x, queries, exclude, k):
        excl = None if exclude is None else exclude[rows]
        xs, sq_xs = (x, sq_x) if cols is None else (x[cols], sq_x[cols])
        if cols is not None and excl is not None:
            excl = np.searchsorted(cols, excl)  # cols hold every excluded word
        n_cand = min(len(xs) - (excl is not None), k + _TIE_SLACK)
        sel, gram_low = _block_topk(queries[rows], xs, sq_xs, excl, k, n_cand)
        top[rows] = sel if cols is None else cols[sel]
        low[rows] = np.minimum(gram_low - err[rows], floor)
    return _rerank(x, sq_x, queries, exclude, top, low, err)


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
