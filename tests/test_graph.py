import warnings

import numpy as np
import pytest

from nadp import graph
from nadp.embeddings import EmbeddingSet
from nadp.graph import (
    NeighbourGraph,
    build_graph,
    knn,
    rank_queries,
)

from oracles import (
    graph_edges_bruteforce,
    jaccard,
    knn_bruteforce,
    rank_bruteforce,
    row_set,
)
from synth import clustered_embeddings, random_embeddings, two_far_clusters


def _set(vectors) -> EmbeddingSet:
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSet(tuple(f"w{i}" for i in range(len(vectors))), vectors)


def test_knn_collinear_points():
    # brute force over all pairwise distances fixes the expected sets
    emb = _set([[0.0], [1.0], [10.0]])
    ns = knn(emb, 1)
    assert ns.indices.tolist() == knn_bruteforce(emb.vectors, 1) == [[1], [0], [1]]


def test_knn_exhaustive_when_m_large():
    emb = random_embeddings(6, 3, seed=1)
    ns = knn(emb, 10)
    for i in range(6):
        assert row_set(ns, i) == set(range(6)) - {i}


def test_knn_duplicate_vectors():
    emb = _set([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    ns = knn(emb, 1)
    assert ns.indices[0, 0] == 1
    assert ns.indices[1, 0] == 0


def test_knn_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        knn(_set([[1.0]]), 1)
    with pytest.raises(ValueError):
        knn(_set([[1.0], [2.0]]), 0)


def test_knn_self_never_included_and_sorted():
    emb = random_embeddings(40, 8, seed=3)
    ns = knn(emb, 5)
    for i in range(emb.n):
        assert i not in row_set(ns, i)
        assert np.all(np.diff(ns.distances[i]) >= 0)


@pytest.mark.parametrize("seed", range(8))
def test_knn_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    d = int(rng.integers(1, 20))
    m = int(rng.integers(1, n))
    emb = EmbeddingSet(
        tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, d))
    )
    assert knn(emb, m).indices.tolist() == knn_bruteforce(emb.vectors, m)


def test_knn_matches_bruteforce_with_heavy_ties():
    # 24 points on a tiny integer grid: many exactly equal distances,
    # exercising the tie-boundary fallback
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 3, (24, 2)).astype(float)
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(24)), pts)
    for m in (1, 2, 5, 23):
        assert knn(emb, m).indices.tolist() == knn_bruteforce(pts, m)


def _heavy_tie_grid() -> EmbeddingSet:
    # integer grid, so Gram and direct distances agree exactly; points 0..39
    # share one vector, a duplicate group larger than k + 1
    rng = np.random.default_rng(4)
    pts = np.vstack([np.full((40, 3), 1.0), rng.integers(0, 3, (60, 3))])
    assert 40 > 10 + 1
    return EmbeddingSet(tuple(f"w{i}" for i in range(len(pts))), pts)


def test_neighbour_sets_prefix_equals_knn():
    emb = _heavy_tie_grid()
    ns = knn(emb, 10)
    for m in (1, 2, 5, 10):
        pre = ns.prefix(m)
        ref = knn(emb, m)
        assert pre.m == m
        assert np.array_equal(pre.indices, ref.indices)
        assert np.array_equal(pre.distances, ref.distances)
    with pytest.raises(ValueError):
        ns.prefix(11)
    with pytest.raises(ValueError):
        ns.prefix(0)


def _set_block_rows(monkeypatch, n: int, rows: int) -> None:
    """Size the block budget so that a search over n words runs `rows`
    query rows per block."""
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 8 * n * rows)
    assert graph._block_rows(n) == rows


def test_knn_block_size_independent(monkeypatch):
    emb = random_embeddings(50, 6, seed=9)
    _set_block_rows(monkeypatch, emb.n, 7)
    a = knn(emb, 3)
    _set_block_rows(monkeypatch, emb.n, 1024)
    b = knn(emb, 3)
    assert np.array_equal(a.indices, b.indices)


def test_jaccard_values():
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1, 2}, {3, 4}) == 0.0
    assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5  # 2 shared of 4 total
    with pytest.raises(ValueError):
        jaccard(set(), set())


def test_build_graph_tau_zero_mutual_m_is_complete():
    emb = random_embeddings(7, 4, seed=5)
    graph = build_graph(emb, m=6, tau=0.0)
    assert len(graph.edges) == 7 * 6 // 2


def test_build_graph_tau_one_generic_points():
    # brute-force evaluation of both conditions on all pairs; at tau=1 and
    # m=1 identical neighbour sets are impossible, so no edges survive
    emb = _set([[0.0], [1.0], [3.0]])
    graph = build_graph(emb, m=1, tau=1.0)
    assert graph.edges == frozenset(graph_edges_bruteforce(emb.vectors, 1, 1.0))
    assert len(graph.edges) == 0


def test_build_graph_two_far_clusters_no_cross_edges():
    emb = two_far_clusters(4, 3, seed=2)
    graph = build_graph(emb, m=2, tau=0.3)
    assert graph.edges == frozenset(graph_edges_bruteforce(emb.vectors, 2, 0.3))
    for i, j in graph.edges:
        assert (i < 4) == (j < 4), "edge crosses the cluster gap"
    assert len(graph.edges) > 0


@pytest.mark.parametrize("seed", range(6))
def test_build_graph_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 50))
    d = int(rng.integers(1, 8))
    m = int(rng.integers(1, min(n, 6)))
    tau = float(rng.uniform(0.0, 0.6))
    emb = EmbeddingSet(
        tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, d))
    )
    assert build_graph(emb, m, tau).edges == frozenset(
        graph_edges_bruteforce(emb.vectors, m, tau)
    )


def test_build_graph_edges_satisfy_conditions_recheck():
    # independent from-scratch recheck of (a) membership and (b) Jaccard
    emb = random_embeddings(60, 5, seed=11)
    m, tau = 3, 0.2
    graph = build_graph(emb, m, tau)
    sets = [set(s) for s in knn_bruteforce(emb.vectors, m)]
    assert len(graph.edges) > 0
    for i, j in graph.edges:
        assert i != j and i < j
        assert j in sets[i] or i in sets[j]
        assert len(sets[i] & sets[j]) / len(sets[i] | sets[j]) >= tau


def test_build_graph_tau_monotonicity():
    emb = random_embeddings(50, 4, seed=13)
    previous = None
    for tau in (0.0, 0.1, 0.25, 0.5, 1.0):
        edges = build_graph(emb, m=3, tau=tau).edges
        if previous is not None:
            assert edges <= previous
        previous = edges


def test_build_graph_permutation_isomorphism():
    emb = random_embeddings(30, 4, seed=17)
    rng = np.random.default_rng(0)
    perm = rng.permutation(emb.n)
    permuted = EmbeddingSet(
        tuple(emb.words[p] for p in perm), emb.vectors[perm]
    )
    base = build_graph(emb, m=2, tau=0.1)
    mapped = build_graph(permuted, m=2, tau=0.1)
    inverse = np.argsort(perm)
    expected = {
        tuple(sorted((int(inverse[i]), int(inverse[j])))) for i, j in base.edges
    }
    assert set(mapped.edges) == expected


def test_graph_params_recorded():
    emb = random_embeddings(10, 3, seed=19)
    graph = build_graph(emb, m=2, tau=0.25)
    assert (graph.m, graph.tau, graph.n) == (2, 0.25, 10)
    assert isinstance(graph, NeighbourGraph)


@pytest.mark.parametrize("m, tau", [(1, 0.0), (3, 0.0), (3, 0.2), (5, 0.1)])
def test_build_graph_pairs_are_sorted_unique_int64(m, tau):
    graph = build_graph(clustered_embeddings(120, 5, 6, seed=m), m=m, tau=tau)
    pairs = graph.pairs
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    assert len(pairs) > 0 and (pairs[:, 0] < pairs[:, 1]).all()
    keys = pairs[:, 0] * graph.n + pairs[:, 1]
    assert (np.diff(keys) > 0).all()
    assert graph.edges == {tuple(row) for row in pairs.tolist()}


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[0, 1], [2, 2]], "0 <= i < j < n"),  # self-loop
        ([[0, 1], [3, 2]], "0 <= i < j < n"),  # j < i
        ([[0, 4]], "0 <= i < j < n"),  # j >= n
        ([[-1, 2]], "0 <= i < j < n"),  # i < 0
        ([[0, 1], [0, 1]], "sorted and unique"),  # a duplicate pair
        ([[0, 2], [0, 1]], "sorted and unique"),  # unsorted
        ([[1, 2], [0, 3]], "sorted and unique"),  # unsorted first column
    ],
)
def test_neighbour_graph_rejects_invalid_pairs(pairs, message):
    with pytest.raises(ValueError, match=message):
        NeighbourGraph(n=4, pairs=np.array(pairs, dtype=np.int64), m=2, tau=0.0)


@pytest.mark.parametrize(
    "pairs",
    [
        np.array([0, 1], dtype=np.int64),  # one dimension
        np.array([[0, 1, 2]], dtype=np.int64),  # three columns
        np.zeros((0,), dtype=np.int64),
        np.array([[0, 1]], dtype=np.int32),
        np.array([[0.0, 1.0]]),
        [[0, 1]],  # not an array
    ],
)
def test_neighbour_graph_rejects_a_wrong_shape_or_type(pairs):
    with pytest.raises(ValueError, match=r"\(E, 2\) int64 array"):
        NeighbourGraph(n=4, pairs=pairs, m=2, tau=0.0)


def test_neighbour_graph_accepts_no_edges():
    graph = NeighbourGraph(n=3, pairs=np.zeros((0, 2), dtype=np.int64), m=2, tau=0.5)
    assert graph.edges == frozenset()


def test_rank_queries_matches_knn_rows():
    emb = random_embeddings(40, 6, seed=23)
    ns = knn(emb, 4)
    idx, dist = rank_queries(emb, emb.vectors, 4, exclude=np.arange(emb.n))
    assert np.array_equal(idx, ns.indices)
    assert np.allclose(dist, ns.distances)


def test_rank_queries_without_exclusion_finds_self():
    emb = random_embeddings(10, 3, seed=29)
    idx, dist = rank_queries(emb, emb.vectors[:3], 1)
    assert idx[:, 0].tolist() == [0, 1, 2]
    assert np.allclose(dist[:, 0], 0.0)


@pytest.mark.parametrize(
    "exclude",
    [
        np.array([-1, 0, 1, 2, 3, 4]),  # below the first word
        np.array([1, 2, 3, 4, 5, 6]),  # past the last word
        np.arange(5),  # one entry short
        np.arange(6.0),  # floats
        np.arange(6)[:, None],  # two dimensions
        np.arange(6) > 2,  # booleans
    ],
)
def test_rank_queries_rejects_an_exclude_that_is_not_a_word_per_query(exclude):
    emb = random_embeddings(6, 3, seed=7)
    with pytest.raises(ValueError, match="exclude must be a 1-d integer array"):
        rank_queries(emb, emb.vectors, 2, exclude)


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,)])
def test_rank_queries_rejects_queries_of_the_wrong_width(shape):
    emb = random_embeddings(6, 3, seed=7)
    with pytest.raises(ValueError) as excinfo:
        rank_queries(emb, np.zeros(shape), 2)
    assert str(excinfo.value) == f"queries must be (q, 3), got {shape}"


@pytest.mark.parametrize("m, n", [(3, 10), (2, 9)])
def test_build_graph_rejects_neighbour_sets_that_do_not_match(m, n):
    # sets of another m, or of another vocabulary, are named, not used
    emb = random_embeddings(10, 3, seed=8)
    ns = knn(random_embeddings(n, 3, seed=8), m)
    with pytest.raises(ValueError) as excinfo:
        build_graph(emb, m=2, tau=0.5, neighbour_sets=ns)
    assert str(excinfo.value) == "neighbour_sets do not match the embedding set and m"


@pytest.mark.parametrize("block_rows", [7, 1024])
@pytest.mark.parametrize("with_exclude", [True, False])
def test_rank_queries_external_matches_bruteforce_with_heavy_ties(
    monkeypatch, block_rows, with_exclude
):
    emb = _heavy_tie_grid()
    _set_block_rows(monkeypatch, emb.n, block_rows)
    rng = np.random.default_rng(5)
    # half the queries sit on the duplicate group, half on grid points that
    # are not rows of the set
    queries = np.vstack([np.full((6, 3), 1.0), rng.integers(3, 5, (6, 3))])
    exclude = None
    if with_exclude:
        # the queries on the duplicate group each drop one of its members
        exclude = np.concatenate([np.arange(6), rng.integers(0, emb.n, 6)])
    for k in (1, 3, 10, 45, emb.n - 1):
        idx, dist = rank_queries(emb, queries, k, exclude)
        expected = rank_bruteforce(emb.vectors, queries, k, exclude)
        assert idx.tolist() == expected
        direct = np.linalg.norm(queries[:, None, :] - emb.vectors[idx], axis=2)
        assert np.array_equal(dist, direct)


@pytest.mark.parametrize("n", [2, 1000, 10**4, 10**5, 10**7])
def test_block_rows_fit_the_byte_budget(n):
    rows = graph._block_rows(n)
    assert rows >= 1
    assert rows * n * 8 <= graph._BLOCK_BYTES or rows == 1
    # and as many rows as the budget allows
    assert (rows + 1) * n * 8 > graph._BLOCK_BYTES


def _bits(*arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("with_exclude", [True, False])
def test_search_is_bit_identical_at_any_block_size(monkeypatch, with_exclude):
    emb = _heavy_tie_grid()
    rng = np.random.default_rng(6)
    queries = np.vstack([emb.vectors, rng.integers(0, 5, (20, 3))])
    exclude = None
    if with_exclude:
        exclude = np.concatenate([np.arange(emb.n), rng.integers(0, emb.n, 20)])

    def results():
        out = []
        for k in (1, 3, 10, 45):
            out += _bits(*rank_queries(emb, queries, k, exclude))
            ns = knn(emb, k)
            out += _bits(ns.indices, ns.distances)
        return out

    default = results()
    for rows in (7, 1024):
        _set_block_rows(monkeypatch, emb.n, rows)
        assert results() == default
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 8)
    assert graph._block_rows(emb.n) == 1
    blocks = []
    block_topk = graph._block_topk
    monkeypatch.setattr(
        graph, "_block_topk", lambda q, *a: blocks.append(len(q)) or block_topk(q, *a)
    )
    assert results() == default
    # the default search ran in 1-row blocks
    assert set(blocks) == {1}


# The tests below reach the grouped selection of `_block_topk` at every k
# they use: n // _GROUP must exceed k + 1 there.


def _tie_grid_2400() -> EmbeddingSet:
    # integer grid, so Gram and direct distances agree exactly; 80 rows
    # share one vector, spread over 80 different groups of _GROUP columns
    rng = np.random.default_rng(41)
    pts = rng.integers(0, 8, (2400, 3)).astype(float)
    pts[np.arange(80) * 29] = [3.0, 3.0, 3.0]
    return EmbeddingSet(tuple(f"w{i}" for i in range(len(pts))), pts)


def _grouped(emb: EmbeddingSet, k: int) -> bool:
    return emb.n // graph._GROUP > k + 1


def _full_rows(monkeypatch) -> list[np.ndarray]:
    """The query of every row computed from its full row by `_exact_row`."""
    queries = []
    exact_row = graph._exact_row
    monkeypatch.setattr(
        graph, "_exact_row", lambda q, *a: queries.append(q.copy()) or exact_row(q, *a)
    )
    return queries


@pytest.mark.parametrize("with_exclude", [True, False])
def test_grouped_search_matches_bruteforce_on_a_tie_grid(with_exclude):
    emb = _tie_grid_2400()
    rng = np.random.default_rng(42)
    # half the queries sit on the duplicate group, half on grid points in
    # and beyond the set's range
    queries = np.vstack([np.full((6, 3), 3.0), rng.integers(0, 10, (6, 3))])
    exclude = None
    if with_exclude:
        exclude = np.concatenate([np.arange(6) * 29 * 13, rng.integers(0, emb.n, 6)])
    expected = rank_bruteforce(emb.vectors, queries, 45, exclude)
    for k in (1, 3, 10, 45):
        assert _grouped(emb, k) and 80 > k + 1
        idx, dist = rank_queries(emb, queries, k, exclude)
        assert idx.tolist() == [row[:k] for row in expected]
        direct = np.linalg.norm(queries[:, None, :] - emb.vectors[idx], axis=2)
        assert np.array_equal(dist, direct)


def test_grouped_knn_matches_bruteforce_on_a_tie_grid():
    emb = _tie_grid_2400()
    rows = np.concatenate([np.arange(8) * 29, [1, 2, 500, 2399]])
    expected = rank_bruteforce(emb.vectors, emb.vectors[rows], 45, rows)
    for k in (1, 3, 10, 45):
        ns = knn(emb, k)
        assert ns.indices[rows].tolist() == [row[:k] for row in expected]


@pytest.mark.parametrize("tail", [0, 1, 15])
def test_grouped_search_covers_the_tail_columns(tail):
    # columns past _GROUP * (n // _GROUP) belong to no group; queries just
    # off the last rows must still find them
    n = graph._GROUP * 40 + tail
    emb = random_embeddings(n, 4, seed=43 + tail)
    rng = np.random.default_rng(44)
    last = np.arange(n - 16, n)
    queries = emb.vectors[last] + rng.normal(0.0, 1e-3, (16, 4))
    k = 3
    assert _grouped(emb, k)
    idx, _ = rank_queries(emb, queries, k)
    assert idx.tolist() == rank_bruteforce(emb.vectors, queries, k, None)
    assert idx[:, 0].tolist() == last.tolist()
    ns = knn(emb, k)
    assert ns.indices[last].tolist() == rank_bruteforce(
        emb.vectors, emb.vectors[last], k, last
    )


@pytest.mark.parametrize("n, k", [(40, 1), (40, 3), (79, 3), (207, 11), (30, 30)])
def test_dense_block_order_is_a_lexsort_by_gram_distance_and_index(n, k):
    # every column is a candidate (n // _GROUP <= k + 1) and integer grid
    # points tie often, with Gram and direct distances agreeing exactly: the
    # one stable sort must give the (Gram distance, index) order of the
    # whole block, its Gram distances and the (k+1)-th as the bound
    assert n // graph._GROUP <= k + 1
    rng = np.random.default_rng(63)
    x = rng.integers(0, 4, (n, 3)).astype(float)
    queries = np.vstack([x[:5], rng.integers(-1, 5, (7, 3)).astype(float)])
    sq_x = np.einsum("ij,ij->i", x, x)
    sq_q = np.einsum("ij,ij->i", queries, queries)
    err = graph._rel(3) * (np.sqrt(sq_q) + np.sqrt(sq_x.max())) ** 2 + graph._TINY
    sel, gram, bound = graph._block_topk(queries, x, sq_x, k, sq_q, err)
    d2 = ((queries[:, None, :] - x) ** 2).sum(axis=2)
    order = np.array([np.lexsort((np.arange(n), row)) for row in d2])
    assert sel.tolist() == order[:, :k].tolist()
    assert np.array_equal(gram, np.take_along_axis(d2, order[:, :k], axis=1))
    expected = d2[np.arange(len(queries)), order[:, k]] if k < n else np.full(len(queries), np.inf)
    assert np.array_equal(bound, expected)
    # the grid ties: some row's k-th and (k+1)-th distances are equal
    assert k == n or (gram[:, -1] == bound).any()


def test_uncertified_row_falls_back_to_its_full_row(monkeypatch):
    # a query on the 80-member duplicate group ties at its k-th distance
    # with more columns than it has candidates
    emb = _tie_grid_2400()
    queries = np.array([[3.0, 3.0, 3.0], [0.5, 7.5, 0.5]])
    fallbacks = _full_rows(monkeypatch)
    idx, dist = rank_queries(emb, queries, 10)
    assert len(fallbacks) >= 1
    assert idx.tolist() == rank_bruteforce(emb.vectors, queries, 10, None)
    assert idx[0].tolist() == (np.arange(10) * 29).tolist()
    assert np.array_equal(dist[0], np.zeros(10))


def test_generic_rows_are_certified(monkeypatch):
    # without exact ties every row is certified from its gathered columns
    emb = random_embeddings(2000, 8, seed=45)
    fallbacks = _full_rows(monkeypatch)
    for k in (1, 10):
        assert _grouped(emb, k)
        knn(emb, k)
        rank_queries(emb, emb.vectors[:50] + 0.1, k)
    assert fallbacks == []


def _offset_grid(n: int, seed: int) -> np.ndarray:
    # far from the origin, |q|^2 + |x|^2 rounds to a few units, so Gram
    # distances tie and invert by rounding: the certification's error term
    # is what keeps such rows exact
    rng = np.random.default_rng(seed)
    return 2.0**29 + rng.integers(-40, 40, (n, 2)).astype(float)


def _search_sets() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(46)
    normal = rng.normal(0.0, 1.0, (700, 6))
    clustered = clustered_embeddings(900, 10, 20, seed=47).vectors
    offset = _offset_grid(650, seed=9)
    return {
        "normal": (normal, rng.normal(0.0, 1.0, (40, 6))),
        "clustered": (clustered, clustered[:40] + rng.normal(0.0, 0.05, (40, 10))),
        "offset": (offset, _offset_grid(30, seed=10)),
    }


@pytest.mark.parametrize("name", ["normal", "clustered", "offset"])
def test_grouped_search_is_bit_identical_to_all_columns(monkeypatch, name):
    vectors, queries = _search_sets()[name]
    emb = _set(vectors)
    exclude = np.arange(len(queries)) * 7

    def results():
        out = []
        for k in (1, 3, 10):
            ns = knn(emb, k)
            out += _bits(ns.indices, ns.distances)
            out += _bits(*rank_queries(emb, queries, k))
            out += _bits(*rank_queries(emb, queries, k, exclude))
        return out

    assert _grouped(emb, 10)
    grouped = results()
    monkeypatch.setattr(graph, "_GROUP", emb.n)  # every column gathered
    assert results() == grouped


# The tests below reach the pruned search: at least graph._MIN_CLUSTERED
# words, grouped tightly enough that the clusters' lower bounds rule most
# columns out.


def _pruned_set() -> EmbeddingSet:
    emb = clustered_embeddings(3000, 20, 60, seed=48)
    assert emb.n >= graph._MIN_CLUSTERED
    return emb


def _record_blocks(monkeypatch) -> list[tuple[int, int]]:
    """(rows, columns) of every `_block_topk` call."""
    blocks = []
    block_topk = graph._block_topk
    monkeypatch.setattr(
        graph,
        "_block_topk",
        lambda q, x, *a: blocks.append((len(q), len(x))) or block_topk(q, x, *a),
    )
    return blocks


def _norms(queries: np.ndarray, vectors: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The oracles' distances: one np.linalg.norm per (query, word) pair."""
    return np.array(
        [[np.linalg.norm(q - vectors[j]) for j in row] for q, row in zip(queries, idx)]
    )


@pytest.mark.parametrize("with_exclude", [True, False])
def test_pruned_search_matches_bruteforce(monkeypatch, with_exclude):
    emb = _pruned_set()
    blocks = _record_blocks(monkeypatch)
    rng = np.random.default_rng(49)
    rows = rng.choice(emb.n, 30, replace=False)
    # queries near words, and far from every cluster
    queries = np.vstack(
        [
            emb.vectors[rows] + rng.normal(0.0, 0.2, (30, 20)),
            rng.normal(0.0, 20.0, (10, 20)),
        ]
    )
    exclude = rng.integers(0, emb.n, 40) if with_exclude else None
    for k in (1, 10):
        ns = knn(emb, k)
        expected = rank_bruteforce(emb.vectors, emb.vectors[rows], k, rows)
        assert ns.indices[rows].tolist() == expected
        assert np.array_equal(
            ns.distances[rows], _norms(emb.vectors[rows], emb.vectors, ns.indices[rows])
        )
        idx, dist = rank_queries(emb, queries, k, exclude)
        assert idx.tolist() == rank_bruteforce(emb.vectors, queries, k, exclude)
        assert np.array_equal(dist, _norms(queries, emb.vectors, idx))
    # the pruning ran: most blocks searched a few clusters' columns
    assert min(cols for _, cols in blocks) < emb.n // 10
    work = sum(rows * cols for rows, cols in blocks)
    assert work < 0.2 * emb.n * (2 * emb.n + 2 * len(queries))


@pytest.mark.parametrize("clustered", [True, False])
def test_exclusion_filter_matches_bruteforce(clustered):
    # a query that excludes a word searches its top k + 1, then drops that
    # word, or else its last column. 15 copies of one vector, each query
    # excluding its own copy: the last one has more than k + 1 copies of
    # lower index ahead of it. Words near the other queries are excluded far
    # beyond k + 1 or first, and k = n - 1 keeps every word but one
    base = _pruned_set() if clustered else random_embeddings(300, 20, seed=54)
    n, k = base.n, 10
    copies = np.linspace(0, n - 1, 15).astype(np.int64)
    assert len(copies) - 1 > k + 1
    x = base.vectors.copy()
    x[copies] = x[copies[0]]
    emb = _set(x)
    assert (graph.NeighbourIndex(emb).centres is not None) == clustered
    rng = np.random.default_rng(55)
    near = x[rng.choice(n, 10, replace=False)] + rng.normal(0.0, 0.1, (10, 20))
    order = np.argsort(np.linalg.norm(near[:, None, :] - x, axis=2), axis=1)
    queries = np.vstack([x[copies], near])
    exclude = np.concatenate([copies, order[:5, -1], order[5:, 0]])
    expected = rank_bruteforce(x, queries, n - 1, exclude)
    for top in (k, n - 1):
        idx, dist = rank_queries(emb, queries, top, exclude)
        assert idx.tolist() == [row[:top] for row in expected]
        assert np.array_equal(dist, _norms(queries, x, idx))
    ns = knn(emb, k)
    assert ns.indices[copies].tolist() == [row[:k] for row in expected[: len(copies)]]
    assert ns.indices[copies[-1]].tolist() == copies[:k].tolist()


@pytest.mark.parametrize("scale", [2.0**66, 2.0**-140])
def test_float32_labels_of_a_set_outside_float32_range(scale):
    # squared norms of ~1e43 are inf in float32 and those of ~1e-83 are 0:
    # the centre labels, formed in float32, scale by a power of two first,
    # so the scaled set keeps the unscaled set's clusters, and no overflow
    # or invalid value is raised on the way
    base = _pruned_set()
    emb = _set(base.vectors * scale)
    x = emb.vectors
    rng = np.random.default_rng(64)
    rows = rng.choice(emb.n, 30, replace=False)
    moved = x[rows] + rng.normal(0.0, 0.2 * scale, (30, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = graph.NeighbourIndex(emb)
        assert index.centres is not None
        assert np.array_equal(index.assign, graph.NeighbourIndex(base).assign)
        ns = knn(emb, 10)
        assert ns.indices[rows].tolist() == rank_bruteforce(x, x[rows], 10, rows)
        assert np.array_equal(ns.distances[rows], _norms(x[rows], x, ns.indices[rows]))
        for excl in (None, rows):
            idx, dist = rank_queries(emb, moved, 10, excl)
            assert idx.tolist() == rank_bruteforce(x, moved, 10, excl)
            assert np.array_equal(dist, _norms(moved, x, idx))
            assert _bits(index.ranks(moved, 10, excl)) == _bits(idx)


@pytest.mark.parametrize("query", ["self", "moved", "far"])
def test_search_columns_are_whole_clusters_in_ascending_order(query):
    # the dense selection's stable sort reads ties in column order, so every
    # block's columns ascend; they are the members of whole clusters
    emb = _pruned_set()
    index = graph.NeighbourIndex(emb)
    x = emb.vectors
    queries = x
    if query != "self":
        # a fifth of the far queries moved far from every cluster
        rng = np.random.default_rng(65)
        far = (rng.random(emb.n) < 0.2) & (query == "far")
        queries = x + rng.normal(0.0, np.where(far, 100.0, 0.5)[:, None], x.shape)
    pruned = 0
    for _, cols, _ in graph._searches(index, queries, 11):
        if cols is None:
            continue
        assert (np.diff(cols) > 0).all()
        assert np.array_equal(np.flatnonzero(np.isin(index.assign, index.assign[cols])), cols)
        pruned += 1
    assert pruned > 0


def test_isotropic_set_takes_every_column(monkeypatch):
    emb = random_embeddings(3000, 300, seed=31)
    assert emb.n >= graph._MIN_CLUSTERED
    assert graph.NeighbourIndex(emb).centres is None
    blocks = _record_blocks(monkeypatch)
    ns = knn(emb, 3)
    assert {cols for _, cols in blocks} == {emb.n}
    rows = np.array([0, 1, 1500, 2999])
    expected = rank_bruteforce(emb.vectors, emb.vectors[rows], 3, rows)
    assert ns.indices[rows].tolist() == expected


def test_row_reaching_a_pruned_bound_falls_back(monkeypatch):
    # with every centre's reach at 0, a row's upper bound on its k-th
    # distance is its own distance from its centre, so blocks keep only the
    # clusters near their rows, and many rows' k-th distances reach the
    # bound of a cluster left out; those rows must be computed from their
    # full rows
    emb = _pruned_set()
    centre_bounds = graph._centre_bounds

    def reach_at_zero(*args):
        gap, by_gap, reach = centre_bounds(*args)
        return gap, by_gap, np.zeros_like(reach)

    monkeypatch.setattr(graph, "_centre_bounds", reach_at_zero)
    full_rows = _full_rows(monkeypatch)
    ns = knn(emb, 10)
    assert len(full_rows) > 0
    # each self query is its word's vector, and the set's vectors are distinct
    fell_back = [np.flatnonzero((emb.vectors == q).all(axis=1)) for q in full_rows]
    assert all(len(row) == 1 for row in fell_back)
    rows = np.concatenate([np.arange(0, emb.n, 97), [emb.n - 1], *fell_back])
    expected = rank_bruteforce(emb.vectors, emb.vectors[rows], 10, rows)
    assert ns.indices[rows].tolist() == expected
    assert np.array_equal(
        ns.distances[rows], _norms(emb.vectors[rows], emb.vectors, ns.indices[rows])
    )


def test_generic_pruned_rows_are_certified(monkeypatch):
    emb = _pruned_set()
    full_rows = _full_rows(monkeypatch)
    for k in (1, 10):
        knn(emb, k)
    assert full_rows == []


def test_prefix_is_bit_identical_on_float_data(monkeypatch):
    # a set whose m = 2 and m = 10 searches keep different columns
    emb = clustered_embeddings(3000, 20, 60, seed=49)
    blocks = _record_blocks(monkeypatch)
    ns = knn(emb, 10)
    at_10 = list(blocks)
    assert np.array_equal(ns.distances, _norms(emb.vectors, emb.vectors, ns.indices))
    for m in (1, 2, 5):
        blocks.clear()
        ref = knn(emb, m)
        pre = ns.prefix(m)
        assert np.array_equal(pre.indices, ref.indices)
        assert _bits(pre.distances) == _bits(ref.distances)
        if m == 2:
            assert blocks != at_10


def test_far_queries_are_pooled_into_full_blocks(monkeypatch):
    # a query far from every cluster (a word of a low-epsilon release, say)
    # may need many clusters and would widen the block of every near query
    # sharing its nearest centre; such rows are searched over every column
    # in blocks of _block_rows(n) rows, the blocks of an unpruned search
    emb = _pruned_set()
    x = emb.vectors
    rng = np.random.default_rng(52)
    far = rng.random(emb.n) < 0.4
    queries = x + np.where(far[:, None], rng.normal(0.0, 100.0, x.shape), 0.0)
    _set_block_rows(monkeypatch, emb.n, 100)
    pooled = []
    for rows, cols, _ in graph._searches(graph.NeighbourIndex(emb), queries, 10):
        if cols is None:
            pooled.append(np.arange(emb.n)[rows])
    assert len(pooled) >= 3
    assert [len(rows) for rows in pooled[:-1]] == [100] * (len(pooled) - 1)
    # nearly all of them far rows
    assert far[np.concatenate(pooled)].mean() > 0.9
    idx, dist = rank_queries(emb, queries, 10)
    sample = np.concatenate([pooled[0][:20], np.flatnonzero(~far)[::100]])
    assert idx[sample].tolist() == rank_bruteforce(x, queries[sample], 10, None)
    assert np.array_equal(dist[sample], _norms(queries[sample], x, idx[sample]))


def test_pooling_is_decided_per_row(monkeypatch):
    # clusters of 21 words on lines, radius 1, centred at 0 and 5 and, far
    # off, at six points 100 away; 298 zero coordinates make each vector 2,400
    # bytes. Queries at (0, t) share centre 0: up to t = 1.5 they need its
    # cluster alone (21 columns), beyond it the cluster at 5 too (42). With
    # room for 30 columns of vectors, exactly the rows beyond 1.5 are pooled,
    # while the rows before them, which fit one block of rows with them,
    # still search their own cluster
    d, t = 300, np.linspace(-1.0, 1.0, 21)
    angle = np.arange(6) * np.pi / 3
    far = 100.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    centres = np.zeros((8, d))
    centres[:, :2] = np.vstack([[0.0, 0.0], [5.0, 0.0], far])
    assign = np.repeat(np.arange(8), 21)
    x = centres[assign]
    x[:, 0] += np.tile(t, 8)
    index = graph.NeighbourIndex(_set(x))  # 168 words: not clustered by itself
    index._keep(centres, assign, ((x - centres[assign]) ** 2).sum(axis=1))
    queries = np.zeros((17, d))
    queries[:, 1] = np.concatenate([np.linspace(0.1, 1.3, 13), np.linspace(1.7, 2.0, 4)])
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 8 * d * 30)
    assert graph._block_rows(len(x)) > len(queries) and 42 <= len(x) // 4
    blocks = list(graph._searches(index, queries, 3))
    pruned = [(rows.tolist(), cols.tolist()) for rows, cols, _ in blocks if cols is not None]
    pooled = [rows.tolist() for rows, cols, _ in blocks if cols is None]
    assert pruned == [(list(range(13)), list(range(21)))]
    assert pooled == [list(range(13, 17))]
    expected = rank_bruteforce(x, queries, 3, None)
    assert index.ranks(queries, 3).tolist() == expected


@pytest.mark.parametrize("query", ["self", "perturbed"])
def test_search_blocks_cover_every_query_row_once(monkeypatch, query):
    # blocks of 20 rows split a cluster's rows, and a fifth of the perturbed
    # rows, moved far, are pooled: every row is still searched exactly once
    emb = _pruned_set()
    x = emb.vectors
    rng = np.random.default_rng(53)
    queries, k = x, 11  # the top 11 that knn(emb, 10) searches
    if query != "self":
        far = rng.random(emb.n) < 0.2
        queries = x + rng.normal(0.0, np.where(far, 100.0, 0.5)[:, None], x.shape)
        k = 10
    _set_block_rows(monkeypatch, emb.n, 20)
    searched = np.zeros(emb.n, dtype=np.int64)
    full = pooled = 0
    for rows, cols, _ in graph._searches(graph.NeighbourIndex(emb), queries, k):
        rows = np.arange(emb.n)[rows]
        np.add.at(searched, rows, 1)
        full += cols is not None and len(rows) == 20  # of a cluster's rows
        pooled += cols is None
    assert (searched == 1).all()
    assert full > 0
    assert pooled > 0 or query == "self"


def test_pruned_floor_is_the_triangle_inequality_bound():
    # clusters of 21 words on lines, radius 1, centred at 0 and 5 and, far
    # off, at (0, +-100); a query at 0.9 has the upper bound reach + rho =
    # 1.9 on its 3rd distance, so it needs only the first cluster. The
    # nearest word left out, at 4, is exactly gap - rho = (5 - 1) - 0.9
    # away, which the floor must reach up to rounding and not pass
    t = np.linspace(-1.0, 1.0, 21)
    centres = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 100.0], [0.0, -100.0]])
    assign = np.repeat(np.arange(4), 21)
    x = centres[assign] + np.outer(np.tile(t, 4), [1.0, 0.0])
    r2 = ((x - centres[assign]) ** 2).sum(axis=1)
    index = graph.NeighbourIndex(_set(x))  # 84 words: not clustered by itself
    index._keep(centres, assign, r2)
    queries = np.array([[0.9, 0.0]])
    [(rows, cols, floor)] = graph._searches(index, queries, 3)
    assert cols.tolist() == list(range(21))
    assert 3.1**2 * (1.0 - 1e-12) <= floor[0] <= ((x[21:] - queries) ** 2).sum(axis=1).min()


def test_pruned_blocks_bound_every_column_left_out():
    # the rounding-safe bounds the certification rests on: every word lies
    # within its cluster's radius, and every column a block leaves out is
    # at a direct squared distance of at least the row's floor
    emb = _pruned_set()
    x = emb.vectors
    index = graph.NeighbourIndex(emb)
    assert index.centres is not None
    centres = index.centres[index.assign]
    radius = index.radius[index.assign]
    assert (np.linalg.norm(x - centres, axis=1) <= radius).all()
    rng = np.random.default_rng(50)
    queries = np.vstack([x[::7] + rng.normal(0.0, 0.5, (len(x[::7]), 20))])
    pruned = 0
    for rows, cols, floor in graph._searches(index, queries, 10):
        if cols is None:
            continue
        out = np.setdiff1d(np.arange(emb.n), cols)
        direct = ((queries[rows, None, :] - x[out]) ** 2).sum(axis=2)
        assert (direct.min(axis=1) >= floor).all()
        pruned += len(rows)
    assert pruned > 0.9 * len(queries)


def test_search_far_from_the_origin_matches_bruteforce():
    # |q|^2 + |x|^2 rounds to a few units here, so the Gram formula cannot
    # order the candidates: the Gram/direct error bound must send rows to
    # their full rows, and those must take every column within it
    emb = _set(_offset_grid(650, seed=9))
    queries = _offset_grid(30, seed=10)
    exclude = np.arange(len(queries)) * 7
    for k in (1, 3, 10):
        for excl in (None, exclude):
            idx, dist = rank_queries(emb, queries, k, excl)
            assert idx.tolist() == rank_bruteforce(emb.vectors, queries, k, excl)
            assert np.array_equal(dist, _norms(queries, emb.vectors, idx))
        ns = knn(emb, k)
        rows = np.arange(0, emb.n, 13)
        expected = rank_bruteforce(emb.vectors, emb.vectors[rows], k, rows)
        assert ns.indices[rows].tolist() == expected


@pytest.mark.parametrize("clustered", [True, False])
def test_non_finite_queries_keep_their_lowest_indices(clustered):
    # every distance of such a row is inf or NaN: ties, broken by index
    emb = _pruned_set() if clustered else random_embeddings(300, 8, seed=1)
    queries = emb.vectors[:4].copy()
    queries[1, 3] = np.nan
    queries[2, 0] = np.inf
    with np.errstate(invalid="ignore"):
        for excl in (None, np.array([5, 0, 1, 2])):
            idx, dist = rank_queries(emb, queries, 3, excl)
            assert idx[1].tolist() == ([0, 1, 2] if excl is None else [1, 2, 3])
            assert np.isnan(dist[1]).all()
            assert idx[2].tolist() == ([0, 1, 2] if excl is None else [0, 2, 3])
            assert (dist[2] == np.inf).all()
            good = [0, 3]
            expected = rank_bruteforce(
                emb.vectors, queries[good], 3, None if excl is None else excl[good]
            )
            assert idx[good].tolist() == expected


# `NeighbourIndex.ranks` returns the indices `rank_queries` returns: rows
# whose Gram distances certify their order skip the direct distances, and the
# others (ties, duplicates, NaN) are reranked by them.


def _uncertified_rows(monkeypatch) -> list[int]:
    """The rows of every `_rerank` call: those the Gram order did not certify."""
    rows = []
    rerank = graph._rerank
    monkeypatch.setattr(
        graph, "_rerank", lambda index, q, *a: rows.append(len(q)) or rerank(index, q, *a)
    )
    return rows


def _with_copies(base: EmbeddingSet, count: int) -> tuple[EmbeddingSet, np.ndarray]:
    copies = np.linspace(0, base.n - 1, count).astype(np.int64)
    x = base.vectors.copy()
    x[copies] = x[copies[0]]
    return _set(x), copies


def _ranks_case(name: str):
    """(emb, queries, k, exclude, whether every row is certified)."""
    rng = np.random.default_rng(60)
    if name in ("clustered", "isotropic"):
        emb = _pruned_set() if name == "clustered" else random_embeddings(3000, 300, seed=31)
        near = emb.vectors[rng.choice(emb.n, 12, replace=False)]
        queries = np.vstack([near + rng.normal(0.0, 0.2, near.shape), near[:4] * 3.0])
        return emb, queries, 10, rng.integers(0, emb.n, len(queries)), True
    if name == "duplicates":
        emb, copies = _with_copies(_pruned_set(), 15)
        queries = np.vstack([emb.vectors[copies], emb.vectors[:5] + 0.1])
        return emb, queries, 10, np.concatenate([copies, np.arange(5)]), False
    if name == "grid":
        emb = _tie_grid_2400()
        queries = np.vstack([np.full((3, 3), 3.0), rng.integers(0, 10, (9, 3))])
        return emb, queries, 10, rng.integers(0, emb.n, len(queries)), False
    # k = n - 1 with exclusion: every word but the excluded one, ties included
    emb, copies = _with_copies(random_embeddings(300, 20, seed=54), 15)
    queries = np.vstack([emb.vectors[copies], rng.normal(0.0, 1.0, (5, 20))])
    return emb, queries, emb.n - 1, np.concatenate([copies, copies[:5]]), False


@pytest.mark.parametrize("name", ["clustered", "isotropic", "duplicates", "grid", "all_but_one"])
def test_ranks_equal_query_and_bruteforce(monkeypatch, name):
    emb, queries, k, exclude, certified = _ranks_case(name)
    index = graph.NeighbourIndex(emb)
    assert (index.centres is not None) == (name in ("clustered", "duplicates"))
    for excl in (None, exclude):
        top = k if excl is not None else min(k + 1, emb.n)
        uncertified = _uncertified_rows(monkeypatch)
        idx = index.ranks(queries, top, excl)
        assert (uncertified == []) == certified
        assert idx.dtype == np.int64 and idx.shape == (len(queries), top)
        assert _bits(idx) == _bits(rank_queries(emb, queries, top, excl)[0])
        assert idx.tolist() == rank_bruteforce(emb.vectors, queries, top, excl)


@pytest.mark.parametrize("clustered", [True, False])
def test_ranks_of_nan_queries_equal_query(monkeypatch, clustered):
    emb = _pruned_set() if clustered else random_embeddings(300, 8, seed=1)
    index = graph.NeighbourIndex(emb)
    queries = emb.vectors[:4] + 0.01
    queries[1, 3] = np.nan
    queries[3] = np.nan
    uncertified = _uncertified_rows(monkeypatch)
    with np.errstate(invalid="ignore"):
        for excl in (None, np.array([5, 0, 1, 3])):
            idx = index.ranks(queries, 3, excl)
            assert _bits(idx) == _bits(rank_queries(emb, queries, 3, excl)[0])
            assert idx[1].tolist() == ([0, 1, 2] if excl is None else [1, 2, 3])
            good = [0, 2]
            excl_good = None if excl is None else excl[good]
            assert idx[good].tolist() == rank_bruteforce(emb.vectors, queries[good], 3, excl_good)
    # only the NaN rows go to the direct distances
    assert uncertified and all(rows == 2 for rows in uncertified)


def test_query_computes_one_direct_distance_per_ranked_word(monkeypatch):
    emb = _pruned_set()
    queries = emb.vectors[:40] + 0.1
    pairs = []
    direct_sq = graph._direct_sq
    monkeypatch.setattr(
        graph, "_direct_sq", lambda q, x, cols: pairs.append(cols.size) or direct_sq(q, x, cols)
    )
    init = graph.NeighbourIndex.__init__

    def built(index, emb):  # the pairs of the index's own build do not count
        init(index, emb)
        pairs.clear()

    monkeypatch.setattr(graph.NeighbourIndex, "__init__", built)
    idx, dist = rank_queries(emb, queries, 10, np.arange(40))
    # the rho pass (one pair per query), then k pairs per row: no rerank
    assert pairs == [40, 400]
    assert np.array_equal(dist, _norms(queries, emb.vectors, idx))


def test_gram_order_within_the_rounding_is_reranked(monkeypatch):
    # each query has two words at distances 1 and 1 + delta, delta ~ 1e-9,
    # and every other word 1,000 away; 1e4 from the origin the Gram
    # distances round by ~1e-8, so they order such a pair by chance. A gap
    # within the certification's margin must send the row to the direct
    # distances, however the Gram values fall
    rng = np.random.default_rng(61)
    queries = 1e4 + np.stack([np.arange(50) * 1000.0, np.zeros(50)], axis=1)
    angle = rng.uniform(0.0, 2.0 * np.pi, (50, 2))
    radius = np.stack([np.ones(50), 1.0 + rng.uniform(-1e-9, 1e-9, 50)], axis=1)
    words = queries[:, None, :] + radius[..., None] * np.stack(
        [np.cos(angle), np.sin(angle)], axis=2
    )
    emb = _set(words.reshape(100, 2))
    uncertified = _uncertified_rows(monkeypatch)
    idx = graph.NeighbourIndex(emb).ranks(queries, 2)
    assert sum(uncertified) == 50
    assert idx.tolist() == rank_bruteforce(emb.vectors, queries, 2, None)


@pytest.mark.parametrize("gap, certified", [(1.5, False), (2.5, True)])
def test_a_kth_gram_distance_within_two_margins_of_the_next_is_reranked(
    monkeypatch, gap, certified
):
    # the k-th word's direct squared distance may lie one margin err above
    # its Gram distance, and the next word's one margin below its own, so a
    # row whose k-th and (k+1)-th Gram distances lie fewer than two margins
    # apart goes to the direct distances; 1e4 from the origin the Gram
    # distances round by ~1e-8, against a margin of ~1e-6
    far = np.array([[1.1e4, 1e3], [9e3, -1e3]])
    err = graph._rel(2) * (1e4 + np.hypot(*far[0])) ** 2
    emb = _set(np.vstack([[1e4 + 1.0, 0.0], [1e4, np.sqrt(1.0 + gap * err)], far]))
    uncertified = _uncertified_rows(monkeypatch)
    assert graph.NeighbourIndex(emb).ranks(np.array([[1e4, 0.0]]), 1).tolist() == [[0]]
    assert (uncertified == []) == certified
