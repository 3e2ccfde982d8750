import numpy as np
import pytest

from nadp import graph
from nadp.embeddings import EmbeddingSet
from nadp.graph import (
    _TIE_SLACK,
    NeighbourGraph,
    build_graph,
    jaccard,
    knn,
    rank_queries,
)

from oracles import graph_edges_bruteforce, knn_bruteforce, rank_bruteforce
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
        assert ns.row_set(i) == set(range(6)) - {i}


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
        assert i not in ns.row_set(i)
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
    # share one vector, a duplicate group larger than k + _TIE_SLACK
    rng = np.random.default_rng(4)
    pts = np.vstack([np.full((40, 3), 1.0), rng.integers(0, 3, (60, 3))])
    assert 40 > 10 + _TIE_SLACK
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


def test_knn_block_size_independent():
    emb = random_embeddings(50, 6, seed=9)
    a = knn(emb, 3, block_size=7)
    b = knn(emb, 3, block_size=1024)
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
    assert graph.adjacency() == [[], [], []]


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


@pytest.mark.parametrize("block_size", [7, 1024])
@pytest.mark.parametrize("with_exclude", [True, False])
def test_rank_queries_external_matches_bruteforce_with_heavy_ties(
    block_size, with_exclude
):
    emb = _heavy_tie_grid()
    rng = np.random.default_rng(5)
    # half the queries sit on the duplicate group, half on grid points that
    # are not rows of the set
    queries = np.vstack([np.full((6, 3), 1.0), rng.integers(3, 5, (6, 3))])
    exclude = None
    if with_exclude:
        # the queries on the duplicate group each drop one of its members
        exclude = np.concatenate([np.arange(6), rng.integers(0, emb.n, 6)])
    for k in (1, 3, 10, 45):
        idx, dist = rank_queries(emb, queries, k, exclude, block_size)
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

    def results(block_size=None):
        out = []
        for k in (1, 3, 10, 45):
            out += _bits(*rank_queries(emb, queries, k, exclude, block_size))
            ns = knn(emb, k, block_size=block_size)
            out += _bits(ns.indices, ns.distances)
        return out

    default = results()
    assert results(7) == default
    assert results(1024) == default
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


# The tests below reach the grouped selection of `_block_topk`: n // _GROUP
# must exceed k + _TIE_SLACK there, which no fixture above does.


def _tie_grid_2400() -> EmbeddingSet:
    # integer grid, so Gram and direct distances agree exactly; 80 rows
    # share one vector, spread over 80 different groups of _GROUP columns
    rng = np.random.default_rng(41)
    pts = rng.integers(0, 8, (2400, 3)).astype(float)
    pts[np.arange(80) * 29] = [3.0, 3.0, 3.0]
    return EmbeddingSet(tuple(f"w{i}" for i in range(len(pts))), pts)


def _grouped(emb: EmbeddingSet, k: int) -> bool:
    return emb.n // graph._GROUP > k + _TIE_SLACK


def _count_fallbacks(monkeypatch) -> list[int]:
    rows = []
    row_topk = graph._row_topk
    monkeypatch.setattr(
        graph, "_row_topk", lambda d2, k: rows.append(k) or row_topk(d2, k)
    )
    return rows


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
        assert _grouped(emb, k) and 80 > k + _TIE_SLACK
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


def test_uncertified_row_falls_back_to_its_full_row(monkeypatch):
    # a query on the 80-member duplicate group ties at its k-th distance
    # with more columns than it has candidates
    emb = _tie_grid_2400()
    queries = np.array([[3.0, 3.0, 3.0], [0.5, 7.5, 0.5]])
    fallbacks = _count_fallbacks(monkeypatch)
    idx, dist = rank_queries(emb, queries, 10)
    assert len(fallbacks) >= 1
    assert idx.tolist() == rank_bruteforce(emb.vectors, queries, 10, None)
    assert idx[0].tolist() == (np.arange(10) * 29).tolist()
    assert np.array_equal(dist[0], np.zeros(10))


def test_generic_rows_are_certified(monkeypatch):
    # without exact ties every row is certified from its gathered columns
    emb = random_embeddings(2000, 8, seed=45)
    fallbacks = _count_fallbacks(monkeypatch)
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
