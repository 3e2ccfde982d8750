import numpy as np
import pytest

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
from synth import random_embeddings, two_far_clusters


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
