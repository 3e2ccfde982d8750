import numpy as np
import pytest
from scipy.sparse import coo_matrix, csgraph

from nadp.components import (
    build_partition,
    connected_components,
    partition_report,
    sensitivities,
)
from nadp.embeddings import EmbeddingSet
from nadp.graph import NeighbourGraph, build_graph

from oracles import components_dfs, components_frontier
from synth import random_embeddings


def _graph(n, edges, m=2, tau=0.0) -> NeighbourGraph:
    pairs = sorted({tuple(sorted(e)) for e in edges})
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return NeighbourGraph(n=n, pairs=pairs, m=m, tau=tau)


def test_triangle_single_component():
    graph = _graph(3, [(0, 1), (1, 2), (0, 2)])
    assert connected_components(graph) == [[0, 1, 2]]


def test_disjoint_edges_two_components():
    graph = _graph(4, [(0, 1), (2, 3)])
    assert connected_components(graph) == [[0, 1], [2, 3]]


def test_isolated_vertices_are_singletons():
    graph = _graph(5, [(1, 3)])
    assert connected_components(graph) == [[0], [1, 3], [2], [4]]


@pytest.mark.parametrize("seed", range(10))
def test_components_match_dfs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = int(rng.integers(0, min(len(possible), 3 * n)))
    chosen = [possible[i] for i in rng.choice(len(possible), take, replace=False)]
    graph = _graph(n, chosen)
    assert connected_components(graph) == components_dfs(n, set(chosen))


def test_components_independent_of_start_choice():
    # the frontier-expansion formulation picks random starting words; after
    # canonicalisation every choice gives the same partition
    rng = np.random.default_rng(7)
    n = 60
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, (80, 2)) if a < b}
    graph = _graph(n, edges)
    expected = connected_components(graph)
    for seed in range(5):
        assert components_frontier(n, edges, np.random.default_rng(seed)) == expected


def _scipy_partition(n, edges) -> list[list[int]]:
    """`csgraph.connected_components`, canonicalised as the library does."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=False)
    members: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(v)
    return sorted(members.values(), key=lambda c: c[0])


@pytest.mark.parametrize("edges_per_vertex", [0.1, 0.5, 1.0, 2.0, 8.0])
def test_components_match_scipy_on_random_graphs(edges_per_vertex):
    rng = np.random.default_rng(int(10 * edges_per_vertex))
    n = 5000
    pairs = rng.integers(0, n, (int(edges_per_vertex * n), 2))
    edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}
    assert connected_components(_graph(n, edges)) == _scipy_partition(n, list(edges))


@pytest.mark.parametrize("n", [1, 7])
def test_components_match_scipy_without_edges(n):
    assert connected_components(_graph(n, [])) == _scipy_partition(n, [])


def test_components_match_scipy_on_a_long_shuffled_path():
    # one component 100k hops across: min-label propagation over vertices
    # needs a number of rounds that grows with that diameter
    n = 100_000
    order = np.random.default_rng(3).permutation(n)
    edges = list(zip(order[:-1].tolist(), order[1:].tolist()))
    got = connected_components(_graph(n, edges))
    assert got == _scipy_partition(n, edges) == [list(range(n))]


def test_sensitivity_singleton_is_zero():
    emb = EmbeddingSet(("a", "b"), np.array([[0.0], [3.0]]))
    graph = _graph(2, [])
    part = sensitivities([[0], [1]], graph, emb)
    assert part.local_sensitivities.tolist() == [0.0, 0.0]
    assert part.global_sensitivity == 0.0


def test_sensitivity_single_edge():
    emb = EmbeddingSet(("a", "b"), np.array([[0.0], [3.0]]))
    graph = _graph(2, [(0, 1)])
    part = sensitivities([[0, 1]], graph, emb)
    assert part.local_sensitivities.tolist() == [3.0]


def test_sensitivity_path_uses_edges_only():
    # sup runs over neighbouring pairs: the 0-2 distance (3.0) is not an
    # edge, so it must not inflate the component sensitivity
    emb = EmbeddingSet(("a", "b", "c"), np.array([[0.0], [1.0], [3.0]]))
    graph = _graph(3, [(0, 1), (1, 2)])
    part = sensitivities([[0, 1, 2]], graph, emb)
    assert part.local_sensitivities.tolist() == [2.0]
    assert part.global_sensitivity == 2.0


def test_sensitivity_mismatched_partition_rejected():
    emb = EmbeddingSet(("a", "b", "c"), np.array([[0.0], [1.0], [2.0]]))
    graph = _graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="cover"):
        sensitivities([[0, 1]], graph, emb)
    with pytest.raises(ValueError, match="two components"):
        sensitivities([[0, 1], [1, 2]], graph, emb)
    with pytest.raises(ValueError, match="crosses"):
        sensitivities([[0], [1], [2]], graph, emb)
    with pytest.raises(ValueError, match="vertices"):
        sensitivities([[0, 1]], graph, EmbeddingSet(("a", "b"), np.eye(2)))


def test_sensitivity_names_the_first_crossing_edge():
    # both edges cross; the message names the first in (i, j) order
    emb = EmbeddingSet(("a", "b", "c", "d"), np.arange(4.0)[:, None])
    graph = _graph(4, [(1, 2), (0, 3)])
    with pytest.raises(ValueError) as err:
        sensitivities([[0, 1], [2, 3]], graph, emb)
    assert str(err.value) == (
        "edge (0, 3) crosses components 0 and 1; "
        "partition does not belong to this graph"
    )


def test_zero_sensitivity_multiword_component_warns():
    emb = EmbeddingSet(("a", "b"), np.array([[1.0], [1.0]]))
    graph = _graph(2, [(0, 1)])
    with pytest.warns(UserWarning, match="zero sensitivity"):
        part = sensitivities([[0, 1]], graph, emb)
    assert part.local_sensitivities.tolist() == [0.0]


def test_partition_invariants_on_random_graphs():
    emb = random_embeddings(80, 6, seed=3)
    graph = build_graph(emb, m=3, tau=0.1)
    part = build_partition(graph, emb)
    # disjoint cover
    seen = sorted(v for comp in part.components for v in comp)
    assert seen == list(range(emb.n))
    # every edge is internal and realises <= the local sensitivity
    for i, j in graph.edges:
        assert part.assignment[i] == part.assignment[j]
        length = float(np.linalg.norm(emb.vectors[i] - emb.vectors[j]))
        assert length <= part.local_sensitivities[part.assignment[i]] + 1e-12
    # global = max local = max edge length
    assert part.global_sensitivity == part.local_sensitivities.max()
    max_edge = max(
        float(np.linalg.norm(emb.vectors[i] - emb.vectors[j]))
        for i, j in graph.edges
    )
    assert part.global_sensitivity == pytest.approx(max_edge, abs=0.0)


def test_partition_invariant_under_relabelling():
    emb = random_embeddings(40, 5, seed=5)
    graph = build_graph(emb, m=2, tau=0.1)
    part = build_partition(graph, emb)
    rng = np.random.default_rng(1)
    perm = rng.permutation(emb.n)
    inverse = np.argsort(perm)
    permuted_emb = EmbeddingSet(tuple(emb.words[p] for p in perm), emb.vectors[perm])
    permuted_graph = build_graph(permuted_emb, m=2, tau=0.1)
    permuted_part = build_partition(permuted_graph, permuted_emb)
    expected = sorted(
        sorted(int(inverse[v]) for v in comp) for comp in part.components
    )
    got = sorted(sorted(comp) for comp in permuted_part.components)
    assert got == expected
    assert np.isclose(
        permuted_part.global_sensitivity, part.global_sensitivity
    )


def test_partition_report_contents():
    emb = random_embeddings(30, 4, seed=9)
    graph = build_graph(emb, m=2, tau=0.0)
    part = build_partition(graph, emb)
    report = partition_report(part, graph, emb)
    assert report["k"] == part.k
    assert sum(
        int(count) * int(size) for size, count in report["size_histogram"].items()
    ) == emb.n
    assert report["max_hop_diameter"] >= 1
    assert len(report["components"]) == part.k
