"""The array-backed graph against the set-based code it replaced.

`build_graph`'s sorted pairs, `connected_components`' lists and the local
sensitivities must equal the set-of-tuples edges, the per-vertex grouping
and the per-edge `np.linalg.norm` loop frozen in `tests/oracles.py`, exactly.
The inputs mix the cases where a vectorised edge length could drift from
the per-edge one: clustered sets at m 2 and 10, duplicate vectors (zero
lengths), magnitudes whose squared lengths turn subnormal or overflow,
d = 1, 4 and 300, an edgeless graph, and runs of one edge each.
"""

import numpy as np
import pytest

import nadp.utility as utility
from nadp.components import connected_components, sensitivities
from nadp.embeddings import EmbeddingSet
from nadp.graph import build_graph, knn

from oracles import build_graph_edge_set, components_by_append, sensitivities_per_edge
from synth import clustered_embeddings

# the per-edge reference warns where huge rows overflow their dots
pytestmark = pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")


def _check(emb: EmbeddingSet, m: int, tau: float, neighbour_sets=None):
    """Build the graph and partition both ways and require equality."""
    ns = neighbour_sets if neighbour_sets is not None else knn(emb, m)
    graph = build_graph(emb, m, tau, neighbour_sets=ns)
    ref_edges = build_graph_edge_set(ns.indices, tau)
    assert graph.edges == ref_edges
    assert graph.pairs.tolist() == sorted(list(e) for e in ref_edges)
    components = connected_components(graph)
    assert components == components_by_append(emb.n, ref_edges)
    part = sensitivities(components, graph, emb)
    ref = sensitivities_per_edge(components, ref_edges, emb.vectors)
    assert np.array_equal(part.local_sensitivities, ref)
    assert part.global_sensitivity == float(ref.max())
    return graph, part


@pytest.mark.parametrize("d", [1, 4, 300])
@pytest.mark.parametrize("m", [2, 10])
@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5])
def test_clustered_sets_equal_the_set_based_graph(d, m, tau):
    emb = clustered_embeddings(300, d, 12, seed=d)
    graph, part = _check(emb, m, tau)
    if tau < (m - 1) / (m + 1):
        assert len(graph.pairs) > 0 and part.global_sensitivity > 0.0


@pytest.mark.parametrize("d", [1, 4, 300])
def test_duplicate_vectors_give_zero_lengths_and_the_warning(d):
    rng = np.random.default_rng([5, d])
    base = rng.normal(0.0, 1.0, (40, d))
    # three copies of a far-off vector form a component of zero sensitivity
    far = np.full((3, d), 100.0)
    vecs = np.vstack([base, np.repeat(base[:4], 2, axis=0), far])
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(len(vecs))), vecs)
    with pytest.warns(UserWarning, match="zero sensitivity"):
        _, part = _check(emb, 2, 0.0)
    assert (part.local_sensitivities == 0.0).sum() > part.sizes().count(1)


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e150, 1e160])
@pytest.mark.parametrize("d", [1, 4, 300])
def test_extreme_magnitudes_equal_the_per_edge_norm(scale, d):
    # squared lengths lie near the ends of the normal range at 1e-150 and
    # 1e150, are subnormal at 1e-160 and overflow to inf at 1e160; the
    # neighbour sets come from the unscaled vectors, whose order they share
    emb = clustered_embeddings(120, d, 6, seed=3)
    scaled = EmbeddingSet(emb.words, scale * emb.vectors)
    _, part = _check(scaled, 3, 0.0, neighbour_sets=knn(emb, 3))
    assert np.isinf(part.local_sensitivities).any() == (scale == 1e160)


def test_edgeless_graph():
    emb = clustered_embeddings(50, 4, 5, seed=2)
    graph, part = _check(emb, 2, 1.0)
    assert graph.pairs.shape == (0, 2) and graph.pairs.dtype == np.int64
    assert part.k == emb.n
    assert part.local_sensitivities.tolist() == [0.0] * emb.n


@pytest.mark.parametrize("d", [1, 300])
def test_one_edge_per_run(monkeypatch, d):
    monkeypatch.setattr(utility, "_GATHER_BYTES", 1)
    emb = clustered_embeddings(200, d, 8, seed=9)
    graph, _ = _check(emb, 10, 0.1)
    assert len(graph.pairs) > 1
