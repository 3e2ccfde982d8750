"""The array partition against the list, set and BFS code it replaced.

`partition_report`'s largest hop diameter must equal the dict-and-deque
`hop_diameter` frozen in `tests/oracles.py`: exact up to 64 members, a double
sweep from the smallest member beyond. The graphs are paths in shuffled
order, stars, components of exactly 64 and 65 members, several components
above 64 at once, edgeless graphs, and odd cycles built so that the double
sweep's answer depends on which word of the deepest level it restarts from.
`build_partition` must equal the member-by-member partition of the graph's
components: the same ids, lengths and warnings.
"""

import warnings

import numpy as np
import pytest

from nadp.components import build_partition, partition_report
from nadp.embeddings import EmbeddingSet
from nadp.graph import NeighbourGraph, build_graph

from oracles import components_by_append, max_hop_diameter, sensitivities_by_member
from synth import clustered_embeddings


def _graph(n, edges) -> NeighbourGraph:
    pairs = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    return NeighbourGraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), 2, 0.0)


def _shuffled(n, edges, seed):
    """The edges under a random relabelling of 0..n-1."""
    label = np.random.default_rng(seed).permutation(n).tolist()
    return [(label[a], label[b]) for a, b in edges]


def _diameter(graph) -> int:
    vectors = np.random.default_rng(graph.n).normal(size=(graph.n, 2))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(graph.n)), vectors)
    report = partition_report(build_partition(graph, emb), graph, emb)
    return report["max_hop_diameter"]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _star(n):
    return [(0, i) for i in range(1, n)]


def _connected(n, extra, seed):
    """A random tree on n words plus `extra` random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    return edges + [tuple(e) for e in rng.integers(0, n, (extra, 2)).tolist()]


def _disjoint(*parts):
    """The union of edge lists on consecutive blocks of words."""
    edges, n = [], 0
    for size, part in parts:
        edges += [(a + n, b + n) for a, b in part]
        n += size
    return n, edges


def _odd_cycle(half, a_side_first, b_below_a, pendants):
    """A cycle of 2 half + 1 words through word 0 with pendant words.

    From 0 the cycle runs A_1 .. A_{half-1}, a, b, B_{half-1} .. B_1 back to
    0, so a and b are the deepest level of a search from 0, and a pendant
    hangs on each B_p of `pendants`. With the A side first in queue order, a
    is the first of that level; a pendant on B_1 puts it one hop further from
    a than from b, so the double sweep finds half + 1 from a and half from b.
    Labels are random, save that 0 is smallest and the two orders asked for
    hold.
    """
    rng = np.random.default_rng(half)
    count = 2 * half + 1 + len(pendants)
    label = [0] + (1 + rng.permutation(count - 1)).tolist()
    a, b, a1, b1 = half, half + 1, 1, 2 * half  # cycle positions
    orders = ((a1, b1) if a_side_first else (b1, a1), (b, a) if b_below_a else (a, b))
    for lo, hi in orders:
        if label[lo] > label[hi]:
            label[lo], label[hi] = label[hi], label[lo]
    cycle = [(i, (i + 1) % (2 * half + 1)) for i in range(2 * half + 1)]
    hang = [(2 * half + 1 - p, 2 * half + 1 + k) for k, p in enumerate(pendants)]
    return count, [(label[u], label[v]) for u, v in cycle + hang]


@pytest.mark.parametrize("n", [2, 3, 10, 63, 64, 65, 130, 500, 100_000])
def test_shuffled_paths(n):
    graph = _graph(n, _shuffled(n, _path(n), seed=n))
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs) == n - 1


@pytest.mark.parametrize("n", [3, 10, 64, 65, 100])
def test_stars(n):
    graph = _graph(n, _shuffled(n, _star(n), seed=n))
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs) == 2


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("seed", range(6))
def test_components_of_64_and_65_members(n, seed):
    graph = _graph(n, _shuffled(n, _connected(n, seed, seed), seed))
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs)


@pytest.mark.parametrize("seed", range(6))
def test_several_components_above_64_at_once(seed):
    rng = np.random.default_rng(seed)
    parts = [(s, _connected(s, int(rng.integers(0, 8)), seed + s))
             for s in (70, 90, 2, 130, 5, 65, 1, 64, 200)]
    parts.append((120, _path(120)))
    n, edges = _disjoint(*parts)
    graph = _graph(n, _shuffled(n, edges, seed))
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs)


@pytest.mark.parametrize("n", [1, 5])
def test_edgeless_graph(n):
    assert _diameter(_graph(n, [])) == max_hop_diameter(n, _graph(n, []).pairs) == 0


@pytest.mark.parametrize(
    "half, a_side_first, b_below_a, pendants, expected",
    [
        # 64 members: exact, one hop above the double sweep from b
        (31, False, False, [1], 32),
        # 65 members: the double sweep from b
        (31, False, False, [1, 2], 31),
        # the sweep restarts from a, the first of the deepest level in queue
        # order, although b has the smaller index
        (40, True, True, [1], 41),
    ],
)
def test_double_sweep_depends_on_the_deepest_word(
    half, a_side_first, b_below_a, pendants, expected
):
    n, edges = _odd_cycle(half, a_side_first, b_below_a, pendants)
    graph = _graph(n, edges)
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs) == expected


@pytest.mark.parametrize("seed", range(20))
def test_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    edges = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2)).tolist()
    graph = _graph(n, edges)
    assert _diameter(graph) == max_hop_diameter(graph.n, graph.pairs)


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("copies", [False, True])
def test_build_partition_equals_the_member_by_member_partition(m, copies):
    emb = clustered_embeddings(120, 3, 6, seed=m)
    # two far-off groups of m + 1 equal vectors are components of zero
    # sensitivity, each with its warning
    far = np.repeat([[100.0] * 3, [-100.0] * 3], (m + 1) * copies, axis=0)
    vecs = np.vstack([far[: m + 1], emb.vectors, far[m + 1 :]])
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(len(vecs))), vecs)
    graph = build_graph(emb, m, 0.1)
    components = components_by_append(graph.n, map(tuple, graph.pairs.tolist()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = build_partition(graph, emb)
        ref = sensitivities_by_member(components, graph.n, graph.pairs, emb.vectors)
    texts = [str(w.message) for w in caught]
    half = len(texts) // 2
    assert texts[:half] == texts[half:]
    assert half == 2 * copies
    assert np.array_equal(part.assignment, ref[0])
    assert np.array_equal(part.local_sensitivities, ref[1])
    assert part.k == len(components)
    assert part.sizes() == [len(c) for c in components]
