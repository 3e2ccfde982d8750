"""Factorisation of the neighbour graph into connected components, plus the
local and global L2 sensitivities attached to them.

Each component is a *neighbourhood*: noise added to its words is calibrated
from the component's own worst neighbouring pair, so dense neighbourhoods
receive less noise than sparse ones. A singleton component has sensitivity 0
(the only neighbouring pair is the trivial one of a word with itself) and its
words are left unperturbed downstream.

Both steps read the graph's one edge array, `NeighbourGraph.pairs` ((E, 2)
int64 rows (i, j), i < j, sorted and unique). Edge lengths are gathered in
runs of whole edges whose gathered rows fit `utility._GATHER_BYTES` (1 MiB),
so beyond the pairs and one component id per edge end, the sensitivity pass
holds no (E, d) array.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .graph import NeighbourGraph
from .utility import _chunks, _dots


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Disjoint neighbourhoods covering all word indices.

    `local_sensitivities[i]` is the largest Euclidean edge length inside
    component i (0 for singletons); `global_sensitivity` is their maximum.
    """

    components: tuple[tuple[int, ...], ...]
    assignment: np.ndarray  # (n,) int64, word index -> component id
    local_sensitivities: np.ndarray  # (k,) float64
    global_sensitivity: float

    @property
    def k(self) -> int:
        return len(self.components)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.components]


def _root_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Each vertex's smallest component member, by hooking roots.

    Every round hooks each root that shares an edge with a smaller root
    onto the smallest such root, then jumps pointers until every label is a
    root. Hooking roots, not vertices, keeps the round count low on long
    paths, where min-label propagation over vertices needs a number of
    rounds that grows with the path's length. A sort and `np.minimum.reduceat` stand in for
    `np.minimum.at`, which is slow before numpy 1.25.
    """
    lab = np.arange(n, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        lu, lv = lab[u], lab[v]
        cross = lu != lv
        if not cross.any():
            return lab
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        hi, lo = np.maximum(lu, lv), np.minimum(lu, lv)
        order = np.argsort(hi)
        hi = hi[order]
        starts = np.flatnonzero(np.r_[True, hi[1:] != hi[:-1]])
        lab[hi[starts]] = np.minimum.reduceat(lo[order], starts)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def connected_components(graph: NeighbourGraph) -> list[list[int]]:
    """Connected components of the undirected graph, canonicalised.

    Components are sorted by their smallest member and members ascend within
    each component, so the output does not depend on how components are
    labelled. Isolated vertices form singleton components.
    """
    labels = _root_labels(graph.n, graph.pairs)
    # labels are smallest members, so ascending labels are canonical order
    # and a stable sort keeps each component's members ascending
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.unique(labels, return_counts=True)[1]).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def sensitivities(
    components: list[list[int]],
    graph: NeighbourGraph,
    emb: EmbeddingSet,
) -> ComponentPartition:
    """Attach local sensitivities to a component list.

    The local sensitivity of a component is the supremum of ||x - y|| over
    neighbouring pairs inside it, i.e. the maximum over its *edges* only;
    non-adjacent pairs in the same component do not count. Singletons get 0
    via the trivial self-relation.
    """
    n = graph.n
    if emb.n != n:
        raise ValueError(f"graph has {n} vertices but embedding set has {emb.n}")
    assignment = np.full(n, -1, dtype=np.int64)
    for cid, comp in enumerate(components):
        for v in comp:
            if not 0 <= v < n:
                raise ValueError(f"component member {v} out of range")
            if assignment[v] != -1:
                raise ValueError(f"word index {v} appears in two components")
            assignment[v] = cid
    if np.any(assignment < 0):
        raise ValueError("components do not cover every word index")
    i, j = graph.pairs[:, 0], graph.pairs[:, 1]
    ci, cj = assignment[i], assignment[j]
    crossing = np.flatnonzero(ci != cj)
    if len(crossing):
        e = crossing[0]  # the first crossing edge in (i, j) order
        raise ValueError(
            f"edge ({i[e]}, {j[e]}) crosses components {ci[e]} and {cj[e]}; "
            "partition does not belong to this graph"
        )
    # each length is sqrt of one BLAS dot, as np.linalg.norm takes it
    local = np.zeros(len(components), dtype=np.float64)
    x = emb.vectors
    for run in _chunks(len(i), 2 * 8 * emb.d):
        diff = x[i[run]]
        diff -= x[j[run]]
        np.maximum.at(local, ci[run], np.sqrt(_dots(diff, diff)))
    for cid, comp in enumerate(components):
        if len(comp) > 1 and local[cid] == 0.0:
            warnings.warn(
                f"component {cid} has {len(comp)} words but zero sensitivity "
                "(duplicate vectors); its words will receive no noise",
                stacklevel=2,
            )
    global_sensitivity = float(local.max()) if len(components) else 0.0
    return ComponentPartition(
        components=tuple(tuple(c) for c in components),
        assignment=assignment,
        local_sensitivities=local,
        global_sensitivity=global_sensitivity,
    )


def build_partition(graph: NeighbourGraph, emb: EmbeddingSet) -> ComponentPartition:
    """connected_components followed by sensitivities."""
    return sensitivities(connected_components(graph), graph, emb)


def _hop_diameter(members: tuple[int, ...], adj: list[list[int]]) -> int:
    """Exact hop diameter for small components, double-sweep lower bound above."""

    def bfs_far(src: int) -> tuple[int, int]:
        dist = {src: 0}
        queue = deque([src])
        far, far_d = src, 0
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if dist[w] > far_d:
                        far, far_d = w, dist[w]
                    queue.append(w)
        return far, far_d

    if len(members) <= 64:
        return max(bfs_far(v)[1] for v in members)
    far, _ = bfs_far(members[0])
    return bfs_far(far)[1]


def partition_report(
    partition: ComponentPartition,
    graph: NeighbourGraph,
    emb: EmbeddingSet,
    max_listed_members: int = 50,
) -> dict:
    """JSON-ready component summary with a size histogram and, for chain
    inspection, the largest hop diameter (exact up to 64 members, a
    double-sweep lower bound beyond that)."""
    adj = graph.adjacency()
    sizes = partition.sizes()
    hist: dict[int, int] = {}
    for s in sizes:
        hist[s] = hist.get(s, 0) + 1
    max_diam = 0
    for comp in partition.components:
        if len(comp) > 1:
            max_diam = max(max_diam, _hop_diameter(comp, adj))
    return {
        "k": partition.k,
        "global_sensitivity": partition.global_sensitivity,
        "size_histogram": {str(s): hist[s] for s in sorted(hist)},
        "max_hop_diameter": max_diam,
        "components": [
            {
                "id": cid,
                "size": len(comp),
                "local_sensitivity": float(partition.local_sensitivities[cid]),
                "members": [emb.words[v] for v in comp[:max_listed_members]],
            }
            for cid, comp in enumerate(partition.components)
        ],
    }
