"""Factorisation of the neighbour graph into connected components, plus the
local and global L2 sensitivities attached to them.

Each component is a *neighbourhood*: noise added to its words is calibrated
from the component's own worst neighbouring pair, so dense neighbourhoods
receive less noise than sparse ones. A singleton component has sensitivity 0
(the only neighbouring pair is the trivial one of a word with itself) and its
words are left unperturbed downstream.

`build_partition` builds the partition from the graph alone, reading its edge
array `NeighbourGraph.pairs`. The partition holds one component id per word,
ranking the components by their smallest member, and each component's local
sensitivity; the global sensitivity is derived from them. Edge lengths
are gathered in runs that fit `utility._GATHER_BYTES` (1 MiB), so no (E, d)
array is held. Hop diameters are exact up to 64 members, from uint64 reach
bitsets, and a double-sweep lower bound above, from two breadth-first
searches with one queue each.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .graph import NeighbourGraph
from .utility import _chunks, _dots

_EXACT_MEMBERS = 64  # a word's uint64 bitset holds the members it reaches
_LISTED_MEMBERS = 50  # members a component report names


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Disjoint neighbourhoods covering all word indices.

    `assignment[v]` is word v's component id; ids rank the components by
    their smallest member. `local_sensitivities[i]` is the largest Euclidean
    edge length inside component i (0 for singletons); `global_sensitivity`
    is their maximum (0 when there are no components).
    """

    assignment: np.ndarray  # (n,) int64, word index -> component id
    local_sensitivities: np.ndarray  # (k,) float64

    @property
    def k(self) -> int:
        return len(self.local_sensitivities)

    @property
    def global_sensitivity(self) -> float:
        return float(self.local_sensitivities.max()) if self.k else 0.0

    def sizes(self) -> list[int]:
        return np.bincount(self.assignment, minlength=self.k).tolist()


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


def _component_ids(graph: NeighbourGraph) -> tuple[np.ndarray, int]:
    """Each word's component id, ranking the components by their smallest
    member, and the number of components."""
    labels = _root_labels(graph.n, graph.pairs)
    roots = np.cumsum(labels == np.arange(graph.n))
    return roots[labels] - 1, int(roots[-1]) if graph.n else 0


def _member_lists(ids: np.ndarray, k: int) -> list[list[int]]:
    """The words of each component id, ascending."""
    members = np.argsort(ids, kind="stable").tolist()
    ends = np.cumsum(np.bincount(ids, minlength=k)).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def build_partition(graph: NeighbourGraph, emb: EmbeddingSet) -> ComponentPartition:
    """The connected components of the graph with their sensitivities.

    The local sensitivity of a component is the supremum of ||x - y|| over
    neighbouring pairs inside it, i.e. the maximum over its *edges* only;
    non-adjacent pairs in the same component do not count. Singletons get 0
    via the trivial self-relation.
    """
    if emb.n != graph.n:
        raise ValueError(f"graph has {graph.n} vertices but embedding set has {emb.n}")
    assignment, k = _component_ids(graph)
    i, j = graph.pairs[:, 0], graph.pairs[:, 1]
    # each length is sqrt of one BLAS dot, as np.linalg.norm takes it
    local = np.zeros(k, dtype=np.float64)
    x = emb.vectors
    for run in _chunks(len(i), 2 * 8 * emb.d):
        diff = x[i[run]]
        diff -= x[j[run]]
        np.maximum.at(local, assignment[i[run]], np.sqrt(_dots(diff, diff)))
    sizes = np.bincount(assignment, minlength=k)
    for cid in np.flatnonzero((sizes > 1) & (local == 0.0)).tolist():
        warnings.warn(
            f"component {cid} has {sizes[cid]} words but zero sensitivity "
            "(duplicate vectors); its words will receive no noise",
            stacklevel=2,
        )
    return ComponentPartition(assignment, local)


def _farthest(start: int, indptr: list[int], nbr: list[int]) -> tuple[int, int]:
    """A breadth-first search from `start`, each word's neighbours taken in
    ascending order: the first word of its deepest level in queue order, and
    that level's depth."""
    queue, seen = [start], {start}
    far, depth, end = start, 0, 1  # `end`: where the level being expanded ends
    for at, v in enumerate(queue):
        if at == end:
            far, depth, end = v, depth + 1, len(queue)
        for w in nbr[indptr[v] : indptr[v + 1]]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return far, depth


def _max_hop_diameter(partition: ComponentPartition, graph: NeighbourGraph) -> int:
    """The largest hop diameter: exact up to `_EXACT_MEMBERS` members, a
    double-sweep lower bound above."""
    n, ids = graph.n, partition.assignment
    sizes = np.bincount(ids, minlength=partition.k)
    # CSR over both directions of the pairs, each word's neighbours ascending
    src, nbr = np.concatenate([graph.pairs, graph.pairs[:, ::-1]]).T
    order = np.argsort(src * n + nbr)
    src, nbr = src[order], nbr[order]
    indptr = np.searchsorted(src, np.arange(n + 1))
    # a small component's word keeps a bitset of the members it reaches, bit
    # b for the b-th smallest, and each round ORs in its neighbours' bitsets
    members, first = np.argsort(ids, kind="stable"), np.cumsum(sizes) - sizes
    rank = np.empty(n, dtype=np.uint64)
    # (a larger component's bits wrap, and are never read)
    rank[members] = (np.arange(n) - np.repeat(first, sizes)) % 64
    reach = np.left_shift(np.uint64(1), rank)
    inner = sizes[ids[src]] <= _EXACT_MEMBERS
    into = np.flatnonzero(np.diff(src[inner], prepend=-1))
    rows, diameter = src[inner][into], 0
    while len(rows):
        grown = np.bitwise_or.reduceat(reach[nbr[inner]], into) | reach[rows]
        if np.array_equal(grown, reach[rows]):
            break
        reach[rows] = grown
        diameter += 1
    big = members[first[sizes > _EXACT_MEMBERS]].tolist()
    if big:  # a double sweep: from the smallest member, then from the farthest
        indptr, nbr = indptr.tolist(), nbr.tolist()
        for start in big:
            far = _farthest(start, indptr, nbr)[0]
            diameter = max(diameter, _farthest(far, indptr, nbr)[1])
    return diameter


def partition_report(
    partition: ComponentPartition, graph: NeighbourGraph, emb: EmbeddingSet
) -> dict:
    """JSON-ready component summary with a size histogram and, for chain
    inspection, the largest hop diameter (exact up to 64 members, a
    double-sweep lower bound beyond that)."""
    components = _member_lists(partition.assignment, partition.k)
    hist = Counter(map(len, components))
    return {
        "k": partition.k,
        "global_sensitivity": partition.global_sensitivity,
        "size_histogram": {str(s): hist[s] for s in sorted(hist)},
        "max_hop_diameter": _max_hop_diameter(partition, graph),
        "components": [
            {
                "id": cid,
                "size": len(comp),
                "local_sensitivity": float(partition.local_sensitivities[cid]),
                "members": [emb.words[v] for v in comp[:_LISTED_MEMBERS]],
            }
            for cid, comp in enumerate(components)
        ],
    }
