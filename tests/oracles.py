"""Independent brute-force reference implementations.

Everything here is deliberately written from the definitions, without
touching the library's code paths: quadrature instead of erfc, full
per-pair distance sorts instead of blocked matrices, explicit rank
arithmetic instead of scipy. Tests compare the library against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def phi_quadrature(t: float) -> float:
    """Gaussian CDF by adaptive quadrature of the density integral."""
    if t <= 0.0:
        val, _ = quad(
            lambda y: math.exp(-0.5 * y * y), -np.inf, t,
            epsabs=1e-300, epsrel=1e-13, limit=500,
        )
        return _INV_SQRT_2PI * val
    val, _ = quad(
        lambda y: math.exp(-0.5 * y * y), t, np.inf,
        epsabs=1e-300, epsrel=1e-13, limit=500,
    )
    return 1.0 - _INV_SQRT_2PI * val


def g_quadrature(u: float, epsilon: float) -> float:
    """DP condition function evaluated with the quadrature CDF."""
    half = 1.0 / (2.0 * u)
    return phi_quadrature(half - epsilon * u) - math.exp(epsilon) * phi_quadrature(
        -half - epsilon * u
    )


def solve_u_quadrature(epsilon: float, delta: float, tol: float = 1e-12) -> float:
    """Minimal u with g(u) <= delta, bisecting the quadrature-based g."""
    lo = hi = 1.0
    if g_quadrature(1.0, epsilon) <= delta:
        while g_quadrature(lo, epsilon) <= delta:
            lo *= 0.5
        hi = lo * 2.0
    else:
        while g_quadrature(hi, epsilon) > delta:
            hi *= 2.0
        lo = hi * 0.5
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if g_quadrature(mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def knn_bruteforce(vectors: np.ndarray, m: int) -> list[list[int]]:
    """Per word: all other words sorted by (Euclidean distance, index)."""
    n = vectors.shape[0]
    k = min(m, n - 1)
    out = []
    for i in range(n):
        pairs = []
        for j in range(n):
            if j == i:
                continue
            pairs.append((float(np.linalg.norm(vectors[i] - vectors[j])), j))
        pairs.sort()
        out.append([j for _, j in pairs[:k]])
    return out


def rank_bruteforce(
    vectors: np.ndarray,
    query: np.ndarray,
    k: int,
    exclude: np.ndarray | None,
) -> list[list[int]]:
    """Per query row: the words sorted by (Euclidean distance, index),
    without exclude[q] when given, cut to the first k."""
    out = []
    for q in range(query.shape[0]):
        pairs = []
        for j in range(vectors.shape[0]):
            if exclude is not None and j == exclude[q]:
                continue
            pairs.append((float(np.linalg.norm(query[q] - vectors[j])), j))
        pairs.sort()
        out.append([j for _, j in pairs[:k]])
    return out


def graph_edges_bruteforce(
    vectors: np.ndarray, m: int, tau: float
) -> set[tuple[int, int]]:
    """Evaluate both neighbouring conditions on every unordered pair."""
    sets = [set(s) for s in knn_bruteforce(vectors, m)]
    n = vectors.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if j not in sets[i] and i not in sets[j]:
                continue
            union = sets[i] | sets[j]
            if len(sets[i] & sets[j]) / len(union) >= tau:
                edges.add((i, j))
    return edges


def components_dfs(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Depth-first-search connected components, canonicalised."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def components_frontier(
    n: int, edges: set[tuple[int, int]], rng: np.random.Generator
) -> list[list[int]]:
    """Iterative frontier expansion from a randomly chosen unvisited word:
    start a neighbourhood, repeatedly absorb everything related to it until
    the frontier empties, repeat. The random choice only permutes the
    result, which canonicalisation removes."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    remaining = set(range(n))
    comps = []
    while remaining:
        x = int(rng.choice(sorted(remaining)))
        comp = {x}
        frontier = set(adj[x]) - comp
        comp |= frontier
        while frontier:
            frontier = {
                w for v in comp for w in adj[v]
            } - comp
            comp |= frontier
        comps.append(sorted(comp))
        remaining -= comp
    comps.sort(key=lambda c: c[0])
    return comps


def rank_average(values) -> list[float]:
    """1-based ranks with ties sharing the average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def pearson_bruteforce(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def spearman_bruteforce(x, y) -> float:
    """Average ranks, then Pearson on the ranks."""
    return pearson_bruteforce(rank_average(x), rank_average(y))


def odd_man_bruteforce(vectors: dict[str, np.ndarray], tokens) -> str:
    """Exhaustive exclusion scan, first token wins ties."""

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    best, best_score = None, -math.inf
    for excluded in tokens:
        rest = [vectors[t] for t in tokens if t is not excluded]
        sims = []
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                sims.append(cos(rest[i], rest[j]))
        score = sum(sims) / len(sims)
        if score > best_score:
            best, best_score = excluded, score
    return best


def prediction_probability_bruteforce(
    vectors: np.ndarray, perturbed: np.ndarray, idx: int, m: int
) -> float:
    """Full distance sort and set algebra, the word excluded on both sides."""
    n = vectors.shape[0]
    k = min(m, n - 1)

    def top(query):
        pairs = sorted(
            (float(np.linalg.norm(query - vectors[j])), j)
            for j in range(n)
            if j != idx
        )
        return {j for _, j in pairs[:k]}

    a = top(vectors[idx])
    b = top(np.asarray(perturbed, dtype=np.float64))
    return len(a & b) / len(a | b)


def skewness_formula(values) -> float:
    """The adjusted third-moment formula, written out longhand."""
    n = len(values)
    mean = sum(values) / n
    s = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    if s == 0.0:
        return 0.0
    return n / ((n - 1) * (n - 2)) * sum(((v - mean) / s) ** 3 for v in values)


# The per-item utility definitions, frozen as they were before the tasks
# were batched: one cosine per pair from np.linalg.norm and np.dot, one
# np.mean per sentence and per odd-man drop. The batched library must
# reproduce them bit for bit. The correlations are the library's own, which
# tests compare with scipy separately.


def cosine_per_pair(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def word_similarity_per_pair(emb, data):
    from nadp.utility import WordSimilarityResult, spearman

    sims, ratings = [], []
    for w1, w2, rating in data.pairs:
        if w1 in emb and w2 in emb:
            sims.append(cosine_per_pair(emb.vector(w1), emb.vector(w2)))
            ratings.append(rating)
    if len(sims) < 2:
        raise ValueError(
            f"need at least 2 scorable pairs, got {len(sims)} of {len(data.pairs)}"
        )
    rho = spearman(sims, ratings)
    return WordSimilarityResult(
        spearman=rho, scorable=len(sims), total=len(data.pairs)
    )


def sentence_centroid_per_sentence(emb, tokens):
    vecs = [emb.vector(t) for t in tokens if t in emb]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


def sts_per_pair(emb, data):
    from nadp.utility import STSResult, pearson, spearman

    sims, ratings, dropped = [], [], 0
    for s1, s2, rating in data.pairs:
        c1 = sentence_centroid_per_sentence(emb, s1)
        c2 = sentence_centroid_per_sentence(emb, s2)
        if c1 is None or c2 is None:
            dropped += 1
            continue
        sims.append(cosine_per_pair(c1, c2))
        ratings.append(rating)
    if len(sims) < 2:
        raise ValueError(
            f"need at least 2 scorable pairs, got {len(sims)} of {len(data.pairs)}"
        )
    rho = spearman(sims, ratings)
    r = pearson(sims, ratings)
    prod = rho * r
    combined = math.sqrt(prod) if prod >= 0.0 else float("nan")
    return STSResult(
        spearman=rho,
        pearson=r,
        combined=combined,
        scorable=len(sims),
        dropped=dropped,
        total=len(data.pairs),
    )


def first_best_scan(scores) -> tuple[int, bool]:
    """The odd-man pick: the first score strictly above the best so far,
    starting from -inf, and whether a later score equals it."""
    best_idx, best_score, tie = 0, -math.inf, False
    for drop, score in enumerate(scores):
        if score > best_score:
            best_idx, best_score, tie = drop, score, False
        elif score == best_score:
            tie = True
    return best_idx, tie


def odd_man_out_per_drop(emb, tokens) -> tuple[str, bool]:
    if len(tokens) < 3:
        raise ValueError(f"need at least 3 tokens, got {len(tokens)}")
    missing = [t for t in tokens if t not in emb]
    if missing:
        raise KeyError(f"tokens not in vocabulary: {missing}")
    vecs = [emb.vector(t) for t in tokens]
    n = len(vecs)
    cos = {
        (i, j): cosine_per_pair(vecs[i], vecs[j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    scores = [
        float(np.mean([c for (i, j), c in cos.items() if drop not in (i, j)]))
        for drop in range(n)
    ]
    best_idx, tie = first_best_scan(scores)
    return tokens[best_idx], tie


def odd_man_per_instance(emb, data):
    from nadp.utility import OddManResult

    correct = evaluated = skipped = 0
    for tokens, gold in data.instances:
        if any(t not in emb for t in tokens):
            skipped += 1
            continue
        predicted, _ = odd_man_out_per_drop(emb, tokens)
        evaluated += 1
        if predicted == gold:
            correct += 1
    if evaluated == 0:
        raise ValueError("no fully in-vocabulary instances to evaluate")
    return OddManResult(
        accuracy=correct / evaluated,
        correct=correct,
        evaluated=evaluated,
        skipped=skipped,
    )


# The set-based graph code, frozen as it was before the graph became one
# sorted (E, 2) edge array: edges collected into a Python set of tuples,
# components grouped by a per-vertex append loop and a sort, and each local
# sensitivity a running maximum of one np.linalg.norm per edge. The array
# code must reproduce them exactly. Root labelling is the library's own,
# which tests compare with scipy and a DFS separately.


def build_graph_edge_set(
    indices: np.ndarray, tau: float
) -> frozenset[tuple[int, int]]:
    """The edges of the top-k rows `indices` at threshold tau: each word
    paired with each of its neighbours, kept when the two rows' Jaccard
    similarity reaches tau, as (min, max) tuples in a set."""
    k = indices.shape[1]
    edges: set[tuple[int, int]] = set()
    for column in indices.T:
        inter = (indices[:, :, None] == indices[column][:, None, :]).sum(axis=(1, 2))
        i = np.flatnonzero(inter / (2 * k - inter) >= tau)
        j = column[i]
        edges.update(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    return frozenset(edges)


def components_by_append(n: int, edges) -> list[list[int]]:
    """Root labels grouped by one append per vertex, then sorted by each
    component's smallest member."""
    from nadp.components import _root_labels

    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    roots, labels = np.unique(_root_labels(n, pairs), return_inverse=True)
    components: list[list[int]] = [[] for _ in range(len(roots))]
    for v, label in enumerate(labels.tolist()):
        components[label].append(v)
    components.sort(key=lambda c: c[0])
    return components


def sensitivities_per_edge(components, edges, vectors: np.ndarray) -> np.ndarray:
    """Each component's largest edge length, one np.linalg.norm per edge."""
    assignment = {v: cid for cid, comp in enumerate(components) for v in comp}
    local = np.zeros(len(components), dtype=np.float64)
    for i, j in edges:
        ci, cj = assignment[i], assignment[j]
        if ci != cj:
            raise ValueError(f"edge ({i}, {j}) crosses components {ci} and {cj}")
        length = float(np.linalg.norm(vectors[i] - vectors[j]))
        if length > local[ci]:
            local[ci] = length
    return local
