"""Downstream-utility tasks for perturbed embeddings.

Three tasks measure how much word semantics survive the noise:

* word-pair similarity: Spearman correlation between embedding cosine
  similarities and human ratings;
* semantic textual similarity: sentences become centroids of their
  in-vocabulary word vectors; scored by the geometric mean of the Spearman
  and Pearson correlations with the human ratings;
* odd-man-out: drop each word of a set in turn and pick the word whose
  removal maximises the mean pairwise cosine of the rest.

Out-of-vocabulary items are dropped and counted rather than zero-filled, so
coverage stays explicit and comparable across mechanisms.

Each task scores a whole dataset in a few numpy passes over gathered rows,
and every score equals its per-item definition bit for bit:

* a cosine is a . b / (|a| |b|) with |v| = sqrt(v . v), every dot one BLAS
  dot as `np.dot` takes it (`np.matmul` over (1, d) @ (d, 1) stacks), so
  word pairs are scored from two gathered row arrays at once;
* sentences with the same count t of in-vocabulary tokens (repeats counted)
  are averaged together, `np.mean` over axis 1 of a (sentences, t, d)
  gather, which adds the rows in the order a single sentence's mean does;
* odd-man instances of one size n get an (instances, C(n, 2)) cosine matrix
  with the pairs (i, j), i < j, in row-major order, and each drop's score is
  `np.mean` over the columns that miss it.

Items are gathered in runs of whole items whose working arrays fit
`_GATHER_BYTES`, so beyond its index lists, one score per item and, for
STS, one centroid per sentence, a task's memory does not grow with the
dataset.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet

# bytes of working arrays (gathered rows, centroids, cosines) a task holds
# at once. The benchmark's 1,000 STS pairs gather 28.6 MB of 300-d rows in
# all; on a 2-vCPU host runs of 1 MiB scored them as fast as 4 or 8 MiB.
_GATHER_BYTES = 2**20


@dataclass(frozen=True)
class SimilarityDataset:
    name: str
    pairs: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class SentencePairDataset:
    name: str
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...], float], ...]


@dataclass(frozen=True)
class OddManDataset:
    name: str
    instances: tuple[tuple[tuple[str, ...], str], ...]  # (tokens, gold odd one)


def _parse_rating(path, lineno: int, text: str) -> float:
    try:
        rating = float(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not math.isfinite(rating):
        raise ValueError(f"{path}:{lineno}: non-finite rating")
    return rating


def _tab_rows(path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated file;
    a line with another field count is an error naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise ValueError(
                    f"{path}:{lineno}: expected {fields} tab-separated fields"
                )
            yield lineno, parts


def load_similarity_dataset(path, name: str | None = None) -> SimilarityDataset:
    """Tab-separated lines: token, token, human rating."""
    pairs = []
    for lineno, parts in _tab_rows(path, 3):
        rating = _parse_rating(path, lineno, parts[2])
        if not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: empty token")
        pairs.append((parts[0], parts[1], rating))
    return SimilarityDataset(name=name or str(path), pairs=tuple(pairs))


def load_sentence_pairs(path, name: str | None = None) -> SentencePairDataset:
    """Tab-separated lines: sentence, sentence, human rating.

    Sentences are whitespace-tokenised and lowercased, matching the
    conventions of lowercased pretrained embeddings.
    """
    pairs = []
    for lineno, parts in _tab_rows(path, 3):
        s1 = tuple(parts[0].lower().split())
        s2 = tuple(parts[1].lower().split())
        if not s1 or not s2:
            raise ValueError(f"{path}:{lineno}: empty sentence")
        pairs.append((s1, s2, _parse_rating(path, lineno, parts[2])))
    return SentencePairDataset(name=name or str(path), pairs=tuple(pairs))


def load_odd_man_dataset(path, name: str | None = None) -> OddManDataset:
    """Tab-separated lines: space-separated token set, gold odd token."""
    instances = []
    for lineno, (token_set, gold) in _tab_rows(path, 2):
        tokens = tuple(token_set.split())
        if len(tokens) < 5:
            raise ValueError(f"{path}:{lineno}: need at least 5 tokens")
        if gold not in tokens:
            raise ValueError(f"{path}:{lineno}: gold token not in the set")
        instances.append((tokens, gold))
    return OddManDataset(name=name or str(path), instances=tuple(instances))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def _constant(x: np.ndarray) -> bool:
    return bool((x == x[0]).all())


def _unit(v: np.ndarray) -> np.ndarray:
    """v centred and scaled to unit norm. The largest magnitude is divided
    out before the norm is taken, so the norm cannot overflow."""
    centred = v - v.mean()
    top = np.max(np.abs(centred))
    # with an axis, norm sums squares pairwise as scipy's norm does; without
    # one it takes a BLAS dot, whose last bit can differ
    return centred / (top * np.linalg.norm(centred / top, axis=-1))


def spearman(x, y) -> float:
    """Spearman's rank correlation of two finite samples of equal length
    n >= 2; NaN when either is constant.

    The correlation of average-tie ranks, computed as `scipy.stats.spearmanr`
    computes it (`np.corrcoef` over the stacked rank columns), so the two
    agree bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if _constant(x) or _constant(y):
        return float("nan")
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def pearson(x, y) -> float:
    """Pearson's correlation of two finite samples of equal length n >= 2;
    NaN when either is constant, and exactly +-1 at n = 2.

    The formula of `scipy.stats.pearsonr`: the dot product of the two
    centred unit vectors, clipped to [-1, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if _constant(x) or _constant(y):
        return float("nan")
    r = float(np.clip(np.dot(_unit(x), _unit(y)), -1.0, 1.0))
    return float(np.round(r)) if x.size == 2 else r


def _chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Runs of consecutive items, of `item_bytes` of working arrays each,
    within `_GATHER_BYTES`; a run always takes at least one item."""
    step = max(1, _GATHER_BYTES // item_bytes)
    for start in range(0, count, step):
        yield slice(start, start + step)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the others. matmul
    takes each (1, d) @ (d, 1) product as one BLAS dot, the dot np.dot and
    np.linalg.norm take of a single vector, so the bits are theirs."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`cosine` of each broadcast pair of rows of a and b."""
    # huge rows overflow their dots to inf and tiny ones underflow the norm
    # product to 0, as in one cosine; the zero-norm rule is applied after
    # the division
    with np.errstate(all="ignore"):
        na = np.sqrt(_dots(a, a))
        nb = np.sqrt(_dots(b, b))
        cos = _dots(a, b) / (na * nb)
    return np.where((na == 0.0) | (nb == 0.0), 0.0, cos)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """a . b / (|a| |b|), with |v| = sqrt(v . v); 0.0 when either norm is 0."""
    a = np.asarray(a, dtype=np.float64)
    return float(_cosines(a, np.asarray(b, dtype=np.float64)))


def _rows(emb: EmbeddingSet, tokens) -> list[int]:
    """Row indices of the in-vocabulary tokens, in order, repeats kept."""
    return [emb.index_of(t) for t in tokens if t in emb]


@dataclass(frozen=True)
class WordSimilarityResult:
    spearman: float
    scorable: int
    total: int


def word_similarity_eval(
    emb: EmbeddingSet, data: SimilarityDataset
) -> WordSimilarityResult:
    """Spearman correlation between cosine similarities and human ratings
    over the pairs whose both tokens are in vocabulary."""
    scorable = [
        (emb.index_of(w1), emb.index_of(w2), rating)
        for w1, w2, rating in data.pairs
        if w1 in emb and w2 in emb
    ]
    if len(scorable) < 2:
        raise ValueError(
            f"need at least 2 scorable pairs, got {len(scorable)} of {len(data.pairs)}"
        )
    first, second, ratings = (np.array(col) for col in zip(*scorable))
    x = emb.vectors
    sims = np.empty(len(scorable))
    for part in _chunks(len(scorable), 2 * 8 * emb.d):
        sims[part] = _cosines(x[first[part]], x[second[part]])
    rho = spearman(sims, ratings)
    return WordSimilarityResult(
        spearman=rho, scorable=len(scorable), total=len(data.pairs)
    )


def _centroids(x: np.ndarray, sentences: list[list[int]]) -> np.ndarray:
    """Each sentence's mean row, `np.mean(x[rows], axis=0)`, taken for the
    sentences of one length t at once over (sentences, t, d) gathers."""
    lengths = np.array([len(rows) for rows in sentences])
    out = np.empty((len(sentences), x.shape[1]))
    for t in np.unique(lengths):
        which = np.flatnonzero(lengths == t)
        rows = np.array([sentences[k] for k in which])
        for part in _chunks(len(which), 8 * t * x.shape[1]):
            out[which[part]] = np.mean(x[rows[part]], axis=1)
    return out


def sentence_centroid(emb: EmbeddingSet, tokens: tuple[str, ...]) -> np.ndarray | None:
    """Mean of the in-vocabulary word vectors; None if nothing is in vocabulary."""
    rows = _rows(emb, tokens)
    if not rows:
        return None
    return _centroids(emb.vectors, [rows])[0]


@dataclass(frozen=True)
class STSResult:
    spearman: float
    pearson: float
    combined: float  # geometric mean; NaN if the correlations disagree in sign
    scorable: int
    dropped: int
    total: int


def sts_eval(emb: EmbeddingSet, data: SentencePairDataset) -> STSResult:
    """Cosine similarity of sentence centroids against human ratings.

    Pairs where either sentence has no in-vocabulary token are dropped and
    counted. The combined score is the plain geometric mean of Spearman and
    Pearson (the multi-genre class weighting collapses to this for a single
    dataset file); it is NaN when the product is negative.
    """
    left, right, ratings = [], [], []
    for s1, s2, rating in data.pairs:
        r1, r2 = _rows(emb, s1), _rows(emb, s2)
        if r1 and r2:
            left.append(r1)
            right.append(r2)
            ratings.append(rating)
    scorable = len(ratings)
    if scorable < 2:
        raise ValueError(
            f"need at least 2 scorable pairs, got {scorable} of {len(data.pairs)}"
        )
    centroids = _centroids(emb.vectors, left + right)
    sims = _cosines(centroids[:scorable], centroids[scorable:])
    rho = spearman(sims, ratings)
    r = pearson(sims, ratings)
    prod = rho * r
    combined = math.sqrt(prod) if prod >= 0.0 else float("nan")
    return STSResult(
        spearman=rho,
        pearson=r,
        combined=combined,
        scorable=scorable,
        dropped=len(data.pairs) - scorable,
        total=len(data.pairs),
    )


def _require_odd_man_size(n: int) -> None:
    if n < 3:
        raise ValueError(f"need at least 3 tokens, got {n}")


def _first_best(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, what a scan keeping the first score strictly above the best
    so far (from -inf) keeps, and whether a later score equals it. NaN never
    wins; when nothing beats -inf the scan keeps position 0, tied if any
    score is -inf."""
    top = np.fmax.reduce(scores, axis=1, initial=-np.inf)
    hit = scores == top[:, None]
    found = top > -np.inf
    best = np.where(found, np.argmax(hit, axis=1), 0)
    tie = hit.sum(axis=1) > found
    return best, tie


def _odd_man_picks(
    x: np.ndarray, instances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`odd_man_out` of each row of an (instances, n) array of row indices:
    the position picked and its tie flag.

    Each drop's score is the mean of the cosines of the pairs (i, j),
    i < j, that miss it, taken in row-major (i, j) order."""
    g, n = instances.shape
    _require_odd_man_size(n)
    i, j = np.triu_indices(n, 1)
    # per drop, its pairs as flat indices into an n x n cosine matrix
    misses = np.array([(i * n + j)[(i != k) & (j != k)] for k in range(n)])
    best = np.empty(g, dtype=np.intp)
    tie = np.empty(g, dtype=bool)
    # per instance: its gathered rows, its n x n cosines and its drops' pairs
    item_bytes = 8 * n * (x.shape[1] + n + misses.shape[1])
    for part in _chunks(g, item_bytes):
        v = x[instances[part]]
        cos = _cosines(v[:, :, None, :], v[:, None, :, :]).reshape(len(v), n * n)
        # np.take writes a C-ordered copy, so np.mean sums each drop's
        # cosines along one contiguous row, pairwise as it sums a 1-d list;
        # a fancy index can return a transposed layout, summed across rows
        drops = np.take(cos, misses, axis=1)
        best[part], tie[part] = _first_best(np.mean(drops, axis=2))
    return best, tie


def odd_man_out(emb: EmbeddingSet, tokens: tuple[str, ...]) -> tuple[str, bool]:
    """Pick the odd token: the one whose exclusion leaves the highest mean
    pairwise cosine among the rest. Returns (token, tie_flag); ties are
    broken by the order tokens appear in the instance.
    """
    _require_odd_man_size(len(tokens))
    missing = [t for t in tokens if t not in emb]
    if missing:
        raise KeyError(f"tokens not in vocabulary: {missing}")
    best, tie = _odd_man_picks(emb.vectors, np.array([_rows(emb, tokens)]))
    return tokens[int(best[0])], bool(tie[0])


@dataclass(frozen=True)
class OddManResult:
    accuracy: float
    correct: int
    evaluated: int
    skipped: int  # instances with out-of-vocabulary tokens


def odd_man_eval(emb: EmbeddingSet, data: OddManDataset) -> OddManResult:
    by_size: dict[int, list[tuple[tuple[str, ...], str]]] = {}
    skipped = 0
    for tokens, gold in data.instances:
        if any(t not in emb for t in tokens):
            skipped += 1
            continue
        by_size.setdefault(len(tokens), []).append((tokens, gold))
    evaluated = len(data.instances) - skipped
    if evaluated == 0:
        raise ValueError("no fully in-vocabulary instances to evaluate")
    correct = 0
    for group in by_size.values():
        rows = np.array([_rows(emb, tokens) for tokens, _ in group])
        best, _ = _odd_man_picks(emb.vectors, rows)
        correct += sum(
            tokens[b] == gold for (tokens, gold), b in zip(group, best.tolist())
        )
    return OddManResult(
        accuracy=correct / evaluated,
        correct=correct,
        evaluated=evaluated,
        skipped=skipped,
    )


@dataclass(frozen=True)
class UtilityDatasets:
    word_similarity: SimilarityDataset | None = None
    sts: SentencePairDataset | None = None
    odd_man: OddManDataset | None = None


@dataclass(frozen=True)
class SuiteRow:
    """One aggregated cell of the sweep: (mechanism, epsilon, task)."""

    mechanism: str
    epsilon: float | None  # None for the no-noise baseline
    task: str
    mean: float
    stderr: float | None  # None when repeats == 1
    repeats: int
    values: tuple[float, ...] = field(repr=False, default=())


def _evaluate_tasks(emb: EmbeddingSet, datasets: UtilityDatasets) -> dict[str, float]:
    scores: dict[str, float] = {}
    if datasets.word_similarity is not None:
        scores["word_similarity"] = word_similarity_eval(
            emb, datasets.word_similarity
        ).spearman
    if datasets.sts is not None:
        scores["sts"] = sts_eval(emb, datasets.sts).combined
    if datasets.odd_man is not None:
        scores["odd_man_out"] = odd_man_eval(emb, datasets.odd_man).accuracy
    return scores


def aggregate(values: list[float]) -> tuple[float, float | None]:
    """Mean and standard error of the mean; stderr is None for one value."""
    if len(values) == 1:
        return values[0], None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def utility_suite(
    emb: EmbeddingSet,
    datasets: UtilityDatasets,
    perturb_fn,
    mechanisms: list[str],
    epsilons: list[float],
    seeds: list[int],
) -> list[SuiteRow]:
    """Sweep (mechanism, epsilon) cells, perturbing once per seed and
    aggregating each task's scores into mean and standard error.

    `perturb_fn(mechanism, epsilon, seed) -> EmbeddingSet` supplies the
    perturbed embeddings; the suite itself stays independent of how the
    mechanisms are wired together. A no-noise baseline row per task is
    always included.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    rows: list[SuiteRow] = []
    for task, score in sorted(_evaluate_tasks(emb, datasets).items()):
        rows.append(
            SuiteRow(
                mechanism="none",
                epsilon=None,
                task=task,
                mean=score,
                stderr=None,
                repeats=1,
                values=(score,),
            )
        )
    for mechanism in mechanisms:
        for epsilon in epsilons:
            per_task: dict[str, list[float]] = {}
            for seed in seeds:
                perturbed = perturb_fn(mechanism, epsilon, seed)
                for task, score in _evaluate_tasks(perturbed, datasets).items():
                    per_task.setdefault(task, []).append(score)
            for task in sorted(per_task):
                mean, stderr = aggregate(per_task[task])
                rows.append(
                    SuiteRow(
                        mechanism=mechanism,
                        epsilon=epsilon,
                        task=task,
                        mean=mean,
                        stderr=stderr,
                        repeats=len(seeds),
                        values=tuple(per_task[task]),
                    )
                )
    return rows


def suite_rows_to_csv(rows: list[SuiteRow]) -> str:
    """Plot-ready CSV: one line per (mechanism, epsilon, task)."""
    lines = ["mechanism,epsilon,task,mean,stderr,repeats"]
    for row in rows:
        eps = "" if row.epsilon is None else repr(float(row.epsilon))
        err = "" if row.stderr is None else repr(float(row.stderr))
        lines.append(
            f"{row.mechanism},{eps},{row.task},{row.mean!r},{err},{row.repeats}"
        )
    return "\n".join(lines) + "\n"
