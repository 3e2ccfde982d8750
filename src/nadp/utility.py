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
    pairs: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class SentencePairDataset:
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...], float], ...]


@dataclass(frozen=True)
class OddManDataset:
    instances: tuple[tuple[tuple[str, ...], str], ...]  # (tokens, gold odd one)


def _parse_rating(path, lineno: int, text: str) -> float:
    try:
        rating = float(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not math.isfinite(rating):
        raise ValueError(f"{path}:{lineno}: non-finite rating")
    return rating


def _text_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file, without their ends ('\\n', '\\r\\n' or
    '\\r'); a line that is not UTF-8 is an error naming it as path:line."""
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def _tab_rows(path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated file;
    a line with another field count is an error naming the line."""
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise ValueError(f"{path}:{lineno}: expected {fields} tab-separated fields")
        yield lineno, parts


def load_similarity_dataset(path) -> SimilarityDataset:
    """Tab-separated lines: token, token, human rating."""
    pairs = []
    for lineno, parts in _tab_rows(path, 3):
        rating = _parse_rating(path, lineno, parts[2])
        if not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: empty token")
        pairs.append((parts[0], parts[1], rating))
    return SimilarityDataset(pairs=tuple(pairs))


def load_sentence_pairs(path) -> SentencePairDataset:
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
    return SentencePairDataset(pairs=tuple(pairs))


def load_odd_man_dataset(path) -> OddManDataset:
    """Tab-separated lines: space-separated token set, gold odd token."""
    instances = []
    for lineno, (token_set, gold) in _tab_rows(path, 2):
        tokens = tuple(token_set.split())
        if len(tokens) < 5:
            raise ValueError(f"{path}:{lineno}: need at least 5 tokens")
        if gold not in tokens:
            raise ValueError(f"{path}:{lineno}: gold token not in the set")
        instances.append((tokens, gold))
    return OddManDataset(instances=tuple(instances))


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
    """a . b / (|a| |b|), with |v| = sqrt(v . v), of each broadcast pair of
    rows of a and b; 0.0 where either norm is 0."""
    # huge rows overflow their dots to inf and tiny ones underflow the norm
    # product to 0, as in one cosine; the zero-norm rule is applied after
    # the division
    with np.errstate(all="ignore"):
        na = np.sqrt(_dots(a, a))
        nb = np.sqrt(_dots(b, b))
        cos = _dots(a, b) / (na * nb)
    return np.where((na == 0.0) | (nb == 0.0), 0.0, cos)


def _rows(emb: EmbeddingSet, tokens) -> list[int]:
    """Row indices of the in-vocabulary tokens, in order, repeats kept: one
    index lookup per token, the resolver of every task."""
    return [i for i in map(emb._index.get, tokens) if i is not None]


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
    scorable = []
    for w1, w2, rating in data.pairs:
        rows = _rows(emb, (w1, w2))
        if len(rows) == 2:
            scorable.append((*rows, rating))
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
    # a plain np.unique would import numpy.ma (1.3 MB) on numpy 2.4
    for t in sorted(set(lengths.tolist())):
        which = np.flatnonzero(lengths == t)
        rows = np.array([sentences[k] for k in which])
        for part in _chunks(len(which), 8 * t * x.shape[1]):
            out[which[part]] = np.mean(x[rows[part]], axis=1)
    return out


@dataclass(frozen=True)
class STSResult:
    spearman: float
    pearson: float
    combined: float  # signed geometric mean; NaN if the correlations disagree in sign
    scorable: int
    dropped: int
    total: int


def sts_eval(emb: EmbeddingSet, data: SentencePairDataset) -> STSResult:
    """Cosine similarity of sentence centroids against human ratings.

    Pairs where either sentence has no in-vocabulary token are dropped and
    counted. The combined score is the geometric mean of Spearman and
    Pearson (the multi-genre class weighting collapses to this for a single
    dataset file), negated when both are negative, so a release whose
    similarities fall as the ratings rise scores below zero; it is NaN when
    the two disagree in sign.
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
    sign = -1.0 if rho < 0.0 and r < 0.0 else 1.0
    combined = sign * math.sqrt(prod) if prod >= 0.0 else float("nan")
    return STSResult(
        spearman=rho,
        pearson=r,
        combined=combined,
        scorable=scorable,
        dropped=len(data.pairs) - scorable,
        total=len(data.pairs),
    )


def _first_best(scores: np.ndarray) -> np.ndarray:
    """Per row, what a scan keeping the first score strictly above the best
    so far (from -inf) keeps. NaN never wins; when nothing beats -inf the
    scan keeps position 0."""
    top = np.fmax.reduce(scores, axis=1, initial=-np.inf)
    return np.where(top > -np.inf, np.argmax(scores == top[:, None], axis=1), 0)


def _odd_man_picks(x: np.ndarray, instances: np.ndarray) -> np.ndarray:
    """The odd-man pick of each row of an (instances, n) array of row
    indices: the position of the word whose exclusion leaves the highest
    mean pairwise cosine among the rest, the first such on a tie.

    Each drop's score is the mean of the cosines of the pairs (i, j),
    i < j, that miss it, taken in row-major (i, j) order."""
    g, n = instances.shape
    if n < 3:
        raise ValueError(f"need at least 3 tokens, got {n}")
    i, j = np.triu_indices(n, 1)
    # per drop, its pairs as flat indices into an n x n cosine matrix
    misses = np.array([(i * n + j)[(i != k) & (j != k)] for k in range(n)])
    best = np.empty(g, dtype=np.intp)
    # per instance: its gathered rows, its n x n cosines and its drops' pairs
    item_bytes = 8 * n * (x.shape[1] + n + misses.shape[1])
    for part in _chunks(g, item_bytes):
        v = x[instances[part]]
        cos = _cosines(v[:, :, None, :], v[:, None, :, :]).reshape(len(v), n * n)
        # np.take writes a C-ordered copy, so np.mean sums each drop's
        # cosines along one contiguous row, pairwise as it sums a 1-d list;
        # a fancy index can return a transposed layout, summed across rows
        drops = np.take(cos, misses, axis=1)
        best[part] = _first_best(np.mean(drops, axis=2))
    return best


@dataclass(frozen=True)
class OddManResult:
    accuracy: float
    correct: int
    evaluated: int
    skipped: int  # instances with out-of-vocabulary tokens


def odd_man_eval(emb: EmbeddingSet, data: OddManDataset) -> OddManResult:
    # size -> the fully in-vocabulary instances of that size and their rows
    by_size: dict[int, list[tuple[tuple[str, ...], str, list[int]]]] = {}
    skipped = 0
    for tokens, gold in data.instances:
        rows = _rows(emb, tokens)
        if len(rows) < len(tokens):
            skipped += 1
            continue
        by_size.setdefault(len(tokens), []).append((tokens, gold, rows))
    evaluated = len(data.instances) - skipped
    if evaluated == 0:
        raise ValueError("no fully in-vocabulary instances to evaluate")
    correct = 0
    for group in by_size.values():
        best = _odd_man_picks(emb.vectors, np.array([r for _, _, r in group]))
        correct += sum(
            tokens[b] == gold for (tokens, gold, _), b in zip(group, best.tolist())
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
    # (mechanism, epsilon, task -> its scores), the baseline first
    baseline = _evaluate_tasks(emb, datasets)
    cells = [("none", None, {task: [score] for task, score in baseline.items()})]
    for mechanism in mechanisms:
        for epsilon in epsilons:
            per_task: dict[str, list[float]] = {}
            for seed in seeds:
                perturbed = perturb_fn(mechanism, epsilon, seed)
                for task, score in _evaluate_tasks(perturbed, datasets).items():
                    per_task.setdefault(task, []).append(score)
            cells.append((mechanism, epsilon, per_task))
    return [
        SuiteRow(mechanism, epsilon, task, *aggregate(values),
                 repeats=len(values), values=tuple(values))
        for mechanism, epsilon, per_task in cells
        for task, values in sorted(per_task.items())
    ]


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
