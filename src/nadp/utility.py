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
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet


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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


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
    sims, ratings = [], []
    for w1, w2, rating in data.pairs:
        if w1 in emb and w2 in emb:
            sims.append(cosine(emb.vector(w1), emb.vector(w2)))
            ratings.append(rating)
    if len(sims) < 2:
        raise ValueError(
            f"need at least 2 scorable pairs, got {len(sims)} of {len(data.pairs)}"
        )
    rho = spearman(sims, ratings)
    return WordSimilarityResult(
        spearman=rho, scorable=len(sims), total=len(data.pairs)
    )


def sentence_centroid(emb: EmbeddingSet, tokens: tuple[str, ...]) -> np.ndarray | None:
    """Mean of the in-vocabulary word vectors; None if nothing is in vocabulary."""
    vecs = [emb.vector(t) for t in tokens if t in emb]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


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
    sims, ratings, dropped = [], [], 0
    for s1, s2, rating in data.pairs:
        c1 = sentence_centroid(emb, s1)
        c2 = sentence_centroid(emb, s2)
        if c1 is None or c2 is None:
            dropped += 1
            continue
        sims.append(cosine(c1, c2))
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


def odd_man_out(emb: EmbeddingSet, tokens: tuple[str, ...]) -> tuple[str, bool]:
    """Pick the odd token: the one whose exclusion leaves the highest mean
    pairwise cosine among the rest. Returns (token, tie_flag); ties are
    broken by the order tokens appear in the instance.
    """
    if len(tokens) < 3:
        raise ValueError(f"need at least 3 tokens, got {len(tokens)}")
    missing = [t for t in tokens if t not in emb]
    if missing:
        raise KeyError(f"tokens not in vocabulary: {missing}")
    vecs = [emb.vector(t) for t in tokens]
    n = len(vecs)
    # each pair's cosine once; a drop's sims list keeps the (i, j) order
    cos = {
        (i, j): cosine(vecs[i], vecs[j]) for i in range(n) for j in range(i + 1, n)
    }
    best_idx, best_score, tie = 0, -math.inf, False
    for drop in range(n):
        sims = [c for (i, j), c in cos.items() if drop not in (i, j)]
        score = float(np.mean(sims))
        if score > best_score:
            best_idx, best_score, tie = drop, score, False
        elif score == best_score:
            tie = True
    return tokens[best_idx], tie


@dataclass(frozen=True)
class OddManResult:
    accuracy: float
    correct: int
    evaluated: int
    skipped: int  # instances with out-of-vocabulary tokens


def odd_man_eval(emb: EmbeddingSet, data: OddManDataset) -> OddManResult:
    correct = evaluated = skipped = 0
    for tokens, gold in data.instances:
        if any(t not in emb for t in tokens):
            skipped += 1
            continue
        predicted, _ = odd_man_out(emb, tokens)
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
