"""Empirical privacy measurement via neighbour-set overlap.

The chance of recovering a word x from its perturbed vector M(x) is
approximated by the Jaccard overlap between the top-m neighbours of x and
the top-m neighbours of M(x), both ranked over the clean embedding set (the
adversary is assumed to hold the public embeddings). The word itself is
excluded from both rankings, so an unperturbed vector scores exactly 1.

Even a probability of 1 leaves a residual 1/m uncertainty about which
neighbour is the word; that floor is recorded as metadata rather than folded
into the probabilities.

Aggregate privacy over a vocabulary is summarised by the skewness of the
probability distribution: the more words sit below the mean probability,
the smaller (or more negative) the skewness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .graph import jaccard, rank_queries

DEFAULT_EVAL_M = 10
HISTOGRAM_BINS = 20


@dataclass(frozen=True, eq=False)
class PrivacyReport:
    """Per-word recovery probabilities and their distribution summary."""

    m: int
    probabilities: np.ndarray  # (n,) in [0, 1]
    mean: float
    std: float
    skewness: float
    degenerate: bool  # all probabilities identical (zero variance)
    residual_uncertainty: float  # 1/m floor, metadata only
    histogram: np.ndarray  # HISTOGRAM_BINS counts over [0, 1]

    def to_dict(self, words: tuple[str, ...] | None = None) -> dict:
        out = {
            "m": self.m,
            "mean": self.mean,
            "std": self.std,
            "skewness": self.skewness,
            "degenerate": self.degenerate,
            "residual_uncertainty": self.residual_uncertainty,
            "histogram_bins": HISTOGRAM_BINS,
            "histogram": [int(c) for c in self.histogram],
            "probabilities": [float(p) for p in self.probabilities],
        }
        if words is not None:
            out["words"] = list(words)
        return out


def _overlap(clean_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    """Per-row Jaccard similarity of two (q, k) index rankings."""
    return np.array(
        [
            jaccard(set(a.tolist()), set(b.tolist()))
            for a, b in zip(clean_rows, query_rows)
        ],
        dtype=np.float64,
    )


def prediction_probability(
    original: EmbeddingSet,
    perturbed_vector: np.ndarray,
    word_index: int,
    m: int,
) -> float:
    """Jaccard overlap between the word's clean top-m set and the perturbed
    vector's top-m set, both ranked over the clean embeddings with the word
    itself excluded from the candidates."""
    if not 0 <= word_index < original.n:
        raise ValueError(f"word_index {word_index} out of range")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    k = min(m, original.n - 1)
    exclude = np.array([word_index])
    clean, _ = rank_queries(
        original, original.vectors[word_index].reshape(1, -1), k, exclude
    )
    query, _ = rank_queries(
        original,
        np.asarray(perturbed_vector, dtype=np.float64).reshape(1, -1),
        k,
        exclude,
    )
    return float(_overlap(clean, query)[0])


def skewness(values: np.ndarray | list[float]) -> float:
    """Adjusted third standardised moment, n/((n-1)(n-2)) * sum(((v-mean)/s)^3)
    with s the sample standard deviation. Zero variance yields 0 by
    convention (the degenerate all-identical case)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n < 3:
        raise ValueError(f"skewness needs at least 3 values, got {n}")
    s = float(v.std(ddof=1))
    if s == 0.0:
        return 0.0
    mean = float(v.mean())
    return float(n / ((n - 1) * (n - 2)) * np.sum(((v - mean) / s) ** 3))


def privacy_report(
    original: EmbeddingSet, perturbed: EmbeddingSet, m: int = DEFAULT_EVAL_M
) -> PrivacyReport:
    """Recovery probability for every word plus distribution statistics.

    Deterministic given its inputs; the perturbed set must carry exactly the
    original vocabulary in the same order.
    """
    if original.words != perturbed.words:
        raise ValueError("original and perturbed vocabularies do not match")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = original.n
    k = min(m, n - 1)
    self_idx = np.arange(n)
    clean, _ = rank_queries(original, original.vectors, k, self_idx)
    query, _ = rank_queries(original, perturbed.vectors, k, self_idx)
    probs = _overlap(clean, query)
    std = float(probs.std(ddof=1)) if n > 1 else 0.0
    degenerate = std == 0.0
    skew = skewness(probs) if n >= 3 else 0.0
    hist, _ = np.histogram(probs, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return PrivacyReport(
        m=m,
        probabilities=probs,
        mean=float(probs.mean()),
        std=std,
        skewness=skew,
        degenerate=degenerate,
        residual_uncertainty=1.0 / m,
        histogram=hist,
    )
