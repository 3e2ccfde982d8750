"""Empirical privacy measurement via neighbour-set overlap.

The chance of recovering a word x from its perturbed vector M(x) is
approximated by the Jaccard overlap between the top-m neighbours of x and
the top-m neighbours of M(x), both ranked over the clean embedding set (the
adversary is assumed to hold the public embeddings). The word itself is
excluded from both rankings, so an unperturbed vector scores exactly 1.

Both rankings run on one `NeighbourIndex` of the clean words, so the words
are clustered once per evaluation.

Even a probability of 1 leaves a residual 1/k uncertainty about which
neighbour is the word, k = min(m, n - 1) the size of each ranking; that
floor is recorded as metadata rather than folded into the probabilities.

Aggregate privacy over a vocabulary is summarised by the skewness of the
probability distribution: the more words sit below the mean probability,
the smaller (or more negative) the skewness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .graph import NeighbourIndex, _overlap

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
    residual_uncertainty: float  # 1/k floor, k = min(m, n - 1); metadata only
    histogram: np.ndarray  # HISTOGRAM_BINS counts over [0, 1]

    def to_dict(self, words: tuple[str, ...]) -> dict:
        return {
            "m": self.m,
            "mean": self.mean,
            "std": self.std,
            "skewness": self.skewness,
            "degenerate": self.degenerate,
            "residual_uncertainty": self.residual_uncertainty,
            "histogram_bins": HISTOGRAM_BINS,
            "histogram": [int(c) for c in self.histogram],
            "probabilities": [float(p) for p in self.probabilities],
            "words": list(words),
        }


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
    index = NeighbourIndex(original)
    # the clean ranking is the kNN self query, which rejects m < 1 and n < 2
    clean = index.self_knn(m).indices
    n, k = clean.shape
    query, _ = index.query(perturbed.vectors, k, np.arange(n))
    probs = _overlap(clean, query)
    std = float(probs.std(ddof=1))
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
        residual_uncertainty=1.0 / k,
        histogram=hist,
    )
