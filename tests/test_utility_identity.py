"""The batched utility tasks against their frozen per-item definitions.

Every score must be bit-identical: cosines, centroids, odd-man picks, and
the eval results built from them. The inputs mix the cases where a batched
formula could drift from the per-item one: zero vectors, exact duplicates,
small-integer vectors whose cosines tie, magnitudes at which the norm
product underflows or overflows, sentences of 1-40 tokens with repeats,
odd-man sets of 5-12 tokens, and out-of-vocabulary items, at d = 1, 4 and
300.
"""

import math

import numpy as np
import pytest

import nadp.utility as utility
from nadp.embeddings import EmbeddingSet
from nadp.utility import (
    OddManDataset,
    SentencePairDataset,
    SimilarityDataset,
    odd_man_eval,
    sts_eval,
    word_similarity_eval,
)

from oracles import (
    cosine_per_pair,
    first_best_scan,
    odd_man_out_per_drop,
    odd_man_per_instance,
    sentence_centroid_per_sentence,
    sts_per_pair,
    word_similarity_per_pair,
)

# the per-item reference warns where huge rows overflow its dots
pytestmark = pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")

DIMS = [1, 4, 300]
OOV = ("oov0", "oov1")
# rows of `_emb`: the duplicates, four small-integer vectors and the zeros
TIE_PRONE = np.r_[24:37, 45:47]


def _emb(d: int) -> EmbeddingSet:
    rng = np.random.default_rng([7, d])
    base = rng.normal(0.0, 1.0, (24, d))
    vecs = np.vstack(
        [
            base,
            np.repeat(base[:3], 3, axis=0),  # exact duplicates
            rng.integers(-1, 2, (12, d)),  # small integers: cosines repeat
            np.zeros((2, d)),
            1e-150 * base[:6],
            1e150 * base[6:12],
            # subnormal products, and dots that overflow to inf
            1e-160 * base[12:15],
            1e160 * base[15:18],
        ]
    ).astype(float)
    return EmbeddingSet(tuple(f"w{i}" for i in range(len(vecs))), vecs)


@pytest.mark.parametrize("d", DIMS)
def test_cosine_equals_the_per_pair_formula(d):
    emb = _emb(d)
    x = emb.vectors
    first, second = (a.ravel() for a in np.indices((emb.n, emb.n)))
    ref = np.array([cosine_per_pair(x[i], x[j]) for i, j in zip(first, second)])
    batched = utility._cosines(x[first], x[second])
    assert np.array_equal(batched, ref, equal_nan=True)
    assert np.isnan(ref).any() and (ref == 0.0).any()


@pytest.mark.parametrize("d", DIMS)
def test_word_similarity_equals_the_per_pair_loop(d):
    emb = _emb(d)
    rng = np.random.default_rng([8, d])
    vocab = emb.words + OOV
    pairs = tuple(
        (vocab[a], vocab[b], float(rng.integers(0, 10)))
        for a, b in rng.integers(0, len(vocab), (600, 2))
    )
    data = SimilarityDataset(pairs)
    result = word_similarity_eval(emb, data)
    assert repr(result) == repr(word_similarity_per_pair(emb, data))
    assert result.scorable < result.total  # some pairs were out of vocabulary


def _sentences(emb: EmbeddingSet, rng, count: int, oov_rate: float):
    vocab = np.array(emb.words)
    out = []
    for k in range(count):
        t = 1 + k % 40
        words = list(vocab[rng.integers(0, emb.n, t)])
        # repeats: a sentence's first token comes back
        words[t // 2] = words[0]
        words = [OOV[0] if rng.random() < oov_rate else w for w in words]
        out.append(tuple(words))
    return out


@pytest.mark.parametrize("d", DIMS)
def test_sentence_centroids_equal_the_per_sentence_mean(d):
    emb = _emb(d)
    rng = np.random.default_rng([9, d])
    sentences = _sentences(emb, rng, 160, 0.1) + [OOV, (OOV[0], "w3", "w3")]
    rows = [utility._rows(emb, tokens) for tokens in sentences]
    # sts_eval's centroids: the sentences with an in-vocabulary token, at once
    got = iter(utility._centroids(emb.vectors, [r for r in rows if r]))
    for tokens, r in zip(sentences, rows):
        ref = sentence_centroid_per_sentence(emb, tokens)
        assert (ref is None) == (not r)
        if r:
            c = next(got)
            assert c.shape == ref.shape
            assert np.array_equal(c, ref), tokens


@pytest.mark.parametrize("d", DIMS)
def test_sts_equals_the_per_pair_loop(d):
    emb = _emb(d)
    rng = np.random.default_rng([10, d])
    left = _sentences(emb, rng, 200, 0.05)
    right = _sentences(emb, rng, 200, 0.05)[::-1]
    pairs = [(a, b, float(rng.integers(0, 6))) for a, b in zip(left, right)]
    pairs += [(OOV, left[3], 1.0), (left[5], (OOV[1],), 2.0)]
    data = SentencePairDataset(tuple(pairs))
    result = sts_eval(emb, data)
    assert repr(result) == repr(sts_per_pair(emb, data))
    assert result.dropped >= 2


def _instances(emb: EmbeddingSet, rng, count: int):
    out = []
    for r in range(count):
        size = 5 + r % 8
        pool = TIE_PRONE if r % 2 else np.arange(emb.n)
        tokens = [emb.words[i] for i in rng.choice(pool, size, replace=False)]
        if r % 17 == 0:
            tokens[-1] = OOV[1]
        out.append((tuple(tokens), tokens[int(rng.integers(size))]))
    return out


@pytest.mark.parametrize("d", DIMS)
def test_odd_man_equals_the_per_drop_loop(d):
    emb = _emb(d)
    instances = _instances(emb, np.random.default_rng([11, d]), 320)
    # odd_man_eval's picks: the in-vocabulary instances of each size at once
    by_size = {}
    for tokens, _ in instances:
        if OOV[1] not in tokens:
            by_size.setdefault(len(tokens), []).append(tokens)
    ties = 0
    for group in by_size.values():
        rows = np.array([[emb.index_of(t) for t in tokens] for tokens in group])
        for tokens, b in zip(group, utility._odd_man_picks(emb.vectors, rows)):
            pick, tie = odd_man_out_per_drop(emb, tokens)
            assert tokens[b] == pick, tokens
            ties += tie
    assert ties > 5
    data = OddManDataset(tuple(instances))
    result = odd_man_eval(emb, data)
    assert repr(result) == repr(odd_man_per_instance(emb, data))
    assert result.skipped > 0


def test_first_best_equals_the_scan():
    # scores drawn from a few values, NaN and both infinities included, so
    # rows tie, hold no finite best, or only NaN
    rng = np.random.default_rng(12)
    values = np.array([math.nan, -math.inf, math.inf, -0.5, 0.0, -0.0, 0.25])
    for n in (3, 5, 8):
        scores = values[rng.integers(0, len(values), (2000, n))]
        scores[:50] = math.nan
        scores[50:100] = -math.inf
        best = utility._first_best(scores)
        for row, b in zip(scores, best):
            assert int(b) == first_best_scan(row.tolist())[0]


def test_one_item_chunks_give_the_same_scores(monkeypatch):
    # a budget below one item gathers each pair, sentence pair or instance
    # on its own
    emb = _emb(4)
    rng = np.random.default_rng(13)
    vocab = emb.words + OOV
    wordsim = SimilarityDataset(
        tuple(
            (vocab[a], vocab[b], float(rng.integers(0, 10)))
            for a, b in rng.integers(0, len(vocab), (300, 2))
        ),
    )
    left = _sentences(emb, rng, 120, 0.05)
    sts = SentencePairDataset(
        tuple((a, b, float(rng.integers(0, 6))) for a, b in zip(left, left[::-1]))
    )
    oddman = OddManDataset(tuple(_instances(emb, rng, 160)))

    def scores():
        return [
            repr(word_similarity_eval(emb, wordsim)),
            repr(sts_eval(emb, sts)),
            repr(odd_man_eval(emb, oddman)),
        ]

    default = scores()
    monkeypatch.setattr(utility, "_GATHER_BYTES", 1)
    assert scores() == default
    assert default == [
        repr(word_similarity_per_pair(emb, wordsim)),
        repr(sts_per_pair(emb, sts)),
        repr(odd_man_per_instance(emb, oddman)),
    ]
