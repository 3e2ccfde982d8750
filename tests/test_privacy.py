import numpy as np
import pytest
from scipy import stats

from nadp import graph
from nadp.embeddings import EmbeddingSet
from nadp.graph import knn, rank_queries
from nadp.privacy import _overlap, privacy_report, skewness

from oracles import jaccard, prediction_probability_bruteforce, skewness_formula
from synth import clustered_embeddings, random_embeddings, two_far_clusters


def _moved(emb: EmbeddingSet, i: int, vector) -> EmbeddingSet:
    """`emb` with word i's vector replaced."""
    vectors = np.array(emb.vectors)
    vectors[i] = vector
    return EmbeddingSet(emb.words, vectors)


def test_prediction_probability_identity_is_one():
    emb = random_embeddings(30, 5, seed=1)
    assert privacy_report(emb, emb, m=5).probabilities.tolist() == [1.0] * emb.n


def test_prediction_probability_far_displacement_is_zero():
    # move a word from one cluster into the other: the neighbour sets are
    # disjoint by construction (verified with the brute-force oracle)
    emb = two_far_clusters(6, 4, seed=2, gap=80.0)
    target = 0  # lives in the first cluster
    displaced = emb.vectors[9] + 0.01  # deep inside the second cluster
    report = privacy_report(emb, _moved(emb, target, displaced), m=4)
    assert report.probabilities[target] == 0.0
    assert prediction_probability_bruteforce(emb.vectors, displaced, target, 4) == 0.0


def test_prediction_probability_exhaustive_m():
    emb = random_embeddings(12, 3, seed=3)
    n = emb.n
    rng = np.random.default_rng(0)
    anywhere = rng.normal(0.0, 10.0, emb.d)
    report = privacy_report(emb, _moved(emb, 4, anywhere), m=n - 1)
    assert report.probabilities[4] >= (n - 2) / n


@pytest.mark.parametrize("seed", range(8))
def test_prediction_probability_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 50))
    d = int(rng.integers(1, 8))
    m = int(rng.integers(1, n))
    emb = EmbeddingSet(
        tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, d))
    )
    idx = int(rng.integers(0, n))
    perturbed = emb.vectors[idx] + rng.normal(0.0, 0.5, d)
    expected = prediction_probability_bruteforce(emb.vectors, perturbed, idx, m)
    report = privacy_report(emb, _moved(emb, idx, perturbed), m=m)
    assert report.probabilities[idx] == expected


@pytest.mark.parametrize("k", [1, 2, 10])
def test_overlap_matches_set_jaccard_row_by_row(k):
    rng = np.random.default_rng(k)
    # each row holds k distinct indices, as a ranking does; a small index
    # range makes partial and full overlaps common
    clean = np.array([rng.choice(2 * k + 1, k, replace=False) for _ in range(300)])
    query = np.array([rng.choice(2 * k + 1, k, replace=False) for _ in range(300)])
    query[:20] = clean[:20, ::-1]  # same sets in another order
    got = _overlap(clean, query)
    assert got.dtype == np.float64
    expected = [jaccard(set(a.tolist()), set(b.tolist())) for a, b in zip(clean, query)]
    assert got.tolist() == expected
    assert (got[:20] == 1.0).all()


def test_skewness_symmetric_sample():
    assert skewness([1.0, 2.0, 3.0]) == 0.0


def test_skewness_degenerate_sample():
    assert skewness([1.0, 1.0, 1.0]) == 0.0


def test_skewness_hand_value():
    # n=4, mean 0.25, s=0.5: (4/6) * (3*(-0.5)^3 + 1.5^3) = 2
    assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2.0, abs=1e-14)


def test_skewness_needs_three_values():
    with pytest.raises(ValueError):
        skewness([1.0, 2.0])


def test_skewness_matches_formula_and_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        values = rng.uniform(0.0, 1.0, int(rng.integers(3, 40)))
        ours = skewness(values)
        assert ours == pytest.approx(skewness_formula(list(values)), abs=1e-12)
        assert ours == pytest.approx(
            float(stats.skew(values, bias=False)), abs=1e-10
        )


def test_report_identity_perturbation():
    emb = random_embeddings(25, 4, seed=6)
    copy = EmbeddingSet(emb.words, np.array(emb.vectors))
    report = privacy_report(emb, copy, m=5)
    assert np.all(report.probabilities == 1.0)
    assert report.mean == 1.0
    assert report.skewness == 0.0
    assert report.degenerate
    assert report.histogram[-1] == emb.n
    assert report.residual_uncertainty == pytest.approx(1 / 5)


@pytest.mark.parametrize("m, floor", [(10, 1 / 4), (4, 1 / 4), (3, 1 / 3)])
def test_residual_uncertainty_is_one_over_the_ranking_size(m, floor):
    # 5 words leave each ranking at most n - 1 = 4 others, whatever m is
    emb = random_embeddings(5, 3, seed=6)
    report = privacy_report(emb, emb, m=m)
    assert report.m == m
    assert report.residual_uncertainty == floor


def test_report_builds_one_index_for_both_rankings(monkeypatch):
    # the clean words are clustered once, and the clean self query and the
    # perturbed queries both search that index; the result is the one the
    # two separate searches give
    emb = clustered_embeddings(3000, 20, 60, seed=48)
    rng = np.random.default_rng(1)
    pert = EmbeddingSet(emb.words, emb.vectors + rng.normal(0.0, 0.3, emb.vectors.shape))
    built = []
    init = graph.NeighbourIndex.__init__

    def counted(index, emb):
        init(index, emb)
        built.append(index)

    monkeypatch.setattr(graph.NeighbourIndex, "__init__", counted)
    report = privacy_report(emb, pert, m=10)
    assert len(built) == 1
    assert built[0].centres is not None  # the pruned search, clustered once
    clean = knn(emb, 10).indices
    query, _ = rank_queries(emb, pert.vectors, 10, np.arange(emb.n))
    assert len(built) == 3
    assert np.array_equal(report.probabilities, _overlap(clean, query))


def test_report_hand_computed_toy():
    # 1-d vocabulary 0, 1, 5 with m=1; the perturbation pushes w0 into w2's
    # neighbourhood. Frozen from the brute-force oracle: p = [0, 1, 1].
    emb = EmbeddingSet(("w0", "w1", "w2"), np.array([[0.0], [1.0], [5.0]]))
    pert = EmbeddingSet(("w0", "w1", "w2"), np.array([[4.9], [1.1], [5.0]]))
    report = privacy_report(emb, pert, m=1)
    assert report.probabilities.tolist() == [0.0, 1.0, 1.0]
    assert report.mean == pytest.approx(2 / 3)
    assert report.skewness == pytest.approx(-1.7320508075688754, abs=1e-12)
    assert not report.degenerate


def test_report_matches_single_word_op():
    emb = random_embeddings(40, 6, seed=7)
    rng = np.random.default_rng(1)
    pert = EmbeddingSet(emb.words, emb.vectors + rng.normal(0.0, 0.8, emb.vectors.shape))
    report = privacy_report(emb, pert, m=6)
    for i in range(emb.n):
        assert report.probabilities[i] == prediction_probability_bruteforce(
            emb.vectors, pert.vectors[i], i, 6
        )


def test_report_vocabulary_mismatch():
    emb = random_embeddings(10, 3, seed=8)
    other = EmbeddingSet(tuple(f"x{i}" for i in range(10)), np.array(emb.vectors))
    with pytest.raises(ValueError, match="vocabular"):
        privacy_report(emb, other, m=2)


def test_report_deterministic():
    emb = random_embeddings(30, 5, seed=9)
    rng = np.random.default_rng(2)
    pert = EmbeddingSet(emb.words, emb.vectors + rng.normal(0.0, 0.5, emb.vectors.shape))
    a = privacy_report(emb, pert, m=4)
    b = privacy_report(emb, pert, m=4)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.skewness == b.skewness


def test_report_histogram_counts():
    emb = random_embeddings(50, 5, seed=10)
    rng = np.random.default_rng(3)
    pert = EmbeddingSet(emb.words, emb.vectors + rng.normal(0.0, 1.0, emb.vectors.shape))
    report = privacy_report(emb, pert, m=5)
    assert report.histogram.sum() == emb.n
    assert np.all(report.probabilities >= 0) and np.all(report.probabilities <= 1)


def test_mean_probability_decreases_with_noise():
    emb = random_embeddings(100, 8, seed=11)
    rng = np.random.default_rng(4)
    means = []
    for sigma in (0.05, 0.5, 5.0):
        pert = EmbeddingSet(
            emb.words, emb.vectors + rng.normal(0.0, sigma, emb.vectors.shape)
        )
        means.append(privacy_report(emb, pert, m=10).mean)
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("clustered", [True, False])
def test_report_computes_at_most_one_direct_distance_per_perturbed_query(
    monkeypatch, clustered
):
    # both rankings read only indices, so a certified row gets no direct
    # distance: beyond the index's own build, the pruned search's rho pass
    # (each perturbed query's distance from its nearest centre) is all
    if clustered:
        emb = clustered_embeddings(3000, 20, 60, seed=48)
    else:
        emb = random_embeddings(500, 20, seed=3)
    rng = np.random.default_rng(2)
    pert = EmbeddingSet(emb.words, emb.vectors + rng.normal(0.0, 0.3, emb.vectors.shape))
    pairs = []
    direct_sq = graph._direct_sq
    monkeypatch.setattr(
        graph, "_direct_sq", lambda q, x, cols: pairs.append(cols.size) or direct_sq(q, x, cols)
    )
    graph.NeighbourIndex(emb)
    build = sum(pairs)
    pairs.clear()
    report = privacy_report(emb, pert, m=10)
    assert sum(pairs) - build == (emb.n if clustered else 0)
    clean = knn(emb, 10).indices
    query, _ = rank_queries(emb, pert.vectors, 10, np.arange(emb.n))
    assert np.array_equal(report.probabilities, _overlap(clean, query))
