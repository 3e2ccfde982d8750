import math

import numpy as np
import pytest

from nadp.calibration import PrivacyParams
from nadp.components import build_partition
from nadp.embeddings import EmbeddingSet
from nadp.graph import build_graph, knn
from nadp.mechanisms import (
    DEFAULT_ALPHA1,
    DEFAULT_ALPHA2,
    DEFAULT_ETA0,
    Perturber,
    _sqrt_psd,
    covariance_shape,
    gaussian_perturb,
    jaccard_mechanism_perturb,
    laplacian_perturb,
    mahalanobis_noise,
    mahalanobis_perturb,
    nadp_perturb,
    neighbourhood_density,
    word_substream,
)

from oracles import solve_u_quadrature
from synth import random_embeddings


def _pair_set(distance: float, d: int) -> EmbeddingSet:
    vecs = np.zeros((2, d))
    vecs[1, 0] = distance
    return EmbeddingSet(("a", "b"), vecs)


def _pair_partition(emb: EmbeddingSet):
    return build_partition(build_graph(emb, m=1, tau=0.0), emb)


def test_nadp_singleton_component_unchanged():
    # two tight triples plus "mid" halfway between them: mid's top-2 set
    # {a2, b0} shares nothing with a2's or b0's own sets, and mid is in
    # nobody's top-2, so it ends up alone with zero sensitivity
    coords = [0.0, 0.1, 0.2, 50.0, 50.1, 50.2, 25.08]
    names = ("a0", "a1", "a2", "b0", "b1", "b2", "mid")
    emb = EmbeddingSet(names, np.array(coords)[:, None])
    graph = build_graph(emb, m=2, tau=0.3)
    part = build_partition(graph, emb)
    mid = emb.index_of("mid")
    assert part.local_sensitivities[part.assignment[mid]] == 0.0
    assert part.local_sensitivities[part.assignment[0]] > 0.0
    out, report = nadp_perturb(emb, part, PrivacyParams(1.0, 0.05), seed=5)
    assert np.array_equal(out.vector("mid"), emb.vector("mid"))
    assert not np.array_equal(out.vector("a0"), emb.vector("a0"))
    assert report.zero_noise_words == 1


def test_nadp_seed_determinism():
    emb = random_embeddings(12, 4, seed=1)
    part = _noisy_partition(emb)
    params = PrivacyParams(1.0, 0.1)
    out1, _ = nadp_perturb(emb, part, params, seed=99)
    out2, _ = nadp_perturb(emb, part, params, seed=99)
    out3, _ = nadp_perturb(emb, part, params, seed=100)
    assert np.array_equal(out1.vectors, out2.vectors)
    assert not np.array_equal(out1.vectors, out3.vectors)


def _noisy_partition(emb):
    return build_partition(build_graph(emb, m=2, tau=0.0), emb)


def test_nadp_monte_carlo_variance():
    # one two-word component at distance 2; the noise variance must equal
    # (u_star * 2)^2, with u_star checked against the quadrature oracle
    d = 500
    emb = _pair_set(2.0, d)
    part = _pair_partition(emb)
    assert part.local_sensitivities.tolist() == [2.0]
    params = PrivacyParams(1.0, 0.1)
    u_oracle = solve_u_quadrature(1.0, 0.1)
    draws = []
    for seed in range(1000):
        out, report = nadp_perturb(emb, part, params, seed=seed)
        draws.append(out.vectors - emb.vectors)
        assert report.u_star == pytest.approx(u_oracle, rel=1e-9)
    sample = np.concatenate([n.ravel() for n in draws])
    assert sample.size == 10**6
    expected = (u_oracle * 2.0) ** 2
    assert sample.var() == pytest.approx(expected, rel=0.01)


def test_nadp_rejects_mismatched_partition():
    emb = random_embeddings(6, 3, seed=2)
    other = random_embeddings(8, 3, seed=3)
    part = _noisy_partition(other)
    with pytest.raises(ValueError, match="partition"):
        nadp_perturb(emb, part, PrivacyParams(1.0, 0.1), seed=0)


def test_nadp_sigma_monotone_in_sensitivity():
    emb = random_embeddings(40, 4, seed=4)
    part = build_partition(build_graph(emb, m=2, tau=0.1), emb)
    _, report = nadp_perturb(emb, part, PrivacyParams(1.0, 0.05), seed=0)
    deltas = np.array(report.delta_per_component)
    sigmas = np.array(report.sigma_per_component)
    order = np.argsort(deltas)
    assert np.all(np.diff(sigmas[order]) >= 0)


def test_gaussian_zero_sensitivity_is_identity():
    emb = random_embeddings(5, 3, seed=5)
    out, report = gaussian_perturb(emb, PrivacyParams(0.5, 0.1), 0.0, seed=1)
    assert np.array_equal(out.vectors, emb.vectors)
    assert report.zero_noise_words == 5


def test_gaussian_monte_carlo_variance():
    d = 500
    emb = _pair_set(1.0, d)
    params = PrivacyParams(0.5, 0.1)
    sigma = math.sqrt(2.0 * math.log(1.25 / 0.1)) / 0.5
    noises = []
    for seed in range(1000):
        out, report = gaussian_perturb(emb, params, 1.0, seed=seed)
        assert report.sigma_per_component[0] == pytest.approx(sigma, rel=1e-12)
        noises.append(out.vectors - emb.vectors)
    sample = np.concatenate([n.ravel() for n in noises])
    assert sample.var() == pytest.approx(sigma**2, rel=0.01)


def test_gaussian_seed_contract():
    emb = random_embeddings(6, 4, seed=6)
    params = PrivacyParams(0.5, 0.1)
    a, _ = gaussian_perturb(emb, params, 1.0, seed=1)
    b, _ = gaussian_perturb(emb, params, 1.0, seed=2)
    assert not np.array_equal(a.vectors, b.vectors)


def test_gaussian_epsilon_range():
    emb = random_embeddings(4, 2, seed=7)
    with pytest.raises(ValueError, match="proven only"):
        gaussian_perturb(emb, PrivacyParams(1.5, 0.1), 1.0, seed=0)
    out, report = gaussian_perturb(
        emb, PrivacyParams(1.5, 0.1), 1.0, seed=0, strict=False
    )
    assert not report.proven_dp
    assert out.vectors.shape == emb.vectors.shape


def test_laplace_monte_carlo_variance():
    # per-coordinate Laplace of scale b has variance 2 b^2
    d = 500
    emb = _pair_set(1.0, d)
    Delta, eps = 3.0, 1.5
    noises = []
    for seed in range(1000):
        out, _ = laplacian_perturb(emb, eps, Delta, seed=seed)
        noises.append(out.vectors - emb.vectors)
    sample = np.concatenate([n.ravel() for n in noises])
    assert sample.var() == pytest.approx(2.0 * (Delta / eps) ** 2, rel=0.02)


def test_laplace_identity_and_validation():
    emb = random_embeddings(4, 3, seed=8)
    out, _ = laplacian_perturb(emb, 1.0, 0.0, seed=3)
    assert np.array_equal(out.vectors, emb.vectors)
    with pytest.raises(ValueError):
        laplacian_perturb(emb, 0.0, 1.0, seed=3)
    a, _ = laplacian_perturb(emb, 1.0, 1.0, seed=3)
    b, _ = laplacian_perturb(emb, 1.0, 1.0, seed=3)
    assert np.array_equal(a.vectors, b.vectors)


def test_covariance_shape_trace():
    emb = random_embeddings(50, 8, seed=9)
    for lam in (0.0, 0.3, 1.0):
        shape = covariance_shape(emb, lam)
        assert np.trace(shape) == pytest.approx(emb.d, rel=1e-12)


def test_mahalanobis_spherical_norm_mean():
    # lambda = 0 collapses to spherical noise whose radius is Gamma(d, 1/eps)
    d, eps = 20, 2.0
    rng = np.random.default_rng(12345)
    eye = np.eye(d)
    norms = np.empty(10**6)
    for i in range(norms.size):
        norms[i] = np.linalg.norm(mahalanobis_noise(rng, eye, eps))
    assert norms.mean() == pytest.approx(d / eps, rel=0.02)


def test_mahalanobis_anisotropic_covariance():
    # with lambda = 1 the empirical noise covariance is proportional to the
    # trace-normalised data covariance: E[z z^T] = (d+1)/eps^2 * C
    rng = np.random.default_rng(77)
    d, n, eps = 10, 400, 1.0
    stretch = np.linspace(1.0, 4.0, d)
    data = rng.normal(0.0, 1.0, (n, d)) * stretch
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(n)), data)
    shape = covariance_shape(emb, 1.0)
    w, v = np.linalg.eigh(shape)
    shape_sqrt = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
    draws = np.empty((200_000, d))
    sample_rng = np.random.default_rng(11)
    for i in range(draws.shape[0]):
        draws[i] = mahalanobis_noise(sample_rng, shape_sqrt, eps)
    empirical = np.cov(draws, rowvar=False)
    expected = (d + 1) / eps**2 * shape
    err = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
    assert err < 0.05


def test_mahalanobis_perturb_api():
    emb = random_embeddings(30, 5, seed=10)
    out, report = mahalanobis_perturb(emb, epsilon=5.0, lambda_=1.0, seed=4)
    assert out.words == emb.words
    assert not np.array_equal(out.vectors, emb.vectors)
    again, _ = mahalanobis_perturb(emb, epsilon=5.0, lambda_=1.0, seed=4)
    assert np.array_equal(out.vectors, again.vectors)
    with pytest.raises(ValueError):
        mahalanobis_perturb(emb, epsilon=0.0, lambda_=1.0, seed=4)
    with pytest.raises(ValueError):
        mahalanobis_perturb(emb, epsilon=1.0, lambda_=2.0, seed=4)
    single = EmbeddingSet(("only",), np.ones((1, 3)))
    with pytest.raises(ValueError, match="covariance"):
        mahalanobis_perturb(single, epsilon=1.0, lambda_=1.0, seed=4)


def _jaccard(emb, params, ns, seed, strict=True, eta0=DEFAULT_ETA0):
    return jaccard_mechanism_perturb(
        emb, params, ns, eta0, DEFAULT_ALPHA1, DEFAULT_ALPHA2, seed, strict=strict
    )


def test_jaccard_all_identical_vectors_is_identity():
    # every density is 0 (all dense) and the sensitivity is 0, so no noise
    emb = EmbeddingSet(("a", "b", "c"), np.ones((3, 4)) * 2.5)
    ns = knn(emb, 2)
    out, report = _jaccard(emb, PrivacyParams(0.5, 0.1), ns, seed=1)
    assert np.array_equal(out.vectors, emb.vectors)
    assert report.zero_noise_words == 3
    assert report.extra["dense_words"] == 3


def test_jaccard_single_category_collapse():
    emb = random_embeddings(10, 4, seed=11)
    ns = knn(emb, 3)
    # eta0 below every density: everything lands in the sparse bin
    out, report = _jaccard(emb, PrivacyParams(0.5, 0.1), ns, seed=2, eta0=1e-9)
    assert report.extra["dense_words"] == 0
    assert report.extra["sparse_words"] == 10
    Delta = report.global_sensitivity
    expected = 1.276 * Delta * math.sqrt(2 * math.log(1.25 / 0.1)) / 0.5
    assert report.sigma_per_component[1] == pytest.approx(expected, rel=1e-12)


def test_jaccard_two_cluster_category_variances():
    # one tight and one loose cluster with eta0 between the density ranges
    d = 350
    rng = np.random.default_rng(13)
    tight = rng.normal(0.0, 0.01, (3, d))
    loose = rng.normal(40.0, 4.0, (3, d))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(6)), np.vstack([tight, loose]))
    ns = knn(emb, 2)
    eta = ns.distances.mean(axis=1)
    eta0 = float((eta[:3].max() + eta[3:].min()) / 2)
    params = PrivacyParams(0.9, 0.1)
    dense_noise, sparse_noise = [], []
    for seed in range(1000):
        out, report = _jaccard(emb, params, ns, seed=seed, eta0=eta0)
        noise = out.vectors - emb.vectors
        dense_noise.append(noise[:3].ravel())
        sparse_noise.append(noise[3:].ravel())
    assert report.extra["dense_words"] == 3
    assert report.extra["sparse_words"] == 3
    sigma1, sigma2 = report.sigma_per_component
    dense = np.concatenate(dense_noise)
    sparse = np.concatenate(sparse_noise)
    assert dense.size >= 10**6 and sparse.size >= 10**6
    assert dense.var() == pytest.approx(sigma1**2, rel=0.01)
    assert sparse.var() == pytest.approx(sigma2**2, rel=0.01)


def test_jaccard_epsilon_range():
    emb = random_embeddings(6, 3, seed=14)
    ns = knn(emb, 2)
    with pytest.raises(ValueError, match="proven only"):
        _jaccard(emb, PrivacyParams(2.0, 0.1), ns, seed=0)
    _, report = _jaccard(emb, PrivacyParams(2.0, 0.1), ns, seed=0, strict=False)
    assert not report.proven_dp


def test_mechanism_config_validation():
    # each knob is checked by the mechanism that reads it
    emb = random_embeddings(6, 3, seed=14)
    params = PrivacyParams(0.5, 0.1)
    with pytest.raises(ValueError, match="unknown mechanism"):
        Perturber(emb, delta=0.1).perturb("bogus", 0.5, seed=0)
    with pytest.raises(ValueError, match="lambda"):
        mahalanobis_perturb(emb, epsilon=1.0, lambda_=1.5, seed=0)
    ns = knn(emb, 2)
    with pytest.raises(ValueError, match="eta0"):
        jaccard_mechanism_perturb(emb, params, ns, 0.0, 1.835, 1.276, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        jaccard_mechanism_perturb(emb, params, ns, 6.0, -1.0, 1.276, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        jaccard_mechanism_perturb(emb, params, ns, 6.0, 1.835, -1.0, seed=0)


def test_perturber_rejects_m_density_below_one():
    # named at construction, whatever mechanism runs later
    emb = random_embeddings(6, 3, seed=14)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="m_density must be >= 1"):
            Perturber(emb, delta=0.1, m_density=bad)
    Perturber(emb, delta=0.1, m_density=1)


def test_perturber_rejects_m_below_one():
    emb = random_embeddings(6, 3, seed=14)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {bad}"):
            Perturber(emb, delta=0.1, m=bad)
    Perturber(emb, delta=0.1, m=1)


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan, 0.0])
def test_laplacian_and_mahalanobis_need_a_finite_epsilon(epsilon):
    # at epsilon = inf the Laplace scale and the Gamma radius are 0: the
    # release would be the input
    emb = random_embeddings(6, 3, seed=14)
    message = "epsilon must be finite and > 0"
    with pytest.raises(ValueError, match=message):
        laplacian_perturb(emb, epsilon, 1.0, seed=0)
    with pytest.raises(ValueError, match=message):
        mahalanobis_perturb(emb, epsilon, 1.0, seed=0)


@pytest.mark.parametrize(
    "kind", ["nadp", "gaussian", "laplacian", "mahalanobis", "jaccard"]
)
def test_zero_noise_words_counts_the_unchanged_words(kind):
    # nadp leaves the words of its singleton components unchanged and
    # noises the rest; every other mechanism noises every word
    rng = np.random.default_rng(19)
    centres = rng.normal(0.0, 5.0, (6, 4))
    vecs = centres[rng.integers(0, 6, 40)] + rng.normal(0.0, 0.3, (40, 4))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(40)), vecs)
    perturber = Perturber(emb, delta=0.05, m=2, tau=0.1, m_density=3, strict=False)
    out, report = perturber.perturb(kind, 0.8, seed=3)
    unchanged = int((out.vectors == emb.vectors).all(axis=1).sum())
    assert report.zero_noise_words == unchanged
    assert (0 < unchanged < emb.n) if kind == "nadp" else unchanged == 0
    # a zero sensitivity leaves every word of the scaled mechanisms unchanged
    for perturb in (
        lambda: gaussian_perturb(emb, PrivacyParams(0.5, 0.05), 0.0, seed=3),
        lambda: laplacian_perturb(emb, 0.8, 0.0, seed=3),
    ):
        out, report = perturb()
        assert np.array_equal(out.vectors, emb.vectors)
        assert report.zero_noise_words == emb.n


def test_word_substream_is_order_independent():
    # noise is keyed by (seed, word index) alone: the same word draws the
    # same noise no matter what else is in the set
    emb3 = random_embeddings(3, 4, seed=15)
    emb2 = EmbeddingSet(emb3.words[:2], emb3.vectors[:2])
    params = PrivacyParams(0.5, 0.1)
    out3, _ = gaussian_perturb(emb3, params, 1.0, seed=42)
    out2, _ = gaussian_perturb(emb2, params, 1.0, seed=42)
    assert np.array_equal(out3.vectors[:2], out2.vectors)


def test_word_substreams_are_distinct():
    a = word_substream(7, 0).normal(size=4)
    b = word_substream(7, 1).normal(size=4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [21, -5])
@pytest.mark.parametrize(
    "kind", ["nadp", "gaussian", "laplacian", "mahalanobis", "jaccard"]
)
def test_mechanisms_draw_each_word_from_its_substream(kind, seed):
    # the loops share one bit generator across words; the release must equal
    # a loop that builds word_substream(seed, i) afresh for every word
    rng = np.random.default_rng(18)
    centres = rng.normal(0.0, 5.0, (6, 4))
    vecs = centres[rng.integers(0, 6, 40)] + rng.normal(0.0, 0.3, (40, 4))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(40)), vecs)
    perturber = Perturber(emb, delta=0.05, m=2, tau=0.1, m_density=3, strict=False)
    out, report = perturber.perturb(kind, 0.8, seed)
    sigmas = report.sigma_per_component
    if kind == "nadp":
        sigma_of_word = np.asarray(sigmas)[perturber.partition.assignment]
        assert 0 < report.zero_noise_words < emb.n
    elif kind == "jaccard":
        dense = neighbourhood_density(perturber.density_sets) < perturber.eta0
        sigma_of_word = np.where(dense, sigmas[0], sigmas[1])
    else:
        sigma_of_word = np.full(emb.n, sigmas[0] if sigmas else 0.0)
    shape_sqrt = _sqrt_psd(covariance_shape(emb, perturber.lambda_))
    expected = np.array(emb.vectors)
    for i in range(emb.n):
        stream = word_substream(seed, i)
        if kind == "laplacian":
            expected[i] += stream.laplace(0.0, sigma_of_word[i], emb.d)
        elif kind == "mahalanobis":
            expected[i] += mahalanobis_noise(stream, shape_sqrt, 0.8)
        elif sigma_of_word[i] > 0.0:
            expected[i] += stream.normal(0.0, sigma_of_word[i], emb.d)
    assert np.array_equal(out.vectors, expected)


def test_shape_and_token_preservation_all_mechanisms():
    emb = random_embeddings(15, 6, seed=16)
    perturber = Perturber(emb, delta=0.05, m=2, tau=0.1, m_density=3, strict=False)
    for kind in ("nadp", "gaussian", "laplacian", "mahalanobis", "jaccard"):
        out, report = perturber.perturb(kind, 0.8, seed=21)
        assert out.words == emb.words
        assert out.vectors.shape == emb.vectors.shape
        assert report.kind == kind
        again, _ = perturber.perturb(kind, 0.8, seed=21)
        assert np.array_equal(out.vectors, again.vectors)


@pytest.mark.filterwarnings("ignore:component .* zero sensitivity")
@pytest.mark.parametrize("m_density", [1, 2, 30])
def test_perturber_partition_matches_a_fresh_graph(m_density):
    # the graph and the density sets are prefixes of one kNN pass at
    # max(m, m_density); the duplicate groups make a prefix depend on exact
    # tie order
    rng = np.random.default_rng(17)
    vecs = rng.integers(0, 2, (40, 3)).astype(float)
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(40)), vecs)
    perturber = Perturber(emb, delta=0.05, m=2, tau=0.1, m_density=m_density)
    ref = build_partition(build_graph(emb, m=2, tau=0.1), emb)
    assert perturber.partition.components == ref.components
    assert np.array_equal(perturber.partition.assignment, ref.assignment)
    assert np.array_equal(
        perturber.partition.local_sensitivities, ref.local_sensitivities
    )
    dense = knn(emb, m_density)
    assert perturber.density_sets.m == m_density
    assert np.array_equal(perturber.density_sets.indices, dense.indices)
    assert np.array_equal(perturber.density_sets.distances, dense.distances)


def test_perturber_computes_the_mahalanobis_square_root_once(monkeypatch):
    # the Perturber keeps the covariance square root after its first
    # Mahalanobis call; every cell still equals a direct call, which
    # computes its own
    import nadp.mechanisms as mechanisms

    emb = random_embeddings(30, 5, seed=22)
    direct = [mahalanobis_perturb(emb, eps, 0.7, seed=9) for eps in (1.0, 5.0)]
    calls = []

    def counted(mat):
        calls.append(1)
        return _sqrt_psd(mat)

    monkeypatch.setattr(mechanisms, "_sqrt_psd", counted)
    perturber = Perturber(emb, delta=0.05, m=2, tau=0.1, lambda_=0.7, m_density=3)
    perturber.partition
    perturber.density_sets
    assert calls == []  # set-up does not compute it
    for eps, (out, report) in zip((1.0, 5.0), direct):
        cell, cell_report = perturber.perturb("mahalanobis", eps, seed=9)
        assert cell.vectors.tobytes() == out.vectors.tobytes()
        assert cell_report == report
    assert calls == [1]
    with pytest.raises(ValueError, match="epsilon must be finite"):
        perturber.perturb("mahalanobis", math.inf, seed=9)
