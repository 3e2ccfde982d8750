import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nadp import mechanisms
from nadp.calibration import PrivacyParams
from nadp.components import build_partition
from nadp.embeddings import EmbeddingSet
from nadp.graph import build_graph, knn
from nadp.mechanisms import (
    DEFAULT_ETA0,
    MECHANISM_KINDS,
    Perturber,
    _sqrt_psd,
    covariance_shape,
    mahalanobis_noise,
    nadp_perturb,
    neighbourhood_density,
)

from oracles import solve_u_quadrature
from synth import clustered_embeddings, random_embeddings


def _pair_set(distance: float, d: int) -> EmbeddingSet:
    vecs = np.zeros((2, d))
    vecs[1, 0] = distance
    return EmbeddingSet(("a", "b"), vecs)


def _pair_partition(emb: EmbeddingSet):
    return build_partition(build_graph(emb, m=1, tau=0.0), emb)


def _pair_perturber(distance: float, d: int, **knobs) -> Perturber:
    # one edge between the two words, so the global sensitivity is `distance`
    perturber = Perturber(_pair_set(distance, d), delta=0.1, m=1, tau=0.0, **knobs)
    assert perturber.partition.global_sensitivity == distance
    return perturber


def _edgeless_perturber(emb: EmbeddingSet, **knobs) -> Perturber:
    # no two neighbour sets have Jaccard similarity 1, so tau = 1 leaves the
    # graph without edges and the global sensitivity 0
    perturber = Perturber(emb, tau=1.0, **knobs)
    assert perturber.partition.global_sensitivity == 0.0
    return perturber


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
    assert np.array_equal(out.vectors[mid], emb.vectors[mid])
    a0 = emb.index_of("a0")
    assert not np.array_equal(out.vectors[a0], emb.vectors[a0])
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
    perturber = _edgeless_perturber(emb, delta=0.1)
    out, report = perturber.perturb("gaussian", 0.5, seed=1)
    assert np.array_equal(out.vectors, emb.vectors)
    assert report.zero_noise_words == 5


def test_gaussian_monte_carlo_variance():
    d = 500
    perturber = _pair_perturber(1.0, d)
    emb = perturber.emb
    sigma = math.sqrt(2.0 * math.log(1.25 / 0.1)) / 0.5
    noises = []
    for seed in range(1000):
        out, report = perturber.perturb("gaussian", 0.5, seed=seed)
        assert report.sigma_per_component[0] == pytest.approx(sigma, rel=1e-12)
        noises.append(out.vectors - emb.vectors)
    sample = np.concatenate([n.ravel() for n in noises])
    assert sample.var() == pytest.approx(sigma**2, rel=0.01)


def test_gaussian_seed_contract():
    perturber = _pair_perturber(1.0, 4)
    a, _ = perturber.perturb("gaussian", 0.5, seed=1)
    b, _ = perturber.perturb("gaussian", 0.5, seed=2)
    assert not np.array_equal(a.vectors, b.vectors)


def test_gaussian_epsilon_range():
    with pytest.raises(ValueError, match="proven only"):
        _pair_perturber(1.0, 2).perturb("gaussian", 1.5, seed=0)
    out, report = _pair_perturber(1.0, 2, strict=False).perturb("gaussian", 1.5, seed=0)
    assert not report.proven_dp
    assert out.vectors.shape == (2, 2)


def test_laplace_monte_carlo_variance():
    # per-coordinate Laplace of scale b has variance 2 b^2
    d = 500
    Delta, eps = 3.0, 1.5
    perturber = _pair_perturber(Delta, d)
    emb = perturber.emb
    noises = []
    for seed in range(1000):
        out, _ = perturber.perturb("laplacian", eps, seed=seed)
        noises.append(out.vectors - emb.vectors)
    sample = np.concatenate([n.ravel() for n in noises])
    assert sample.var() == pytest.approx(2.0 * (Delta / eps) ** 2, rel=0.02)


def test_laplace_identity_and_validation():
    emb = random_embeddings(4, 3, seed=8)
    out, _ = _edgeless_perturber(emb, delta=0.1).perturb("laplacian", 1.0, seed=3)
    assert np.array_equal(out.vectors, emb.vectors)
    perturber = _pair_perturber(1.0, 3)
    with pytest.raises(ValueError):
        perturber.perturb("laplacian", 0.0, seed=3)
    a, _ = perturber.perturb("laplacian", 1.0, seed=3)
    b, _ = perturber.perturb("laplacian", 1.0, seed=3)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, perturber.emb.vectors)


def test_covariance_shape_trace():
    emb = random_embeddings(50, 8, seed=9)
    for lam in (0.0, 0.3, 1.0):
        shape = covariance_shape(emb, lam)
        assert np.trace(shape) == pytest.approx(emb.d, rel=1e-12)


def test_covariance_shape_of_identical_vectors_is_isotropic():
    # identical vectors have a zero covariance, whose trace cannot be
    # normalised to d: the shape falls back to the identity
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(6)), np.tile([1.0, -2.0, 0.5], (6, 1)))
    for lam in (0.0, 0.5, 1.0):
        assert np.array_equal(covariance_shape(emb, lam), np.eye(3))


def test_mahalanobis_spherical_norm_mean():
    # lambda = 0 collapses to spherical noise whose radius is Gamma(d, 1/eps)
    d, eps = 20, 2.0
    rng = np.random.default_rng(12345)
    eye = np.eye(d)
    norms = np.concatenate([
        np.linalg.norm(mahalanobis_noise(rng, eye, eps, 10**5), axis=1)
        for _ in range(10)
    ])
    assert norms.mean() == pytest.approx(d / eps, rel=0.02)


class _ZeroRowFirst:
    """A generator whose first normal draw has an all-zero row 1."""

    def __init__(self, seed):
        self.rng, self.normal_draws = np.random.default_rng(seed), 0

    def standard_normal(self, shape):
        v = self.rng.standard_normal(shape)
        if not self.normal_draws:
            v[1] = 0.0
        self.normal_draws += 1
        return v

    def gamma(self, shape, scale, size):
        return self.rng.gamma(shape=shape, scale=scale, size=size)


def test_mahalanobis_redraws_a_zero_direction():
    stub = _ZeroRowFirst(5)
    draws = mahalanobis_noise(stub, np.eye(3), 2.0, 4)
    assert stub.normal_draws == 2
    # the same stream: row 1 takes the redraw, then the radii
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 3))
    v[1] = rng.standard_normal((1, 3))
    radii = rng.gamma(shape=3, scale=0.5, size=4)
    expected = v / np.linalg.norm(v, axis=1)[:, None] * radii[:, None]
    assert np.allclose(draws, expected, rtol=1e-12, atol=0.0)


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
    draws = mahalanobis_noise(np.random.default_rng(11), shape_sqrt, eps, 200_000)
    empirical = np.cov(draws, rowvar=False)
    expected = (d + 1) / eps**2 * shape
    err = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
    assert err < 0.05


def test_mahalanobis_perturb_api():
    emb = random_embeddings(30, 5, seed=10)
    perturber = Perturber(emb, delta=0.1, lambda_=1.0)
    out, report = perturber.perturb("mahalanobis", 5.0, seed=4)
    assert out.words == emb.words
    assert not np.array_equal(out.vectors, emb.vectors)
    again, _ = Perturber(emb, delta=0.1, lambda_=1.0).perturb("mahalanobis", 5.0, seed=4)
    assert np.array_equal(out.vectors, again.vectors)
    with pytest.raises(ValueError):
        perturber.perturb("mahalanobis", 0.0, seed=4)
    with pytest.raises(ValueError):
        Perturber(emb, delta=0.1, lambda_=2.0)
    single = EmbeddingSet(("only",), np.ones((1, 3)))
    with pytest.raises(ValueError, match="need at least 2 words, got 1"):
        Perturber(single, delta=0.1, lambda_=1.0)


def _jaccard(emb, epsilon, m_density, seed, strict=True, eta0=DEFAULT_ETA0):
    perturber = Perturber(emb, delta=0.1, eta0=eta0, m_density=m_density, strict=strict)
    return perturber.perturb("jaccard", epsilon, seed)


def test_jaccard_all_identical_vectors_is_identity():
    # every density is 0 (all dense) and the sensitivity is 0, so no noise
    emb = EmbeddingSet(("a", "b", "c"), np.ones((3, 4)) * 2.5)
    out, report = _jaccard(emb, 0.5, 2, seed=1)
    assert np.array_equal(out.vectors, emb.vectors)
    assert report.zero_noise_words == 3
    assert report.extra["dense_words"] == 3


def test_jaccard_single_category_collapse():
    emb = random_embeddings(10, 4, seed=11)
    # eta0 below every density: everything lands in the sparse bin
    out, report = _jaccard(emb, 0.5, 3, seed=2, eta0=1e-9)
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
    perturber = Perturber(emb, delta=0.1, eta0=eta0, m_density=2)
    dense_noise, sparse_noise = [], []
    for seed in range(1000):
        out, report = perturber.perturb("jaccard", 0.9, seed=seed)
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
    with pytest.raises(ValueError, match="proven only"):
        _jaccard(emb, 2.0, 2, seed=0)
    _, report = _jaccard(emb, 2.0, 2, seed=0, strict=False)
    assert not report.proven_dp


def test_mechanism_config_validation():
    # each knob is checked when the Perturber is built, whatever mechanism
    # runs later
    emb = random_embeddings(6, 3, seed=14)
    with pytest.raises(ValueError, match="unknown mechanism"):
        Perturber(emb, delta=0.1).perturb("bogus", 0.5, seed=0)
    with pytest.raises(ValueError, match="lambda"):
        Perturber(emb, delta=0.1, lambda_=1.5)
    with pytest.raises(ValueError, match="eta0"):
        Perturber(emb, delta=0.1, eta0=0.0)
    with pytest.raises(ValueError, match="alpha1"):
        Perturber(emb, delta=0.1, alpha1=-1.0)
    with pytest.raises(ValueError, match="alpha2"):
        Perturber(emb, delta=0.1, alpha2=-1.0)


def test_perturber_rejects_m_density_below_one():
    # named at construction, whatever mechanism runs later
    emb = random_embeddings(6, 3, seed=14)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="m_density must be >= 1"):
            Perturber(emb, delta=0.1, m_density=bad)
    Perturber(emb, delta=0.1, m_density=1)


def test_perturber_rejects_tau_and_delta_when_built(monkeypatch):
    # a tau or delta out of its domain is named before the shared kNN runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran the kNN before the knobs were checked")

    monkeypatch.setattr(mechanisms, "knn", must_not_run)
    emb = random_embeddings(6, 3, seed=14)
    with pytest.raises(ValueError, match=r"tau must be in \[0, 1\], got 2.0"):
        Perturber(emb, delta=0.1, tau=2.0)
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\), got 2.0"):
        Perturber(emb, delta=2.0)


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
    perturber = Perturber(random_embeddings(6, 3, seed=14), delta=0.1)
    message = "epsilon must be finite and > 0"
    with pytest.raises(ValueError, match=message):
        perturber.perturb("laplacian", epsilon, seed=0)
    with pytest.raises(ValueError, match=message):
        perturber.perturb("mahalanobis", epsilon, seed=0)


_BAD_BEFORE_THE_KNN = (
    [(kind, eps, True, {}) for kind in MECHANISM_KINDS
     for eps in (math.inf, -1.0, math.nan)]
    + [(kind, eps, strict, {}) for kind in ("gaussian", "jaccard")
       for eps, strict in ((2.0, True), (0.0, False))]
    + [("jaccard", 0.5, True, {knob: value}) for knob in ("eta0", "alpha1", "alpha2")
       for value in (-1.0, 0.0, math.nan)]
)


@pytest.mark.parametrize(
    "kind, epsilon, strict, knobs",
    _BAD_BEFORE_THE_KNN,
    ids=["-".join([f"{kind}-{eps}-{strict}", *(f"{k}={v}" for k, v in knobs.items())])
         for kind, eps, strict, knobs in _BAD_BEFORE_THE_KNN],
)
def test_perturber_rejects_a_bad_epsilon_before_the_knn(
    monkeypatch, kind, epsilon, strict, knobs
):
    # the shared kNN costs O(n^2 d); an epsilon the mechanism rejects must
    # not pay for it, nor a jaccard knob, which the Perturber rejects when it
    # is built
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran the kNN before epsilon was checked")

    monkeypatch.setattr(mechanisms, "knn", must_not_run)
    emb = random_embeddings(6, 3, seed=14)
    if knobs:
        [(knob, value)] = knobs.items()
        message = f"{knob} must be > 0, got {value}"
    elif epsilon == 2.0:  # outside the range proven under strict=True
        message = f"the {kind} mechanism's closed-form calibration is proven only"
    elif epsilon == 0.0:  # the closed form divides by epsilon
        message = "epsilon must be > 0, got 0.0"
    elif kind in ("laplacian", "mahalanobis"):
        message = f"epsilon must be finite and > 0, got {epsilon}"
    else:
        message = f"epsilon must be finite and >= 0, got {epsilon}"
    if knobs:  # rejected when the Perturber is built
        with pytest.raises(ValueError) as error:
            Perturber(emb, delta=0.1, m=2, tau=0.1, strict=strict, **knobs)
    else:
        perturber = Perturber(emb, delta=0.1, m=2, tau=0.1, strict=strict)
        with pytest.raises(ValueError) as error:
            perturber.perturb(kind, epsilon, seed=0)
    assert str(error.value).startswith(message)


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
    edgeless = _edgeless_perturber(emb, delta=0.05)
    for kind, epsilon in (("gaussian", 0.5), ("laplacian", 0.8)):
        out, report = edgeless.perturb(kind, epsilon, seed=3)
        assert np.array_equal(out.vectors, emb.vectors)
        assert report.zero_noise_words == emb.n


def _clustered_perturber(**knobs) -> Perturber:
    # 40 4-d words in six tight clusters: nadp leaves some words alone
    rng = np.random.default_rng(18)
    centres = rng.normal(0.0, 5.0, (6, 4))
    vecs = centres[rng.integers(0, 6, 40)] + rng.normal(0.0, 0.3, (40, 4))
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(40)), vecs)
    settings = dict(delta=0.05, m=2, tau=0.1, m_density=3, strict=False)
    return Perturber(emb, **{**settings, **knobs})


def _reference_rng(seed, kind, epsilon, delta, emb, scales):
    # the documented key, built independently of the library: SHA-256 over
    # the JSON head [seed, kind, epsilon, delta, n, d, scales' shape] and
    # the scales' float64 bytes, seeding one SFC64 generator
    scales = np.asarray(scales, dtype="<f8")
    head = [seed, kind, epsilon, delta, emb.n, emb.d, list(scales.shape)]
    key = hashlib.sha256(json.dumps(head).encode() + scales.tobytes())
    return np.random.Generator(np.random.SFC64(int.from_bytes(key.digest(), "little")))


@pytest.mark.parametrize("seed", [21, -5])
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_mechanisms_draw_one_matrix_per_release(kind, seed):
    # one generator per release, keyed on everything that shapes the noise,
    # draws the noised words' rows in word order: the Gaussian draws equal
    # one standard-normal matrix scaled per row, the Laplace draw one Laplace
    # matrix, and the Mahalanobis draw (40 words, so one chunk) a per-word
    # loop of elliptical draws
    perturber = _clustered_perturber()
    emb = perturber.emb
    out, report = perturber.perturb(kind, 0.8, seed)
    sigmas = report.sigma_per_component
    expected = np.array(emb.vectors)
    if kind == "mahalanobis":
        shape_sqrt = _sqrt_psd(covariance_shape(emb, perturber.lambda_))
        rng = _reference_rng(seed, kind, 0.8, None, emb, shape_sqrt)
        v = rng.standard_normal((emb.n, emb.d))
        r = rng.gamma(emb.d, 1.0 / 0.8, emb.n)
        for i in range(emb.n):
            expected[i] += r[i] * (shape_sqrt @ (v[i] / np.linalg.norm(v[i])))
        # the batched norms and GEMM round differently from the loop's
        assert np.allclose(out.vectors, expected, rtol=1e-12, atol=1e-12)
        return
    if kind == "laplacian":
        rng = _reference_rng(seed, kind, 0.8, None, emb, sigmas)
        expected += rng.laplace(0.0, sigmas[0], (emb.n, emb.d))
    else:
        if kind == "nadp":
            sigma_of_word = np.asarray(sigmas)[perturber.partition.assignment]
            assert 0 < report.zero_noise_words < emb.n
        elif kind == "jaccard":
            dense = neighbourhood_density(perturber.density_sets) < perturber.eta0
            sigma_of_word = np.where(dense, sigmas[0], sigmas[1])
        else:
            sigma_of_word = np.full(emb.n, sigmas[0])
        rng = _reference_rng(seed, kind, 0.8, 0.05, emb, sigma_of_word)
        rows = np.flatnonzero(sigma_of_word)
        z = rng.standard_normal((rows.size, emb.d))
        expected[rows] += sigma_of_word[rows, None] * z
    assert np.array_equal(out.vectors, expected)


@pytest.mark.parametrize("kind", ["nadp", "gaussian", "laplacian"])
def test_release_bits_do_not_depend_on_the_chunk_rows(kind, monkeypatch):
    # the Gaussian and Laplace draws read the generator in word order, so
    # the rows drawn per call leave the release's bits alone
    perturber = _clustered_perturber()
    out, _ = perturber.perturb(kind, 0.8, seed=3)
    for rows in (1, 7, perturber.emb.n):
        monkeypatch.setattr(mechanisms, "_CHUNK_ROWS", rows)
        again, _ = perturber.perturb(kind, 0.8, seed=3)
        assert again.vectors.tobytes() == out.vectors.tobytes()


def _noise_directions(out: EmbeddingSet, emb: EmbeddingSet) -> np.ndarray:
    noise = out.vectors - emb.vectors
    norms = np.linalg.norm(noise, axis=1, keepdims=True)
    return np.divide(noise, norms, out=np.zeros_like(noise), where=norms > 0)


# one knob per mechanism whose change moves its noise scales
_SCALE_KNOBS = {
    "nadp": {"tau": 0.5},
    "gaussian": {"tau": 0.5},
    "laplacian": {"tau": 0.5},
    "mahalanobis": {"lambda_": 0.5},
    "jaccard": {"eta0": 0.6},
}


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_every_key_field_draws_independent_noise(kind):
    # a repeat call is byte-identical; another seed, epsilon, delta (where
    # the mechanism uses one) or noise-shaping knob redraws every noised
    # word's noise, not just its scale, so no twin release cancels it
    perturber = _clustered_perturber()
    emb = perturber.emb
    out, report = perturber.perturb(kind, 0.8, seed=3)
    assert perturber.perturb(kind, 0.8, seed=3)[0].vectors.tobytes() == (
        out.vectors.tobytes()
    )
    noised = (out.vectors != emb.vectors).any(axis=1)
    assert noised.sum() > emb.n // 2
    rescaled = [
        perturber.perturb(kind, 0.9, seed=3),
        _clustered_perturber(**_SCALE_KNOBS[kind]).perturb(kind, 0.8, seed=3),
    ]
    if report.delta is not None:
        rescaled.append(_clustered_perturber(delta=0.04).perturb(kind, 0.8, seed=3))
    assert all(other_report != report for _, other_report in rescaled)
    direction = _noise_directions(out, emb)
    for other, _ in [perturber.perturb(kind, 0.8, seed=4), *rescaled]:
        same = np.isclose(direction, _noise_directions(other, emb)).all(axis=1)
        assert not same[noised].any()


def test_a_subset_of_the_words_draws_other_noise():
    # n is part of the key: a word's noise depends on the whole release,
    # not on its index alone. At m = 1 both sets have the one edge length
    # |a - b| = 1 as their global sensitivity, so the two share every scale
    vecs3 = np.zeros((3, 4))
    vecs3[1, 0], vecs3[2, 0] = 1.0, -0.5
    emb3 = EmbeddingSet(("a", "b", "c"), vecs3)
    emb2 = EmbeddingSet(emb3.words[:2], emb3.vectors[:2])
    out3, report3 = Perturber(emb3, delta=0.1, m=1, tau=0.0).perturb("gaussian", 0.5, 42)
    out2, report2 = Perturber(emb2, delta=0.1, m=1, tau=0.0).perturb("gaussian", 0.5, 42)
    assert report3.sigma_per_component == report2.sigma_per_component
    assert (out3.vectors[:2] != out2.vectors).all()


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_no_public_report_holds_the_seed(kind):
    report = _clustered_perturber().perturb(kind, 0.8, seed=123456789)[1]
    public = report.to_dict()
    assert "seed" not in public
    assert 123456789 not in public.values()
    assert "seed" not in {f.name for f in dataclasses.fields(report)}


def test_twin_nadp_releases_do_not_reveal_the_clean_vectors():
    # two releases with one seed at epsilon 1 and 5: with a shared noise
    # draw a = x + u_A Delta z and b = x + u_B Delta z, and
    # (u_B a - u_A b) / (u_B - u_A) gives back x exactly. Independent draws
    # leave it about 1.9 times the smaller sigma off
    emb = clustered_embeddings(300, 8, 12, seed=5)
    partition = build_partition(build_graph(emb, m=2, tau=0.1), emb)
    a, report_a = nadp_perturb(emb, partition, PrivacyParams(1.0, 1e-4), seed=42)
    b, report_b = nadp_perturb(emb, partition, PrivacyParams(5.0, 1e-4), seed=42)
    u_a, u_b = report_a.u_star, report_b.u_star
    guess = (u_b * a.vectors - u_a * b.vectors) / (u_b - u_a)
    smaller_sigma = np.asarray(report_b.sigma_per_component)[partition.assignment]
    noised = smaller_sigma > 0.0
    assert noised.sum() > 150
    err = np.sqrt(((guess - emb.vectors) ** 2).mean(axis=1))[noised]
    ratio = err / smaller_sigma[noised]
    assert 1.0 < np.median(ratio) < 3.0
    assert ratio.min() > 0.1


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
    assert perturber.partition.k == ref.k
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
    # Mahalanobis call; every cell still equals a fresh Perturber's, which
    # computes its own
    emb = random_embeddings(30, 5, seed=22)
    direct = [Perturber(emb, delta=0.05, lambda_=0.7).perturb("mahalanobis", eps, seed=9)
              for eps in (1.0, 5.0)]
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
