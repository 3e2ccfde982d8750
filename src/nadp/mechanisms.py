"""The five embedding perturbation mechanisms.

* neighbourhood-aware (``nadp``): per-component Gaussian noise with
  sigma_i = u_star * Delta_i, the minimal scales passing the analytic DP
  condition; words in singleton components are returned unchanged.
* ``gaussian``: one classic closed-form sigma for the whole vocabulary.
* ``laplacian``: independent per-coordinate Laplace noise of scale
  Delta/epsilon (the plain L1-style baseline).
* ``mahalanobis``: elliptical noise r * C^(1/2) v with v uniform on the unit
  sphere and a Gamma-distributed radius, shaped by the embedding covariance.
* ``jaccard``: two density categories (dense/sparse by mean neighbour
  distance), each with its own closed-form Gaussian sigma.

All mechanisms draw noise from one counter-based substream per word index,
derived from the master seed, so outputs do not depend on iteration order or
parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import PrivacyParams, solve_u_star
from .components import ComponentPartition, build_partition
from .embeddings import EmbeddingSet
from .graph import DEFAULT_M, DEFAULT_TAU, NeighbourSets, build_graph, knn

MECHANISM_KINDS = ("nadp", "gaussian", "laplacian", "mahalanobis", "jaccard")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class MechanismConfig:
    """Mechanism selection plus the knobs the baselines need.

    `lambda_` blends the embedding covariance into the Mahalanobis noise
    shape; `eta0` splits dense from sparse words by mean neighbour distance;
    `alpha1`/`alpha2` are the dense/sparse scale constants of the two-category
    mechanism, quoted for neighbourhood size `m_density`.
    """

    kind: str
    params: PrivacyParams
    seed: int
    lambda_: float = 1.0
    eta0: float = 6.0
    alpha1: float = 1.835
    alpha2: float = 1.276
    m_density: int = 10

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism {self.kind!r}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_}")
        if not self.eta0 > 0.0:
            raise ValueError(f"eta0 must be > 0, got {self.eta0}")
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise ValueError("alpha1 and alpha2 must be > 0")
        if self.m_density < 1:
            raise ValueError(f"m_density must be >= 1, got {self.m_density}")


@dataclass(frozen=True)
class PerturbationReport:
    """Exact record of the noise scales a perturbation run used."""

    kind: str
    seed: int
    epsilon: float
    delta: float | None
    sigma_per_component: tuple[float, ...]
    delta_per_component: tuple[float, ...]
    global_sensitivity: float
    u_star: float | None
    zero_noise_words: int
    proven_dp: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.kind,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "sigma_per_component": list(self.sigma_per_component),
            "delta_per_component": list(self.delta_per_component),
            "global_sensitivity": self.global_sensitivity,
            "u_star": self.u_star,
            "zero_noise_words": self.zero_noise_words,
            "proven_dp": self.proven_dp,
            **self.extra,
        }


def word_substream(seed: int, word_index: int) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by (master seed, word index)."""
    key = np.array([seed & _MASK64, word_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _classic_sigma_unchecked(epsilon: float, delta: float, Delta: float) -> float:
    # closed form without the epsilon < 1 validity check; used for sweeps
    # that deliberately run the formula outside its proven range
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return Delta * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def _require_proven_range(epsilon: float, strict: bool, kind: str) -> bool:
    if 0.0 < epsilon < 1.0:
        return True
    if strict:
        raise ValueError(
            f"the {kind} mechanism's closed-form calibration is proven only "
            f"for epsilon in (0, 1), got {epsilon}; pass strict=False to run "
            "the formula outside that range anyway"
        )
    return False


def _perturb_gaussian_scales(
    emb: EmbeddingSet, sigma_of_word: np.ndarray, seed: int
) -> tuple[EmbeddingSet, int]:
    """Add per-word isotropic Gaussian noise; sigma 0 leaves a word unchanged."""
    out = np.array(emb.vectors, dtype=np.float64)
    zero = 0
    for i in range(emb.n):
        s = float(sigma_of_word[i])
        if s == 0.0:
            zero += 1
            continue
        out[i] += word_substream(seed, i).normal(0.0, s, emb.d)
    return EmbeddingSet(emb.words, out), zero


def nadp_perturb(
    emb: EmbeddingSet,
    partition: ComponentPartition,
    params: PrivacyParams,
    seed: int,
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Neighbourhood-aware perturbation: solve for the minimal global noise
    multiplier u_star, then give every word the scale of its own component,
    sigma_i = u_star * Delta_i. Valid for any epsilon >= 0."""
    if partition.assignment.shape[0] != emb.n:
        raise ValueError(
            f"partition covers {partition.assignment.shape[0]} words, "
            f"embedding set has {emb.n}"
        )
    u_star = solve_u_star(params)
    sigmas = u_star * partition.local_sensitivities
    sigma_of_word = sigmas[partition.assignment]
    perturbed, zero = _perturb_gaussian_scales(emb, sigma_of_word, seed)
    report = PerturbationReport(
        kind="nadp",
        seed=seed,
        epsilon=params.epsilon,
        delta=params.delta,
        sigma_per_component=tuple(float(s) for s in sigmas),
        delta_per_component=tuple(float(d) for d in partition.local_sensitivities),
        global_sensitivity=partition.global_sensitivity,
        u_star=u_star,
        zero_noise_words=zero,
        proven_dp=True,
    )
    return perturbed, report


def gaussian_perturb(
    emb: EmbeddingSet,
    params: PrivacyParams,
    Delta: float,
    seed: int,
    strict: bool = True,
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Classic Gaussian mechanism: one closed-form sigma for every word.

    With strict=True (the default) epsilon must lie in (0, 1), the range for
    which the closed form is proven; strict=False evaluates the same formula
    anyway so that benchmark sweeps over large epsilon can include this
    mechanism, and flags the report as not proven.
    """
    if Delta < 0.0:
        raise ValueError(f"sensitivity must be >= 0, got {Delta}")
    proven = _require_proven_range(params.epsilon, strict, "gaussian")
    sigma = _classic_sigma_unchecked(params.epsilon, params.delta, Delta)
    sigma_of_word = np.full(emb.n, sigma)
    perturbed, zero = _perturb_gaussian_scales(emb, sigma_of_word, seed)
    report = PerturbationReport(
        kind="gaussian",
        seed=seed,
        epsilon=params.epsilon,
        delta=params.delta,
        sigma_per_component=(float(sigma),),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        u_star=None,
        zero_noise_words=zero,
        proven_dp=proven,
    )
    return perturbed, report


def laplacian_perturb(
    emb: EmbeddingSet, epsilon: float, Delta: float, seed: int
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Independent per-coordinate Laplace noise with scale Delta/epsilon."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if Delta < 0.0:
        raise ValueError(f"sensitivity must be >= 0, got {Delta}")
    scale = Delta / epsilon
    out = np.array(emb.vectors, dtype=np.float64)
    zero = emb.n if scale == 0.0 else 0
    if scale > 0.0:
        for i in range(emb.n):
            out[i] += word_substream(seed, i).laplace(0.0, scale, emb.d)
    report = PerturbationReport(
        kind="laplacian",
        seed=seed,
        epsilon=epsilon,
        delta=None,
        sigma_per_component=(float(scale),),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        u_star=None,
        zero_noise_words=zero,
        proven_dp=False,
        extra={"noise": "per-coordinate Laplace, scale Delta/epsilon"},
    )
    return EmbeddingSet(emb.words, out), report


def covariance_shape(emb: EmbeddingSet, lambda_: float) -> np.ndarray:
    """Blend of the trace-normalised embedding covariance with the identity:
    C = lambda * Sigma_norm + (1 - lambda) * I, where Sigma_norm is the
    sample covariance rescaled to trace d. C always has trace d."""
    d = emb.d
    cov = np.cov(emb.vectors, rowvar=False)
    cov = np.atleast_2d(cov)
    tr = float(np.trace(cov))
    if tr <= 0.0:
        # degenerate (e.g. all identical vectors): fall back to isotropic
        cov_norm = np.eye(d)
    else:
        cov_norm = cov * (d / tr)
    return lambda_ * cov_norm + (1.0 - lambda_) * np.eye(d)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    # symmetric square root; eigenvalues clamped at 0 against fp noise
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def mahalanobis_noise(
    rng: np.random.Generator, shape_sqrt: np.ndarray, epsilon: float
) -> np.ndarray:
    """One elliptical noise draw: Gamma(d, 1/epsilon) radius times a uniform
    unit-sphere direction, mapped through the covariance square root."""
    d = shape_sqrt.shape[0]
    v = rng.normal(0.0, 1.0, d)
    norm = float(np.linalg.norm(v))
    while norm == 0.0:  # probability-zero guard
        v = rng.normal(0.0, 1.0, d)
        norm = float(np.linalg.norm(v))
    r = rng.gamma(shape=d, scale=1.0 / epsilon)
    return r * (shape_sqrt @ (v / norm))


def mahalanobis_perturb(
    emb: EmbeddingSet, epsilon: float, lambda_: float, seed: int
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Elliptical noise following the covariance structure of the embeddings.

    Non-normative construction: this mirrors the usual elliptical recipe
    (Gamma radius, sphere direction, covariance square root); only lambda and
    the epsilon range are fixed by the benchmark protocol.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lambda_}")
    if emb.n < 2:
        raise ValueError("need at least 2 words to estimate a covariance")
    shape = covariance_shape(emb, lambda_)
    shape_sqrt = _sqrt_psd(shape)
    out = np.array(emb.vectors, dtype=np.float64)
    for i in range(emb.n):
        out[i] += mahalanobis_noise(word_substream(seed, i), shape_sqrt, epsilon)
    report = PerturbationReport(
        kind="mahalanobis",
        seed=seed,
        epsilon=epsilon,
        delta=None,
        sigma_per_component=(),
        delta_per_component=(),
        global_sensitivity=0.0,
        u_star=None,
        zero_noise_words=0,
        proven_dp=False,
        extra={
            "lambda": lambda_,
            "noise": "non-normative elliptical construction "
            "(Gamma radius, unit-sphere direction, covariance square root)",
        },
    )
    return EmbeddingSet(emb.words, out), report


def neighbourhood_density(neighbour_sets: NeighbourSets) -> np.ndarray:
    """Mean Euclidean distance from each word to its nearest neighbours."""
    return neighbour_sets.distances.mean(axis=1)


def jaccard_mechanism_perturb(
    emb: EmbeddingSet,
    params: PrivacyParams,
    neighbour_sets: NeighbourSets,
    config: MechanismConfig,
    seed: int,
    strict: bool = True,
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Two-category density baseline.

    Words are split by their mean neighbour distance eta(x) into dense
    (eta < eta0) and sparse (eta >= eta0); category i receives isotropic
    Gaussian noise with sigma_i = Delta * alpha_i * sqrt(2*log(1.25/delta)) /
    epsilon, where Delta is the average distance from a word to its
    furthermost neighbour.
    """
    if neighbour_sets.n != emb.n:
        raise ValueError("neighbour sets do not match the embedding set")
    proven = _require_proven_range(params.epsilon, strict, "jaccard")
    eta = neighbourhood_density(neighbour_sets)
    Delta = float(neighbour_sets.distances[:, -1].mean())
    dense = eta < config.eta0
    base = _classic_sigma_unchecked(params.epsilon, params.delta, Delta)
    sigma1 = config.alpha1 * base
    sigma2 = config.alpha2 * base
    sigma_of_word = np.where(dense, sigma1, sigma2)
    perturbed, zero = _perturb_gaussian_scales(emb, sigma_of_word, seed)
    report = PerturbationReport(
        kind="jaccard",
        seed=seed,
        epsilon=params.epsilon,
        delta=params.delta,
        sigma_per_component=(float(sigma1), float(sigma2)),
        delta_per_component=(float(Delta), float(Delta)),
        global_sensitivity=Delta,
        u_star=None,
        zero_noise_words=zero,
        proven_dp=proven,
        extra={
            "eta0": config.eta0,
            "alpha1": config.alpha1,
            "alpha2": config.alpha2,
            "m_density": neighbour_sets.m,
            "dense_words": int(dense.sum()),
            "sparse_words": int(emb.n - dense.sum()),
        },
    )
    return perturbed, report


class Perturber:
    """Shared-state dispatcher over the five mechanisms for one clean set.

    The neighbour graph, component partition and density neighbour sets are
    computed lazily once, from a single kNN pass, and reused across
    (mechanism, epsilon, seed) calls, which is what benchmark sweeps need.
    """

    def __init__(
        self,
        emb: EmbeddingSet,
        delta: float,
        m: int = DEFAULT_M,
        tau: float = DEFAULT_TAU,
        lambda_: float = 1.0,
        eta0: float = 6.0,
        alpha1: float = 1.835,
        alpha2: float = 1.276,
        m_density: int = 10,
        strict: bool = True,
    ) -> None:
        self.emb = emb
        self.delta = delta
        self.m = m
        self.tau = tau
        self.lambda_ = lambda_
        self.eta0 = eta0
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.m_density = m_density
        self.strict = strict
        self._partition: ComponentPartition | None = None
        self._neighbour_sets: NeighbourSets | None = None

    @property
    def _knn(self) -> NeighbourSets:
        # one kNN pass at max(m, m_density); the graph and the density sets
        # are exact prefixes of it
        if self._neighbour_sets is None:
            self._neighbour_sets = knn(self.emb, max(self.m, self.m_density))
        return self._neighbour_sets

    @property
    def partition(self) -> ComponentPartition:
        if self._partition is None:
            graph = build_graph(
                self.emb, self.m, self.tau, neighbour_sets=self._knn.prefix(self.m)
            )
            self._partition = build_partition(graph, self.emb)
        return self._partition

    @property
    def density_sets(self) -> NeighbourSets:
        return self._knn.prefix(self.m_density)

    def config(self, kind: str, epsilon: float, seed: int) -> MechanismConfig:
        return MechanismConfig(
            kind=kind,
            params=PrivacyParams(epsilon=epsilon, delta=self.delta),
            seed=seed,
            lambda_=self.lambda_,
            eta0=self.eta0,
            alpha1=self.alpha1,
            alpha2=self.alpha2,
            m_density=self.m_density,
        )

    def perturb(
        self, kind: str, epsilon: float, seed: int
    ) -> tuple[EmbeddingSet, PerturbationReport]:
        if kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism {kind!r}")
        if kind == "nadp":
            params = PrivacyParams(epsilon=epsilon, delta=self.delta)
            return nadp_perturb(self.emb, self.partition, params, seed)
        if kind == "gaussian":
            params = PrivacyParams(epsilon=epsilon, delta=self.delta)
            return gaussian_perturb(
                self.emb,
                params,
                self.partition.global_sensitivity,
                seed,
                strict=self.strict,
            )
        if kind == "laplacian":
            return laplacian_perturb(
                self.emb, epsilon, self.partition.global_sensitivity, seed
            )
        if kind == "mahalanobis":
            return mahalanobis_perturb(self.emb, epsilon, self.lambda_, seed)
        params = PrivacyParams(epsilon=epsilon, delta=self.delta)
        return jaccard_mechanism_perturb(
            self.emb,
            params,
            self.density_sets,
            self.config("jaccard", epsilon, seed),
            seed,
            strict=self.strict,
        )
