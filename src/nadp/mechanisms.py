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

`Perturber` runs all five from one clean set and its knobs, which it checks
when it is built; it is the only entry point of the four baselines, whose
implementations are the runners of its registry `_MECHANISMS`. `nadp_perturb`
also runs alone, on a partition the caller builds.

All mechanisms add their noise through one path, `_add_noise`, which draws
each word's noise from one counter-based substream per word index, derived
from the master seed, so outputs do not depend on iteration order or
parallelism, and which alone counts the words left without noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calibration import PrivacyParams, calibrate_components, classic_sigma_formula
from .components import ComponentPartition, build_partition
from .embeddings import EmbeddingSet
from .graph import (
    DEFAULT_M,
    DEFAULT_TAU,
    NeighbourSets,
    _require_two_words,
    build_graph,
    knn,
)

# knob defaults of the baselines: `lambda_` blends the embedding covariance
# into the Mahalanobis noise shape; `eta0` splits dense from sparse words by
# mean neighbour distance; `alpha1`/`alpha2` are the dense/sparse scale
# constants of the two-category mechanism, quoted for neighbourhood size
# `m_density`
DEFAULT_LAMBDA = 1.0
DEFAULT_ETA0 = 6.0
DEFAULT_ALPHA1 = 1.835
DEFAULT_ALPHA2 = 1.276
DEFAULT_M_DENSITY = 10

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, kw_only=True)
class PerturbationReport:
    """Exact record of the noise scales a perturbation run used."""

    kind: str
    seed: int
    epsilon: float
    delta: float | None = None
    sigma_per_component: tuple[float, ...] = ()
    delta_per_component: tuple[float, ...] = ()
    global_sensitivity: float = 0.0
    u_star: float | None = None
    zero_noise_words: int
    proven_dp: bool = False
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


def _word_substreams(seed: int) -> Callable[[int], np.random.Generator]:
    """`word_substream(seed, i)` for many words from one bit generator.

    Each call resets a shared Philox to the state a fresh one keyed by
    (seed, i) starts in, and returns the shared Generator, so the draws are
    the same; a word's generator is spent once the next word's is taken.
    A fresh Philox gathers OS entropy for a seed it never uses, which costs
    more than a 300-d word's normal draws."""
    bg = np.random.Philox(key=0)
    rng = np.random.Generator(bg)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def substream(word_index: int) -> np.random.Generator:
        key[1] = word_index
        bg.state = state
        return rng

    return substream


def _require_proven_range(epsilon: float, strict: bool, kind: str) -> bool:
    if 0.0 < epsilon < 1.0:
        return True
    if strict:
        raise ValueError(
            f"the {kind} mechanism's closed-form calibration is proven only "
            f"for epsilon in (0, 1), got {epsilon}; pass strict=False "
            "(--allow-unproven-epsilon on the command line) to run the formula "
            "outside that range anyway"
        )
    return False


def _require_finite_epsilon(epsilon: float) -> None:
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def _add_noise(
    emb: EmbeddingSet,
    seed: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    noised: np.ndarray | None = None,
    **report_fields,
) -> tuple[EmbeddingSet, PerturbationReport]:
    """The one noise path of every mechanism: add `draw(rng, i)` to each word
    i that the bool mask `noised` marks (every word when it is None), in word
    order, with rng the word's own substream. The words the mask leaves out
    are returned unchanged and counted as the report's zero-noise words."""
    out = np.array(emb.vectors, dtype=np.float64)
    words = range(emb.n) if noised is None else np.flatnonzero(noised).tolist()
    substream = _word_substreams(seed)
    for i in words:
        out[i] += draw(substream(i), i)
    report = PerturbationReport(
        seed=seed, zero_noise_words=emb.n - len(words), **report_fields
    )
    return EmbeddingSet(emb.words, out), report


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
    calib = calibrate_components(partition.local_sensitivities, params)
    sigmas = calib.sigma_per_component
    sigma_of_word = sigmas[partition.assignment]
    return _add_noise(
        emb,
        seed,
        lambda rng, i: rng.normal(0.0, sigma_of_word[i], emb.d),
        sigma_of_word != 0.0,
        kind="nadp",
        epsilon=params.epsilon,
        delta=params.delta,
        sigma_per_component=tuple(float(s) for s in sigmas),
        delta_per_component=tuple(float(d) for d in partition.local_sensitivities),
        global_sensitivity=partition.global_sensitivity,
        u_star=calib.u_star,
        proven_dp=True,
    )


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


def neighbourhood_density(neighbour_sets: NeighbourSets) -> np.ndarray:
    """Mean Euclidean distance from each word to its nearest neighbours."""
    return neighbour_sets.distances.mean(axis=1)


@dataclass(eq=False, repr=False)
class Perturber:
    """Shared-state dispatcher over the five mechanisms for one clean set,
    and the one entry point of the four baselines.

    Its fields are the clean set and the knobs, each checked once, when the
    Perturber is built. The neighbour graph, component partition and
    density neighbour sets are computed lazily once, from a single kNN
    pass, and reused across (mechanism, epsilon, seed) calls, which is what
    benchmark sweeps need; so is the Mahalanobis covariance square root, on
    the first Mahalanobis call.
    """

    emb: EmbeddingSet
    delta: float
    m: int = DEFAULT_M
    tau: float = DEFAULT_TAU
    lambda_: float = DEFAULT_LAMBDA
    eta0: float = DEFAULT_ETA0
    alpha1: float = DEFAULT_ALPHA1
    alpha2: float = DEFAULT_ALPHA2
    m_density: int = DEFAULT_M_DENSITY
    strict: bool = True

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m_density < 1:
            raise ValueError(f"m_density must be >= 1, got {self.m_density}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_}")
        for name in ("eta0", "alpha1", "alpha2"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        # the graph, the density sets and the covariance all need two words
        _require_two_words(self.emb.n)

    @cached_property
    def _knn(self) -> NeighbourSets:
        # one kNN pass at max(m, m_density); the graph and the density sets
        # are exact prefixes of it
        return knn(self.emb, max(self.m, self.m_density))

    @cached_property
    def partition(self) -> ComponentPartition:
        graph = build_graph(
            self.emb, self.m, self.tau, neighbour_sets=self._knn.prefix(self.m)
        )
        return build_partition(graph, self.emb)

    @property
    def density_sets(self) -> NeighbourSets:
        return self._knn.prefix(self.m_density)

    @cached_property
    def shape_sqrt(self) -> np.ndarray:
        """The square root of `covariance_shape(emb, lambda_)` that the
        Mahalanobis noise maps its draws through, computed on the first
        Mahalanobis call rather than in set-up."""
        return _sqrt_psd(covariance_shape(self.emb, self.lambda_))

    def perturb(
        self, kind: str, epsilon: float, seed: int
    ) -> tuple[EmbeddingSet, PerturbationReport]:
        if kind not in _MECHANISMS:
            raise ValueError(f"unknown mechanism {kind!r}")
        return _MECHANISMS[kind](self, epsilon, seed)


def _perturber_nadp(p: Perturber, epsilon: float, seed: int):
    privacy = PrivacyParams(epsilon, p.delta)
    return nadp_perturb(p.emb, p.partition, privacy, seed)


def _classic_privacy(
    p: Perturber, epsilon: float, kind: str
) -> tuple[PrivacyParams, bool]:
    """The closed-form mechanisms' checks of epsilon, and whether the closed
    form is proven at it."""
    privacy = PrivacyParams(epsilon, p.delta)
    proven = _require_proven_range(epsilon, p.strict, kind)
    if not epsilon > 0.0:  # the closed form divides by epsilon
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return privacy, proven


def _perturber_gaussian(p: Perturber, epsilon: float, seed: int):
    """Classic Gaussian mechanism: one closed-form sigma for every word,
    with Delta the partition's global sensitivity.

    With strict=True epsilon must lie in (0, 1), the range for which the
    closed form is proven; strict=False evaluates the same formula anyway,
    so that benchmark sweeps over large epsilon can include this mechanism,
    and flags the report as not proven."""
    privacy, proven = _classic_privacy(p, epsilon, "gaussian")
    emb = p.emb
    Delta = p.partition.global_sensitivity
    sigma = float(classic_sigma_formula(privacy.epsilon, privacy.delta, Delta))
    return _add_noise(
        emb,
        seed,
        lambda rng, i: rng.normal(0.0, sigma, emb.d),
        np.full(emb.n, sigma != 0.0),
        kind="gaussian",
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        sigma_per_component=(sigma,),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        proven_dp=proven,
    )


def _perturber_laplacian(p: Perturber, epsilon: float, seed: int):
    """Independent per-coordinate Laplace noise with scale Delta/epsilon,
    with Delta the partition's global sensitivity."""
    _require_finite_epsilon(epsilon)
    emb = p.emb
    Delta = p.partition.global_sensitivity
    scale = Delta / epsilon
    return _add_noise(
        emb,
        seed,
        lambda rng, i: rng.laplace(0.0, scale, emb.d),
        np.full(emb.n, scale > 0.0),
        kind="laplacian",
        epsilon=epsilon,
        sigma_per_component=(float(scale),),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        extra={"noise": "per-coordinate Laplace, scale Delta/epsilon"},
    )


def _perturber_mahalanobis(p: Perturber, epsilon: float, seed: int):
    """Elliptical noise following the covariance structure of the embeddings.

    Non-normative construction: this mirrors the usual elliptical recipe
    (Gamma radius, sphere direction, covariance square root); only lambda and
    the epsilon range are fixed by the benchmark protocol."""
    _require_finite_epsilon(epsilon)
    emb = p.emb
    shape_sqrt = p.shape_sqrt
    return _add_noise(
        emb,
        seed,
        lambda rng, i: mahalanobis_noise(rng, shape_sqrt, epsilon),
        kind="mahalanobis",
        epsilon=epsilon,
        extra={
            "lambda": p.lambda_,
            "noise": "non-normative elliptical construction "
            "(Gamma radius, unit-sphere direction, covariance square root)",
        },
    )


def _perturber_jaccard(p: Perturber, epsilon: float, seed: int):
    """Two-category density baseline.

    Words are split by their mean distance eta(x) to their `m_density`
    nearest neighbours into dense (eta < eta0) and sparse (eta >= eta0);
    category i receives isotropic Gaussian noise with sigma_i = Delta *
    alpha_i * sqrt(2*log(1.25/delta)) / epsilon, where Delta is the average
    distance from a word to its furthermost neighbour. `strict` bounds
    epsilon as for the Gaussian mechanism."""
    privacy, proven = _classic_privacy(p, epsilon, "jaccard")
    emb = p.emb
    neighbour_sets = p.density_sets
    eta = neighbourhood_density(neighbour_sets)
    Delta = float(neighbour_sets.distances[:, -1].mean())
    dense = eta < p.eta0
    base = classic_sigma_formula(privacy.epsilon, privacy.delta, Delta)
    sigma1 = p.alpha1 * base
    sigma2 = p.alpha2 * base
    sigma_of_word = np.where(dense, sigma1, sigma2)
    return _add_noise(
        emb,
        seed,
        lambda rng, i: rng.normal(0.0, sigma_of_word[i], emb.d),
        sigma_of_word != 0.0,
        kind="jaccard",
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        sigma_per_component=(float(sigma1), float(sigma2)),
        delta_per_component=(float(Delta), float(Delta)),
        global_sensitivity=Delta,
        proven_dp=proven,
        extra={
            "eta0": p.eta0,
            "alpha1": p.alpha1,
            "alpha2": p.alpha2,
            "m_density": neighbour_sets.m,
            "dense_words": int(dense.sum()),
            "sparse_words": int(emb.n - dense.sum()),
        },
    )


# kind -> how a Perturber runs that mechanism on its shared state; the order
# is the order in which the CLI lists the kinds. Each runner checks epsilon
# before it touches the shared kNN, so a rejected epsilon costs no kNN.
_MECHANISMS = {
    "nadp": _perturber_nadp,
    "gaussian": _perturber_gaussian,
    "laplacian": _perturber_laplacian,
    "mahalanobis": _perturber_mahalanobis,
    "jaccard": _perturber_jaccard,
}
MECHANISM_KINDS = tuple(_MECHANISMS)
