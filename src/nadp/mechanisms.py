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
when it is built, at each epsilon that `check_epsilon` passes for the
mechanism; it is the only entry point of the four baselines, whose
implementations are the runners of its registry `_MECHANISMS`. `nadp_perturb`
also runs alone, on a partition the caller builds.

All mechanisms add their noise through one path, `_add_noise`, which alone
counts the words left without noise. It draws the noise of a release from
one generator, seeded from a SHA-256 key over the seed, the mechanism,
epsilon, delta, the set's shape and the exact noise scales the release
uses, so two releases that differ in any of these draw independent noise.
The report carries none of the key's secret: a release's seed is the
operator's, and the public report without it cannot regenerate the noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .calibration import PrivacyParams, calibrate_components, classic_sigma_formula
from .components import ComponentPartition, build_partition
from .domains import DOMAINS, require
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

# noise rows drawn per generator call and mapped per Mahalanobis GEMM: fixed,
# so a release's bits depend on its inputs alone, never on n
_CHUNK_ROWS = 512


@dataclass(frozen=True, kw_only=True)
class PerturbationReport:
    """Exact record of the noise scales a perturbation run used."""

    kind: str
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


def _release_rng(
    seed: int,
    kind: str,
    epsilon: float,
    delta: float | None,
    emb: EmbeddingSet,
    scales: np.ndarray,
) -> np.random.Generator:
    """The one generator of a release, seeded from SHA-256 over the seed,
    the mechanism, epsilon, delta (None where the mechanism has none), the
    set's shape and `scales`, the exact noise scales the release uses. The
    scales carry what else shapes the noise (m, tau, lambda and the jaccard
    knobs): n per-word sigmas, one Laplace scale or the d x d covariance
    square root. The clean vectors themselves are not hashed."""
    # imported here, so that `import nadp` loads neither
    import hashlib
    import json

    scales = np.ascontiguousarray(scales, dtype="<f8")
    head = [
        int(seed),
        kind,
        float(epsilon),
        None if delta is None else float(delta),
        emb.n,
        emb.d,
        scales.shape,
    ]
    key = hashlib.sha256(json.dumps(head).encode())
    key.update(scales.data)
    return np.random.Generator(np.random.SFC64(int.from_bytes(key.digest(), "little")))


def _add_noise(
    emb: EmbeddingSet,
    seed: int,
    scales: np.ndarray,
    draw: Callable[[np.random.Generator, np.ndarray], np.ndarray],
    noised: np.ndarray | None = None,
    **report_fields,
) -> tuple[EmbeddingSet, PerturbationReport]:
    """The one noise path of every mechanism. One generator per release,
    keyed by `_release_rng` on `scales` and the report's kind, epsilon and
    delta, draws the noise of the words that the bool mask `noised` marks
    (every word when it is None), in word order and `_CHUNK_ROWS` words at a
    time: `draw(rng, rows)` returns the noise of the word indices `rows`,
    one row each, and it is added to their rows of the output copy. The
    words the mask leaves out are returned unchanged and counted as the
    report's zero-noise words."""
    out = np.array(emb.vectors, dtype=np.float64)
    rows = np.arange(emb.n) if noised is None else np.flatnonzero(noised)
    rng = _release_rng(
        seed,
        report_fields["kind"],
        report_fields["epsilon"],
        report_fields.get("delta"),
        emb,
        scales,
    )
    for start in range(0, rows.size, _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        noise = draw(rng, chunk)
        if chunk[-1] - chunk[0] == chunk.size - 1:  # a run: add in place
            out[chunk[0] : chunk[-1] + 1] += noise
        else:
            out[chunk] += noise
    report = PerturbationReport(zero_noise_words=emb.n - rows.size, **report_fields)
    return EmbeddingSet(emb.words, out), report


def _add_gaussian_noise(
    emb: EmbeddingSet, seed: int, sigma_of_word: np.ndarray, **report_fields
) -> tuple[EmbeddingSet, PerturbationReport]:
    """Isotropic Gaussian noise of scale `sigma_of_word[i]` on each word i
    whose scale is nonzero: the draw of nadp, gaussian and jaccard."""

    def draw(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
        z = rng.standard_normal((rows.size, emb.d))
        z *= sigma_of_word[rows, None]
        return z

    return _add_noise(
        emb, seed, sigma_of_word, draw, sigma_of_word != 0.0, **report_fields
    )


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
    return _add_gaussian_noise(
        emb,
        seed,
        sigmas[partition.assignment],
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
    rng: np.random.Generator, shape_sqrt: np.ndarray, epsilon: float, rows: int
) -> np.ndarray:
    """`rows` elliptical noise draws, one per row: a Gamma(d, 1/epsilon)
    radius times a uniform unit-sphere direction, mapped through the
    symmetric covariance square root by one GEMM."""
    d = shape_sqrt.shape[0]
    v = rng.standard_normal((rows, d))
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    while (zero := norms == 0.0).any():  # probability-zero guard
        v[zero] = rng.standard_normal((int(zero.sum()), d))
        norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    v *= (rng.gamma(shape=d, scale=1.0 / epsilon, size=rows) / norms)[:, None]
    return v @ shape_sqrt.T


def neighbourhood_density(neighbour_sets: NeighbourSets) -> np.ndarray:
    """Mean Euclidean distance from each word to its nearest neighbours."""
    return neighbour_sets.distances.mean(axis=1)


@dataclass(eq=False, repr=False)
class Perturber:
    """Shared-state dispatcher over the five mechanisms for one clean set,
    and the one entry point of the four baselines.

    Its fields are the clean set and the knobs, each checked against its
    domain once, when the Perturber is built; epsilon is checked per call,
    before any work. The neighbour graph, component partition and density
    neighbour sets are computed lazily once, from a single kNN pass, and
    reused across (mechanism, epsilon, seed) calls, which is what
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
        # the graph, the density sets and the covariance all need two words;
        # named first, as at n = 1 the CLI's default delta, 1/n, is out of
        # its domain too
        _require_two_words(self.emb.n)
        for f in fields(self):
            if f.name in DOMAINS:
                require(f.name, getattr(self, f.name))

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
        proven = check_epsilon(kind, epsilon, self.strict)
        return _MECHANISMS[kind](self, epsilon, seed, proven)


def _perturber_nadp(p: Perturber, epsilon: float, seed: int, proven: bool):
    privacy = PrivacyParams(epsilon, p.delta)
    return nadp_perturb(p.emb, p.partition, privacy, seed)


def _perturber_gaussian(p: Perturber, epsilon: float, seed: int, proven: bool):
    """Classic Gaussian mechanism: one closed-form sigma for every word,
    with Delta the partition's global sensitivity.

    With strict=True epsilon must lie in (0, 1), the range for which the
    closed form is proven; strict=False evaluates the same formula anyway,
    so that benchmark sweeps over large epsilon can include this mechanism,
    and flags the report as not proven."""
    emb = p.emb
    Delta = p.partition.global_sensitivity
    sigma = float(classic_sigma_formula(epsilon, p.delta, Delta))
    return _add_gaussian_noise(
        emb,
        seed,
        np.full(emb.n, sigma),
        kind="gaussian",
        epsilon=epsilon,
        delta=p.delta,
        sigma_per_component=(sigma,),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        proven_dp=proven,
    )


def _perturber_laplacian(p: Perturber, epsilon: float, seed: int, proven: bool):
    """Independent per-coordinate Laplace noise with scale Delta/epsilon,
    with Delta the partition's global sensitivity."""
    emb = p.emb
    Delta = p.partition.global_sensitivity
    scale = Delta / epsilon
    return _add_noise(
        emb,
        seed,
        np.array([scale]),
        lambda rng, rows: rng.laplace(0.0, scale, (rows.size, emb.d)),
        np.full(emb.n, scale > 0.0),
        kind="laplacian",
        epsilon=epsilon,
        sigma_per_component=(float(scale),),
        delta_per_component=(float(Delta),),
        global_sensitivity=float(Delta),
        proven_dp=proven,
        extra={"noise": "per-coordinate Laplace, scale Delta/epsilon"},
    )


def _perturber_mahalanobis(p: Perturber, epsilon: float, seed: int, proven: bool):
    """Elliptical noise following the covariance structure of the embeddings.

    Non-normative construction: this mirrors the usual elliptical recipe
    (Gamma radius, sphere direction, covariance square root); only lambda and
    the epsilon range are fixed by the benchmark protocol."""
    emb = p.emb
    shape_sqrt = p.shape_sqrt
    return _add_noise(
        emb,
        seed,
        shape_sqrt,
        lambda rng, rows: mahalanobis_noise(rng, shape_sqrt, epsilon, rows.size),
        kind="mahalanobis",
        epsilon=epsilon,
        proven_dp=proven,
        extra={
            "lambda": p.lambda_,
            "noise": "non-normative elliptical construction "
            "(Gamma radius, unit-sphere direction, covariance square root)",
        },
    )


def _perturber_jaccard(p: Perturber, epsilon: float, seed: int, proven: bool):
    """Two-category density baseline.

    Words are split by their mean distance eta(x) to their `m_density`
    nearest neighbours into dense (eta < eta0) and sparse (eta >= eta0);
    category i receives isotropic Gaussian noise with sigma_i = Delta *
    alpha_i * sqrt(2*log(1.25/delta)) / epsilon, where Delta is the average
    distance from a word to its furthermost neighbour. `strict` bounds
    epsilon as for the Gaussian mechanism."""
    emb = p.emb
    neighbour_sets = p.density_sets
    eta = neighbourhood_density(neighbour_sets)
    Delta = float(neighbour_sets.distances[:, -1].mean())
    dense = eta < p.eta0
    base = classic_sigma_formula(epsilon, p.delta, Delta)
    sigma1 = p.alpha1 * base
    sigma2 = p.alpha2 * base
    return _add_gaussian_noise(
        emb,
        seed,
        np.where(dense, sigma1, sigma2),
        kind="jaccard",
        epsilon=epsilon,
        delta=p.delta,
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


# kind -> how a Perturber runs that mechanism on its shared state, at an
# epsilon that `check_epsilon` has already passed and told proven or not; the
# order is the order in which the CLI lists the kinds. `Perturber.perturb`
# runs `check_epsilon` first, before the shared kNN, so a rejected epsilon
# costs no kNN.
_MECHANISMS = {
    "nadp": _perturber_nadp,
    "gaussian": _perturber_gaussian,
    "laplacian": _perturber_laplacian,
    "mahalanobis": _perturber_mahalanobis,
    "jaccard": _perturber_jaccard,
}
MECHANISM_KINDS = tuple(_MECHANISMS)


def check_epsilon(kind: str, epsilon: float, strict: bool) -> bool:
    """Raise ValueError unless `kind` is a mechanism that runs at `epsilon`;
    return whether its (epsilon, delta)-DP guarantee is proven there.

    nadp's exact condition covers every finite epsilon >= 0. laplacian and
    mahalanobis need a finite epsilon > 0: at inf their noise is 0 and the
    release would be the input; they prove nothing. The closed form of
    gaussian and jaccard is proven only for epsilon in (0, 1); with
    strict=False it runs outside that range, unproven, but never at 0,
    where it divides by epsilon."""
    if kind not in _MECHANISMS:
        raise ValueError(f"unknown mechanism {kind!r}")
    if kind in ("laplacian", "mahalanobis"):
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
        return False
    if not (epsilon >= 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if kind == "nadp" or 0.0 < epsilon < 1.0:
        return True
    if strict:
        raise ValueError(
            f"the {kind} mechanism's closed-form calibration is proven only "
            f"for epsilon in (0, 1), got {epsilon}; pass strict=False "
            "(--allow-unproven-epsilon on the command line) to run the formula "
            "outside that range anyway"
        )
    if epsilon == 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return False
