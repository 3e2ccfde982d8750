"""Neighbourhood-aware differential privacy for static word embeddings.

Pipeline: build an exact nearest-neighbour graph over the vocabulary,
factorise it into connected-component neighbourhoods, calibrate the minimal
per-neighbourhood Gaussian noise for a requested (epsilon, delta), and
perturb. For comparison, `Perturber` runs the Gaussian, Laplacian,
Mahalanobis and two-category density baselines (it is their only entry
point), and privacy/utility evaluation protocols are included.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    PrivacyParams,
    calibrate_components,
    check_dp_condition,
    classic_gaussian_sigma,
    g,
    phi,
    solve_u_star,
)
from .components import (
    ComponentPartition,
    build_partition,
    connected_components,
    sensitivities,
)
from .embeddings import EmbeddingSet, load_embeddings, save_embeddings, subset
from .graph import (
    NeighbourGraph,
    NeighbourSets,
    build_graph,
    knn,
    rank_queries,
)
from .mechanisms import PerturbationReport, Perturber, nadp_perturb
from .privacy import PrivacyReport, prediction_probability, privacy_report, skewness
from .utility import (
    OddManDataset,
    SentencePairDataset,
    SimilarityDataset,
    odd_man_out,
    sts_eval,
    utility_suite,
    word_similarity_eval,
)

__all__ = [
    "__version__",
    "CalibrationResult",
    "ComponentPartition",
    "EmbeddingSet",
    "NeighbourGraph",
    "NeighbourSets",
    "OddManDataset",
    "PerturbationReport",
    "Perturber",
    "PrivacyParams",
    "PrivacyReport",
    "SentencePairDataset",
    "SimilarityDataset",
    "build_graph",
    "build_partition",
    "calibrate_components",
    "check_dp_condition",
    "classic_gaussian_sigma",
    "connected_components",
    "g",
    "knn",
    "load_embeddings",
    "nadp_perturb",
    "odd_man_out",
    "phi",
    "prediction_probability",
    "privacy_report",
    "rank_queries",
    "save_embeddings",
    "sensitivities",
    "skewness",
    "solve_u_star",
    "sts_eval",
    "subset",
    "utility_suite",
    "word_similarity_eval",
]
