import nadp

# the package's public names; adding or dropping an export edits this list
PUBLIC = [
    "CalibrationResult", "ComponentPartition", "EmbeddingSet", "NeighbourGraph",
    "NeighbourSets", "OddManDataset", "PerturbationReport", "Perturber",
    "PrivacyParams", "PrivacyReport", "SentencePairDataset", "SimilarityDataset",
    "__version__", "build_graph", "build_partition", "calibrate_components", "g",
    "knn", "load_embeddings", "nadp_perturb", "privacy_report", "rank_queries",
    "save_embeddings", "skewness", "solve_u_star", "sts_eval", "utility_suite",
    "word_similarity_eval",
]


def test_public_api_is_pinned():
    assert sorted(nadp.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(nadp, name)] == []
