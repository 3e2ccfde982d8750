"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criteria 6 and 7 compare mechanisms on real pretrained embeddings, which are
user-supplied: point NADP_REAL_EMBEDDINGS at a GloVe-format text file (and
optionally NADP_REAL_WORDSIM at a word-pair TSV) to enable them; they skip
otherwise. Synthetic stand-ins of both comparisons run unconditionally as
supplementary tests.
"""

import math
import os
import time

import numpy as np
import pytest

from nadp.calibration import (
    PrivacyParams,
    classic_sigma_formula,
    g,
    solve_u_star,
)
from nadp.cli import main as cli_main
from nadp.components import _component_ids, _member_lists, build_partition
from nadp.embeddings import EmbeddingSet, load_embeddings, save_embeddings
from nadp.graph import NeighbourGraph, build_graph, knn
from nadp.mechanisms import Perturber, nadp_perturb
from nadp.privacy import privacy_report
from nadp.utility import SimilarityDataset, word_similarity_eval

from oracles import (
    components_dfs,
    g_quadrature,
    knn_bruteforce,
    odd_man_bruteforce,
    pearson_bruteforce,
    prediction_probability_bruteforce,
    spearman_bruteforce,
)
from synth import random_embeddings

EPS_GRID = [0.1, 0.5, 1.0, 5.0, 10.0, 20.0, 40.0]
DELTA_GRID = [1e-6, 1.0 / 73404, 1e-3, 0.1]


def _verdict(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance criterion {criterion}: {status} - {description}{suffix}")
    assert ok, f"criterion {criterion}: {description}{suffix}"


def test_criterion_1_calibration_exactness():
    start = time.monotonic()
    worst_gap = 0.0
    ok = True
    for eps in EPS_GRID:
        for delta in DELTA_GRID:
            u = solve_u_star(PrivacyParams(epsilon=eps, delta=delta))
            ok &= g(u, eps) <= delta
            ok &= g(0.999 * u, eps) > delta
            gap = abs(g(u, eps) - g_quadrature(u, eps))
            worst_gap = max(worst_gap, gap)
    ok &= worst_gap <= 1e-10
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(
        1,
        "u* minimal on the grid; g matches adaptive quadrature to 1e-10",
        ok,
        f"worst quadrature gap {worst_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_classic_sigma_consistency():
    start = time.monotonic()
    ok = True
    for eps in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        for delta in DELTA_GRID:
            params = PrivacyParams(epsilon=eps, delta=delta)
            classic = classic_sigma_formula(eps, delta, 1.0)
            ok &= g(classic, eps) <= delta  # private at Delta = 1
            ok &= solve_u_star(params) <= classic  # analytic never looser
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(
        2,
        "closed-form sigma passes the exact condition and is never tighter "
        "than the analytic calibration",
        ok,
        f"{elapsed:.2f}s",
    )


def _pair_embedding(distance=1.0):
    vecs = np.zeros((2, 2))
    vecs[1, 0] = distance
    return EmbeddingSet(("a", "b"), vecs)


def test_criterion_3_monte_carlo_dp():
    start = time.monotonic()
    n_samples = 10**6
    eps, delta = 1.0, 0.05
    emb = _pair_embedding(1.0)
    partition = build_partition(build_graph(emb, m=1, tau=0.0), emb)
    assert partition.global_sensitivity == 1.0
    params = PrivacyParams(epsilon=eps, delta=delta)

    sigmas = {}
    _, rep = nadp_perturb(emb, partition, params, seed=0)
    sigmas["nadp"] = rep.sigma_per_component[0]
    perturber = Perturber(emb, delta, m=1, tau=0.0, eta0=2.0, alpha1=1.835,
                          alpha2=1.276, m_density=1, strict=False)
    assert perturber.partition.global_sensitivity == 1.0
    _, rep = perturber.perturb("gaussian", eps, seed=0)
    sigmas["gaussian"] = rep.sigma_per_component[0]
    _, rep = perturber.perturb("jaccard", eps, seed=0)
    sigmas["jaccard dense"] = rep.sigma_per_component[0]
    sigmas["jaccard sparse"] = rep.sigma_per_component[1]

    x = emb.vectors[0]
    xp = emb.vectors[1]
    w = x - xp
    mid = (x + xp) / 2.0
    ok = True
    details = []
    master = np.random.Generator(np.random.Philox(key=20240811))
    for name, sigma in sigmas.items():
        mx = x + master.normal(0.0, sigma, (n_samples, 2))
        mxp = xp + master.normal(0.0, sigma, (n_samples, 2))
        proj_x = (mx - mid) @ w
        proj_xp = (mxp - mid) @ w
        c_star = eps * sigma**2  # the binding threshold at distance 1
        for c in (0.0, 0.25, 0.5, c_star, 1.5):
            lhs = float(np.mean(proj_x >= c))
            rhs = float(np.mean(proj_xp >= c))
            slack = 4.0 * math.sqrt(lhs * (1.0 - lhs) / n_samples)
            margin = math.exp(eps) * rhs + delta + slack - lhs
            ok &= margin >= 0.0
            details.append(f"{name} c={c:.3f} margin={margin:+.4f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    worst = min(float(d.split("=")[-1]) for d in details)
    _verdict(
        3,
        "empirical DP inequality holds on 5 half-space events per mechanism",
        ok,
        f"worst margin {worst:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240401)
    ok = True

    # exact kNN, including a few larger instances
    sizes = [int(rng.integers(5, 60)) for _ in range(97)] + [200, 350, 500]
    for n in sizes:
        d = int(rng.integers(1, 12))
        m = int(rng.integers(1, min(n, 8)))
        emb = EmbeddingSet(
            tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, d))
        )
        ok &= knn(emb, m).indices.tolist() == knn_bruteforce(emb.vectors, m)

    # connected components against the DFS oracle
    for _ in range(100):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(0, 2 * n))
        pairs = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, (k, 2))
            if a < b
        }
        graph = NeighbourGraph(
            n=n,
            pairs=np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2),
            m=2,
            tau=0.0,
        )
        ok &= _member_lists(*_component_ids(graph)) == components_dfs(n, pairs)

    # correlations against longhand rank arithmetic
    from scipy import stats

    for _ in range(100):
        n = int(rng.integers(3, 120))
        xv = rng.normal(0.0, 1.0, n)
        yv = rng.normal(0.0, 1.0, n) + 0.5 * xv
        xv[: n // 4] = xv[0]  # deliberate ties
        ok &= math.isclose(
            float(stats.spearmanr(xv, yv).statistic),
            spearman_bruteforce(list(xv), list(yv)),
            abs_tol=1e-12,
        )
        ok &= math.isclose(
            float(stats.pearsonr(xv, yv).statistic),
            pearson_bruteforce(list(xv), list(yv)),
            abs_tol=1e-12,
        )

    # odd man out
    from nadp.utility import _odd_man_picks

    for _ in range(100):
        n = int(rng.integers(5, 9))
        emb = EmbeddingSet(
            tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, 5))
        )
        tokens = tuple(emb.words)
        pick = _odd_man_picks(emb.vectors, np.arange(n)[None, :])[0]
        ok &= tokens[pick] == odd_man_bruteforce(
            {w: emb.vectors[emb.index_of(w)] for w in tokens}, tokens
        )

    # prediction probability
    for _ in range(100):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 8))
        m = int(rng.integers(1, n))
        emb = EmbeddingSet(
            tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, d))
        )
        idx = int(rng.integers(0, n))
        moved = np.array(emb.vectors)
        moved[idx] += rng.normal(0.0, 0.7, d)
        report = privacy_report(emb, EmbeddingSet(emb.words, moved), m=m)
        ok &= report.probabilities[idx] == prediction_probability_bruteforce(
            emb.vectors, moved[idx], idx, m
        )

    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _verdict(
        4,
        "kNN, components, correlations, odd-man-out and prediction "
        "probability match independent brute force on 100+ instances each",
        ok,
        f"{elapsed:.1f}s",
    )


def _trend_embeddings(n=2000, d=50, seed=11):
    # clusters with log-uniform spreads: some neighbourhoods collapse under
    # small noise, others survive to the end of the sigma sweep
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 8.0, (60, d))
    spreads = np.exp(rng.uniform(np.log(0.15), np.log(2.5), 60))
    assign = rng.integers(0, 60, n)
    vecs = centres[assign] + rng.normal(0.0, 1.0, (n, d)) * spreads[assign, None]
    return EmbeddingSet(tuple(f"w{i:05d}" for i in range(n)), vecs)


def test_criterion_5_skewness_trend():
    start = time.monotonic()
    emb = _trend_embeddings()
    skews = []
    first = None
    for i in range(11):
        sigma = 0.1 * i
        if sigma == 0.0:
            perturbed = emb
        else:
            noise = np.random.default_rng([5, i]).normal(
                0.0, sigma, emb.vectors.shape
            )
            perturbed = EmbeddingSet(emb.words, emb.vectors + noise)
        report = privacy_report(emb, perturbed, m=10)
        if sigma == 0.0:
            first = report
        skews.append(report.skewness)
    inversions = sum(1 for a, b in zip(skews, skews[1:]) if b < a)
    ok = (
        skews[0] == 0.0
        and bool(np.all(first.probabilities == 1.0))
        and inversions <= 1
    )
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _verdict(
        5,
        "zero skewness at sigma=0 (every probability 1) and a non-decreasing "
        "skewness sweep with at most one inversion",
        ok,
        f"inversions={inversions}, skews=" +
        "/".join(f"{s:+.2f}" for s in skews) + f", {elapsed:.0f}s",
    )


def _real_embeddings():
    path = os.environ.get("NADP_REAL_EMBEDDINGS")
    if not path:
        pytest.skip(
            "set NADP_REAL_EMBEDDINGS to a GloVe-format file (5k-10k words "
            "are loaded) to run the real-data comparisons"
        )
    return load_embeddings(path, limit=8000)


def _skewness_comparison(emb, epsilon, seeds, tau):
    delta = 1.0 / emb.n
    perturber = Perturber(emb, delta=delta, m=2, tau=tau, strict=False)
    result = {}
    for kind in ("nadp", "gaussian"):
        values = [
            privacy_report(emb, perturber.perturb(kind, epsilon, seed)[0], m=10).skewness
            for seed in seeds
        ]
        result[kind] = abs(float(np.mean(values)))
    return result


def _wordsim_comparison(emb, epsilons, seeds, tau, pairs):
    delta = 1.0 / emb.n
    perturber = Perturber(emb, delta=delta, m=2, tau=tau, strict=False)
    baseline = word_similarity_eval(emb, pairs).spearman
    table = {}
    for kind in ("nadp", "gaussian"):
        for eps in epsilons:
            values = [
                word_similarity_eval(
                    perturber.perturb(kind, eps, seed)[0], pairs
                ).spearman
                for seed in seeds
            ]
            table[(kind, eps)] = float(np.mean(values))
    return baseline, table


def _cosine_gold_pairs(emb, count=400, seed=17):
    # stand-in gold ratings when no human-rated file is supplied: clean-space
    # cosines of sampled pairs (the no-noise baseline is then rho = 1)
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = (int(v) for v in rng.integers(0, emb.n, 2))
        if i == j:
            continue
        a, b = emb.vectors[i], emb.vectors[j]
        gold = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        pairs.append((emb.words[i], emb.words[j], gold))
    return SimilarityDataset(tuple(pairs))


def test_criterion_6_real_data_skewness_direction():
    emb = _real_embeddings()
    # tau <= 1/3 keeps the graph non-trivial under self-excluded top-2 sets
    result = _skewness_comparison(emb, epsilon=5.0, seeds=range(5), tau=0.1)
    ok = result["nadp"] < result["gaussian"]
    _verdict(
        6,
        "at eps=5 the neighbourhood-aware |skewness| is below the Gaussian "
        "mechanism's (expected direction, real embeddings)",
        ok,
        f"nadp {result['nadp']:.4f} vs gaussian {result['gaussian']:.4f}",
    )


def test_criterion_7_real_data_word_similarity():
    emb = _real_embeddings()
    wordsim = os.environ.get("NADP_REAL_WORDSIM")
    if wordsim:
        from nadp.utility import load_similarity_dataset

        pairs = load_similarity_dataset(wordsim)
    else:
        pairs = _cosine_gold_pairs(emb)
    baseline, table = _wordsim_comparison(
        emb, epsilons=[5.0, 10.0, 1e6], seeds=range(5), tau=0.1, pairs=pairs
    )
    ok = all(table[("nadp", e)] >= table[("gaussian", e)] for e in (5.0, 10.0))
    ok &= abs(table[("nadp", 1e6)] - baseline) < 0.02
    ok &= abs(table[("gaussian", 1e6)] - baseline) < 0.02
    _verdict(
        7,
        "word-similarity rho: neighbourhood-aware >= Gaussian at eps 5 and "
        "10; both reach the no-noise baseline at eps=1e6",
        ok,
        f"baseline {baseline:.3f}; " + ", ".join(
            f"{k}@{e:g}={v:.3f}" for (k, e), v in sorted(table.items())
        ),
    )


def test_supplementary_synthetic_skewness_direction():
    # the criterion-6 comparison exercised end to end on synthetic clusters
    emb = _trend_embeddings(n=2000, d=50, seed=21)
    result = _skewness_comparison(emb, epsilon=5.0, seeds=range(5), tau=0.1)
    assert result["nadp"] < result["gaussian"], result


def test_supplementary_synthetic_word_similarity():
    emb = _trend_embeddings(n=2000, d=50, seed=21)
    baseline, table = _wordsim_comparison(
        emb,
        epsilons=[5.0, 10.0, 1e6],
        seeds=range(5),
        tau=0.1,
        pairs=_cosine_gold_pairs(emb),
    )
    assert all(table[("nadp", e)] >= table[("gaussian", e)] for e in (5.0, 10.0))
    assert abs(table[("nadp", 1e6)] - baseline) < 0.02
    assert abs(table[("gaussian", 1e6)] - baseline) < 0.02


def test_criterion_8_performance_at_scale():
    emb = random_embeddings(10_000, 300, seed=31)
    start = time.monotonic()
    sets = knn(emb, 2)
    graph = build_graph(emb, m=2, tau=0.1, neighbour_sets=sets)
    partition = build_partition(graph, emb)
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0 and partition.k >= 1 and sets.indices.shape == (10_000, 2)
    _verdict(
        8,
        "exact kNN graph (m=2) plus components on 10,000 x 300 within 60s",
        ok,
        f"{elapsed:.1f}s, k={partition.k}",
    )


def test_criterion_9_perturb_determinism(tmp_path):
    emb = random_embeddings(300, 10, seed=41)
    emb_path = tmp_path / "emb.txt"
    save_embeddings(emb, emb_path, precision=8)
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    args = ["perturb", "--embeddings", str(emb_path), "--mechanism", "nadp",
            "--epsilon", "1.0", "--seed", "77", "--m", "2", "--tau", "0.1"]
    assert cli_main(args + ["--out-dir", str(first)]) == 0
    assert cli_main(["perturb", "--config", str(first / "perturb_manifest.json"),
                     "--out-dir", str(second)]) == 0
    same_vectors = (first / "perturbed.txt").read_bytes() == (
        second / "perturbed.txt"
    ).read_bytes()
    same_report = (first / "perturb_report.json").read_bytes() == (
        second / "perturb_report.json"
    ).read_bytes()
    _verdict(
        9,
        "replaying a perturb manifest reproduces byte-identical artifacts",
        same_vectors and same_report,
    )
