import json
import shutil

import numpy as np
import pytest

from nadp.cli import main
from nadp.embeddings import EmbeddingSet, load_embeddings, save_embeddings
from nadp.graph import rank_queries

from synth import clustered_embeddings


@pytest.fixture(scope="module")
def emb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "emb.txt"
    emb = clustered_embeddings(200, 8, n_clusters=12, seed=7)
    save_embeddings(emb, path, precision=8)
    return path


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_graph_command(emb_file, tmp_path):
    assert _run("graph", "--embeddings", emb_file, "--m", 2, "--tau", 0.1,
                "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "graph.json").read_text())
    assert report["n"] == 200
    assert report["edge_count"] == len(report["edges"])
    manifest = json.loads((tmp_path / "graph_manifest.json").read_text())
    assert manifest["command"] == "graph"
    assert manifest["parameters"]["m"] == 2
    assert str(emb_file) in manifest["inputs"]


def test_components_command(emb_file, tmp_path):
    assert _run("components", "--embeddings", emb_file, "--m", 2, "--tau", 0.1,
                "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "components.json").read_text())
    assert sum(c["size"] for c in report["components"]) == 200
    assert report["global_sensitivity"] >= 0


def test_calibrate_command(emb_file, tmp_path, capsys):
    assert _run("calibrate", "--embeddings", emb_file, "--epsilon", 2.0,
                "--m", 2, "--tau", 0.1, "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "calibration.json").read_text())
    assert report["delta"] == pytest.approx(1 / 200)  # 1/n default
    assert report["u_star"] > 0
    assert report["classic_sigma"] is None  # epsilon 2 is outside (0, 1)
    printed = capsys.readouterr().out
    assert "u_star" in printed


@pytest.mark.parametrize(
    "mechanism", ["nadp", "gaussian", "laplacian", "mahalanobis", "jaccard"]
)
def test_perturb_each_mechanism(emb_file, tmp_path, mechanism):
    out = tmp_path / mechanism
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                "--epsilon", 0.8, "--seed", 11, "--m", 2, "--tau", 0.1,
                "--out-dir", out) == 0
    perturbed = load_embeddings(out / "perturbed.txt")
    original = load_embeddings(emb_file)
    assert perturbed.words == original.words
    report = json.loads((out / "perturb_report.json").read_text())
    assert report["mechanism"] == mechanism
    assert report["seed"] == 11


def test_perturb_gaussian_epsilon_validation(emb_file, tmp_path, capsys):
    code = _run("perturb", "--embeddings", emb_file, "--mechanism", "gaussian",
                "--epsilon", 1.5, "--seed", 1, "--out-dir", tmp_path)
    assert code != 0
    assert "(0, 1)" in capsys.readouterr().err
    # the override flag runs the same sweep point anyway
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "gaussian",
                "--epsilon", 1.5, "--seed", 1, "--allow-unproven-epsilon",
                "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "perturb_report.json").read_text())
    assert report["proven_dp"] is False


def test_perturb_manifest_replay_is_byte_identical(emb_file, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1.0, "--seed", 33, "--m", 2, "--tau", 0.1,
                "--out-dir", first) == 0
    assert _run("perturb", "--config", first / "perturb_manifest.json",
                "--out-dir", second) == 0
    assert (first / "perturbed.txt").read_bytes() == (
        second / "perturbed.txt"
    ).read_bytes()
    assert (first / "perturb_report.json").read_bytes() == (
        second / "perturb_report.json"
    ).read_bytes()


def test_perturb_draws_and_records_seed(emb_file, tmp_path):
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "laplacian",
                "--epsilon", 1.0, "--out-dir", tmp_path) == 0
    manifest = json.loads((tmp_path / "perturb_manifest.json").read_text())
    assert isinstance(manifest["parameters"]["seed"], int)
    report = json.loads((tmp_path / "perturb_report.json").read_text())
    assert report["seed"] == manifest["parameters"]["seed"]


def test_eval_privacy_command(emb_file, tmp_path):
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "gaussian",
                "--epsilon", 0.9, "--seed", 3, "--m", 2, "--tau", 0.1,
                "--out-dir", tmp_path) == 0
    assert _run("eval-privacy", "--embeddings", emb_file,
                "--perturbed", tmp_path / "perturbed.txt",
                "--m-eval", 5, "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "privacy.json").read_text())
    assert len(report["probabilities"]) == 200
    assert report["m"] == 5
    hist = (tmp_path / "privacy_histogram.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_low,bin_high,count"
    assert len(hist) == 21


def test_eval_privacy_identity_peaks_at_one(emb_file, tmp_path):
    shutil.copy(emb_file, tmp_path / "same.txt")
    assert _run("eval-privacy", "--embeddings", emb_file,
                "--perturbed", tmp_path / "same.txt",
                "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "privacy.json").read_text())
    assert report["mean"] == 1.0 and report["degenerate"] is True


def test_eval_utility_command(emb_file, tmp_path):
    emb = load_embeddings(emb_file)
    rng = np.random.default_rng(5)
    lines = []
    words = emb.words
    for _ in range(40):
        i, j = rng.integers(0, emb.n, 2)
        if i == j:
            continue
        a, b = emb.vectors[i], emb.vectors[j]
        gold = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        lines.append(f"{words[i]}\t{words[j]}\t{gold:.4f}")
    wordsim = tmp_path / "pairs.tsv"
    wordsim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _run("eval-utility", "--embeddings", emb_file,
                "--wordsim", wordsim, "--mechanisms", "nadp,laplacian",
                "--epsilons", "1,100", "--seeds", "1,2", "--m", 2, "--tau", 0.1,
                "--out-dir", tmp_path) == 0
    csv_lines = (tmp_path / "utility.csv").read_text().strip().split("\n")
    # header + baseline + 2 mechanisms x 2 epsilons
    assert len(csv_lines) == 1 + 1 + 4
    data = json.loads((tmp_path / "utility.json").read_text())
    assert {r["mechanism"] for r in data["rows"]} == {"none", "nadp", "laplacian"}


def test_neighbours_command(emb_file, tmp_path, capsys):
    shutil.copy(emb_file, tmp_path / "same.txt")
    emb = load_embeddings(emb_file)
    some = ",".join(emb.words[:3])
    assert _run("neighbours", "--embeddings", emb_file,
                "--perturbed", tmp_path / "same.txt",
                "--words", f"{some},missingword", "-k", 3,
                "--out-dir", tmp_path) == 0
    captured = capsys.readouterr()
    assert "missingword" in captured.err
    report = json.loads((tmp_path / "neighbours.json").read_text())
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        # zero noise: the word's own top-1 perturbed neighbour is itself
        assert row["perturbed_neighbours"][0] == row["word"]
        assert row["leak"] is True
        assert row["word"] not in row["clean_neighbours"]


def test_neighbours_far_displacement_clears_leak_flag(emb_file, tmp_path):
    emb = load_embeddings(emb_file)
    moved = np.array(emb.vectors)
    # push one word far beyond the maximum intra-set distance
    span = float(np.ptp(emb.vectors)) * 10
    moved[0] = moved[0] + span
    save_embeddings(EmbeddingSet(emb.words, moved), tmp_path / "moved.txt",
                    precision=8)
    assert _run("neighbours", "--embeddings", emb_file,
                "--perturbed", tmp_path / "moved.txt",
                "--words", emb.words[0], "-k", 3, "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "neighbours.json").read_text())
    assert report["rows"][0]["leak"] is False


def test_neighbours_batch_matches_per_word_queries(tmp_path, capsys):
    # a duplicate group wider than the argpartition candidates, so the
    # batched queries go through the tie fallback
    rng = np.random.default_rng(11)
    vectors = np.vstack([np.full((30, 4), 0.5), rng.integers(0, 3, (50, 4))])
    words = tuple(f"w{i}" for i in range(len(vectors)))
    noisy = vectors + rng.normal(scale=0.3, size=vectors.shape)
    save_embeddings(EmbeddingSet(words, vectors), tmp_path / "clean.txt", precision=8)
    save_embeddings(EmbeddingSet(words, noisy), tmp_path / "noisy.txt", precision=8)
    query = ["w3", "missing", "w60", "w3", "w0"]
    assert _run("neighbours", "--embeddings", tmp_path / "clean.txt",
                "--perturbed", tmp_path / "noisy.txt", "--words", ",".join(query),
                "-k", 5, "--out-dir", tmp_path) == 0
    assert "'missing' not in vocabulary" in capsys.readouterr().err
    original = load_embeddings(tmp_path / "clean.txt")
    perturbed = load_embeddings(tmp_path / "noisy.txt")
    rows = json.loads((tmp_path / "neighbours.json").read_text())["rows"]
    assert [r["word"] for r in rows] == ["w3", "w60", "w3", "w0"]
    for row in rows:
        i = original.index_of(row["word"])
        clean, _ = rank_queries(original, original.vectors[i : i + 1], 5, np.array([i]))
        pert, _ = rank_queries(original, perturbed.vectors[i : i + 1], 5)
        assert row["clean_neighbours"] == [original.words[j] for j in clean[0]]
        assert row["perturbed_neighbours"] == [original.words[j] for j in pert[0]]
        assert row["leak"] == (row["word"] in row["perturbed_neighbours"])


def test_limit_and_vocab_file_pass_through(emb_file, tmp_path):
    emb = load_embeddings(emb_file)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(emb.words[:20]) + "\n", encoding="utf-8")
    assert _run("graph", "--embeddings", emb_file, "--vocab-file", vocab,
                "--limit", 10, "--m", 2, "--tau", 0.0,
                "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "graph.json").read_text())
    assert report["n"] == 10


def test_cli_error_paths(tmp_path, capsys):
    assert _run("perturb", "--mechanism", "nadp", "--epsilon", 1.0,
                "--out-dir", tmp_path) != 0
    assert "embeddings" in capsys.readouterr().err
    assert _run("graph", "--embeddings", tmp_path / "missing.txt",
                "--out-dir", tmp_path) != 0
    assert _run("calibrate", "--config", tmp_path / "nope.json",
                "--out-dir", tmp_path) != 0
