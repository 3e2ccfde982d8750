import argparse
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nadp
from nadp import cli, graph, mechanisms
from nadp.calibration import PrivacyParams, classic_sigma_formula
from nadp.cli import main
from nadp.domains import DOMAINS
from nadp.embeddings import EmbeddingSet, load_embeddings, save_embeddings
from nadp.graph import DEFAULT_M, DEFAULT_TAU, build_graph, rank_queries
from nadp.mechanisms import (
    DEFAULT_ALPHA1,
    DEFAULT_ALPHA2,
    DEFAULT_ETA0,
    DEFAULT_LAMBDA,
    DEFAULT_M_DENSITY,
    MECHANISM_KINDS,
    Perturber,
    check_epsilon,
)
from nadp.privacy import DEFAULT_EVAL_M, privacy_report
from nadp.utility import UtilityDatasets, load_similarity_dataset, utility_suite

from synth import clustered_embeddings


@pytest.fixture(scope="module")
def emb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "emb.txt"
    emb = clustered_embeddings(200, 8, n_clusters=12, seed=7)
    save_embeddings(emb, path, precision=8)
    return path


# the `parameters` keys every perturb manifest carries; replay depends on them
PERTURB_PARAMETERS = {
    "allow_unproven_epsilon", "alpha1", "alpha2", "delta", "embeddings",
    "epsilon", "epsilons", "eta0", "k", "lambda_", "limit", "m", "m_density",
    "m_eval", "mechanism", "mechanisms", "oddman", "output", "perturbed",
    "precision", "repeats", "report", "seed", "seeds", "sts", "tau",
    "vocab_file", "words", "wordsim",
}

# non-default knobs of the baselines, as CLI flags and as Perturber kwargs
KNOB_FLAGS = ("--lambda", 0.3, "--eta0", 0.9, "--alpha1", 2.5, "--alpha2", 0.7,
              "--m-density", 4)
KNOBS = {"lambda_": 0.3, "eta0": 0.9, "alpha1": 2.5, "alpha2": 0.7, "m_density": 4}


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


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_calibrate_classic_sigma_only_in_the_proven_range(emb_file, tmp_path, epsilon):
    # the closed form is proven for epsilon in (0, 1) alone: at its ends
    # calibrate reports no classic sigma, inside it the formula's value
    assert _run("calibrate", "--embeddings", emb_file, "--epsilon", epsilon,
                "--m", 2, "--tau", 0.1, "--out-dir", tmp_path) == 0
    report = json.loads((tmp_path / "calibration.json").read_text())
    expected = None
    if epsilon == 0.5:
        expected = classic_sigma_formula(
            epsilon, report["delta"], report["global_sensitivity"]
        )
    assert report["classic_sigma"] == expected
    assert report["global_sensitivity"] > 0


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
    # the seed regenerates the noise: only the private manifest holds it
    assert "seed" not in report
    manifest_path = out / "perturb_manifest.json"
    assert json.loads(manifest_path.read_text())["parameters"]["seed"] == 11
    assert stat.S_IMODE(manifest_path.stat().st_mode) == 0o600


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


@pytest.mark.parametrize("mechanism", ["gaussian", "jaccard"])
def test_proven_range_error_names_the_cli_flag(emb_file, tmp_path, capsys, mechanism):
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                "--epsilon", 5, "--seed", 1, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "proven only" in err and "(0, 1)" in err
    assert "--allow-unproven-epsilon" in err


ZERO_NOISE_WARNING = "warning: every word has zero noise"


def test_perturb_warns_when_every_word_has_zero_noise(emb_file, tmp_path, capsys):
    # the defaults m=2, tau=0.5 give an edgeless graph: nothing is perturbed
    out = tmp_path / "defaults"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 5, "--seed", 1, "--precision", 8, "--out-dir", out) == 0
    captured = capsys.readouterr()
    assert "zero_noise_words=200" in captured.out
    assert ZERO_NOISE_WARNING not in captured.out
    assert captured.err == (
        "warning: every word has zero noise; the released file equals the input\n"
    )
    # at the fixture's own precision the release is the input, byte for byte
    assert (out / "perturbed.txt").read_bytes() == emb_file.read_bytes()
    # a graph with edges perturbs some words and stays quiet
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 5, "--seed", 1, "--m", 2, "--tau", 0.1,
                "--out-dir", tmp_path / "edges") == 0
    captured = capsys.readouterr()
    report = json.loads((tmp_path / "edges" / "perturb_report.json").read_text())
    assert report["zero_noise_words"] < 200
    assert captured.err == ""


def test_m_density_below_one_is_rejected_for_every_mechanism(emb_file, tmp_path, capsys):
    for mechanism in ("nadp", "jaccard"):
        assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                    "--epsilon", 0.8, "--seed", 1, "--m-density", 0,
                    "--out-dir", tmp_path) == 2
        assert "m_density must be >= 1, got 0" in capsys.readouterr().err


def test_m_below_one_fails_before_the_knn(emb_file, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran the kNN before m was checked")

    monkeypatch.setattr(mechanisms, "knn", must_not_run)
    for mechanism in ("nadp", "jaccard"):
        assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                    "--epsilon", 0.8, "--seed", 1, "--m", 0,
                    "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err == "error: m must be >= 1, got 0\n"


@pytest.mark.parametrize("mechanism", ["laplacian", "mahalanobis"])
def test_perturb_rejects_an_infinite_epsilon(emb_file, tmp_path, capsys, mechanism):
    # at epsilon = inf both would release the input unchanged
    out = tmp_path / "out"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                "--epsilon", "inf", "--seed", 1, "--out-dir", out) == 2
    assert capsys.readouterr().err == "error: epsilon must be finite and > 0, got inf\n"
    assert not out.exists()


def test_bad_precision_fails_before_any_work(emb_file, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the precision was checked")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    monkeypatch.setattr(Perturber, "perturb", must_not_run)
    out = tmp_path / "out"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1.0, "--seed", 1, "--precision", 0,
                "--out-dir", out) == 2
    assert capsys.readouterr().err == "error: precision must be >= 1, got 0\n"
    assert not out.exists()


PROVEN_ONLY_AT_2 = (
    "the gaussian mechanism's closed-form calibration is proven only for epsilon "
    "in (0, 1), got 2.0; pass strict=False (--allow-unproven-epsilon on the "
    "command line) to run the formula outside that range anyway"
)


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("perturb", ("--epsilon", 1.0),
         f"--mechanism is required (one of {MECHANISM_KINDS})"),
        ("perturb", ("--mechanism", "nadp"), "--epsilon is required"),
        ("calibrate", (), "--epsilon is required"),
        ("eval-utility", ("--wordsim", "pairs.tsv"),
         "--epsilons is required (comma-separated list)"),
        ("eval-utility", ("--epsilons", 1),
         "at least one of --wordsim/--sts/--oddman is required"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", 1,
                          "--mechanisms", "nadp,bogus"), "unknown mechanism 'bogus'"),
        ("eval-privacy", (), "--perturbed is required"),
        ("neighbours", ("--words", "w0"), "--perturbed is required"),
        ("neighbours", ("--perturbed", "noisy.txt"),
         "--words is required (comma-separated list)"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", 1, "--repeats", 0),
         "--repeats must be >= 1, got 0"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", 1, "--repeats", -2),
         "--repeats must be >= 1, got -2"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", 1, "--seeds", ","),
         "--seeds must list at least one seed"),
        ("neighbours", ("--perturbed", "noisy.txt", "--words", "w0", "-k", 0),
         "-k must be >= 1, got 0"),
        ("eval-privacy", ("--perturbed", "noisy.txt", "--m-eval", 0),
         "--m-eval must be >= 1, got 0"),
        *[
            ("perturb", ("--mechanism", "nadp", "--epsilon", 1.0, flag, value), message)
            for flag, value, message in [
                ("--m", 0, "m must be >= 1, got 0"),
                ("--m-density", 0, "m_density must be >= 1, got 0"),
                ("--tau", 2, "tau must be in [0, 1], got 2.0"),
                ("--delta", 2, "delta must be in (0, 1), got 2.0"),
                ("--lambda", 2, "lambda must be in [0, 1], got 2.0"),
                ("--eta0", -1, "eta0 must be > 0, got -1.0"),
                ("--alpha1", 0, "alpha1 must be > 0, got 0.0"),
                ("--alpha2", -1, "alpha2 must be > 0, got -1.0"),
                ("--limit", 0, "limit must be >= 1, got 0"),
            ]
        ],
        ("graph", ("--m", 0), "m must be >= 1, got 0"),
        ("components", ("--m", 0), "m must be >= 1, got 0"),
        ("calibrate", ("--epsilon", 1.0, "--m", 0), "m must be >= 1, got 0"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", 1, "--m", 0),
         "m must be >= 1, got 0"),
        ("calibrate", ("--epsilon", -1), "epsilon must be finite and >= 0, got -1.0"),
        ("calibrate", ("--epsilon", "nan"), "epsilon must be finite and >= 0, got nan"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", "1,-1"),
         "epsilon must be finite and >= 0, got -1.0"),
        ("calibrate", ("--epsilon", "inf"), "epsilon must be finite and >= 0, got inf"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--epsilons", "1,inf"),
         "epsilon must be finite and >= 0, got inf"),
        # epsilon's domain is the mechanism's own
        ("perturb", ("--mechanism", "laplacian", "--epsilon", 0),
         "epsilon must be finite and > 0, got 0.0"),
        ("perturb", ("--mechanism", "gaussian", "--epsilon", 2), PROVEN_ONLY_AT_2),
        ("perturb", ("--mechanism", "nadp", "--epsilon", "inf"),
         "epsilon must be finite and >= 0, got inf"),
        ("perturb", ("--mechanism", "mahalanobis", "--epsilon", "inf"),
         "epsilon must be finite and > 0, got inf"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--mechanisms", "laplacian",
                          "--epsilons", 0), "epsilon must be finite and > 0, got 0.0"),
        ("eval-utility", ("--wordsim", "pairs.tsv", "--mechanisms", "nadp,gaussian",
                          "--epsilons", "0.5,2"), PROVEN_ONLY_AT_2),
    ],
    ids=["perturb-mechanism", "perturb-epsilon", "calibrate-epsilon",
         "eval-utility-epsilons", "eval-utility-datasets", "eval-utility-mechanism",
         "eval-privacy-perturbed", "neighbours-perturbed", "neighbours-words",
         "eval-utility-repeats-0", "eval-utility-repeats-negative",
         "eval-utility-seeds-empty", "neighbours-k", "eval-privacy-m-eval",
         "perturb-m", "perturb-m-density", "perturb-tau", "perturb-delta",
         "perturb-lambda", "perturb-eta0", "perturb-alpha1", "perturb-alpha2",
         "perturb-limit", "graph-m", "components-m", "calibrate-m", "eval-utility-m",
         "calibrate-epsilon-negative", "calibrate-epsilon-nan",
         "eval-utility-epsilons-negative", "calibrate-epsilon-inf",
         "eval-utility-epsilons-inf", "perturb-laplacian-epsilon-0",
         "perturb-gaussian-epsilon-2", "perturb-nadp-epsilon-inf",
         "perturb-mahalanobis-epsilon-inf", "eval-utility-laplacian-epsilon-0",
         "eval-utility-gaussian-epsilon-2"],
)
def test_missing_argument_fails_before_any_work(
    emb_file, tmp_path, capsys, monkeypatch, command, flags, message
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the arguments were checked")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    out = tmp_path / "out"
    assert _run(command, "--embeddings", emb_file, *flags, "--out-dir", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _replay_edited(emb_file, tmp_path, capsys, monkeypatch, key, value) -> str:
    """Replay a perturb manifest with one parameter edited, with every load
    made to fail; returns stderr after asserting exit 2 and no output."""
    first = tmp_path / "first"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1.0, "--seed", 33, "--out-dir", first) == 0
    manifest = json.loads((first / "perturb_manifest.json").read_text())
    manifest["parameters"][key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the manifest's parameters were checked")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run("perturb", "--config", edited, "--out-dir", out) == 2
    assert not out.exists()
    return capsys.readouterr().err


def test_replayed_manifest_out_of_domain_fails_before_any_load(
    emb_file, tmp_path, capsys, monkeypatch
):
    err = _replay_edited(emb_file, tmp_path, capsys, monkeypatch, "lambda_", 2.0)
    assert err == "error: lambda must be in [0, 1], got 2.0\n"


@pytest.mark.parametrize(
    "key, value, message",
    [("m", "2", "m must be an int, got '2'"),
     ("tau", "x", "tau must be a number, got 'x'"),
     ("m", True, "m must be an int, got True"),
     ("limit", 2.0, "limit must be an int, got 2.0"),
     ("output", 1, "--output must be a string, got 1"),
     ("allow_unproven_epsilon", "yes",
      "--allow-unproven-epsilon must be true or false, got 'yes'"),
     ("mechanism", "nope", "--mechanism must be one of ('nadp', 'gaussian', "
      "'laplacian', 'mahalanobis', 'jaccard'), got 'nope'")],
    ids=["m-'2'", "tau-'x'", "m-true", "limit-2.0", "output-1", "allow-'yes'",
         "mechanism-'nope'"],
)
def test_replayed_manifest_of_the_wrong_type_fails_before_any_load(
    emb_file, tmp_path, capsys, monkeypatch, key, value, message
):
    err = _replay_edited(emb_file, tmp_path, capsys, monkeypatch, key, value)
    assert err == f"error: {message}\n"


def test_replayed_manifest_with_an_unknown_key_fails_before_any_load(
    emb_file, tmp_path, capsys, monkeypatch
):
    # a misspelt key is named, not ignored while its parameter runs at the
    # default; the check comes before the output directory is made
    first = tmp_path / "first"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1.0, "--seed", 33, "--m", 2, "--tau", 0.1,
                "--out-dir", first) == 0
    manifest = json.loads((first / "perturb_manifest.json").read_text())
    manifest["parameters"]["tua"] = manifest["parameters"].pop("tau")
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the manifest's parameters were checked")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run("perturb", "--config", edited, "--out-dir", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: manifest {edited} has an unknown parameter 'tua'\n"
    )


_CLASHING_NAMES = [
    (("--output", "same.json", "--report", "same.json"),
     "--report and --output name the same file out/same.json"),
    (("--output", "perturb_manifest.json"),
     "--output and the manifest name the same file out/perturb_manifest.json"),
    (("--output", "emb.txt"), "--output and --embeddings name the same file out/emb.txt"),
    (("--report", "vocab.txt", "--vocab-file", "out/vocab.txt"),
     "--report and --vocab-file name the same file out/vocab.txt"),
]


@pytest.mark.parametrize(
    "flags, message", _CLASHING_NAMES,
    ids=["output-is-report", "output-is-manifest", "output-is-embeddings",
         "report-is-vocab-file"],
)
def test_perturb_files_are_distinct_and_not_inputs(
    emb_file, tmp_path, capsys, monkeypatch, flags, message
):
    # a file written over another, or over an input whose hash the manifest
    # records after the run, leaves a run that cannot replay; each clash is
    # named before any file is read or written
    monkeypatch.chdir(tmp_path)
    out = Path("out")
    out.mkdir()
    shutil.copy(emb_file, out / "emb.txt")
    (out / "vocab.txt").write_text("w0\nw1\n", encoding="utf-8")
    inputs = {path.name: path.read_bytes() for path in out.iterdir()}

    def must_not_run(*args, **kwargs):
        raise AssertionError("read the embeddings before the file names were checked")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    assert _run("perturb", "--embeddings", "out/emb.txt", "--mechanism", "nadp",
                "--epsilon", 1.0, "--seed", 1, "--out-dir", out, *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == inputs


def test_every_domain_agrees_with_the_library_check(emb_file, tmp_path, monkeypatch):
    """Each row of the one domain table: the command line and every library
    entry point that takes the value reject the values just outside the
    domain and take those just inside it, and where the row names the value
    as the library does, the errors read the same. A Perturber checks its
    knobs when it is built, before any kNN. Epsilon, whose domain is each
    mechanism's own, is checked the same way against nadp's."""
    emb = load_embeddings(emb_file)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a Perturber ran the kNN while it was built")

    monkeypatch.setattr(mechanisms, "knn", must_not_run)

    def knob(key):
        return lambda v: Perturber(emb, delta=0.1, **{key: v})

    library = {
        "limit": [lambda v: load_embeddings(emb_file, limit=v)],
        "m": [knob("m"), lambda v: build_graph(emb, v, 0.1)],
        "m_density": [knob("m_density")],
        "precision": [lambda v: save_embeddings(emb, tmp_path / "e.txt", precision=v)],
        "tau": [knob("tau"), lambda v: build_graph(emb, 2, v)],
        "delta": [lambda v: Perturber(emb, delta=v), lambda v: PrivacyParams(0.5, v)],
        "lambda_": [knob("lambda_")],
        "eta0": [knob("eta0")],
        "alpha1": [knob("alpha1")],
        "alpha2": [knob("alpha2")],
        "m_eval": [lambda v: privacy_report(emb, emb, m=v)],
        "k": [lambda v: rank_queries(emb, emb.vectors, v)],
        "repeats": [],  # the command line's alone
    }
    assert set(library) == set(DOMAINS)
    # domain -> (values just outside it, values just inside it)
    edges = {
        ">= 1": ([0, -1], [1]),
        "in [0, 1]": ([math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), math.nan],
                      [0.0, 1.0]),
        "in (0, 1)": ([0.0, 1.0, math.nan],
                      [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)]),
        "> 0": ([0.0, -1.0, math.nan], [math.nextafter(0.0, 1.0)]),
    }
    for key, calls in library.items():
        name, domain = DOMAINS[key]
        outside, inside = edges[domain]
        for value in outside:
            with pytest.raises(ValueError) as cli_error:
                cli._check_params({key: value}, (key,), ())
            assert str(cli_error.value) == f"{name} must be {domain}, got {value}"
            for call in calls:
                with pytest.raises(ValueError) as library_error:
                    call(value)
                if not name.startswith("-"):
                    assert str(library_error.value) == str(cli_error.value)
        for value in inside:
            cli._check_params({key: value}, (key,), ())
            for call in calls:
                call(value)
    for value in (math.nextafter(0.0, -1.0), -1.0, math.nan, math.inf):
        with pytest.raises(ValueError) as cli_error:
            check_epsilon("nadp", value, strict=True)
        with pytest.raises(ValueError) as library_error:
            PrivacyParams(value, 0.5)
        assert str(library_error.value) == str(cli_error.value)
    assert check_epsilon("nadp", 0.0, strict=True)
    PrivacyParams(0.0, 0.5)


_WRONG_SHAPE = " is not a JSON object with a 'parameters' object"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[]", _WRONG_SHAPE),
        (b'{"command": "graph", "parameters": 5}', _WRONG_SHAPE),
        (b'{"command": "graph"}', _WRONG_SHAPE),
        (b'{"command": "graph",',
         ": Expecting property name enclosed in double quotes: line 1 column 21 (char 20)"),
        (b"\xff\xfe{}", ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["list", "parameters-5", "no-parameters", "not-json", "not-utf8"],
)
def test_config_of_the_wrong_shape_is_named(tmp_path, capsys, content, message):
    config = tmp_path / "bad.json"
    config.write_bytes(content)
    out = tmp_path / "out"
    assert _run("graph", "--config", config, "--out-dir", out) == 2
    assert capsys.readouterr().err == f"error: manifest {config}{message}\n"
    assert not out.exists()  # named before the out-dir is made


def test_config_written_by_another_command_is_named(emb_file, tmp_path, capsys):
    first = tmp_path / "first"
    assert _run("graph", "--embeddings", emb_file, "--out-dir", first) == 0
    config = first / "graph_manifest.json"
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run("components", "--config", config, "--out-dir", out) == 2
    assert capsys.readouterr().err == (
        f"error: manifest {config} was written by 'graph', not 'components'\n"
    )
    assert not out.exists()  # named before the out-dir is made


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--m", 0), "error: m must be >= 1, got 0\n"),
        (("--mechanism", "gaussian", "--epsilon", 2), "error: the gaussian mechanism's"),
        (("--output", "x.json", "--report", "x.json"), "error: --report and --output "),
        (("--embeddings", "missing.txt"), "error: [Errno 2] No such file or directory"),
    ],
    ids=["m-0", "gaussian-epsilon-2", "output-is-report", "missing-embeddings"],
)
def test_a_failed_run_removes_the_out_dir_it_made(
    emb_file, tmp_path, capsys, monkeypatch, flags, message
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "new" / "out"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1, *flags, "--out-dir", out) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists() and not out.parent.exists()
    # an out-dir that was there before stays as it was
    out.mkdir(parents=True)
    (out / "kept.txt").write_text("kept")
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "nadp",
                "--epsilon", 1, *flags, "--out-dir", out) == 2
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


@pytest.mark.parametrize(
    "command, flag, flags",
    [("graph", "--vocab-file", ()), ("eval-utility", "--wordsim", ("--epsilons", 1))],
)
def test_a_file_that_is_not_utf8_is_named(emb_file, tmp_path, capsys, command, flag, flags):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"w0\tw1\t1\n\xff\n")  # a line either file may hold, then one it may not
    assert _run(command, "--embeddings", emb_file, flag, bad, *flags,
                "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:2: 'utf-8' codec can't decode byte 0xff"
    )


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


def test_perturb_manifest_schema_is_pinned(emb_file, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "jaccard",
                "--epsilon", 0.8, "--seed", 5, "--m", 2, "--tau", 0.1,
                *KNOB_FLAGS, "--out-dir", first) == 0
    manifest = json.loads((first / "perturb_manifest.json").read_text())
    assert set(manifest["parameters"]) == PERTURB_PARAMETERS
    assert _run("perturb", "--config", first / "perturb_manifest.json",
                "--out-dir", second) == 0
    for name in ("perturbed.txt", "perturb_report.json", "perturb_manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_eval_utility_manifest_with_a_seed_list_replays(emb_file, tmp_path):
    # the manifest records the drawn seeds as a list, which the type check
    # of the comma-separated flags takes
    emb = load_embeddings(emb_file)
    wordsim = tmp_path / "pairs.tsv"
    wordsim.write_text("".join(f"{emb.words[i]}\t{emb.words[i + 1]}\t{i % 7}\n"
                               for i in range(0, 40, 2)), encoding="utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run("eval-utility", "--embeddings", emb_file, "--wordsim", wordsim,
                "--epsilons", "0.5,0.8", "--seed", 5, "--repeats", 2,
                "--out-dir", first) == 0
    manifest = json.loads((first / "eval_utility_manifest.json").read_text())
    assert manifest["parameters"]["seeds"] == [5, 6]
    assert _run("eval-utility", "--config", first / "eval_utility_manifest.json",
                "--out-dir", second) == 0
    for name in ("utility.csv", "utility.json", "eval_utility_manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cli_knobs_reach_the_mechanisms(emb_file, tmp_path):
    emb = load_embeddings(emb_file)
    wordsim = tmp_path / "pairs.tsv"
    wordsim.write_text("".join(f"{emb.words[i]}\t{emb.words[i + 1]}\t{i % 7}\n"
                               for i in range(0, 60, 2)), encoding="utf-8")
    for mechanism in ("jaccard", "mahalanobis"):
        assert _run("perturb", "--embeddings", emb_file, "--mechanism", mechanism,
                    "--epsilon", 0.8, "--seed", 11, *KNOB_FLAGS,
                    "--out-dir", tmp_path / mechanism) == 0
    report = json.loads((tmp_path / "jaccard" / "perturb_report.json").read_text())
    assert (report["eta0"], report["alpha1"], report["alpha2"]) == (0.9, 2.5, 0.7)
    assert report["m_density"] == 4
    report = json.loads(
        (tmp_path / "mahalanobis" / "perturb_report.json").read_text()
    )
    assert report["lambda"] == 0.3

    mechanisms, epsilons, seeds = ["jaccard", "mahalanobis"], [0.8], [1, 2]
    assert _run("eval-utility", "--embeddings", emb_file, "--wordsim", wordsim,
                "--mechanisms", ",".join(mechanisms), "--epsilons", 0.8,
                "--seeds", "1,2", "--m", 2, "--tau", 0.1, *KNOB_FLAGS,
                "--out-dir", tmp_path) == 0
    rows = json.loads((tmp_path / "utility.json").read_text())["rows"]
    datasets = UtilityDatasets(word_similarity=load_similarity_dataset(wordsim))

    def suite_values(**knobs):
        perturber = Perturber(emb, delta=1.0 / emb.n, m=2, tau=0.1, **knobs)
        suite = utility_suite(
            emb, datasets, lambda kind, eps, seed: perturber.perturb(kind, eps, seed)[0],
            mechanisms, epsilons, seeds,
        )
        return [list(r.values) for r in suite]

    assert [r["values"] for r in rows] == suite_values(**KNOBS)
    # the knobs change the noise, so the equality above is not vacuous
    assert suite_values()[1:] != suite_values(**KNOBS)[1:]


def test_perturb_draws_and_records_seed(emb_file, tmp_path, capsys):
    # a drawn seed is recorded in the private manifest alone: not in the
    # public report, nor on stdout
    assert _run("perturb", "--embeddings", emb_file, "--mechanism", "laplacian",
                "--epsilon", 1.0, "--out-dir", tmp_path) == 0
    manifest = json.loads((tmp_path / "perturb_manifest.json").read_text())
    seed = manifest["parameters"]["seed"]
    assert isinstance(seed, int)
    report = json.loads((tmp_path / "perturb_report.json").read_text())
    assert "seed" not in report
    assert str(seed) not in capsys.readouterr().out
    # a replay into the same directory rewrites the manifest private again
    manifest_path = tmp_path / "perturb_manifest.json"
    manifest_path.chmod(0o644)
    assert _run("perturb", "--config", manifest_path, "--out-dir", tmp_path) == 0
    assert stat.S_IMODE(manifest_path.stat().st_mode) == 0o600
    assert json.loads(manifest_path.read_text()) == manifest


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


def test_neighbours_builds_one_index_for_both_rankings(emb_file, tmp_path, monkeypatch):
    emb = load_embeddings(emb_file)
    built = []
    init = graph.NeighbourIndex.__init__

    def counted(index, emb):
        init(index, emb)
        built.append(index)

    monkeypatch.setattr(graph.NeighbourIndex, "__init__", counted)
    assert _run("neighbours", "--embeddings", emb_file, "--perturbed", emb_file,
                "--words", ",".join(emb.words[:4]), "-k", 3, "--out-dir", tmp_path) == 0
    assert len(built) == 1
    assert built[0].emb.words == emb.words


def test_neighbours_refuses_vocabularies_that_do_not_match(emb_file, tmp_path, capsys):
    emb = load_embeddings(emb_file)
    other = EmbeddingSet(emb.words[1:] + ("other",), np.array(emb.vectors))
    save_embeddings(other, tmp_path / "other.txt", precision=8)
    out = tmp_path / "out"
    assert _run("neighbours", "--embeddings", emb_file, "--perturbed",
                tmp_path / "other.txt", "--words", emb.words[0], "--out-dir", out) == 2
    assert capsys.readouterr().err == (
        "error: original and perturbed vocabularies do not match\n"
    )
    assert not (out / "neighbours.json").exists()


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


def test_neighbours_flags_a_leak_through_a_duplicate(tmp_path, capsys):
    # w0..w7 share one vector and w5 keeps it: (distance, index) order ranks
    # w0..w4 ahead of w5, so the leak shows only as a duplicate's name
    rng = np.random.default_rng(3)
    vectors = np.vstack([np.ones((8, 4)), rng.normal(size=(12, 4)) + 5.0])
    words = tuple(f"w{i}" for i in range(len(vectors)))
    noisy = vectors + rng.normal(scale=3.0, size=vectors.shape)
    noisy[5] = vectors[5]
    save_embeddings(EmbeddingSet(words, vectors), tmp_path / "clean.txt", precision=8)
    save_embeddings(EmbeddingSet(words, noisy), tmp_path / "noisy.txt", precision=8)
    assert _run("neighbours", "--embeddings", tmp_path / "clean.txt",
                "--perturbed", tmp_path / "noisy.txt", "--words", "w5",
                "-k", 5, "--out-dir", tmp_path) == 0
    (row,) = json.loads((tmp_path / "neighbours.json").read_text())["rows"]
    assert row["perturbed_neighbours"] == ["w0", "w1", "w2", "w3", "w4"]
    assert row["leak"] is True
    assert capsys.readouterr().out.splitlines()[-1].endswith("| LEAK")


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


@pytest.mark.parametrize("command", ["graph", "components"])
@pytest.mark.parametrize(
    "flags, warning",
    [
        # m=2: linked words' neighbour sets share at most 1 of 3 words
        (("--m", 2, "--tau", 0.5),
         "warning: tau=0.5 exceeds (k-1)/(k+1)=0.333333 for k=min(m, n-1)=2; "
         "the graph has no edges\n"),
        (("--m", 2, "--tau", 1 / 3), ""),
        # 3 words leave each at most n-1 = 2 neighbours, whatever m is
        (("--m", 5, "--limit", 3, "--tau", 0.4),
         "warning: tau=0.4 exceeds (k-1)/(k+1)=0.333333 for k=min(m, n-1)=2; "
         "the graph has no edges\n"),
        (("--m", 5, "--limit", 3, "--tau", 1 / 3), ""),
    ],
    ids=["m2-above", "m2-at-bound", "n3-above", "n3-at-bound"],
)
def test_edgeless_tau_is_flagged(emb_file, tmp_path, capsys, command, flags, warning):
    assert _run(command, "--embeddings", emb_file, *flags, "--out-dir", tmp_path) == 0
    assert capsys.readouterr().err == warning
    assert _run("graph", "--embeddings", emb_file, *flags, "--out-dir", tmp_path) == 0
    edges = json.loads((tmp_path / "graph.json").read_text())["edge_count"]
    # the warning is exact: silent at the bound, where edges still exist
    assert (edges == 0) == bool(warning)


def _parser_flags() -> dict[str, dict[str, argparse.Action]]:
    """command -> {dest: action} of the flags its subparser takes."""
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.dest: a for a in sub._actions if a.dest != "help"}
            for name, sub in commands.choices.items()}


def test_parameter_table_and_parser_agree():
    flags = _parser_flags()
    assert set(flags) == {"graph", "components", "calibrate", "perturb",
                          "eval-privacy", "eval-utility", "neighbours"}
    dests = {dest for actions in flags.values() for dest in actions}
    assert dests - {"config", "out_dir"} == set(cli._DEFAULTS)
    # an absent flag parses to None, so the manifest or the default applies
    for actions in flags.values():
        assert all(a.default is None for d, a in actions.items() if d != "out_dir")
    options = {o: a for actions in flags.values() for a in actions.values()
               for o in a.option_strings}
    for option, default in [("--m", DEFAULT_M), ("--tau", DEFAULT_TAU),
                            ("--lambda", DEFAULT_LAMBDA), ("--eta0", DEFAULT_ETA0),
                            ("--alpha1", DEFAULT_ALPHA1), ("--alpha2", DEFAULT_ALPHA2),
                            ("--m-density", DEFAULT_M_DENSITY),
                            ("--m-eval", DEFAULT_EVAL_M)]:
        assert f"(default {default})" in options[option].help, option


def test_perturber_fields_are_parameters_of_the_table():
    # `_perturber` maps each field to the parameter of its name; every field
    # but the clean set and `strict` (from --allow-unproven-epsilon) is one
    knobs = {f.name for f in fields(Perturber)} - {"emb", "strict"}
    assert knobs <= set(cli._PARAMS)


_ONE_WORD_RUNS = [
    *(("perturb", "--mechanism", kind, "--epsilon", 0.5, "--seed", 1)
      for kind in MECHANISM_KINDS),
    ("eval-utility", "--wordsim", "pairs.tsv", "--epsilons", 0.5, "--seeds", 1),
    ("eval-privacy", "--perturbed", "one.txt"),
    ("neighbours", "--perturbed", "one.txt", "--words", "w0"),
]


@pytest.mark.parametrize(
    "argv", _ONE_WORD_RUNS,
    ids=[f"{a[0]}-{a[2]}" if a[0] == "perturb" else a[0] for a in _ONE_WORD_RUNS],
)
def test_a_one_word_vocabulary_is_named(tmp_path, capsys, monkeypatch, argv):
    # every search and covariance needs a second word; the error says so
    # instead of naming a delta or k derived from n = 1
    monkeypatch.chdir(tmp_path)
    Path("one.txt").write_text("w0 1.0 2.0\n", encoding="utf-8")
    Path("pairs.tsv").write_text("w0\tw0\t1\n", encoding="utf-8")
    assert _run(*argv, "--embeddings", "one.txt", "--out-dir", "out") == 2
    assert "error: need at least 2 words, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda one: privacy_report(one, one), "need at least 2 words, got 1"),
        (lambda one: Perturber(one, delta=0.5), "need at least 2 words, got 1"),
    ],
    ids=["privacy_report", "Perturber"],
)
def test_a_one_word_vocabulary_is_named_by_the_library(call, message):
    one = EmbeddingSet(("w0",), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match=message):
        call(one)


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--epsilons", "1,x"), "--epsilons: could not convert string to float: 'x'"),
        (("--epsilons", 1, "--seeds", "1,y"),
         "--seeds: invalid literal for int() with base 10: 'y'"),
    ],
    ids=["epsilons", "seeds"],
)
def test_bad_list_entry_names_its_flag_before_any_load(
    emb_file, tmp_path, capsys, monkeypatch, flags, message
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the list flags were parsed")

    monkeypatch.setattr(cli, "load_embeddings", must_not_run)
    out = tmp_path / "out"
    assert _run("eval-utility", "--embeddings", emb_file, "--wordsim", "pairs.tsv",
                *flags, "--out-dir", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "tau, warning",
    [
        (0.5, "warning: tau=0.5 exceeds (k-1)/(k+1)=0.333333 for k=min(m, n-1)=2; "
              "the graph has no edges\n"),
        (1 / 3, ""),
    ],
    ids=["above", "at-bound"],
)
def test_calibrate_flags_edgeless_tau(emb_file, tmp_path, capsys, tau, warning):
    assert _run("calibrate", "--embeddings", emb_file, "--epsilon", 0.5,
                "--m", 2, "--tau", tau, "--out-dir", tmp_path) == 0
    assert capsys.readouterr().err == warning
    report = json.loads((tmp_path / "calibration.json").read_text())
    assert (report["max_sigma"] == 0.0) == bool(warning)


def test_commands_never_import_scipy_stats(emb_file, tmp_path):
    """A fresh interpreter imports nadp and runs all seven commands without
    loading scipy.stats, whose import alone costs more than half a second."""
    emb = load_embeddings(emb_file)
    (tmp_path / "pairs.tsv").write_text(
        "".join(f"{emb.words[i]}\t{emb.words[i + 1]}\t{i % 7}\n" for i in range(0, 60, 2)),
        encoding="utf-8",
    )
    common = ["--embeddings", str(emb_file), "--out-dir", str(tmp_path)]
    runs = [
        ["graph", *common, "--m", "2", "--tau", "0.1"],
        ["components", *common, "--m", "2", "--tau", "0.1"],
        ["calibrate", *common, "--m", "2", "--tau", "0.1", "--epsilon", "0.5"],
        ["perturb", *common, "--m", "2", "--tau", "0.1", "--mechanism", "nadp",
         "--epsilon", "1", "--seed", "1"],
        ["eval-privacy", *common, "--perturbed", str(tmp_path / "perturbed.txt")],
        ["eval-utility", *common, "--m", "2", "--tau", "0.1",
         "--wordsim", str(tmp_path / "pairs.tsv"), "--epsilons", "1", "--seeds", "1"],
        ["neighbours", *common, "--perturbed", str(tmp_path / "perturbed.txt"),
         "--words", ",".join(emb.words[:3])],
    ]
    assert {argv[0] for argv in runs} == set(cli._COMMANDS)
    script = (
        "import json, sys\n"
        "import nadp\n"
        "import nadp.cli\n"
        "seen = ['scipy.stats' in sys.modules]\n"
        f"for argv in {runs!r}:\n"
        "    seen.append(nadp.cli.main(argv))\n"
        "    seen.append('scipy.stats' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(nadp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == [False] + [0, False] * len(runs)


def test_commands_never_import_scipy(emb_file, tmp_path):
    """A fresh interpreter imports nadp and runs all seven commands without
    loading scipy or any of its modules: the library needs numpy alone."""
    emb = load_embeddings(emb_file)
    (tmp_path / "pairs.tsv").write_text(
        "".join(f"{emb.words[i]}\t{emb.words[i + 1]}\t{i % 7}\n" for i in range(0, 60, 2)),
        encoding="utf-8",
    )
    common = ["--embeddings", str(emb_file), "--out-dir", str(tmp_path)]
    graph = ["--m", "2", "--tau", "0.1"]
    runs = [
        ["graph", *common, *graph],
        ["components", *common, *graph],
        ["calibrate", *common, *graph, "--epsilon", "0.5"],
        ["perturb", *common, *graph, "--mechanism", "nadp", "--epsilon", "1", "--seed", "1"],
        ["eval-privacy", *common, "--perturbed", str(tmp_path / "perturbed.txt")],
        ["eval-utility", *common, *graph, "--wordsim", str(tmp_path / "pairs.tsv"),
         "--epsilons", "1", "--seeds", "1"],
        ["neighbours", *common, "--perturbed", str(tmp_path / "perturbed.txt"),
         "--words", ",".join(emb.words[:3])],
    ]
    assert {argv[0] for argv in runs} == set(cli._COMMANDS)
    script = (
        "import json, sys\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import nadp\n"
        "import nadp.cli\n"
        "seen = [scipy_loaded()]\n"
        f"for argv in {runs!r}:\n"
        "    seen.append(nadp.cli.main(argv))\n"
        "    seen.append(scipy_loaded())\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(nadp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == [[]] + [0, []] * len(runs)
