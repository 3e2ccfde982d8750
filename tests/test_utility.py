import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nadp
from nadp.embeddings import EmbeddingSet
from nadp.utility import (
    OddManDataset,
    SentencePairDataset,
    SimilarityDataset,
    UtilityDatasets,
    _centroids,
    _odd_man_picks,
    _rows,
    aggregate,
    load_odd_man_dataset,
    load_sentence_pairs,
    load_similarity_dataset,
    odd_man_eval,
    pearson,
    spearman,
    sts_eval,
    suite_rows_to_csv,
    utility_suite,
    word_similarity_eval,
)

from oracles import (
    cosine_per_pair,
    odd_man_bruteforce,
    odd_man_out_per_drop,
    pearson_bruteforce,
    spearman_bruteforce,
)
from synth import random_embeddings


@pytest.fixture
def toy_emb():
    vecs = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [0.0, 1.0],
            [0.1, 1.0],
            [0.5, 0.5],
        ]
    )
    return EmbeddingSet(("cat", "dog", "car", "bus", "red"), vecs)


def _pairs(emb, ratings_from_cosine=True, flip=False):
    words = emb.words
    pairs = []
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            c = cosine_per_pair(emb.vectors[i], emb.vectors[j])
            pairs.append((words[i], words[j], -c if flip else c))
    return SimilarityDataset(tuple(pairs))


def test_word_similarity_perfect_correlation(toy_emb):
    result = word_similarity_eval(toy_emb, _pairs(toy_emb))
    assert result.spearman == pytest.approx(1.0)
    assert result.scorable == result.total == 10


def test_word_similarity_reversed_correlation(toy_emb):
    result = word_similarity_eval(toy_emb, _pairs(toy_emb, flip=True))
    assert result.spearman == pytest.approx(-1.0)


def test_word_similarity_matches_rank_oracle(toy_emb):
    data = SimilarityDataset(
        (
            ("cat", "dog", 4.6),
            ("car", "bus", 4.1),
            ("cat", "car", 0.6),
            ("dog", "bus", 1.1),
            ("red", "cat", 2.0),
        ),
    )
    x = toy_emb.vectors
    sims = [
        cosine_per_pair(x[toy_emb.index_of(a)], x[toy_emb.index_of(b)])
        for a, b, _ in data.pairs
    ]
    ratings = [r for _, _, r in data.pairs]
    expected = spearman_bruteforce(sims, ratings)
    result = word_similarity_eval(toy_emb, data)
    assert result.spearman == pytest.approx(expected, abs=1e-12)


def test_word_similarity_coverage_and_errors(toy_emb):
    data = SimilarityDataset(
        (("cat", "dog", 4.0), ("cat", "unknown", 3.0), ("car", "bus", 2.0)),
    )
    result = word_similarity_eval(toy_emb, data)
    assert (result.scorable, result.total) == (2, 3)
    with pytest.raises(ValueError, match="scorable"):
        word_similarity_eval(toy_emb, SimilarityDataset((("cat", "nope", 1.0),)))


def test_correlations_match_oracles_on_random_data():
    rng = np.random.default_rng(0)
    from scipy import stats

    for _ in range(30):
        n = int(rng.integers(3, 40))
        x = rng.normal(0.0, 1.0, n)
        y = rng.normal(0.0, 1.0, n) + 0.3 * x
        # duplicated entries exercise the average-rank tie handling
        x[: n // 3] = x[0]
        assert float(stats.spearmanr(x, y).statistic) == pytest.approx(
            spearman_bruteforce(list(x), list(y)), abs=1e-12
        )
        assert float(stats.pearsonr(x, y).statistic) == pytest.approx(
            pearson_bruteforce(list(x), list(y)), abs=1e-12
        )


def _scipy_correlations(x, y) -> tuple[float, float]:
    import warnings

    from scipy import stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        return (float(stats.spearmanr(x, y).statistic),
                float(stats.pearsonr(x, y).statistic))


def _correlation_cases():
    rng = np.random.default_rng(11)
    yield [1.0, 2.0], [3.0, 5.0]
    yield [1.0, 2.0], [5.0, 3.0]
    yield [0.1, 0.3], [0.7, 0.2]
    yield [2.0, 2.0, 2.0], [1.0, 2.0, 3.0]
    yield [1.0, 2.0, 3.0], [4.0, 4.0, 4.0]
    yield [1.0, 1.0, 2.0, 2.0, 3.0], [5.0, 4.0, 4.0, 1.0, 1.0]
    for i in range(300):
        n = int(rng.integers(2, 200))
        if i % 3 == 0:
            x = rng.normal(size=n)
            y = rng.normal() * x + rng.normal(size=n)
        elif i % 3 == 1:  # many ties on both sides
            x = rng.integers(0, 4, n).astype(np.float64)
            y = rng.integers(0, 7, n) / 2.0
        else:  # nearly constant, far from zero
            x = 5.0 + 1e-4 * rng.normal(size=n)
            y = np.round(rng.normal(size=n), 1)
        yield x, y


def test_correlations_reproduce_scipy():
    scored = 0
    for x, y in _correlation_cases():
        sp, pe = _scipy_correlations(x, y)
        if math.isnan(sp):
            assert math.isnan(spearman(x, y))
            assert math.isnan(pearson(x, y))
            continue
        assert spearman(x, y) == sp
        assert pearson(x, y) == pytest.approx(pe, rel=0.0, abs=1e-15)
        scored += 1
    assert scored > 250


def test_correlations_edge_cases():
    assert pearson([1.0, 2.0], [3.0, 5.0]) == 1.0
    assert pearson([0.1, 0.3], [0.7, 0.2]) == -1.0
    for constant in ([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]):
        assert math.isnan(spearman(constant, [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], constant))
    # a tie shares its average rank: ranks (1.5, 1.5, 3) against (1, 2, 3)
    assert spearman([7.0, 7.0, 9.0], [1.0, 2.0, 3.0]) == pytest.approx(
        pearson_bruteforce([1.5, 1.5, 3.0], [1.0, 2.0, 3.0]), abs=1e-15
    )
    # centring and scaling by the largest magnitude keep huge values finite
    assert pearson([-5e210, 5e210, 3e200], [1.0, 2.0, 3.0]) == pytest.approx(
        pearson_bruteforce([-5.0, 5.0, 3e-10], [1.0, 2.0, 3.0]), abs=1e-15
    )


def _centroid(emb, tokens):
    """The centroid `sts_eval` takes of one sentence."""
    return _centroids(emb.vectors, [_rows(emb, tokens)])[0]


def test_sentence_centroid_single_word_reduces_to_vector(toy_emb):
    c = _centroid(toy_emb, ("cat",))
    assert np.array_equal(c, toy_emb.vectors[toy_emb.index_of("cat")])
    # no row to average: `sts_eval` drops the pair
    assert _rows(toy_emb, ("nope", "nada")) == []


def test_sts_single_word_sentences_reduce_to_word_similarity(toy_emb):
    data = SentencePairDataset(
        (
            (("cat",), ("dog",), 4.0),
            (("car",), ("bus",), 3.9),
            (("cat",), ("car",), 0.5),
        ),
    )
    result = sts_eval(toy_emb, data)
    x = toy_emb.vectors
    sims = [
        cosine_per_pair(x[toy_emb.index_of(a[0])], x[toy_emb.index_of(b[0])])
        for a, b, _ in data.pairs
    ]
    ratings = [r for _, _, r in data.pairs]
    assert result.spearman == pytest.approx(
        spearman_bruteforce(sims, ratings), abs=1e-12
    )


def test_sts_centroid_invariant_under_duplication(toy_emb):
    once = _centroid(toy_emb, ("cat", "car"))
    twice = _centroid(toy_emb, ("cat", "cat", "car", "car"))
    assert np.allclose(once, twice)


def test_sts_hand_computed_pairs(toy_emb):
    data = SentencePairDataset(
        (
            (("cat", "dog"), ("dog",), 4.8),
            (("car", "bus"), ("red", "car"), 3.1),
            (("cat",), ("car",), 0.5),
            (("red", "dog"), ("bus", "cat"), 2.0),
        ),
    )
    result = sts_eval(toy_emb, data)

    def centroid(ws):
        return np.mean([toy_emb.vectors[toy_emb.index_of(w)] for w in ws], axis=0)

    sims = [cosine_per_pair(centroid(a), centroid(b)) for a, b, _ in data.pairs]
    ratings = [r for _, _, r in data.pairs]
    sp = spearman_bruteforce(sims, ratings)
    pe = pearson_bruteforce(sims, ratings)
    assert result.spearman == pytest.approx(sp, abs=1e-12)
    assert result.pearson == pytest.approx(pe, abs=1e-12)
    assert result.combined == pytest.approx(math.sqrt(sp * pe), abs=1e-12)


def test_sts_anti_correlated_release_scores_below_zero(toy_emb):
    # similarities fall as the ratings rise: both correlations are negative,
    # and so is the combined score, not the geometric mean of their product
    data = SentencePairDataset(
        (
            (("cat",), ("dog",), 0.0),
            (("cat",), ("red",), 2.0),
            (("cat",), ("car",), 5.0),
        ),
    )
    result = sts_eval(toy_emb, data)
    assert result.spearman == -1.0
    assert result.pearson < 0.0
    assert result.combined == -math.sqrt(result.spearman * result.pearson)
    assert result.combined < -0.9


def test_sts_eval_does_not_import_numpy_ma():
    """A plain `np.unique` imports numpy.ma on numpy 2.4, ~20 ms and 1.3 MB
    once per process; grouping the sentences by length needs none of it."""
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from nadp.embeddings import EmbeddingSet\n"
        "from nadp.utility import SentencePairDataset, sts_eval\n"
        "loaded = ['numpy.ma' in sys.modules]\n"
        "vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])\n"
        "emb = EmbeddingSet(('a', 'b', 'c'), vectors)\n"
        "pairs = ((('a',), ('b', 'c'), 1.0), (('a', 'b'), ('c',), 2.0),\n"
        "         (('b',), ('a', 'c', 'c'), 3.0))\n"
        "sts_eval(emb, SentencePairDataset(pairs))\n"
        "loaded.append('numpy.ma' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    src = str(Path(nadp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.strip().splitlines()[-1])
    if before:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert not after


def test_sts_drops_out_of_vocabulary_sentences(toy_emb):
    data = SentencePairDataset(
        (
            (("cat",), ("dog",), 4.0),
            (("zzz",), ("dog",), 1.0),
            (("car",), ("bus",), 3.0),
        ),
    )
    result = sts_eval(toy_emb, data)
    assert result.dropped == 1
    assert result.scorable == 2
    with pytest.raises(ValueError, match="need at least 2 scorable pairs, got 1 of 2"):
        sts_eval(toy_emb, SentencePairDataset(data.pairs[:2]))


def _pick(emb, tokens):
    """The token `odd_man_eval` picks from one instance."""
    rows = np.array([[emb.index_of(t) for t in tokens]])
    return tokens[int(_odd_man_picks(emb.vectors, rows)[0])]


def test_odd_man_out_orthogonal_vector():
    vecs = np.vstack([np.tile([1.0, 0.02, 0.0], (4, 1)) + 0.01, [0.0, 0.0, 1.0]])
    emb = EmbeddingSet(("a", "b", "c", "d", "odd"), vecs)
    tokens = ("a", "b", "odd", "c", "d")
    assert _pick(emb, tokens) == "odd"
    assert odd_man_out_per_drop(emb, tokens) == ("odd", False)
    assert odd_man_bruteforce(
        {w: emb.vectors[emb.index_of(w)] for w in tokens}, tokens
    ) == "odd"


def test_odd_man_out_all_identical_flags_tie():
    emb = EmbeddingSet(("a", "b", "c", "d", "e"), np.ones((5, 3)))
    tokens = ("c", "a", "b", "d", "e")
    assert _pick(emb, tokens) == "c"  # first in instance order
    assert odd_man_out_per_drop(emb, tokens) == ("c", True)


@pytest.mark.parametrize("seed", range(6))
def test_odd_man_out_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    emb = EmbeddingSet(
        tuple(f"w{i}" for i in range(n)), rng.normal(0.0, 1.0, (n, 4))
    )
    tokens = tuple(emb.words)
    assert _pick(emb, tokens) == odd_man_bruteforce(
        {w: emb.vectors[emb.index_of(w)] for w in tokens}, tokens
    )


def _odd_man_out_nested(emb, tokens):
    # the pairwise loop recomputed for every dropped token
    vecs = [emb.vectors[emb.index_of(t)] for t in tokens]
    best_idx, best_score, tie = 0, -math.inf, False
    for drop in range(len(tokens)):
        rest = [v for i, v in enumerate(vecs) if i != drop]
        sims = [
            cosine_per_pair(rest[i], rest[j])
            for i in range(len(rest))
            for j in range(i + 1, len(rest))
        ]
        score = float(np.mean(sims))
        if score > best_score:
            best_idx, best_score, tie = drop, score, False
        elif score == best_score:
            tie = True
    return tokens[best_idx], tie


def test_odd_man_out_equals_the_nested_loop():
    # random vectors, groups of exact duplicates, small-integer vectors whose
    # cosines repeat and a zero vector: the tie flags depend on summing each
    # drop's cosines in the same order
    rng = np.random.default_rng(31)
    vecs = np.vstack(
        [
            rng.normal(0.0, 1.0, (20, 4)),
            np.repeat(rng.normal(0.0, 1.0, (3, 4)), 6, axis=0),
            rng.integers(-1, 2, (6, 4)),
            np.zeros((1, 4)),
        ]
    ).astype(float)
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(len(vecs))), vecs)
    instances = []
    for r in range(300):
        # every other instance is drawn from the tie-prone vectors only
        pool = np.arange(emb.n) if r % 2 else np.arange(20, emb.n)
        size = int(rng.integers(5, 9))
        tokens = tuple(emb.words[i] for i in rng.choice(pool, size, replace=False))
        instances.append((tokens, tokens[int(rng.integers(size))]))
    ties = 0
    for tokens, _ in instances:
        expected, tie = _odd_man_out_nested(emb, tokens)
        assert _pick(emb, tokens) == expected
        ties += tie
    assert ties > 10
    result = odd_man_eval(emb, OddManDataset(tuple(instances)))
    correct = sum(
        _odd_man_out_nested(emb, tokens)[0] == gold for tokens, gold in instances
    )
    assert (result.correct, result.evaluated) == (correct, len(instances))


def test_odd_man_out_reorder_invariance():
    rng = np.random.default_rng(42)
    emb = EmbeddingSet(
        tuple(f"w{i}" for i in range(6)), rng.normal(0.0, 1.0, (6, 5))
    )
    base = _pick(emb, emb.words)
    assert not odd_man_out_per_drop(emb, emb.words)[1]
    shuffled = tuple(np.random.default_rng(1).permutation(emb.words))
    assert _pick(emb, shuffled) == base


def test_odd_man_eval_skips_oov(toy_emb):
    data = OddManDataset(
        (
            (("cat", "dog", "red", "bus", "car"), "car"),
            (("cat", "dog", "red", "bus", "zzz"), "zzz"),
        ),
    )
    result = odd_man_eval(toy_emb, data)
    assert result.evaluated == 1 and result.skipped == 1
    with pytest.raises(ValueError, match="no fully in-vocabulary instances"):
        odd_man_eval(toy_emb, OddManDataset(data.instances[1:]))


def test_odd_man_eval_needs_three_tokens(toy_emb):
    data = OddManDataset(((("cat", "dog"), "dog"), (("car", "bus"), "car")))
    with pytest.raises(ValueError, match="need at least 3 tokens, got 2"):
        odd_man_eval(toy_emb, data)


def test_scale_invariance_of_metrics(toy_emb):
    scaled = EmbeddingSet(toy_emb.words, toy_emb.vectors * 37.5)
    data = _pairs(toy_emb)
    assert word_similarity_eval(scaled, data).spearman == pytest.approx(
        word_similarity_eval(toy_emb, data).spearman
    )
    instance = ("cat", "dog", "car", "bus", "red")
    assert _pick(scaled, instance) == _pick(toy_emb, instance)


def test_aggregate_single_sample():
    mean, stderr = aggregate([0.7])
    assert mean == 0.7 and stderr is None


def test_utility_suite_determinism_and_baseline():
    emb = random_embeddings(40, 6, seed=1)
    data = UtilityDatasets(word_similarity=_pairs(emb))

    def perturb(kind, eps, seed):
        rng = np.random.default_rng([seed, int(eps)])
        scale = 1.0 / eps
        return EmbeddingSet(
            emb.words, emb.vectors + rng.normal(0.0, scale, emb.vectors.shape)
        )

    rows1 = utility_suite(emb, data, perturb, ["x"], [2.0, 1e6], [1, 2, 3])
    rows2 = utility_suite(emb, data, perturb, ["x"], [2.0, 1e6], [1, 2, 3])
    assert rows1 == rows2
    baseline = next(r for r in rows1 if r.mechanism == "none")
    assert baseline.stderr is None and baseline.epsilon is None
    huge_eps = next(r for r in rows1 if r.epsilon == 1e6)
    # noise scale ~ 1e-6: metrics approach the no-noise reference
    assert abs(huge_eps.mean - baseline.mean) < 0.02
    single = utility_suite(emb, data, perturb, ["x"], [2.0], [5])
    assert all(r.stderr is None for r in single)
    with pytest.raises(ValueError):
        utility_suite(emb, data, perturb, ["x"], [2.0], [])


def test_suite_csv_shape():
    emb = random_embeddings(20, 4, seed=2)
    data = UtilityDatasets(word_similarity=_pairs(emb))
    rows = utility_suite(
        emb, data, lambda k, e, s: emb, ["x"], [1.0], [1, 2]
    )
    csv = suite_rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "mechanism,epsilon,task,mean,stderr,repeats"
    assert len(lines) == 1 + len(rows)


def test_dataset_loaders(tmp_path):
    sim = tmp_path / "sim.tsv"
    sim.write_text("cat\tdog\t4.5\ncar\tbus\t3.2\n", encoding="utf-8")
    data = load_similarity_dataset(sim)
    assert data.pairs == (("cat", "dog", 4.5), ("car", "bus", 3.2))

    sts = tmp_path / "sts.tsv"
    sts.write_text("A cat Sat\tthe dog\t3.0\n", encoding="utf-8")
    sdata = load_sentence_pairs(sts)
    assert sdata.pairs[0][0] == ("a", "cat", "sat")

    odd = tmp_path / "odd.tsv"
    odd.write_text("cat dog bus car red\tbus\n", encoding="utf-8")
    odata = load_odd_man_dataset(odd)
    assert odata.instances[0] == (("cat", "dog", "bus", "car", "red"), "bus")

    bad = tmp_path / "bad.tsv"
    bad.write_text("cat dog\t4.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_similarity_dataset(bad)
    bad.write_text("a b c d\td\n", encoding="utf-8")
    with pytest.raises(ValueError, match="at least 5"):
        load_odd_man_dataset(bad)
    bad.write_text("a b c d e\tz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="gold"):
        load_odd_man_dataset(bad)


@pytest.mark.parametrize(
    "loader, line, items",
    [
        (load_similarity_dataset, b"cat\tdog\t1.5", "pairs"),
        (load_sentence_pairs, b"a b\tc d\t1.5", "pairs"),
        (load_odd_man_dataset, b"a b c d e\te", "instances"),
    ],
)
def test_loaders_name_the_line_that_is_not_utf8(tmp_path, loader, line, items):
    # lines end in '\r\n', '\n' and '\r', and a blank line counts
    path = tmp_path / "data.tsv"
    head = line + b"\r\n\n" + line + b"\r"
    path.write_bytes(head + line + b"\xff\n" + line + b"\n")
    with pytest.raises(ValueError) as excinfo:
        loader(path)
    assert str(excinfo.value).startswith(
        f"{path}:4: 'utf-8' codec can't decode byte 0xff in position {len(line)}"
    )
    path.write_bytes(head + line + b"\n")
    assert len(getattr(loader(path), items)) == 3


@pytest.mark.parametrize(
    "loader, fields",
    [(load_similarity_dataset, "cat\tdog"), (load_sentence_pairs, "a b\tc d")],
)
@pytest.mark.parametrize(
    "rating, message",
    [
        ("nan", "non-finite rating"),
        ("-inf", "non-finite rating"),
        ("x", "could not convert string to float: 'x'"),
    ],
)
def test_loaders_name_the_line_of_a_bad_rating(tmp_path, loader, fields, rating, message):
    path = tmp_path / "data.tsv"
    path.write_text(f"{fields}\t1.5\n{fields}\t{rating}\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        loader(path)
    assert str(excinfo.value) == f"{path}:2: {message}"


def test_suite_scores_sts_and_odd_man_through_the_task_table(toy_emb):
    # utility_suite reaches sts_eval and odd_man_eval through _evaluate_tasks;
    # with the release equal to its input, every cell is the baseline score
    sts = SentencePairDataset(
        (
            (("cat", "dog"), ("dog",), 4.8),
            (("car", "bus"), ("red", "car"), 3.1),
            (("cat",), ("car",), 0.5),
        ),
    )
    odd = OddManDataset(((("cat", "dog", "red", "bus", "car"), "car"),))
    data = UtilityDatasets(sts=sts, odd_man=odd)
    rows = utility_suite(toy_emb, data, lambda k, e, s: toy_emb, ["x"], [1.0], [1])
    scores = {(r.mechanism, r.task): r.mean for r in rows}
    for mechanism in ("none", "x"):
        assert scores[mechanism, "sts"] == sts_eval(toy_emb, sts).combined
        assert scores[mechanism, "odd_man_out"] == odd_man_eval(toy_emb, odd).accuracy
    assert {task for _, task in scores} == {"sts", "odd_man_out"}


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_similarity_dataset, "cat\tdog\t1.5\n\tdog\t2.0\n", "empty token"),
        (load_sentence_pairs, "a b\tc d\t1.5\na b\t \t2.0\n", "empty sentence"),
    ],
    ids=["wordsim-token", "sts-whitespace-sentence"],
)
def test_loaders_name_the_line_of_an_empty_field(tmp_path, loader, text, message):
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        loader(path)
    assert str(excinfo.value) == f"{path}:2: {message}"
