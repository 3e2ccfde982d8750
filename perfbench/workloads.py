"""The benchmark's three workloads, composed from nadp's public functions.

Each workload has an untimed ``setup``, a timed ``op`` and an untimed
``check`` of that op's outputs, plus a ``cross_check`` that runs the nadp
command-line entry point once with one op's flags and seed and compares its
artifacts to the op's. Every call into nadp is wrapped in a span of the
run's tracer; spans are no-ops when tracing is off.

* ``release``: ``nadp perturb --mechanism nadp --epsilon 5 --precision 6``
  on 10k words, with a fresh seed per op. The operator's path; kNN and text
  I/O do most of the work.
* ``privacy``: ``nadp eval-privacy --m-eval 10`` on 5k words. The full-row
  ranking in ``graph.rank_queries`` dominates; no mechanism runs.
* ``sweep``: one utility-sweep cell per op (perturb, then three utility
  tasks) on 10k words, cycling over 5 mechanisms x 3 epsilons. kNN runs
  only in setup, so per-word noise and utility loops are the timed work.

All workloads use m=2 and tau=0.1: the library default tau=0.5 exceeds the
(m-1)/(m+1) Jaccard ceiling and yields an edgeless graph, so no noise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from nadp import cli
from nadp.calibration import PrivacyParams, g, solve_u_star
from nadp.components import build_partition
from nadp.embeddings import load_embeddings, save_embeddings
from nadp.graph import build_graph, knn, rank_queries
from nadp.mechanisms import Perturber, nadp_perturb
from nadp.privacy import privacy_report
from nadp.utility import (
    load_odd_man_dataset,
    load_sentence_pairs,
    load_similarity_dataset,
    odd_man_eval,
    sts_eval,
    word_similarity_eval,
)

from spans import Tracer

M = 2
TAU = 0.1
RELEASE_EPSILON = 5.0
PRECISION = 6
M_EVAL = 10
M_DENSITY = 10
KINDS = ("nadp", "gaussian", "laplacian", "mahalanobis", "jaccard")
# epsilon-major, so the first len(KINDS) cells cover every mechanism
SWEEP_CELLS = tuple((kind, eps) for eps in (1.0, 5.0, 10.0) for kind in KINDS)
SAMPLED_ROWS = 32
# the clean sets must be informative for the utility numbers to mean anything
BASELINE_FLOOR = {"word_similarity": 0.5, "sts": 0.5, "odd_man_out": 0.8}


def derived_seed(seed: int, *tags: int) -> int:
    """A 63-bit seed fixed by the run seed and `tags`; distinct leading tags
    keep the op-seed and sampling streams apart."""
    return int(np.random.default_rng([seed, *tags]).integers(0, 2**63 - 1))


def write_json(path: Path, obj: dict) -> None:
    """The layout the nadp CLI writes its JSON artifacts in."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def brute_topk(x: np.ndarray, query: np.ndarray, k: int, exclude: int) -> np.ndarray:
    """Indices of the k rows of x nearest to `query`, row `exclude` left out,
    from a full sort in (distance, index) order with direct differences."""
    dist = np.sqrt(((x - query) ** 2).sum(axis=1))
    dist[exclude] = np.inf
    return np.lexsort((np.arange(dist.size), dist))[:k]


def singleton_words(partition) -> int:
    return sum(size == 1 for size in partition.sizes())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``nadp.cli.main`` in this process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def compare_artifacts(mine: Path, theirs: Path, names: tuple[str, ...]) -> list[str]:
    return [
        f"CLI artifact {name} differs from the composed op's"
        for name in names
        if (mine / name).read_bytes() != (theirs / name).read_bytes()
    ]


class Workload:
    """Shared plumbing; subclasses define setup, op, check and cross_check."""

    name = ""
    # a timed loop ends on a multiple of `cycle` ops, after at least
    # `min_ops`: enough for a median that a single slow op does not set
    cycle = 1
    min_ops = 3
    # ops a traced run of another workload needs to cover this one's layers
    coverage_ops = 1

    def __init__(self, inputs: dict[str, Path], work: Path, seed: int, tracer: Tracer):
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.tr = tracer
        self.first: dict | None = None  # op kept for the cross-check and counts

    def setup(self) -> None:
        """One-off work before the first timed op."""

    def validate_setup(self) -> list[str]:
        return []

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int, res: dict) -> list[str]:
        raise NotImplementedError

    def replay(self) -> None:
        """Traced runs only: re-time calls an op makes inside another call."""

    def cross_check(self) -> list[str]:
        raise NotImplementedError

    def counts(self) -> dict:
        raise NotImplementedError

    def _load(self, key: str):
        path = self.inputs[key]
        with self.tr.span("embeddings.load_embeddings", bytes=path.stat().st_size) as s:
            emb = load_embeddings(path)
        s["n"] = emb.n
        return emb

    def _keep_first(self, res: dict, out: Path | None) -> None:
        """Keep the first op's result; delete a later op's artifacts."""
        if self.first is None:
            self.first = res
        elif out is not None:
            shutil.rmtree(out, ignore_errors=True)


class Release(Workload):
    name = "release"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.path = self.inputs["clean_10k.txt"]
        self._lines: list[bytes] | None = None

    def op(self, i: int) -> dict:
        tr = self.tr
        out = self.work / f"release-op{i}"
        out.mkdir(parents=True, exist_ok=True)
        emb = self._load("clean_10k.txt")
        with tr.span("graph.knn", n=emb.n, d=emb.d, m=M):
            ns = knn(emb, M)
        with tr.span("graph.build_graph", n=emb.n) as s:
            graph = build_graph(emb, M, TAU, neighbour_sets=ns)
        s["edges"] = len(graph.edges)
        with tr.span("components.build_partition", n=emb.n) as s:
            partition = build_partition(graph, emb)
        s["k"] = partition.k
        if tr.enabled:
            s["singleton_words"] = singleton_words(partition)
        params = PrivacyParams(epsilon=RELEASE_EPSILON, delta=1.0 / emb.n)
        seed = derived_seed(self.seed, 1, i)
        with tr.span("mechanisms.perturb.nadp", n=emb.n, fn="nadp_perturb") as s:
            perturbed, report = nadp_perturb(emb, partition, params, seed)
        s["zero_noise_words"] = report.zero_noise_words
        path = out / "perturbed.txt"
        with tr.span("embeddings.save_embeddings", n=emb.n) as s:
            save_embeddings(perturbed, path, precision=PRECISION)
        s["bytes"] = path.stat().st_size
        write_json(out / "perturb_report.json", report.to_dict())
        return {
            "emb": emb, "ns": ns, "graph": graph, "partition": partition,
            "params": params, "report": report, "out": out, "seed": seed,
        }

    def check(self, i: int, res: dict) -> list[str]:
        emb, report, partition = res["emb"], res["report"], res["partition"]
        params = res["params"]
        errs = []
        u = report.u_star
        eps, delta = params.epsilon, params.delta
        if not g(u, eps) <= delta < g(0.999 * u, eps):
            errs.append(f"u*={u!r} is not the tight root of g(u) <= delta")
        if not res["graph"].edges:
            errs.append("edgeless graph: the release adds no noise")
        if report.zero_noise_words >= emb.n:
            errs.append("every word has zero noise")
        out_path = res["out"] / "perturbed.txt"
        if load_embeddings(out_path).words != emb.words:
            errs.append("released file does not reload with the same vocabulary")
        zero = np.asarray(report.sigma_per_component)[partition.assignment] == 0.0
        if int(zero.sum()) != report.zero_noise_words:
            errs.append("zero-noise count disagrees with the per-component sigmas")
        if self._lines is None:
            self._lines = self.path.read_bytes().splitlines()
        out_lines = out_path.read_bytes().splitlines()
        if len(out_lines) != emb.n:
            errs.append(f"released file has {len(out_lines)} lines, not {emb.n}")
        else:
            same = np.array([a == b for a, b in zip(self._lines, out_lines)])
            if np.any(same != zero):
                errs.append(
                    f"{int((same != zero).sum())} lines break 'unchanged iff zero noise'"
                )
        rng = np.random.default_rng([self.seed, 2, i])
        x = emb.vectors
        for r in rng.choice(emb.n, SAMPLED_ROWS, replace=False):
            if not np.array_equal(brute_topk(x, x[r], M, r), res["ns"].indices[r]):
                errs.append(f"kNN row {r} differs from a brute-force full sort")
        if self.first is not None:
            ref = self.first
            same_counts = (
                len(res["graph"].edges) == len(ref["graph"].edges)
                and partition.k == ref["partition"].k
                and report.zero_noise_words == ref["report"].zero_noise_words
            )
            if not same_counts:
                errs.append("graph or partition counts changed between ops")
        self._keep_first(res, res["out"])
        return errs

    def replay(self) -> None:
        if self.first is None:
            return
        for _ in range(10):
            with self.tr.span("calibration.solve_u_star", replay=True):
                solve_u_star(self.first["params"])

    def cross_check(self) -> list[str]:
        if self.first is None:
            return ["no successful release op to cross-check"]
        out = self.work / "cli-perturb"
        argv = [
            "perturb", "--embeddings", str(self.path), "--out-dir", str(out),
            "--mechanism", "nadp", "--epsilon", repr(RELEASE_EPSILON),
            "--m", str(M), "--tau", repr(TAU), "--seed", str(self.first["seed"]),
            "--precision", str(PRECISION),
        ]
        with self.tr.span("cli.main", command="perturb"):
            code, text = run_cli(argv)
        if code != 0:
            return [f"nadp perturb exited {code}: {text.strip()}"]
        return compare_artifacts(
            self.first["out"], out, ("perturbed.txt", "perturb_report.json")
        )

    def counts(self) -> dict:
        ref = self.first
        return {
            "graph.edges": len(ref["graph"].edges),
            "components.k": ref["partition"].k,
            "components.singleton_words": singleton_words(ref["partition"]),
            "mechanisms.zero_noise_words": ref["report"].zero_noise_words,
            "output_sha256": sha256_file(ref["out"] / "perturbed.txt"),
        }


class Privacy(Workload):
    name = "privacy"

    def op(self, i: int) -> dict:
        out = self.work / f"privacy-op{i}"
        out.mkdir(parents=True, exist_ok=True)
        original = self._load("clean_5k.txt")
        perturbed = self._load("perturbed_5k.txt")
        with self.tr.span("privacy.privacy_report", n=original.n, m=M_EVAL):
            report = privacy_report(original, perturbed, m=M_EVAL)
        write_json(out / "privacy.json", report.to_dict(words=original.words))
        # the histogram CSV exactly as `nadp eval-privacy` writes it
        lines = ["bin_low,bin_high,count"]
        edges = np.linspace(0.0, 1.0, len(report.histogram) + 1)
        for b, count in enumerate(report.histogram):
            lines.append(f"{edges[b]:.2f},{edges[b + 1]:.2f},{int(count)}")
        (out / "privacy_histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"original": original, "perturbed": perturbed, "report": report, "out": out}

    def check(self, i: int, res: dict) -> list[str]:
        x = res["original"].vectors
        y = res["perturbed"].vectors
        probs = res["report"].probabilities
        errs = []
        rng = np.random.default_rng([self.seed, 3, i])
        for w in rng.choice(x.shape[0], SAMPLED_ROWS, replace=False):
            a = set(brute_topk(x, x[w], M_EVAL, w).tolist())
            b = set(brute_topk(x, y[w], M_EVAL, w).tolist())
            if len(a & b) / len(a | b) != probs[w]:
                errs.append(f"probability of word {w} differs from brute force")
        if self.first is not None and not np.array_equal(
            probs, self.first["report"].probabilities
        ):
            errs.append("privacy probabilities changed between identical ops")
        self._keep_first(res, res["out"])
        return errs

    def replay(self) -> None:
        if self.first is None:
            return
        original, perturbed = self.first["original"], self.first["perturbed"]
        k = min(M_EVAL, original.n - 1)
        self_idx = np.arange(original.n)
        # the two rankings privacy_report makes, timed on their own
        with self.tr.span("graph.rank_queries", replay=True, n=original.n, k=k):
            rank_queries(original, original.vectors, k, self_idx)
            rank_queries(original, perturbed.vectors, k, self_idx)

    def cross_check(self) -> list[str]:
        if self.first is None:
            return ["no successful privacy op to cross-check"]
        out = self.work / "cli-eval-privacy"
        argv = [
            "eval-privacy", "--embeddings", str(self.inputs["clean_5k.txt"]),
            "--perturbed", str(self.inputs["perturbed_5k.txt"]),
            "--m-eval", str(M_EVAL), "--out-dir", str(out),
        ]
        with self.tr.span("cli.main", command="eval-privacy"):
            code, text = run_cli(argv)
        if code != 0:
            return [f"nadp eval-privacy exited {code}: {text.strip()}"]
        return compare_artifacts(
            self.first["out"], out, ("privacy.json", "privacy_histogram.csv")
        )

    def counts(self) -> dict:
        return {"output_sha256": sha256_file(self.first["out"] / "privacy.json")}


def _scores(emb, datasets) -> dict[str, object]:
    """The three utility results, named as nadp's utility suite names them."""
    wordsim, sts, oddman = datasets
    return {
        "word_similarity": word_similarity_eval(emb, wordsim),
        "sts": sts_eval(emb, sts),
        "odd_man_out": odd_man_eval(emb, oddman),
    }


def _headline(scores: dict) -> dict[str, float]:
    return {
        "word_similarity": scores["word_similarity"].spearman,
        "sts": scores["sts"].combined,
        "odd_man_out": scores["odd_man_out"].accuracy,
    }


class Sweep(Workload):
    name = "sweep"
    cycle = len(SWEEP_CELLS)
    min_ops = len(SWEEP_CELLS)
    coverage_ops = len(KINDS)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.path = self.inputs["clean_10k.txt"]
        self.perturber: Perturber | None = None
        self._digest = hashlib.sha256()
        self._checked = 0
        self._zero_noise: int | None = None

    def setup(self) -> None:
        emb = self._load("clean_10k.txt")
        self.datasets = (
            load_similarity_dataset(self.inputs["wordsim.tsv"]),
            load_sentence_pairs(self.inputs["sts.tsv"]),
            load_odd_man_dataset(self.inputs["oddman.tsv"]),
        )
        perturber = Perturber(
            emb, delta=1.0 / emb.n, m=M, tau=TAU, m_density=M_DENSITY, strict=False
        )
        with self.tr.span("mechanisms.Perturber.partition", n=emb.n):
            perturber.partition
        with self.tr.span("mechanisms.Perturber.density_sets", n=emb.n, m=M_DENSITY):
            perturber.density_sets
        self.emb, self.perturber = emb, perturber

    def validate_setup(self) -> list[str]:
        base = _headline(_scores(self.emb, self.datasets))
        self.baseline = base
        return [
            f"no-noise {task} score {base[task]!r} is below {floor}: "
            "the synthetic dataset is not informative"
            for task, floor in BASELINE_FLOOR.items()
            if not base[task] > floor
        ]

    def op(self, i: int) -> dict:
        tr = self.tr
        kind, eps = SWEEP_CELLS[i % len(SWEEP_CELLS)]
        seed = derived_seed(self.seed, 4, i)
        with tr.span(
            f"mechanisms.perturb.{kind}", n=self.emb.n, fn="Perturber.perturb", epsilon=eps
        ) as s:
            perturbed, report = self.perturber.perturb(kind, eps, seed)
        s["zero_noise_words"] = report.zero_noise_words
        wordsim, sts, oddman = self.datasets
        with tr.span("utility.word_similarity_eval"):
            ws = word_similarity_eval(perturbed, wordsim)
        with tr.span("utility.sts_eval"):
            st = sts_eval(perturbed, sts)
        with tr.span("utility.odd_man_eval"):
            om = odd_man_eval(perturbed, oddman)
        return {
            "kind": kind, "eps": eps, "seed": seed, "perturbed": perturbed,
            "report": report,
            "scores": {"word_similarity": ws, "sts": st, "odd_man_out": om},
        }

    def check(self, i: int, res: dict) -> list[str]:
        errs = []
        ws, st, om = (res["scores"][t] for t in ("word_similarity", "sts", "odd_man_out"))
        if not math.isfinite(ws.spearman):
            errs.append(f"word-similarity score {ws.spearman!r} is not finite")
        if not math.isfinite(om.accuracy):
            errs.append(f"odd-man score {om.accuracy!r} is not finite")
        # sts_eval documents NaN exactly when Spearman and Pearson disagree in sign
        if not (math.isfinite(st.combined) or st.spearman * st.pearson < 0.0):
            errs.append(f"STS score {st.combined!r} is NaN without a sign disagreement")
        report = res["report"]
        if res["kind"] == "nadp":
            if report.zero_noise_words >= self.emb.n:
                errs.append("nadp cell left every word unperturbed")
            if self._zero_noise is None:
                self._zero_noise = report.zero_noise_words
            elif report.zero_noise_words != self._zero_noise:
                errs.append("nadp zero-noise count changed between cells")
        if self._checked < len(SWEEP_CELLS):
            self._digest.update(res["perturbed"].vectors.tobytes())
        self._checked += 1
        res.pop("perturbed")
        self._keep_first(res, None)
        return errs

    def cross_check(self) -> list[str]:
        """`nadp eval-utility` for the first cell's mechanism, epsilon and
        seed must report the composed op's scores and the no-noise baseline."""
        if self.first is None:
            return ["no successful sweep op to cross-check"]
        first = self.first
        out = self.work / "cli-eval-utility"
        argv = [
            "eval-utility", "--embeddings", str(self.path),
            "--wordsim", str(self.inputs["wordsim.tsv"]),
            "--sts", str(self.inputs["sts.tsv"]),
            "--oddman", str(self.inputs["oddman.tsv"]),
            "--m", str(M), "--tau", repr(TAU), "--m-density", str(M_DENSITY),
            "--mechanisms", first["kind"], "--epsilons", repr(first["eps"]),
            "--seeds", str(first["seed"]), "--allow-unproven-epsilon",
            "--out-dir", str(out),
        ]
        with self.tr.span("cli.main", command="eval-utility"):
            code, text = run_cli(argv)
        if code != 0:
            return [f"nadp eval-utility exited {code}: {text.strip()}"]
        rows = json.loads((out / "utility.json").read_text(encoding="utf-8"))["rows"]
        expected = {("none", t): v for t, v in self.baseline.items()}
        expected.update(
            {(first["kind"], t): v for t, v in _headline(first["scores"]).items()}
        )
        got = {(r["mechanism"], r["task"]): r["values"] for r in rows}
        errs = []
        for key, value in expected.items():
            cli_values = got.get(key)
            same = cli_values is not None and len(cli_values) == 1 and (
                cli_values[0] == value or (math.isnan(cli_values[0]) and math.isnan(value))
            )
            if not same:
                errs.append(f"eval-utility {key} gave {cli_values}, composed op {value!r}")
        return errs

    def counts(self) -> dict:
        partition = self.perturber.partition
        return {
            "components.k": partition.k,
            "components.singleton_words": singleton_words(partition),
            "mechanisms.zero_noise_words": self._zero_noise,
            "output_sha256": self._digest.hexdigest(),
        }


WORKLOADS = {w.name: w for w in (Release, Privacy, Sweep)}
