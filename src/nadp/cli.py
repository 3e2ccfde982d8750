"""Command-line pipeline: graph, components, calibrate, perturb,
eval-privacy, eval-utility, neighbours.

Every command writes its artifact files plus a manifest recording the
resolved parameters, input file hashes, the seed, and the tool version, so
any run can be replayed exactly with ``--config <manifest>``. Outputs carry
no timestamps: a command is a pure function of its files, flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    PrivacyParams,
    calibrate_components,
    classic_gaussian_sigma,
)
from .components import build_partition, partition_report
from .embeddings import EmbeddingSet, check_precision, load_embeddings, save_embeddings
from .graph import DEFAULT_M, DEFAULT_TAU, build_graph, graph_report, rank_queries
from .mechanisms import (
    DEFAULT_ALPHA1,
    DEFAULT_ALPHA2,
    DEFAULT_ETA0,
    DEFAULT_LAMBDA,
    DEFAULT_M_DENSITY,
    MECHANISM_KINDS,
    Perturber,
)
from .privacy import DEFAULT_EVAL_M, privacy_report
from .utility import (
    UtilityDatasets,
    load_odd_man_dataset,
    load_sentence_pairs,
    load_similarity_dataset,
    suite_rows_to_csv,
    utility_suite,
)

_DEFAULTS = {
    "limit": None,
    "vocab_file": None,
    "m": DEFAULT_M,
    "tau": DEFAULT_TAU,
    "m_eval": DEFAULT_EVAL_M,
    "m_density": DEFAULT_M_DENSITY,
    "epsilon": None,
    "epsilons": None,
    "delta": None,
    "seed": None,
    "seeds": None,
    "repeats": 5,
    "lambda_": DEFAULT_LAMBDA,
    "eta0": DEFAULT_ETA0,
    "alpha1": DEFAULT_ALPHA1,
    "alpha2": DEFAULT_ALPHA2,
    "allow_unproven_epsilon": False,
    "precision": 6,
    "k": 3,
    "mechanism": None,
    "mechanisms": None,
    "embeddings": None,
    "perturbed": None,
    "wordsim": None,
    "sts": None,
    "oddman": None,
    "words": None,
    "output": "perturbed.txt",
    "report": None,
}


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _resolve_params(args: argparse.Namespace) -> dict:
    """Merge defaults, an optional --config manifest, and explicit flags.

    Flags given on the command line (non-None after parsing) win over the
    manifest, which wins over the built-in defaults.
    """
    params = dict(_DEFAULTS)
    if args.config is not None:
        manifest = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if manifest.get("command") != args.command:
            raise ValueError(
                f"manifest {args.config} was written by "
                f"{manifest.get('command')!r}, not {args.command!r}"
            )
        params.update(manifest["parameters"])
    for key, value in vars(args).items():
        if key in ("command", "config", "out_dir", "func"):
            continue
        if value is not None:
            params[key] = value
    return params


def _load_set(params: dict, key: str = "embeddings") -> EmbeddingSet:
    path = params.get(key)
    if path is None:
        raise ValueError(f"--{key.replace('_', '-')} is required")
    word_filter = None
    if key == "embeddings" and params.get("vocab_file"):
        with open(params["vocab_file"], "r", encoding="utf-8") as fh:
            word_filter = {line.strip() for line in fh if line.strip()}
    limit = params["limit"] if key == "embeddings" else None
    return load_embeddings(path, limit=limit, word_filter=word_filter)


def _resolve_delta(params: dict, n: int) -> float:
    # default delta is 1/n of the loaded vocabulary; recorded for replay
    if params["delta"] is None:
        params["delta"] = 1.0 / n
    return params["delta"]


def _resolve_seed(params: dict) -> int:
    if params["seed"] is None:
        params["seed"] = secrets.randbits(63)
    return int(params["seed"])


def _input_hashes(params: dict) -> dict[str, str]:
    hashes = {}
    for key in ("embeddings", "perturbed", "vocab_file", "wordsim", "sts", "oddman"):
        path = params.get(key)
        if path is not None:
            hashes[str(path)] = _sha256(path)
    return hashes


def _perturber(params: dict, emb: EmbeddingSet) -> Perturber:
    return Perturber(
        emb,
        delta=_resolve_delta(params, emb.n),
        m=params["m"],
        tau=params["tau"],
        lambda_=params["lambda_"],
        eta0=params["eta0"],
        alpha1=params["alpha1"],
        alpha2=params["alpha2"],
        m_density=params["m_density"],
        strict=not params["allow_unproven_epsilon"],
    )


def cmd_graph(params: dict, out_dir: Path) -> list[str]:
    emb = _load_set(params)
    graph = build_graph(emb, params["m"], params["tau"])
    _write_json(out_dir / "graph.json", graph_report(graph, emb))
    print(f"graph: n={graph.n} edges={len(graph.edges)} m={graph.m} tau={graph.tau}")
    return ["graph.json"]


def cmd_components(params: dict, out_dir: Path) -> list[str]:
    emb = _load_set(params)
    graph = build_graph(emb, params["m"], params["tau"])
    partition = build_partition(graph, emb)
    report = partition_report(partition, graph, emb)
    _write_json(out_dir / "components.json", report)
    print(
        f"components: k={partition.k} "
        f"global_sensitivity={partition.global_sensitivity:.6g} "
        f"max_hop_diameter={report['max_hop_diameter']}"
    )
    return ["components.json"]


def cmd_calibrate(params: dict, out_dir: Path) -> list[str]:
    if params["epsilon"] is None:
        raise ValueError("--epsilon is required")
    emb = _load_set(params)
    delta = _resolve_delta(params, emb.n)
    graph = build_graph(emb, params["m"], params["tau"])
    partition = build_partition(graph, emb)
    privacy = PrivacyParams(epsilon=params["epsilon"], delta=delta)
    calib = calibrate_components(partition.local_sensitivities, privacy)
    try:
        classic = classic_gaussian_sigma(
            params["epsilon"], delta, partition.global_sensitivity
        )
    except ValueError:
        classic = None  # closed form undefined outside epsilon in (0, 1)
    report = {
        "epsilon": params["epsilon"],
        "delta": delta,
        "u_star": calib.u_star,
        "global_sensitivity": partition.global_sensitivity,
        "max_sigma": calib.u_star * partition.global_sensitivity,
        "classic_sigma": classic,
        "per_component": [
            {
                "id": cid,
                "size": len(comp),
                "local_sensitivity": float(partition.local_sensitivities[cid]),
                "sigma": float(calib.sigma_per_component[cid]),
            }
            for cid, comp in enumerate(partition.components)
        ],
    }
    _write_json(out_dir / "calibration.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return ["calibration.json"]


def cmd_perturb(params: dict, out_dir: Path) -> list[str]:
    # every argument check comes before the load and the mechanism
    check_precision(params["precision"])
    if params["mechanism"] is None:
        raise ValueError(f"--mechanism is required (one of {MECHANISM_KINDS})")
    if params["epsilon"] is None:
        raise ValueError("--epsilon is required")
    emb = _load_set(params)
    seed = _resolve_seed(params)
    perturbed, report = _perturber(params, emb).perturb(
        params["mechanism"], params["epsilon"], seed
    )
    out_name = params["output"]
    save_embeddings(perturbed, out_dir / out_name, precision=params["precision"])
    report_name = params["report"] or "perturb_report.json"
    _write_json(out_dir / report_name, report.to_dict())
    print(
        f"perturb: mechanism={report.kind} epsilon={report.epsilon} "
        f"seed={report.seed} zero_noise_words={report.zero_noise_words}"
    )
    if report.zero_noise_words == emb.n:
        print(
            "warning: every word has zero noise; the released file equals the input",
            file=sys.stderr,
        )
    return [out_name, report_name]


def cmd_eval_privacy(params: dict, out_dir: Path) -> list[str]:
    original = _load_set(params)
    perturbed = _load_set(params, key="perturbed")
    report = privacy_report(original, perturbed, m=params["m_eval"])
    _write_json(out_dir / "privacy.json", report.to_dict(words=original.words))
    hist_lines = ["bin_low,bin_high,count"]
    edges = np.linspace(0.0, 1.0, len(report.histogram) + 1)
    for i, count in enumerate(report.histogram):
        hist_lines.append(f"{edges[i]:.2f},{edges[i + 1]:.2f},{int(count)}")
    (out_dir / "privacy_histogram.csv").write_text(
        "\n".join(hist_lines) + "\n", encoding="utf-8"
    )
    print(
        f"privacy: mean={report.mean:.4f} skewness={report.skewness:.4f}"
        f"{' (degenerate)' if report.degenerate else ''}"
    )
    return ["privacy.json", "privacy_histogram.csv"]


def _parse_list(value, cast):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [cast(v) for v in value]
    return [cast(v) for v in str(value).split(",") if v != ""]


def cmd_eval_utility(params: dict, out_dir: Path) -> list[str]:
    emb = _load_set(params)
    datasets = UtilityDatasets(
        word_similarity=(
            load_similarity_dataset(params["wordsim"]) if params["wordsim"] else None
        ),
        sts=load_sentence_pairs(params["sts"]) if params["sts"] else None,
        odd_man=load_odd_man_dataset(params["oddman"]) if params["oddman"] else None,
    )
    if (
        datasets.word_similarity is None
        and datasets.sts is None
        and datasets.odd_man is None
    ):
        raise ValueError("at least one of --wordsim/--sts/--oddman is required")
    mechanisms = _parse_list(params["mechanisms"], str) or ["nadp"]
    epsilons = _parse_list(params["epsilons"], float)
    if not epsilons:
        raise ValueError("--epsilons is required (comma-separated list)")
    seeds = _parse_list(params["seeds"], int)
    if seeds is None:
        base = _resolve_seed(params)
        seeds = [base + i for i in range(params["repeats"])]
    params["seeds"] = seeds
    perturber = _perturber(params, emb)
    rows = utility_suite(
        emb,
        datasets,
        lambda kind, eps, seed: perturber.perturb(kind, eps, seed)[0],
        mechanisms,
        epsilons,
        seeds,
    )
    (out_dir / "utility.csv").write_text(suite_rows_to_csv(rows), encoding="utf-8")
    _write_json(
        out_dir / "utility.json",
        {
            "rows": [
                {
                    "mechanism": r.mechanism,
                    "epsilon": r.epsilon,
                    "task": r.task,
                    "mean": r.mean,
                    "stderr": r.stderr,
                    "repeats": r.repeats,
                    "values": list(r.values),
                }
                for r in rows
            ]
        },
    )
    for r in rows:
        eps = "baseline" if r.epsilon is None else f"eps={r.epsilon:g}"
        err = "" if r.stderr is None else f" +- {r.stderr:.4f}"
        print(f"utility: {r.mechanism:12s} {eps:14s} {r.task:16s} {r.mean:.4f}{err}")
    return ["utility.csv", "utility.json"]


def cmd_neighbours(params: dict, out_dir: Path) -> list[str]:
    original = _load_set(params)
    perturbed = _load_set(params, key="perturbed")
    if original.words != perturbed.words:
        raise ValueError("original and perturbed vocabularies do not match")
    words = _parse_list(params["words"], str)
    if not words:
        raise ValueError("--words is required (comma-separated list)")
    k = params["k"]
    found = []
    for word in words:
        if word not in original:
            print(f"warning: {word!r} not in vocabulary, skipped", file=sys.stderr)
            continue
        found.append(word)
    rows = []
    if found:
        idx = np.array([original.index_of(w) for w in found], dtype=np.int64)
        clean_idx, _ = rank_queries(
            original, original.vectors[idx], min(k, original.n - 1), idx
        )
        # the perturbed query ranks the full vocabulary, the word included:
        # retrieving the word's clean vector is the leak being checked for,
        # whether through the word itself or through an exact duplicate that
        # the (distance, index) order ranks ahead of it
        pert_idx, _ = rank_queries(original, perturbed.vectors[idx], min(k, original.n))
        same_vector = original.vectors[pert_idx] == original.vectors[idx, None]
        leaks = same_vector.all(axis=2).any(axis=1)
        for word, clean_row, pert_row, leak in zip(found, clean_idx, pert_idx, leaks):
            rows.append(
                {
                    "word": word,
                    "clean_neighbours": [original.words[j] for j in clean_row],
                    "perturbed_neighbours": [original.words[j] for j in pert_row],
                    "leak": bool(leak),
                }
            )
    _write_json(out_dir / "neighbours.json", {"k": k, "rows": rows})
    width = max((len(r["word"]) for r in rows), default=4)
    print(f"{'word':{width}s} | clean | perturbed | leak")
    for r in rows:
        print(
            f"{r['word']:{width}s} | {', '.join(r['clean_neighbours'])} | "
            f"{', '.join(r['perturbed_neighbours'])} | "
            f"{'LEAK' if r['leak'] else 'ok'}"
        )
    return ["neighbours.json"]


_COMMANDS = {
    "graph": cmd_graph,
    "components": cmd_components,
    "calibrate": cmd_calibrate,
    "perturb": cmd_perturb,
    "eval-privacy": cmd_eval_privacy,
    "eval-utility": cmd_eval_utility,
    "neighbours": cmd_neighbours,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="manifest file to replay parameters from")
    p.add_argument("--out-dir", default=".", help="directory for artifacts")
    p.add_argument("--embeddings", help="embedding text file")
    p.add_argument("--limit", type=int, help="keep only the first N words")
    p.add_argument("--vocab-file", dest="vocab_file", help="token allowlist file")


def _add_graph_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="neighbourhood size (default 2)")
    p.add_argument("--tau", type=float, help="Jaccard threshold (default 0.5)")


def _add_mechanism_params(p: argparse.ArgumentParser) -> None:
    _add_graph_params(p)
    p.add_argument("--delta", type=float, help="default: 1/n of the vocabulary")
    p.add_argument("--lambda", dest="lambda_", type=float, help="covariance blend")
    p.add_argument("--eta0", type=float, help="density split threshold")
    p.add_argument("--alpha1", type=float, help="dense-category scale constant")
    p.add_argument("--alpha2", type=float, help="sparse-category scale constant")
    p.add_argument("--m-density", dest="m_density", type=int)
    p.add_argument(
        "--allow-unproven-epsilon",
        action="store_const",
        const=True,
        default=None,
        help="run closed-form mechanisms outside their proven epsilon range",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nadp",
        description="Neighbourhood-aware differential privacy for word embeddings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build the nearest-neighbour graph")
    _add_common(p)
    _add_graph_params(p)

    p = sub.add_parser("components", help="factorise the graph into neighbourhoods")
    _add_common(p)
    _add_graph_params(p)

    p = sub.add_parser("calibrate", help="solve the minimal noise multiplier")
    _add_common(p)
    _add_graph_params(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float, help="default: 1/n of the vocabulary")

    p = sub.add_parser("perturb", help="apply a DP mechanism to the embeddings")
    _add_common(p)
    _add_mechanism_params(p)
    p.add_argument("--mechanism", choices=MECHANISM_KINDS)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int, help="drawn and recorded when absent")
    p.add_argument("--output", help="perturbed embedding file name")
    p.add_argument("--report", help="report file name")
    p.add_argument("--precision", type=int, help="decimal places written")

    p = sub.add_parser("eval-privacy", help="neighbour-overlap privacy report")
    _add_common(p)
    p.add_argument("--perturbed", help="perturbed embedding text file")
    p.add_argument("--m-eval", dest="m_eval", type=int, help="evaluation m (default 10)")

    p = sub.add_parser("eval-utility", help="utility sweep over mechanisms")
    _add_common(p)
    _add_mechanism_params(p)
    p.add_argument("--wordsim", help="word-pair similarity TSV")
    p.add_argument("--sts", help="sentence-pair TSV")
    p.add_argument("--oddman", help="odd-man-out TSV")
    p.add_argument("--mechanisms", help="comma-separated mechanism list")
    p.add_argument("--epsilons", help="comma-separated epsilon grid")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--repeats", type=int, help="seeds drawn when --seeds absent")
    p.add_argument("--seed", type=int, help="base seed for --repeats")

    p = sub.add_parser("neighbours", help="inspect clean vs perturbed neighbours")
    _add_common(p)
    p.add_argument("--perturbed", help="perturbed embedding text file")
    p.add_argument("--words", help="comma-separated query words")
    p.add_argument("-k", type=int, help="neighbours listed per word (default 3)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _COMMANDS[args.command](params, out_dir)
        manifest = {
            "command": args.command,
            "version": __version__,
            "parameters": params,
            "inputs": _input_hashes(params),
            "outputs": outputs,
        }
        name = args.command.replace("-", "_") + "_manifest.json"
        _write_json(out_dir / name, manifest)
        return 0
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
